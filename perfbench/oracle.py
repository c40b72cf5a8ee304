"""The benchmark's own RangeReach oracle: a BFS over a private edge list.

Nothing here imports the program.  :class:`Mirror` keeps its own copy
of the adjacency and of the venue points, takes every write a workload
sends, and answers ``reaches(v, region)`` by breadth-first search.

A plain BFS per read costs a full traversal whenever the answer is
negative, which at benchmark scale is tens of milliseconds.  The mirror
therefore keeps one strongly connected *core* (the SCC of a high
out-degree hub: forward ∩ backward closure of the hub) together with the
forward closure of that core and the closure's venues sorted by x.  A
read's BFS stops expanding at core vertices; if it touched the core, the
answer also holds when any venue of the closure lies in the region.
This is exact: every path from the source either avoids the core (and
is explored) or enters it, after which everything the core reaches is
reachable.  Added edges keep the core strongly connected and extend the
closure incrementally; a removed edge invalidates both, and they are
recomputed before the next read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque


class Mirror:
    """Independent copy of a geosocial network with a BFS oracle.

    Args:
        num_vertices: vertex count; ids are ``0 .. num_vertices - 1``.
        edges: directed ``(source, target)`` pairs.
        points: per-vertex ``(x, y)`` for venues, ``None`` for users.
    """

    def __init__(self, num_vertices, edges, points) -> None:
        self.succ: list[set[int]] = [set() for _ in range(num_vertices)]
        self.pred: list[set[int]] = [set() for _ in range(num_vertices)]
        for source, target in edges:
            self.succ[source].add(target)
            self.pred[target].add(source)
        self.points = list(points)
        self._stale = True

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def has_edge(self, source: int, target: int) -> bool:
        return target in self.succ[source]

    def add_edge(self, source: int, target: int) -> bool:
        if source == target or target in self.succ[source]:
            return False
        self.succ[source].add(target)
        self.pred[target].add(source)
        if not self._stale and self._closure[source]:
            self._extend_closure(target)
        return True

    def remove_edge(self, source: int, target: int) -> None:
        self.succ[source].remove(target)
        self.pred[target].remove(source)
        self._stale = True

    # ------------------------------------------------------------------
    # Core and closure
    # ------------------------------------------------------------------
    def _sweep(self, start: int, adjacency) -> bytearray:
        seen = bytearray(len(adjacency))
        seen[start] = 1
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
        return seen

    def _rebuild(self) -> None:
        succ = self.succ
        hub = max(range(len(succ)), key=lambda v: len(succ[v]))
        forward = self._sweep(hub, succ)
        backward = self._sweep(hub, self.pred)
        self._core = bytes(f & b for f, b in zip(forward, backward))
        self._closure = forward
        points = self.points
        venues = sorted(
            (points[v][0], points[v][1])
            for v in range(len(succ))
            if forward[v] and points[v] is not None
        )
        self._xs = [x for x, _ in venues]
        self._ys = [y for _, y in venues]
        self._stale = False

    def _extend_closure(self, start: int) -> None:
        closure = self._closure
        if closure[start]:
            return
        closure[start] = 1
        stack = [start]
        points = self.points
        while stack:
            v = stack.pop()
            if points[v] is not None:
                x, y = points[v]
                i = bisect_right(self._xs, x)
                self._xs.insert(i, x)
                self._ys.insert(i, y)
            for w in self.succ[v]:
                if not closure[w]:
                    closure[w] = 1
                    stack.append(w)

    def _closure_hits(self, region) -> bool:
        xlo, ylo, xhi, yhi = region
        xs, ys = self._xs, self._ys
        for i in range(bisect_left(xs, xlo), bisect_right(xs, xhi)):
            if ylo <= ys[i] <= yhi:
                return True
        return False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def reaches(self, vertex: int, region) -> bool:
        """Is there a path from ``vertex`` to a venue inside ``region``?

        ``region`` is ``(xlo, ylo, xhi, yhi)``, closed on every side.  A
        venue counts as reaching itself.
        """
        if self._stale:
            self._rebuild()
        xlo, ylo, xhi, yhi = region
        points, succ, core = self.points, self.succ, self._core
        seen = {vertex}
        queue = deque([vertex])
        touched_core = False
        while queue:
            v = queue.popleft()
            p = points[v]
            if p is not None and xlo <= p[0] <= xhi and ylo <= p[1] <= yhi:
                return True
            if core[v]:
                touched_core = True
                continue
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return touched_core and self._closure_hits(region)

    def venues_in(self, region) -> int:
        """How many venues (reachable or not) lie inside ``region``."""
        xlo, ylo, xhi, yhi = region
        return sum(
            1
            for p in self.points
            if p is not None and xlo <= p[0] <= xhi and ylo <= p[1] <= yhi
        )

