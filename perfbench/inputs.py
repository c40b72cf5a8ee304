"""Inputs: the frozen network, the query regions and the op streams.

The network is generated once per scale from a fixed generator seed, so
set-up time and index size compare across runs.  The query sets, read
pools, batches and writes are frozen too (each from its own fixed seed);
the run's ``--seed`` sets the order of the single reads.  On this
benchmark's workloads the cost of one read varies 100-fold with its
region and user, and a sharded read after a write up to 25-fold with the
edge written, so seeded contents spread a run's figures by more than the
bounds.  The query mix follows the paper: region extents of 1, 2, 5, 10
and 20 % of the space, small-selectivity regions holding 0.001 to 1 % of
the venues, and query users from five out-degree buckets (the repo's
scaled buckets, see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from oracle import Mirror

PROFILE = "foursquare"
NETWORK_SEED = 7
EXTENTS_PCT = (1.0, 2.0, 5.0, 10.0, 20.0)
SELECTIVITIES_PCT = (0.001, 0.01, 0.1, 1.0)
DEGREE_BUCKETS = ((1, 4), (5, 9), (10, 14), (15, 19), (20, 10**9))
REGION_CLASSES = tuple(("extent", e) for e in EXTENTS_PCT) + tuple(
    ("selectivity", s) for s in SELECTIVITIES_PCT
)


@dataclass
class NetworkCopy:
    """The program's network plus the benchmark's private copy of it."""

    network: object
    num_vertices: int
    edges: list
    points: list
    users: list
    venues: list

    def mirror(self) -> Mirror:
        return Mirror(self.num_vertices, self.edges, self.points)


def load_network(scale: float) -> NetworkCopy:
    from repro.datasets import make_network

    network = make_network(PROFILE, scale=scale, seed=NETWORK_SEED)
    n = network.num_vertices
    points = [
        (network.point_of(v).x, network.point_of(v).y)
        if network.is_spatial(v)
        else None
        for v in range(n)
    ]
    return NetworkCopy(
        network=network,
        num_vertices=n,
        edges=list(network.graph.edges()),
        points=points,
        users=[v for v in range(n) if points[v] is None],
        venues=[v for v in range(n) if points[v] is not None],
    )


class Regions:
    """Query regions of the paper's extents and selectivities."""

    def __init__(self, copy: NetworkCopy, rng: random.Random) -> None:
        self._rng = rng
        self._venue_xy = [copy.points[v] for v in copy.venues]
        xs = [x for x, _ in self._venue_xy]
        ys = [y for _, y in self._venue_xy]
        self.space = (min(xs), min(ys), max(xs), max(ys))

    def make(self, kind: str, value: float) -> tuple:
        return self.extent(value) if kind == "extent" else self.selectivity(value)

    def extent(self, pct: float) -> tuple:
        """A square covering ``pct`` % of the space, centred uniformly."""
        xlo, ylo, xhi, yhi = self.space
        side = math.sqrt(pct / 100.0)
        w, h = (xhi - xlo) * side, (yhi - ylo) * side
        x = xlo + self._rng.random() * (xhi - xlo - w)
        y = ylo + self._rng.random() * (yhi - ylo - h)
        return (x, y, x + w, y + h)

    def selectivity(self, pct: float) -> tuple:
        """The smallest square around a random venue holding ``pct`` % of
        the venues (at least one)."""
        cx, cy = self._rng.choice(self._venue_xy)
        k = max(1, round(len(self._venue_xy) * pct / 100.0))
        radius = sorted(
            max(abs(x - cx), abs(y - cy)) for x, y in self._venue_xy
        )[k - 1]
        return (cx - radius, cy - radius, cx + radius, cy + radius)


def degree_buckets(copy: NetworkCopy) -> list[list[int]]:
    """Users grouped by out-degree into :data:`DEGREE_BUCKETS`."""
    degree = [0] * copy.num_vertices
    for source, _ in copy.edges:
        degree[source] += 1
    return [
        [u for u in copy.users if lo <= degree[u] <= hi]
        for lo, hi in DEGREE_BUCKETS
    ]


def paper_query_set(
    copy: NetworkCopy,
    mirror: Mirror,
    rng: random.Random,
    per_class: int,
    negative_slots: int,
    tries: int = 12,
):
    """A query set for ``paper_methods`` with oracle answers.

    ``per_class`` queries for each of the nine region classes; the query
    users cycle over the five degree buckets.  The first
    ``negative_slots`` queries of each class look for a *no* answer, the
    rest for a *yes*: each slot draws a region, then up to ``tries``
    users for it, and redraws the region up to ``tries`` times.  So the
    set keeps negatives even in the large extents, where nearly every
    region is reachable; a slot that finds no wanted answer keeps its
    last draw.

    Returns ``(queries, truths)``.
    """
    regions = Regions(copy, rng)
    buckets = [b for b in degree_buckets(copy) if b]
    queries, truths = [], []
    for kind, value in REGION_CLASSES:
        for slot in range(per_class):
            want = slot >= negative_slots
            bucket = buckets[len(queries) % len(buckets)]
            for _ in range(tries):
                region = regions.make(kind, value)
                for _ in range(tries):
                    query = (rng.choice(bucket), region)
                    truth = mirror.reaches(*query)
                    if truth == want:
                        break
                if truth == want:
                    break
            queries.append(query)
            truths.append(truth)
    return queries, truths


# ----------------------------------------------------------------------
# Mixed read/write streams
# ----------------------------------------------------------------------
#: Round-pattern letters and the op each stands for.
OP_KINDS = {
    "S": "read", "B": "batch", "F": "add_follow", "C": "add_checkin",
    "f": "remove_follow", "c": "remove_checkin",
}


@dataclass(frozen=True)
class Mix:
    """One round of a mixed workload as a fixed pattern of op kinds.

    The pattern fixes how many reads, batches, additions and removals of
    each edge kind a round holds and where they sit, so the share of
    removals, and of the reads that wait for the rebuild a removal
    forces, is the same in every round and every run; the seed draws
    each op's contents.
    """

    pattern: str
    batch_size: int

    def count(self, letters: str) -> int:
        return sum(self.pattern.count(letter) for letter in letters)


class _EdgePool:
    """A set of edges with O(1) insert, delete and uniform choice."""

    def __init__(self, edges) -> None:
        self._edges = list(edges)
        self._index = {edge: i for i, edge in enumerate(self._edges)}

    def __contains__(self, edge) -> bool:
        return edge in self._index

    def add(self, edge) -> None:
        self._index[edge] = len(self._edges)
        self._edges.append(edge)

    def pop_random(self, rng: random.Random) -> tuple:
        edges = self._edges
        i = rng.randrange(len(edges))
        edge, last = edges[i], edges.pop()
        if i < len(edges):
            edges[i] = last
            self._index[last] = i
        del self._index[edge]
        return edge


def read_pool(copy: NetworkCopy, per_class: int, seed: int) -> list[tuple]:
    """A frozen pool of reads: ``per_class`` per region class, users
    taken from the degree buckets in turn, drawn from ``seed``."""
    rng = random.Random(seed)
    regions = Regions(copy, rng)
    buckets = [b for b in degree_buckets(copy) if b]
    return [
        (rng.choice(buckets[i % len(buckets)]), regions.make(kind, value))
        for kind, value in REGION_CLASSES
        for i in range(per_class)
    ]


class OpStream:
    """Seeded stream of reads and writes that stay valid as state moves.

    Single reads cycle through ``pool`` (a frozen read set, see
    :func:`read_pool`) in a frozen order, starting where ``rng`` says.
    Batches, writes and the read right after each write (the one that
    pays for the write) are drawn from their own generator seeded with
    ``frozen_seed``: every run sends the same ones in the same round
    slots.  The
    stream tracks the current follow and check-in edges itself, so
    removals always name an existing edge and additions a missing one.
    """

    def __init__(self, copy: NetworkCopy, mix: Mix, rng: random.Random,
                 pool: list[tuple], frozen_seed: int) -> None:
        self._rng = rng
        self._frozen_rng = random.Random(frozen_seed)
        self._mix = mix
        self._users = copy.users
        self._venues = copy.venues
        spatial = [p is not None for p in copy.points]
        self._edges = {
            "follow": _EdgePool(e for e in copy.edges if not spatial[e[1]]),
            "checkin": _EdgePool(e for e in copy.edges if spatial[e[1]]),
        }
        self._pool = list(pool)
        self._frozen_rng.shuffle(self._pool)
        self._next = rng.randrange(len(self._pool))
        self._after_write = False

    def _query(self) -> tuple:
        if self._after_write:
            self._after_write = False
            return self._frozen_rng.choice(self._pool)
        query = self._pool[self._next]
        self._next = (self._next + 1) % len(self._pool)
        return query

    def next_op(self, kind: str) -> tuple:
        """One op of ``kind``: ``("read", v, region)``, ``("batch",
        [(v, region), ...])`` or ``(write method, a, b)`` named as in the
        /v1 write envelope."""
        rng = self._frozen_rng
        if kind == "read":
            return ("read", *self._query())
        if kind == "batch":
            return ("batch",
                    rng.sample(self._pool, self._mix.batch_size))
        self._after_write = True
        action, edge_kind = kind.split("_")
        pool = self._edges[edge_kind]
        if action == "remove":
            return (kind, *pool.pop_random(rng))
        targets = self._users if edge_kind == "follow" else self._venues
        while True:
            edge = (rng.choice(self._users), rng.choice(targets))
            if edge[0] != edge[1] and edge not in pool:
                pool.add(edge)
                return (kind, *edge)

    def round(self):
        """The next round's ops, generated one at a time as they are sent
        (a removal must name an edge that exists at that point)."""
        for letter in self._mix.pattern:
            yield self.next_op(OP_KINDS[letter])
