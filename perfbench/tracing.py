"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` wraps public methods of the program's classes (method
``query``/``query_batch``, kernel probes, database reads and writes,
executor runs) with a timing shim.  Each call becomes a span with a
layer, a name, start and end times and its parent span; spans stay in
memory and are written out as JSON lines when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans.

Only the thread that started the tracer records spans: executor worker
threads run unrecorded, so their time shows as the ``exec`` span's self
time.  Patching happens before the system under test is built, so objects that
bind a method at build time still go through the shim; :meth:`restore`
puts every original back.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

#: Spans kept for the written trace; self times keep counting past it.
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.thread = threading.get_ident()
        self.self_seconds: dict[str, float] = {}
        self._stack: list[list] = []
        self._spans: list[tuple] = []
        self._patched: list[tuple] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, layer: str, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self._next_id += 1
        # [id, parent, layer, name, start, child seconds]
        self._stack.append(
            [self._next_id, parent, layer, name, time.perf_counter(), 0.0]
        )
        return self._next_id

    def end(self) -> float:
        finished = time.perf_counter()
        span_id, parent, layer, name, started, children = self._stack.pop()
        duration = finished - started
        self._count(layer, duration - children)
        if self._stack:
            self._stack[-1][5] += duration
        self._keep(span_id, parent, layer, name, started, finished)
        return duration

    def attach(self, parent: int, parent_layer: str, layer: str, name: str,
               started: float, duration: float) -> None:
        """Add a span measured elsewhere (a server's own timing of a
        request) as a child of the finished span ``parent``."""
        self._next_id += 1
        self._count(parent_layer, -duration)
        self._count(layer, duration)
        self._keep(self._next_id, parent, layer, name, started,
                   started + duration)

    def _count(self, layer: str, seconds: float) -> None:
        self.self_seconds[layer] = self.self_seconds.get(layer, 0.0) + seconds

    def _keep(self, *span) -> None:
        if len(self._spans) < MAX_KEPT_SPANS:
            self._spans.append(span)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, layer: str) -> None:
        original = owner.__dict__.get(attr)
        if original is None or not callable(original):
            return
        tracer = self
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        def traced(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer.thread:
                return original(*args, **kwargs)
            tracer.begin(layer, name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end()

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def patch_all(self, owner, attrs, layer: str) -> None:
        for attr in attrs:
            self.patch(owner, attr, layer)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, layer, name, started, finished in self._spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "start": started, "end": finished,
                }) + "\n")


#: Public query/probe methods per kernel class (both backends).
KERNEL_METHODS = (
    "any_in_flat", "first_in_flat", "any_in_zrange", "any_contained",
    "first_contained", "component_hits_region", "any_reaches",
    "reaches_many", "covers_many", "any_at",
)
#: Public reads and writes of both database classes.
DATABASE_METHODS = (
    "range_reach", "range_reach_many", "refresh", "add_follow",
    "add_checkin", "remove_follow", "remove_checkin",
)


def patch_program(tracer: Tracer) -> None:
    """Wrap every layer the in-process workloads call into."""
    from repro.core import (
        GeoReach,
        GeosocialQueryEngine,
        SocReach,
        SpaReach,
        ThreeDReach,
        ThreeDReachRev,
    )
    from repro.exec import ParallelExecutor
    from repro.kernels import bfl, labels, points, segments, slabs
    from repro.shard import ShardedDatabase
    from repro.system import GeosocialDatabase

    for cls in (SpaReach, GeoReach, SocReach, ThreeDReach, ThreeDReachRev,
                GeosocialQueryEngine):
        tracer.patch_all(cls, ("query", "query_batch"), "core")
    for module in (bfl, labels, points, segments, slabs):
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                tracer.patch_all(value, KERNEL_METHODS, "kernels")
    tracer.patch_all(GeosocialDatabase, DATABASE_METHODS, "system")
    tracer.patch_all(ShardedDatabase, DATABASE_METHODS, "shard")
    tracer.patch(ParallelExecutor, "run", "exec")
