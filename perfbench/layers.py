"""Tracing for ``--trace 1`` runs: spans and per-layer profile buckets.

Spans are recorded by the benchmark around each call it makes into a
layer (assemble, build, simulate, fleet submit) and kept in memory until
the run ends.  Inside ``simulate`` the benchmark cannot place spans
without editing the simulator, so a deterministic profiler runs around
each simulate call instead and its per-function self time and call
counts are bucketed into the simulator layers below.  The profiler adds
a cost to every Python call, so read the ``*_us`` figures as ratios
between layers and commits; the ``*_calls`` figures are exact work
counts.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from typing import List, Optional, Tuple

#: simulator layers, in the order the north star of the repository
#: names them; ``other`` takes the remainder (stats, the DE kernel, ...)
LAYERS = ("director", "stepper", "model", "manager", "txn", "iss", "memory", "other")

_CORE_DIRECTOR = ("/repro/core/director.py", "/repro/core/kernel.py",
                  "/repro/core/osm.py")
_CORE_MANAGER = ("/repro/core/manager.py", "/repro/core/token.py",
                 "/repro/core/primitives.py")


def layer_of(filename: str) -> str:
    """The layer a code object's file belongs to."""
    path = filename.replace(os.sep, "/")
    if path.startswith("<fused:") or path == "<edge-condition>":
        return "stepper"  # generated per-state steppers and edge probes
    if path.startswith("<execgen") or path.startswith("<block"):
        return "iss"  # generated ISS executors and block translations
    if path.endswith(_CORE_DIRECTOR):
        return "director"
    if path.endswith(_CORE_MANAGER) or (
            "/repro/models/" in path and path.endswith("/managers.py")):
        return "manager"
    if path.endswith("/repro/core/transaction.py"):
        return "txn"
    if "/repro/models/" in path:
        return "model"
    if "/repro/iss/" in path or "/repro/isa/" in path:
        return "iss"
    if "/repro/memory/" in path:
        return "memory"
    return "other"


class LayerProfile:
    """Accumulates profiler self time and call counts per layer."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)

    def run(self, fn, *args):
        """``fn(*args)`` under the profiler; returns its result."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return fn(*args)
        finally:
            profiler.disable()
            self._absorb(pstats.Stats(profiler).stats)

    def _absorb(self, stats) -> None:
        for (filename, _line, _name), (_cc, ncalls, selftime, _cum, callers) in stats.items():
            if filename != "~":
                layer = layer_of(filename)
                self.seconds[layer] += selftime
                self.calls[layer] += ncalls
                continue
            # a builtin (dict.get, list.append, ...): charge each call
            # edge's calls and self time to the layer of its caller
            for (caller_file, _l, _n), edge in callers.items():
                layer = layer_of(caller_file)
                self.calls[layer] += edge[1]
                self.seconds[layer] += edge[2]


class Tracer:
    """In-memory spans ``(id, parent, name, start, end)``, in seconds
    since the tracer was created; written out at the end of the run."""

    def __init__(self):
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._origin = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a finished span from ``perf_counter`` readings; returns
        its id for children to name as parent."""
        span_id = len(self.spans)
        self.spans.append((span_id, parent, name, start - self._origin,
                           end - self._origin))
        return span_id

    def durations(self, name: str) -> List[float]:
        return [end - start for _i, _p, n, start, end in self.spans if n == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump([{"id": i, "parent": p, "name": n, "start": s, "end": e}
                       for i, p, n, s, e in self.spans], handle)
