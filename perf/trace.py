"""Spans around the benchmark's own calls, and layer attribution of a
``cProfile`` run of the measured phase.

Attribution is by *module path*, not by method name: a function in
``repro/<package>[/<module>].py`` belongs to the layer that path maps
to, so it survives later PRs renaming or deleting entry points.  Self
time of builtins and stdlib functions is charged to the ``repro`` layer
that called them, following the profile's caller edges up through other
stdlib frames; what no ``repro`` frame accounts for (the harness's own
frames, interpreter start-up of a process) lands in ``other``.  Every
function's self time goes to exactly one layer, so the layers sum to the
profiled total.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Spans", "attribute", "layer_of"]

#: ``repro`` sub-paths -> layer, most specific first
_LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("sim/parallel/", "sim.parallel"),
    ("sim/", "sim"),
    ("network/", "network"),
    ("spec/", "spec"),
    ("trust/", "trust"),
    ("planner/", "planner"),
    ("smock/transport.py", "smock.transport"),
    ("smock/proxy.py", "smock.proxy"),
    ("smock/component.py", "smock.component"),
    ("smock/", "smock.runtime"),
    ("coherence/", "coherence"),
    ("services/", "services.mail"),
    ("load/", "load"),
    ("autonomic/", "autonomic"),
    ("faults/", "faults"),
    ("chaos/", "chaos"),
    ("obs/", "obs"),
    ("experiments/", "experiments"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _p, layer in _LAYER_PATHS)) + ("other",)

#: the few named entry points whose inclusive time / call count are
#: reported: metric prefix -> (path suffix inside repro/, function names).
#: A rename upstream zeroes the metric; it does not break the run.
_ENTRY_POINTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "planner.plan": ("planner/planner.py", ("plan", "replan_incremental")),
    "crypto": ("services/mail/crypto.py", ("encrypt", "decrypt")),
    "replan": ("smock/replanner.py", ("_observe_round",)),
}

Func = Tuple[str, int, str]


class Spans:
    """In-memory phase spans: ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.rows: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.rows)
        self.rows.append([name, perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self.rows[index][2] = perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p in self.rows if n == name and end)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"id": i, "name": n, "start_s": s, "end_s": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.rows)
        ]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    inside = path[marker + len("/repro/") :]
    for prefix, layer in _LAYER_PATHS:
        if inside.startswith(prefix):
            return layer
    return "other"  # repro/__init__.py, __main__.py, viz.py


def attribute(profiler: cProfile.Profile) -> Dict[str, Any]:
    """Bucket a finished profile into layers.

    Returns ``{"total_s", "py_calls", "layers": {layer: {"self_s",
    "calls"}}, "entry": {name: {"calls", "inclusive_s"}}}``.
    """
    stats: Dict[Func, Tuple[int, int, float, float, Dict[Func, Tuple[int, int, float, float]]]]
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    shares: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func, visiting: Tuple[Func, ...]) -> Dict[str, float]:
        """How an outside-``repro`` function's time splits over layers:
        by its callers, weighted by the self time each caller's calls
        cost (call counts where the profile has no time for them)."""
        if func in shares:
            return shares[func]
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        callers = stats[func][4] if func in stats else {}
        if not callers or func in visiting:
            return {"other": 1.0}
        weights = {c: edge[2] for c, edge in callers.items()}
        if not any(weights.values()):
            weights = {c: float(edge[1]) for c, edge in callers.items()}
        total = sum(weights.values())
        split: Dict[str, float] = {}
        for caller, weight in weights.items():
            if not weight:
                continue
            for layer, part in share_of(caller, visiting + (func,)).items():
                split[layer] = split.get(layer, 0.0) + part * weight / total
        if not visiting:
            shares[func] = split
        return split or {"other": 1.0}

    total_s = 0.0
    py_calls = 0
    for func, (_cc, ncalls, self_s, _ct, _callers) in stats.items():
        total_s += self_s
        py_calls += ncalls
        own = layer_of(func[0])
        if own is not None:
            layers[own]["self_s"] += self_s
            layers[own]["calls"] += ncalls
            continue
        for layer, part in share_of(func, ()).items():
            layers[layer]["self_s"] += self_s * part

    entry = {}
    for name, (suffix, functions) in _ENTRY_POINTS.items():
        calls, inclusive = 0, 0.0
        for (filename, _line, function), row in stats.items():
            if function in functions and filename.replace("\\", "/").endswith("/repro/" + suffix):
                calls += row[1]
                inclusive += row[3]
        entry[name] = {"calls": calls, "inclusive_s": inclusive}
    return {"total_s": total_s, "py_calls": py_calls, "layers": layers, "entry": entry}
