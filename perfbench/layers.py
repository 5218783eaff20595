"""Spans and per-layer attribution for the benchmark's traced runs.

The layers are the packages under ``src/repro``.  A traced run records
two things:

* **spans** around the benchmark's own calls into the program (set-up,
  trace builds and loads, each simulation), kept in memory
  and written out as JSON when the run ends;
* a **deterministic profile** (``cProfile``) of the same calls.  Each
  profiled function's self time goes to the package its file lives in.
  Time in a builtin or in any code outside ``repro`` (stdlib, numpy)
  goes to the layer that called it, split by the profiler's per-caller
  self times, so ``dict.get`` inside the cache model counts as cache.

Top-level modules (``repro/stats.py``, ``repro/config.py``) count as
``sim``, and ``repro.graphs`` / ``repro.sparse`` count as ``workloads``:
they are the input generators the workloads are built from.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import repro

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Layers reported as ``<layer>.self_s``.
LAYERS = (
    "sim",
    "cpu",
    "cache",
    "mem",
    "prefetchers",
    "rnr",
    "workloads",
    "trace",
    "experiments",
)
_FOLDED = {"graphs": "workloads", "sparse": "workloads"}

#: ``<name>: (path prefix under src/repro, function name or None for all)``
#: for the call counts reported as ``<name>``.
CALL_COUNTS = {
    "cache.fill_calls": ("cache/cache.py", "fill"),
    "cache.hierarchy_calls": ("cache/hierarchy.py", None),
    "mem.calls": ("mem/", None),
    "prefetchers.calls": ("prefetchers/", None),
    "rnr.calls": ("rnr/", None),
}


class Spans:
    """In-memory span recorder: name, start, end, parent, attributes."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        record.update(attrs)
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.records}
        payload.update(extra or {})
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))


class Profiler:
    """One ``cProfile`` profile, switched on only inside :meth:`on`."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    @contextmanager
    def on(self):
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def stats(self) -> pstats.Stats:
        return pstats.Stats(self.profile)


def _package_layer(filename: str) -> Optional[str]:
    """The layer of a file under ``src/repro``, or None outside it."""
    if not filename.startswith(REPRO_DIR):
        return None
    rel = filename[len(REPRO_DIR):].split(os.sep)
    if len(rel) == 1:
        return "sim"
    return _FOLDED.get(rel[0], rel[0])


def attribute(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer; code outside ``repro`` goes to its callers."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, active: frozenset) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = _package_layer(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        entry = table.get(func)
        callers = entry[4] if entry else {}
        if not callers or func in active:
            # A root (the benchmark itself) or a foreign recursion.
            return {"bench": 1.0}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[0] for c, v in callers.items()}
            total = sum(weights.values()) or 1
        mix: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, frac in shares(caller, active | {func}).items():
                mix[layer] += frac * weight / total
        memo[func] = dict(mix)
        return memo[func]

    out: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for layer, frac in shares(func, frozenset()).items():
            out[layer] += tt * frac
    return dict(out)


def call_counts(stats: pstats.Stats) -> Dict[str, int]:
    """The :data:`CALL_COUNTS` totals (calls, recursion included)."""
    out = {name: 0 for name in CALL_COUNTS}
    for (filename, _line, funcname), entry in stats.stats.items():
        if not filename.startswith(REPRO_DIR):
            continue
        rel = filename[len(REPRO_DIR):].replace(os.sep, "/")
        for name, (prefix, wanted) in CALL_COUNTS.items():
            if rel.startswith(prefix) and wanted in (None, funcname):
                out[name] += entry[1]
    return out


def layer_metrics(stats: pstats.Stats) -> Dict[str, float]:
    """Every ``<layer>.self_s`` and call count of one profile."""
    self_s = attribute(stats)
    out: Dict[str, float] = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    out.update(call_counts(stats))
    return out


def model_counters(all_stats: Iterable) -> Dict[str, float]:
    """Exact sums over ``SimStats``: what the simulated machine did.

    A change that only speeds up or simplifies the simulator leaves
    every one of these identical.
    """
    keys = (
        "cpu.instructions",
        "cpu.cycles",
        "cache.l1d_misses",
        "cache.l2_demand_misses",
        "cache.llc_demand_misses",
        "mem.dram_lines",
        "prefetchers.issued",
        "prefetchers.useful",
        "rnr.sequence_entries",
    )
    out: Dict[str, float] = {key: 0 for key in keys}
    for s in all_stats:
        out["cpu.instructions"] += s.instructions
        out["cpu.cycles"] += s.cycles
        out["cache.l1d_misses"] += s.l1d.demand_misses
        out["cache.l2_demand_misses"] += s.l2.demand_misses
        out["cache.llc_demand_misses"] += s.llc.demand_misses
        out["mem.dram_lines"] += s.traffic.total
        out["prefetchers.issued"] += s.prefetch.issued
        out["prefetchers.useful"] += s.prefetch.useful
        out["rnr.sequence_entries"] += s.rnr.sequence_entries
    issued = out["prefetchers.issued"]
    out["prefetchers.accuracy"] = out["prefetchers.useful"] / issued if issued else 0.0
    return out


def top_functions(stats: pstats.Stats, limit: int = 25) -> List[dict]:
    """The profile's largest self times, for the written-out span file."""
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    return [
        {
            "function": f"{Path(f[0]).name}:{f[1]}:{f[2]}",
            "layer": _package_layer(f[0]) or "-",
            "calls": entry[1],
            "self_s": round(entry[2], 6),
        }
        for f, entry in rows[:limit]
    ]
