"""Spans around the package's layer boundaries, and the per-layer metrics.

The traced pass wraps each layer's public functions wherever the package
binds them (``horolab.majorant.grid_gap`` as well as
``horolab.affine.grid_gap``), so a call is seen whichever module makes it.
No file of the package changes.  Spans stay in memory as
``(name, start, end, parent, op, work)`` tuples and are written out once
the pass has ended.

Self time is a span's duration minus the durations of its direct children;
busy time is the summed duration of the outermost spans of one name.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import math
import time

import numpy as np

MODULES = ("affine", "majorant", "expsum", "arith", "autofns", "orbitlab", "sl2core", "quadrature", "cli")

#: The wrapped functions, by defining module.
TARGETS = {
    "affine": ("grid_gap",),
    "majorant": ("orbit_gap_bound", "majorant_column_many", "majorant_full", "majorant_column"),
    "expsum": ("enumerate_coset_ball", "weighted_expsum_lhs", "expsum_rhs", "cancellation_report"),
    "arith": ("divisor_count",),
    "autofns": ("evaluate_f",),
    "orbitlab": (
        "lattice_window_average",
        "split_orbit_average",
        "long_orbit_average",
        "translate_integral",
        "horocycle_main_term",
        "equidist_error",
    ),
    "sl2core": ("reduce_fundamental",),
    "quadrature": ("adaptive_quad",),
    "cli": ("run",),
}


def _mod(name):
    return importlib.import_module(f"horolab.{name}")


def _batch_terms(args, kwargs, result, before):
    # Computed work of one batch call: rows x |q| x d_max.
    params, y = args[0], args[2]
    axis = np.arange(-params.q_max, params.q_max + 1)
    norms2 = sum(g * g for g in np.meshgrid(*[axis] * params.k))
    n_q = int(np.count_nonzero((norms2 > 0) & (norms2 <= params.q_max**2)))
    return len(result) * n_q * params.effective_d_max(y)


def _ball_misses():
    return _mod("expsum")._coset_ball_cached.cache_info().misses


def _ball_matrices(args, kwargs, result, before):
    # Matrices built by a cold enumeration; cache hits build none.
    return len(result) if _ball_misses() > before else 0


#: Work counters: name -> (state taken before the call, work after it).
WORK = {
    "majorant.majorant_column_many": (None, _batch_terms),
    "expsum.enumerate_coset_ball": (_ball_misses, _ball_matrices),
}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before_fn, work_fn = WORK.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = before_fn() if before_fn else None
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = work_fn(args, kwargs, result, before) if work_fn and result is not None else 0
                spans[idx] = (name, start, end, parent, self.op, work)

        return wrapper

    def install(self) -> None:
        modules = {m: _mod(m) for m in MODULES}
        for owner, names in TARGETS.items():
            for fname in names:
                original = getattr(modules[owner], fname)
                wrapper = self._wrap(f"{owner}.{fname}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "work")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh)


def _percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    # Nearest rank.
    return sorted_vals[max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)]


def _paused(pauses, start, end) -> float:
    # Time inside [start, end] spent in the sorted, disjoint pauses.
    total = 0.0
    for p_start, p_end in pauses[max(0, bisect.bisect_left(pauses, (start,)) - 1):]:
        if p_start >= end:
            break
        total += max(0.0, min(end, p_end) - max(start, p_start))
    return total


def span_stats(spans, wall_s, pauses=()) -> dict:
    """Per-function and per-module numbers of one traced pass.

    ``pauses`` are the intervals the speed probe ran in; they are taken
    out of every span that holds them.
    """
    pauses = sorted(pauses)
    durations = [end - start - _paused(pauses, start, end) for _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    funcs: dict = {}
    modules = {m: 0.0 for m in MODULES}
    for i, (name, start, end, parent, _, work) in enumerate(spans):
        f = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "work": 0})
        dur = durations[i]
        f["calls"] += 1
        f["durations"].append(dur)
        f["self_s"] += dur - child_time[i]
        f["work"] += work
        # Outermost span of this name: no ancestor carries the same name.
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            f["busy_s"] += dur
        modules[name.split(".", 1)[0]] += dur - child_time[i]
    for f in funcs.values():
        f["durations"].sort()
    return {"funcs": funcs, "module_self_s": modules, "wall_s": wall_s}


def layer_metric(name: str, stats: dict, caches: dict) -> float:
    """Value of one per-layer metric of BENCHMARK.json from a pass's stats."""
    if name in caches:
        return caches[name]
    module, rest = name.split(".", 1)
    if rest == "self_frac":
        return stats["module_self_s"][module] / stats["wall_s"]
    if name == "expsum.ball_matrices":
        return float(stats["funcs"].get("expsum.enumerate_coset_ball", {}).get("work", 0))
    func, stat = rest.split(".", 1)
    f = stats["funcs"].get(f"{module}.{func}")
    if f is None:
        return 0.0
    if stat in ("calls", "busy_s", "self_s"):
        return float(f[stat])
    if stat == "terms":
        return float(f["work"])
    if stat == "terms_per_s":
        return f["work"] / f["busy_s"] if f["busy_s"] > 0.0 else 0.0
    unit, pct = stat.split(".")
    scale = {"call_us": 1e6, "call_ms": 1e3}[unit]
    return scale * _percentile(f["durations"], float(pct[1:]))


def cache_fractions() -> dict:
    """Hit fractions of the package's two enumeration caches."""
    out = {}
    for name, cached in (
        ("expsum.ball_cache_hit_frac", _mod("expsum")._coset_ball_cached),
        ("autofns.series_cache_hit_frac", _mod("autofns")._series_data),
    ):
        info = cached.cache_info()
        total = info.hits + info.misses
        out[name] = info.hits / total if total else 0.0
    return out
