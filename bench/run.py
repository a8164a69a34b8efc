"""Benchmark of horolab: time, memory and correctness of four workloads.

Usage (from the repository root):

    python3 bench/run.py --workload orbit_bound --seed 20240817 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --record-reference      # rewrite bench/reference.json

Load is a closed loop of one client: one operation at a time, no worker
threads.  Each pass runs the workload's operations once in a fresh
interpreter (bench/child.py), so program caches start empty as in a script
or CLI run.  Passes repeat until the next one would overrun ``--seconds``
of measuring, with at least three, and the end-to-end metrics are medians
over passes.  Times are scaled to a nominal machine speed by a speed probe
run around and during each operation (bench/README.md says why).  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics of BENCHMARK.json are reported instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (versions, git
SHA, per-pass numbers, output digests, failed checks) is written under
bench/results/.  Without ``src/horolab`` in the current directory the run
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("orbit_bound", "coset_cancellation", "majorant_batch", "horocycle_routes")
#: the seed of the repository's scripts and tests (workloads.DEFAULT_SEED)
DEFAULT_SEED = 20240817
MIN_PASSES = 3
#: set-up is sampled at least this often per run, with set-up-only starts
MIN_SETUPS = 5
MAX_PASSES = 200
#: a run must end within 180 s; no child may outlive this budget
RUN_BUDGET_S = 170.0
#: speed-probe time of the machine the baseline was measured on
PROBE_NOMINAL_S = 0.0035


class BenchError(RuntimeError):
    """A pass could not run to completion; the run prints no result."""


def _git_sha() -> str | None:
    # The ceiling keeps git from taking a parent directory's repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    """Spawns passes of one workload and keeps the run inside its budget."""

    def __init__(self, workload, seed, layer_metrics, workdir):
        self.workload = workload
        self.seed = seed
        self.layer_metrics = layer_metrics
        self.workdir = workdir
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def spawn(self, *, trace=False, check=False, setup_only=False) -> dict:
        req = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": trace,
            "check": check,
            "setup_only": setup_only,
            "workdir": self.workdir,
            "layer_metrics": [m for m in self.layer_metrics if not m.startswith("trace.")],
            "spans_path": os.path.join(RESULTS, f"{self.workload}-seed{self.seed}-spans.json"),
            "reference_path": REFERENCE,
        }
        budget = RUN_BUDGET_S - self.elapsed()
        if budget <= 0:
            raise BenchError("run budget exhausted")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, json.dumps(req)],
                capture_output=True,
                text=True,
                timeout=budget,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload} pass exceeded the {RUN_BUDGET_S:.0f} s run budget") from exc
        t_done = time.perf_counter()
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{self.workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        _scale_to_nominal(report, t_spawn)
        report["cost_s"] = t_done - t_spawn - report.get("check_s", 0.0)
        return report


def _scale_to_nominal(report, t_spawn) -> None:
    """Scale a pass's times to the nominal machine speed.

    Each operation is scaled by the mean of the speed probes taken just
    before it, during it and just after it; set-up by the probe that
    follows it.  The unscaled times stay in the record as
    ``raw_wall_s``/``raw_setup_s``.
    """
    report["raw_setup_s"] = report["t_ready"] - t_spawn
    report["setup_s"] = report["raw_setup_s"] * PROBE_NOMINAL_S / report["setup_probe_s"]
    if "op_s" in report:
        report["raw_wall_s"] = sum(report["op_s"])
        report["wall_s"] = sum(
            t * PROBE_NOMINAL_S / statistics.fmean(probes) for t, probes in zip(report["op_s"], report["op_probes"])
        )
        report["speed"] = report["raw_wall_s"] and report["wall_s"] / report["raw_wall_s"]
        del report["op_probes"]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(workload, seed, seconds, trace, bench) -> dict:
    """All passes of one run; returns the result record."""
    layer_names = [m["name"] for m in bench["per_layer"]]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workload, seed, layer_names, os.path.relpath(workdir))
    passes = []
    try:
        needed = 2 * MIN_PASSES - 2 if trace else MIN_PASSES
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            passes.append(runner.spawn(trace=traced, check=not passes))
            # Checks do not count against the measuring time.
            costs = [p["cost_s"] for p in passes]
            balanced = not trace or len(passes) % 2 == 0
            if balanced and len(passes) >= needed and sum(costs) + statistics.median(costs) > seconds:
                break
            if len(passes) >= MAX_PASSES:
                break
        setups = [p["setup_s"] for p in passes if not p.get("layers")]
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(runner.spawn(setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0]
    failed = set()
    for k, p in enumerate(passes):
        for i, digest in enumerate(p["digests"]):
            if str(i) in p["errors"] or digest != first["digests"][i]:
                failed.add((k, i))
    bad_checks = [c for c in first.get("checks", []) if not c["ok"]]
    failed.update((0, c["op"]) for c in bad_checks)
    checked = "checks" in first
    attempted = sum(len(p["digests"]) for p in passes)

    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    walls = [p["wall_s"] for p in untraced]
    if trace:
        metrics = {}
        for name in layer_names:
            if name == "trace.overhead_s":
                value = statistics.median(p["wall_s"] for p in traced) - statistics.median(walls)
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = value
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_frac": 1.0 - len(failed) / attempted,
        }
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    outputs = hashlib.sha256("".join(d or "-" for d in first["digests"]).encode()).hexdigest()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "git_sha": _git_sha(),
        "python": first["versions"]["python"],
        "numpy": first["versions"]["numpy"],
        "horolab": first["versions"]["horolab"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "outputs_sha256": outputs,
        "op_digests": dict(zip(first["ops"], first["digests"])),
        "correct": checked and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "errors": {f"pass{k}.{first['ops'][int(i)]}": e for k, p in enumerate(passes) for i, e in p["errors"].items()},
        "failed_checks": bad_checks,
        "checks_run": len(first.get("checks", [])),
        "passes": [
            {key: p.get(key) for key in ("wall_s", "raw_wall_s", "speed", "setup_s", "raw_setup_s", "peak_rss_mb", "cost_s", "spans")}
            for p in passes
        ],
        "setup_samples": [] if trace else setups,
        "wall_quartiles": _quartiles(walls),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "reference": first.get("reference"),
    }


def _print_record(rec) -> None:
    n = sum(1 for p in rec["passes"] if p["spans"] is None)
    lo, hi = rec["wall_quartiles"]
    print(f"# {rec['workload']}  seed={rec['seed']}  passes={len(rec['passes'])}  "
          f"wall quartiles {lo:.4f}..{hi:.4f} s over {n} untraced passes  outputs={rec['outputs_sha256'][:16]}")
    for name, m in rec["metrics"].items():
        print(f"{rec['workload']:20s} {name:48s} {m['value']:.6g} {m['unit']}")
    for c in rec["failed_checks"]:
        print(f"FAILED CHECK op{c['op']} {c['name']}: {c['detail']}")
    for key, err in rec["errors"].items():
        print(f"FAILED OPERATION {key}: {err}")


def _record_reference() -> int:
    out = {}
    for workload in WORKLOADS:
        runner = Runner(workload, DEFAULT_SEED, [], os.path.relpath(RESULTS))
        os.makedirs(RESULTS, exist_ok=True)
        report = runner.spawn(check=True)
        if report["errors"]:
            print(f"{workload}: operations failed: {report['errors']}", file=sys.stderr)
            return 1
        out[workload] = report["reference"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "horolab", "__init__.py")):
        print("bench: no src/horolab here; run from the repository root", file=sys.stderr)
        return 2
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        mapped = {m for layer in json.load(fh)["layers"] for m in layer["metrics"]}
    if mapped != {m["name"] for m in bench["per_layer"]}:
        print("bench: bench/layers.json and the per-layer metrics of BENCHMARK.json differ", file=sys.stderr)
        return 2
    if args.record_reference:
        return _record_reference()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace, bench)
            with open(os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(rec, fh, indent=1)
            _print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
