"""One pass of one workload, in a fresh interpreter started by run.py.

Usage: python3 bench/child.py '<json request>'

The request names the workload, the seed, and whether to trace, check
and compare against the recorded references.  The pass imports the
package from ``src/`` of the current directory, builds its inputs, runs
the operations once (the timed region), reads its peak resident memory
and only then checks the outputs.  The report is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image alone; ru_maxrss would carry the
    # parent's peak across fork and exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


#: how often the probe samples the machine's speed during an operation
SAMPLE_PERIOD_S = 0.5


def _probe_step(i: int) -> int:
    return (i * i) % 7


def speed_probe() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    The host's speed drifts by up to a factor of two over tens of seconds
    (other tenants share its cores, caches and memory), and a pass slows
    in step.  The probe runs around and during each operation, with its
    own time kept out of the operation's, so each operation can be scaled
    back to a nominal machine speed.  It runs a Python loop and touches no
    package code.
    """
    times = []
    # The median of three short rounds ignores one that an interrupt hit.
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += _probe_step(i)
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


class ProbeSampler:
    """Runs the speed probe every ``period`` seconds while operations run.

    The probe runs in a SIGALRM handler, which Python calls between
    bytecodes of the main thread, so a long operation is sampled along
    its length.  Time spent in the handler is summed in ``spent`` and taken
    out of the operation's time, and ``intervals`` lets the traced pass
    take it out of its spans.
    """

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(speed_probe())
        end = time.perf_counter()
        self.intervals.append((t, end))
        self.spent += end - t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)


def main() -> int:
    req = json.loads(sys.argv[1])
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy
    import horolab

    if not os.path.abspath(horolab.__file__).startswith(src + os.sep):
        print(f"horolab imported from {horolab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[req["workload"]]
    inputs = workload.inputs(req["seed"])
    ops = workload.operations(inputs, req["workdir"])
    tracer = tracing.Tracer() if req["trace"] else None
    if tracer is not None:
        tracer.install()
    if req["setup_only"]:
        t_ready = time.perf_counter()
        print(json.dumps({"t_ready": t_ready, "setup_probe_s": speed_probe()}))
        return 0

    outs, errors, op_s, op_probes = [], {}, [], []
    sampler = ProbeSampler(SAMPLE_PERIOD_S)
    t_ready = time.perf_counter()
    before = speed_probe()
    with sampler:
        for i, (_, op) in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            first, spent = len(sampler.samples), sampler.spent
            t_op = time.perf_counter()
            try:
                outs.append(op())
            except Exception as exc:  # an operation that raises is counted, not fatal
                outs.append(None)
                errors[i] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            op_s.append(time.perf_counter() - t_op - (sampler.spent - spent))
            with sampler.paused():
                after = speed_probe()
            op_probes.append([before, *sampler.samples[first:], after])
            before = after
    report = {
        "t_ready": t_ready,
        "op_s": op_s,
        "setup_probe_s": op_probes[0][0],
        "op_probes": op_probes,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": [name for name, _ in ops],
        "digests": [None if o is None else hashlib.sha256(o.blob).hexdigest() for o in outs],
        "errors": errors,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "horolab": horolab.__version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        stats = tracing.span_stats(tracer.spans, sum(op_s), sampler.intervals)
        caches = tracing.cache_fractions()
        report["layers"] = {name: tracing.layer_metric(name, stats, caches) for name in req["layer_metrics"]}
        report["spans"] = len(tracer.spans)
        tracer.dump(req["spans_path"])

    if req["check"] and not errors:
        t_check = time.perf_counter()
        checks = workload.checks(inputs, outs)
        recorded = {}
        if os.path.exists(req["reference_path"]):
            with open(req["reference_path"], encoding="utf-8") as fh:
                recorded = json.load(fh).get(workload.name, {})
        fixed, seeded = {}, {}
        if workload.fixed_reference is not None:
            fixed = workload.fixed_reference(outs)
            checks += workloads.compare_reference(fixed, recorded.get("any_seed", {}), workload.ref_atol)
        if workload.seed_reference is not None and req["seed"] == workloads.DEFAULT_SEED:
            seeded = workload.seed_reference(inputs, outs)
            checks += workloads.compare_reference(seeded, recorded.get("default_seed", {}), workload.ref_atol)
        report["checks"] = [c.__dict__ for c in checks]
        report["reference"] = {
            "any_seed": {k: v for k, (_, v) in fixed.items()},
            "default_seed": {k: v for k, (_, v) in seeded.items()},
        }
        report["check_s"] = time.perf_counter() - t_check
    print(json.dumps(report, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
