"""Sweep the majorant series over a height schedule for several torus points.

Prints one block per point with the fitted log-log slope, and optionally
writes the full table as CSV.  The named points cover the interesting
Diophantine regimes: the origin (resonant, no decay), the golden-ratio
point (badly approximable), and a rational point (eventual resonance).

Usage:
    python3 scripts/run_delta_sweep.py --min-exp 1 --max-exp 6 --points 11
"""

import math
import sys

import numpy as np

from horolab.cli import Parser, _float, _int, run_script
from horolab.errors import DomainError, guard
from horolab.majorant import SERIES_WORK_CAP, MajorantParams, majorant_full

POINTS = {
    "origin": np.zeros((1, 2)),
    "golden": np.array([[(math.sqrt(5.0) - 1.0) / 2.0, (3.0 - math.sqrt(5.0)) / 2.0]]),
    "quadratic": np.array([[math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]]),
    "rational": np.array([[0.25, 0.4]]),
}
#: Heights one sweep visits.  At the default flags a height at y = 1e-6, the
#: deepest default one, took 2.4-2.8 ms for the four points (2 cores), so at
#: 3.3 ms this is ~20 s.  The default sweep visits 11.
POINT_CAP = 6_000


def main(argv=None):
    parser = Parser(prog="run_delta_sweep", description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=_float, default="3.0")
    parser.add_argument("--qmax", type=_int, default="20")
    parser.add_argument("--min-exp", type=_float, default="1.0")
    parser.add_argument("--max-exp", type=_float, default="6.0")
    parser.add_argument("--points", type=_int, default="11")
    return run_script(parser, argv, sweep)


def sweep(args):
    if args.points < 2 or args.min_exp == args.max_exp:
        raise DomainError("a slope needs --points of at least 2 and two distinct exponents")
    if min(args.min_exp, args.max_exp) < 0.0:
        raise DomainError("--min-exp and --max-exp must be at least 0 for y = 10^-e in (0, 1]")
    guard(args.points, POINT_CAP, "sweep heights")
    ys = np.logspace(-args.min_exp, -args.max_exp, args.points)
    params = MajorantParams(1, args.m, args.qmax, None)
    # Series work of the whole sweep: per point and height, q_max half-set q
    # vectors (k = 1) times d_max(y) times two columns.  A height that
    # underflows to 0 would take unbounded work.
    d_total = sum(params.effective_d_max(y) if y > 0 else math.inf for y in ys.tolist())
    guard(len(POINTS) * args.qmax * d_total * 2, SERIES_WORK_CAP, "sweep series work units")
    rows = []
    for name, xi in POINTS.items():
        vals = []
        for y in ys:
            out = majorant_full(params, xi, float(y))
            vals.append(out.value)
            rows.append((name, float(y), out.value, out.tail_bound))
        slope = np.polyfit(np.log(ys), np.log(vals), 1)[0]
        print(f"{name:10s} delta({ys[0]:.2g})={vals[0]:.5g}  "
              f"delta({ys[-1]:.2g})={vals[-1]:.5g}  slope={slope:+.4f}")
    return ["point", "y", "value", "tail"], rows


if __name__ == "__main__":
    sys.exit(main())
