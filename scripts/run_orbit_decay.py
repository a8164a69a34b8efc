"""Measure how the orbit comparison bound decays over an ensemble of base points.

Draws random group elements, evaluates the two-part bound along a schedule
of times, fits a per-element log-log slope, and reports the slope
distribution.  The first term carries a cubed logarithmic gauge, so the
fitted slopes approach the quarter-power regime only at very large times;
at desk scales the median sits noticeably above -1/4.

Usage:
    python3 scripts/run_orbit_decay.py --count 50 --times 1e2,1e3,1e4
"""

import sys

import numpy as np

from horolab.affine import GroupElement
from horolab.cli import Parser, _float, _floats, _int, _seed, run_script
from horolab.errors import DomainError, guard
from horolab.majorant import MajorantParams, orbit_gap_bound
from horolab.sl2core import Sl2Matrix

#: Orbit bounds one run evaluates, --count times the number of --times.  At the
#: default flags a bound took 1.5-2.4 ms (2 cores, T = 1e2 to 1e8), so at 2.5 ms
#: this is ~20 s.  The default run evaluates 150.
BOUND_CAP = 8_000


def draw_matrix(rng):
    while True:
        a = rng.normal(size=(2, 2))
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) < 1e-3:
            continue
        if det < 0:
            a[:, [0, 1]] = a[:, [1, 0]]
            det = -det
        return Sl2Matrix.from_array(a / np.sqrt(det))


def main(argv=None):
    parser = Parser(prog="run_orbit_decay", description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=_int, default="50")
    parser.add_argument("--seed", type=_seed, default="20240817")
    parser.add_argument("--times", type=_floats, default="1e2,1e3,1e4")
    parser.add_argument("--m", type=_float, default="3.0")
    parser.add_argument("--qmax", type=_int, default="10")
    parser.add_argument("--dmax", type=_int, default="10")
    return run_script(parser, argv, ensemble)


def ensemble(args):
    if args.count < 1:
        raise DomainError("--count must be at least 1")
    rng = np.random.default_rng(np.random.Philox(args.seed))
    Ts = list(args.times)
    if len(set(Ts)) < 2:
        raise DomainError("--times needs two distinct values to fit a slope")
    guard(args.count * len(Ts), BOUND_CAP, "orbit bounds")
    params = MajorantParams(1, args.m, args.qmax, args.dmax)
    log_t = np.log(Ts)

    slopes = []
    rows = []
    for index in range(args.count):
        element = GroupElement.from_torus_point(
            draw_matrix(rng), rng.uniform(0.0, 1.0, (1, 2))
        )
        bounds = [orbit_gap_bound(element, T, params) for T in Ts]
        slope = float(np.polyfit(log_t, np.log([b.total for b in bounds]), 1)[0])
        slopes.append(slope)
        for T, b in zip(Ts, bounds):
            rows.append((index, T, b.term0, b.series, b.tail_bound, slope))

    slopes = np.array(slopes)
    print(f"ensemble of {args.count}, times {Ts}")
    print(f"slope quartiles: {np.percentile(slopes, 25):+.4f}  "
          f"{np.median(slopes):+.4f}  {np.percentile(slopes, 75):+.4f}")
    print(f"steepest {slopes.min():+.4f}, shallowest {slopes.max():+.4f}")
    return ["index", "T", "term0", "series", "tail", "slope"], rows


if __name__ == "__main__":
    sys.exit(main())
