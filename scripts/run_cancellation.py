"""Compare twisted and untwisted growth of weighted coset sums.

For each scale X the table lists |LHS| under a generic irrational phase
against the untwisted baseline, plus fitted growth exponents for both.
The twisted exponent dropping well below 2 is the cancellation effect.

Usage:
    python3 scripts/run_cancellation.py --scales 25,50,100,200,400
"""

import math
import sys

import numpy as np

from horolab.cli import Parser, _float, _floats, _int, run_script
from horolab.errors import DomainError
from horolab.expsum import CosetSpec, WeightFn, cancellation_report

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def main(argv=None):
    parser = Parser(prog="run_cancellation", description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=_floats, default="25,50,100,200")
    parser.add_argument("--N", type=_int, default="1")
    parser.add_argument("--B", type=_float, default="1.0")
    return run_script(parser, argv, compare)


def compare(args):
    Xs = list(args.scales)
    if len(set(Xs)) < 2:
        raise DomainError("--scales needs two distinct values to fit a growth exponent")
    spec = CosetSpec.principal(args.N)
    weight = WeightFn(args.B)
    alpha = np.array([GOLD, GOLD**2, GOLD**3, GOLD**4]) / 4.0

    twisted = cancellation_report(spec, weight, alpha, Xs)
    flat = cancellation_report(spec, weight, np.zeros(4), Xs)
    zero = [t.X for t, f in zip(twisted, flat) if t.lhs == 0 or f.lhs == 0]
    if zero:
        raise DomainError(f"the weighted sum at X={zero[0]:g} is zero and has no growth exponent")
    print(f"{'X':>8} {'|twisted|':>12} {'|flat|':>12} {'rhs':>12} {'ratio':>8}")
    for t, f in zip(twisted, flat):
        print(f"{t.X:8.0f} {abs(t.lhs):12.4f} {abs(f.lhs):12.1f} "
              f"{t.rhs:12.1f} {t.ratio:8.4f}")

    lx = np.log([r.X for r in twisted])
    exp_t = np.polyfit(lx, np.log([abs(r.lhs) for r in twisted]), 1)[0]
    exp_f = np.polyfit(lx, np.log([abs(r.lhs) for r in flat]), 1)[0]
    print(f"growth exponents: twisted {exp_t:.3f}, untwisted {exp_f:.3f}")
    rows = [[t.X, abs(t.lhs), abs(f.lhs), t.rhs, t.ratio] for t, f in zip(twisted, flat)]
    return ["X", "twisted_abs", "flat_abs", "rhs", "ratio"], rows


if __name__ == "__main__":
    sys.exit(main())
