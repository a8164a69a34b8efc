"""Weighted exponential sums over balls and boxes in determinant-one integer cosets.

Enumeration is array code over blocks of primitive first rows (a, b) in the
box.  One extended-gcd table, run once per set over the pairs (m, r) with
0 <= r < m <= amax, tells which rows are primitive and completes each to one
solution (c0, d0) of a d - b c = 1, without a gcd or a Euclid run per row.
The solutions form the line (c, d) = (c0, d0) + t (a, b), and the admissible t
make up an explicit interval.  Congruence classes mod N are filtered along the
way, so the ball of matrices A = R mod N with Frobenius norm at most rho comes
out in one deterministic pass, ordered by a, b, then t.  Every set is built as
a box cut n of the ball, the matrices with every entry at most n in absolute
value; the ball itself is its box of side floor(rho).  The first rows run
over |a|, |b| <= n, and each t interval is the exact integer interval on which
|c| and |d| stay within the row's side min(n, floor(sqrt(rho^2 - |row 1|^2))),
so a box comes out in the ball's order without building the ball.  The t
intervals expand in slices of at most ``_BLOCK_ROWS`` matrices
(``arith.expand``) into one preallocated array, and only a box that sticks out
of its ball (4 n^2 > rho^2) tests |A|^2 <= rho^2 there; every box of the
weighted sums (rho = 2 n) lies inside.  Radii above ``BALL_RADIUS_CAP`` are
refused; the sets share one LRU cache bounded by bytes.

On top of the enumeration sit the linear-twist sums

    L(X, alpha) = sum over A in the coset, max|a_i| <= B X, of e(alpha . A) w(A / X)

over the box that carries the weight, and the divisor-weighted comparison
expression they are measured against.  At levels N <= 2 every class is closed
under A -> -A (-1 = 1 mod 2), the box is symmetric and the weight even, so
each pair adds 2 w cos(2 pi alpha . A): the sum reads the half of the box
whose first rows have a > 0, or a = 0 and b > 0, enumerated directly.  At
N >= 3 no class holds -A with A, and the whole box is summed.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import CosetSpec, ExactSum, divisor_counts, exact_sum, expand, xgcd_array
from .errors import DomainError, guard
from .smoothfns import bump6

#: Largest ball radius enumerated (6.3 million matrices); the scripts go up to 800.
BALL_RADIUS_CAP = 1024.0
#: Bytes of balls and boxes kept; a cancellation report up to X = 200 reuses its four
#: half boxes, 259,976 int32 matrices (4.0 MB), where the full boxes were 7.9 MB.
BALL_CACHE_BYTES = 64 << 20
#: Candidate first rows per enumeration block, rows per t slice and per weight block.  The
#: radius-400 ball's traced peak is then its kept lines and output (31.8 MB); at 1 << 16 the
#: block temporaries raise it to 37.8 MB.  Slices are written into the output, and the
#: weight blocks share one float buffer, so their other temporaries hold a column each.
_BLOCK_ROWS = 1 << 14
CacheInfo = namedtuple("CacheInfo", "hits misses nbytes")
_EMPTY = np.zeros((0, 2, 2), dtype=np.int32)
_EMPTY.setflags(write=False)


@dataclass(frozen=True)
class WeightFn:
    """Product of four scaled bumps: w(x) = prod bump6(x_i / B).

    C^5 with support exactly [-B, B]^4; B must be at least 1 so the unit
    box always carries weight.
    """

    B: float = 1.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.B < math.inf:
            raise DomainError("weight half-width B must be finite and at least 1")

    def factor(self, x) -> np.ndarray:
        """The factor bump6(x / B) that each entry x contributes to the product."""
        return bump6(np.asarray(x, dtype=float) / self.B)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 4:
            raise DomainError("weight expects 4-component points")
        b = self.factor(pts)
        return b[..., 0] * b[..., 1] * b[..., 2] * b[..., 3]


class _BallCache:
    """LRU cache of coset sets keyed by their build arguments and bounded by
    total bytes; a set larger than the bound is not kept.  ``cache_info``
    counts hits and misses like ``lru_cache``."""

    def __init__(self, build, max_bytes: int):
        self._build, self._max_bytes = build, max_bytes
        self._balls: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def __call__(self, *key) -> np.ndarray:
        with self._lock:
            if key in self._balls:
                self._hits += 1
                self._balls.move_to_end(key)
                return self._balls[key]
            self._misses += 1
        ball = self._build(*key)
        with self._lock:
            if ball.nbytes <= self._max_bytes:
                self._balls[key] = ball
            while sum(b.nbytes for b in self._balls.values()) > self._max_bytes:
                self._balls.popitem(last=False)
        return ball

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, sum(b.nbytes for b in self._balls.values()))


def _clip_to_box(t_lo, t_hi, u0, u, n):
    """Narrow each [t_lo, t_hi] to the integers t with |u0 + t u| <= n.

    For u != 0 the bounds are exact floor divisions of the line turned to
    u > 0.  u = 0 only on the primitive rows (0, +-1) and (+-1, 0), whose
    fixed second-row entry u0 = -+1 or +-1 lies in every box of side n >= 1,
    so their interval is kept whole.  A row's side falls below 1 only in a
    ball that trims its box, and the ball's norm test drops that matrix.
    """
    s = np.where(u < 0, -1, 1)
    step, v0 = u * s, u0 * s
    moving = step != 0
    div = np.where(moving, step, 1)
    t_lo = np.where(moving, np.maximum(t_lo, -((n + v0) // div)), t_lo)
    t_hi = np.where(moving, np.minimum(t_hi, (n - v0) // div), t_hi)
    return t_lo, t_hi


def _first_row_completions(amax: int):
    """Completions of the first rows (a, b) with |a|, |b| <= amax, from one
    extended-gcd table.

    ``xgcd_array`` runs once over the pairs (m, r), m = 1..amax, 0 <= r < m,
    laid out m by m: pair (m, r) sits at m (m - 1) / 2 + r, so amax (amax + 1) / 2
    pairs in all, with gcd g > 0 and s m + t r = g.  The returned
    ``complete(a, b)`` gives (primitive, c0, d0) for each row.  A row with
    a != 0 reads the pair m = |a|, r = b mod m and writes b = k m + r: it is
    primitive iff g = 1, and then a d0 - b c0 = 1 with d0 = sign(a) (s - t k)
    and c0 = -t.  The rows with a = 0 are primitive iff |b| = 1, and take
    c0 = -b, d0 = 0.  (c0, d0) are meaningful on primitive rows only.

    Euclid's Bezout coefficients give |t| <= m / 2, so on primitive rows
    |c0| <= max(1, amax / 2) and |d0| = |1 + b c0| / |a| <= amax / 2 + 1.
    """
    # The rows with a = 0 read the pair (1, 0), which the table always holds.
    ms = np.arange(1, max(amax, 1) + 1)
    m = np.repeat(ms, ms)
    g, s, t = xgcd_array(m, np.arange(len(m)) - m * (m - 1) // 2)
    unit = g == 1

    def complete(a: np.ndarray, b: np.ndarray):
        m = np.abs(a)
        k, r = np.divmod(b, np.maximum(m, 1))
        at = m * (m - 1) // 2 + r
        tt = t[at]
        primitive = np.where(m > 0, unit[at], np.abs(b) == 1)
        c0 = np.where(m > 0, -tt, -b)
        d0 = np.sign(a) * (s[at] - tt * k)
        return primitive, c0, d0

    return complete


def _coset_ball(spec: CosetSpec, rho: float, amax: int, half: bool) -> np.ndarray:
    """The matrices of the ball of radius rho with every entry at most amax <= rho in
    absolute value, in ball order.  With ``half``, only those whose first row has
    a > 0, or a = 0 and b > 0: one matrix of each pair A, -A.  The first rows
    are tested and completed by one table (``_first_row_completions``); any
    completion gives the same line of solutions, and the clips and filters
    below are exact, so the set and its order do not depend on it.

    Each row's t range is its two box clips at the side min(amax, floor(sqrt(budget))),
    budget = rho^2 - |row 1|^2, or -1 (no t) where the budget is negative.  Every
    entry c of row 2 has c^2 <= budget, and a correctly rounded sqrt is monotone
    and exact at perfect squares, so the side drops no matrix of the ball.  When
    4 amax^2 <= rho^2 the box lies inside the ball: the budget is at least
    2 amax^2, the side is amax, and no norm test runs.  Otherwise the exact test
    |A|^2 <= rho^2 removes the rows the sides let through."""
    r2 = rho * rho
    trimmed = 4 * amax * amax > r2
    N = spec.N
    r11, r12, r21, r22 = spec.rep
    if N > 2 * amax + 1:
        # Entries lie in [-amax, amax], where a class mod N holds at most its
        # signed residue; testing that residue mod 2 amax + 1 keeps the masks
        # and stays clear of int64 overflow for any N.
        signed = [r - N if 2 * r > N else r for r in spec.rep]
        if max(abs(r) for r in signed) > amax:
            return _EMPTY
        N = 2 * amax + 1
        r11, r12, r21, r22 = (r % N for r in signed)
    complete = _first_row_completions(amax)
    axis = np.arange(-amax, amax + 1, dtype=np.int64)
    a_axis = axis[amax:] if half else axis
    a_step = max(1, _BLOCK_ROWS // len(axis))
    lines = []  # each block's counts and rows, expanded once their total is known
    for a0 in range(0, len(a_axis), a_step):
        # Candidate first rows of this block, a ascending, then b ascending.
        a = np.repeat(a_axis[a0 : a0 + a_step], len(axis))
        b = np.tile(axis, len(a) // len(axis))
        keep, c0, d0 = complete(a, b)
        if half:
            keep &= (a > 0) | (b > 0)  # a >= 0 here
        if N > 1:
            keep &= ((a - r11) % N == 0) & ((b - r12) % N == 0)
        a, b, c0, d0 = a[keep], b[keep], c0[keep], d0[keep]
        # The side of each row's box; no t where the budget is negative.
        budget = r2 - (a * a + b * b)
        side = np.minimum(np.sqrt(np.maximum(budget, 0.0)), amax).astype(np.int64)
        side[budget < 0] = -1
        # From an unbounded t range: a primitive row has a != 0 or b != 0, so one
        # of the two clips bounds both ends.
        t_lo, t_hi = _clip_to_box(np.iinfo(np.int64).min, np.iinfo(np.int64).max, c0, a, side)
        t_lo, t_hi = _clip_to_box(t_lo, t_hi, d0, b, side)
        # Rows with no t (in a ball, those outside its disk) are not kept.  Each
        # kept row's line from its point at t = t_lo: rows in order, t ascending.
        on = t_lo <= t_hi
        a, b, c0, d0, t_lo = a[on], b[on], c0[on], d0[on], t_lo[on]
        lines.append((t_hi[on] - t_lo + 1, (a, b, c0 + t_lo * a, d0 + t_lo * b)))
    # Stored as int32 (entries are at most BALL_RADIUS_CAP): half the bytes of the ball.
    out = np.empty((sum(int(counts.sum()) for counts, _ in lines), 4), dtype=np.int32)
    end = 0
    for counts, cols in lines:
        for a, b, cs, ds, dt in expand(counts, *cols, chunk=_BLOCK_ROWS):
            cs += dt * a
            ds += dt * b
            keep = True  # every row, unless a mask applies
            if trimmed:
                keep = a * a + b * b + cs * cs + ds * ds <= r2
            if N > 1:
                keep = keep & ((cs - r21) % N == 0) & ((ds - r22) % N == 0)
            if keep is not True:
                a, b, cs, ds = a[keep], b[keep], cs[keep], ds[keep]
            start, end = end, end + len(cs)
            for j, col in enumerate((a, b, cs, ds)):
                out[start:end, j] = col
    # The masks leave part of the expanded rows.  No view of ``out`` is left, so it
    # shrinks in place, where a copy of the kept rows would add their bytes to the peak.
    out.resize((end, 4), refcheck=False)
    out = out.reshape(-1, 2, 2)
    out.setflags(write=False)
    return out


_coset_ball_cached = _BallCache(_coset_ball, BALL_CACHE_BYTES)


def _coset_set(spec: CosetSpec, rho: float, cut: float | None, half: bool) -> np.ndarray:
    """The cached coset matrices of the ball of radius rho with every entry at
    most ``cut`` (default rho) in absolute value; with ``half``, one of each
    pair A, -A.  Holds the radius and cut checks of both entry points."""
    if not (rho >= 0 and math.isfinite(rho)):
        raise DomainError("ball radius must be a finite nonnegative number")
    guard(rho, BALL_RADIUS_CAP, "ball-radius units")
    cut = rho if cut is None else cut
    if not cut >= 0:
        raise DomainError("box cut must be a nonnegative number")
    # Integer entries of the ball are at most floor(rho) in absolute value, so the
    # ball is its own box of that side, and a larger cut selects nothing more.
    return _coset_ball_cached(spec, float(rho), int(math.floor(min(cut, rho))), half)


def enumerate_coset_ball(spec: CosetSpec, rho: float) -> np.ndarray:
    """All coset matrices with Frobenius norm at most rho, as an (n, 2, 2)
    int32 array in (first row, then completion parameter) order."""
    return _coset_set(spec, rho, None, half=False)


def _twist(alpha: Sequence[float]) -> np.ndarray:
    """alpha as a 4-vector reduced exactly (by ``fmod``) into (-1, 1).

    Matrices and moduli are integers, so both sides depend on alpha only
    mod 1; the reduction keeps alpha . A and q alpha finite and their
    fractional parts intact, and leaves an alpha already in (-1, 1) as it is.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    if alpha_arr.shape != (4,):
        raise DomainError("twist alpha must be a 4-vector")
    if not np.all(np.isfinite(alpha_arr)):
        raise DomainError("twist alpha must be finite")
    return np.fmod(alpha_arr, 1.0)


def _entry_weights(weight: WeightFn, X: float, n: int):
    """w(A / X) for the (k, 4) integer rows A with entries in [-n, n]: the
    product, in column order, of four lookups in the table
    factor[v + n] = weight.factor(v / X), v = -n..n.  Each entry goes through
    the float operations of ``weight(A / X)``, so the weights are the same."""
    factor = weight.factor(np.arange(-n, n + 1) / X)

    def weigh(rows: np.ndarray) -> np.ndarray:
        # Column by column with intp indices: np.take converts int32 indices at
        # several times the cost, and one (k, 4) lookup doubles the temporaries.
        w = np.take(factor, np.add(rows[:, 0], n, dtype=np.intp))
        for j in (1, 2, 3):
            w *= np.take(factor, np.add(rows[:, j], n, dtype=np.intp))
        return w

    return weigh


def weighted_expsum_lhs(
    spec: CosetSpec, weight: WeightFn, X: float, alpha: Sequence[float]
) -> complex:
    """The twisted, weighted count over the coset box of side 2 B X.

    The box max|a_i| <= B X is enumerated directly, as the ball of radius
    2 B X (which circumscribes it) cut to the box; it lies inside that ball,
    so the enumeration runs no norm test.  Matrices enter through their
    flattened rows a = (a1, a2, a3, a4); each contributes e(alpha . a) w(a / X).  The entries are integers in [-n, n], n = floor(B X),
    so w(a / X) is the product, in column order, of four lookups in a table of
    the 2 n + 1 factors bump6((v / X) / B): the floats that ``weight(a / X)``
    gives.  At levels N <= 2 only the half box is built and each pair a, -a
    adds 2 w(a / X) cos(2 pi alpha . a).  The sum is exact, correctly rounded
    and the enumeration order fixed, so results are bit-reproducible.  A box
    side that overflows to infinity is refused.
    """
    if not X >= 1.0:
        raise DomainError("scale X must be at least 1")
    alpha_arr = _twist(alpha)
    side = weight.B * X
    if not math.isfinite(2.0 * side):
        raise DomainError("box side 2 B X must be a finite number")
    paired = spec.N <= 2
    mats = _coset_set(spec, 2.0 * side, side, paired).reshape(-1, 4)
    weigh = _entry_weights(weight, X, int(math.floor(side)))
    # Terms are computed row by row, so blocks give the floats of one pass.  The
    # phase reads a float copy of the rows, kept in one buffer for all blocks.
    acc = ExactSum()
    buf = np.empty((min(len(mats), _BLOCK_ROWS), 4))
    for i in range(0, len(mats), _BLOCK_ROWS):
        rows = mats[i : i + _BLOCK_ROWS]
        flat = buf[: len(rows)]
        flat[...] = rows
        phase = flat @ alpha_arr
        if paired:
            acc.add(2.0 * (weigh(rows) * np.cos(2.0 * np.pi * phase)))
        else:
            acc.add(weigh(rows) * np.exp(2j * np.pi * phase))
    return complex(acc.totals()[0])


def expsum_rhs(X: float, alpha: Sequence[float]) -> float:
    """Divisor-weighted comparison expression.

    For each modulus q up to X the twist is penalized by the Euclidean
    distance of q alpha from the integer lattice:

        X^2 sum_q tau(q) q^{-3/2} / (1 + X dist(q alpha) / q).
    """
    if not X >= 1.0:
        raise DomainError("scale X must be at least 1")
    alpha_arr = _twist(alpha)
    qs = np.arange(1, int(math.floor(X)) + 1, dtype=float)
    taus = divisor_counts(len(qs))
    qa = qs[:, None] * alpha_arr[None, :]
    frac = qa - np.round(qa)
    dist = np.sqrt((frac * frac).sum(axis=1))
    terms = taus * qs ** -1.5 / (1.0 + X * dist / qs)
    return X * X * exact_sum(terms).real


@dataclass(frozen=True)
class CancellationRow:
    X: float
    lhs: complex
    rhs: float

    @property
    def ratio(self) -> float:
        return abs(self.lhs) / self.rhs


def cancellation_report(
    spec: CosetSpec, weight: WeightFn, alpha: Sequence[float], Xs: Sequence[float]
) -> tuple[CancellationRow, ...]:
    """Evaluate both sides across scales, smallest X first."""
    rows = []
    for X in sorted(float(x) for x in Xs):
        lhs = weighted_expsum_lhs(spec, weight, X, alpha)
        rhs = expsum_rhs(X, alpha)
        rows.append(CancellationRow(X, lhs, rhs))
    return tuple(rows)

