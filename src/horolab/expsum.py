"""Weighted exponential sums over balls and boxes in determinant-one integer cosets.

Enumeration is array code over blocks of primitive first rows (a, b) in the
disk.  One extended-gcd table, run once per set over the pairs (m, r) with
0 <= r < m <= amax, tells which rows are primitive and completes each to one
solution (c0, d0) of a d - b c = 1, without a gcd or a Euclid run per row.
The solutions form the line (c, d) = (c0, d0) + t (a, b), and the admissible t
make up an explicit interval.  Congruence classes mod N are filtered along the
way, so the ball of matrices A = R mod N with Frobenius norm at most rho comes
out in one deterministic pass, ordered by a, b, then t.  Every set is built as
a box cut n of the ball, the matrices with every entry at most n in absolute
value; the ball itself is its box of side floor(rho).  The first rows run
over |a|, |b| <= n, and each t interval is narrowed to the exact integer
intervals on which |c| <= n and |d| <= n, so a box comes out in the ball's
order without building the ball.  A box with 4 n^2 <= rho^2 lies inside its
ball, as every box of the weighted sums does (rho = 2 n): its matrices skip
the ball's three norm tests (the first-row disk, the t interval of the
discriminant and the final |row 2|^2 filter), its t ranges are the two box
clips alone, and its rows expand straight into one preallocated array.  Only
balls, and boxes their ball trims, run those tests.  The t intervals expand in
slices of at most ``_BLOCK_ROWS`` matrices (``arith.expand``).  Radii above
``BALL_RADIUS_CAP`` are refused; the sets share one LRU cache bounded by bytes.

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
#: Candidate first rows per enumeration block, rows per t slice and per weight block; at
#: 1 << 16 the radius-400 ball's block temporaries set the peak RSS, and it swung 14 MB with
#: heap layout.  Box slices are written into the output, and the weight blocks share one
#: float buffer, so their other temporaries hold a column each (128 KiB).
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
    fixed second-row entry u0 = -+1 or +-1 lies in every box that holds the
    row, so their interval is kept whole.
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
    |c0| <= max(1, amax / 2) and |d0| = |1 + b c0| / |a| <= amax / 2 + 1.  So
    |a c0 + b d0| <= amax^2 + amax, and the integer parts of the ball's
    discriminant, (a c0 + b d0)^2 and |row 1|^2 (c0^2 + d0^2), stay below
    2^41 up to ``BALL_RADIUS_CAP``: exact in float64.
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

    When 4 amax^2 <= rho^2 the box lies inside the ball and no norm test can
    bind: each row's t range is its two box clips, and the rows expand straight
    into the output array."""
    r2 = rho * rho
    boxed = 4 * amax * amax <= r2
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
    # Stored as int32 (entries are at most BALL_RADIUS_CAP): half the bytes of the ball.
    chunks = [np.zeros((0, 4), dtype=np.int32)]
    lines = []  # boxed: each block's counts and rows, expanded once their total is known
    for a0 in range(0, len(a_axis), a_step):
        # Candidate first rows of this block, a ascending, then b ascending.
        a = np.repeat(a_axis[a0 : a0 + a_step], len(axis))
        b = np.tile(axis, len(a) // len(axis))
        keep, c0, d0 = complete(a, b)
        if half:
            keep &= (a > 0) | (b > 0)  # a >= 0 here
        if not boxed:
            # The second row has norm at least 1/|row1| (unit area), so
            # overly long first rows cannot be completed inside the ball.
            r1sq = a * a + b * b
            keep[keep] = r1sq[keep] + 1.0 / r1sq[keep] <= r2
        if N > 1:
            keep &= ((a - r11) % N == 0) & ((b - r12) % N == 0)
        a, b, c0, d0 = a[keep], b[keep], c0[keep], d0[keep]
        if boxed:
            # From an unbounded t range: a primitive row has a != 0 or b != 0,
            # so one of the two clips bounds both ends.
            t_lo, t_hi = _clip_to_box(np.iinfo(np.int64).min, np.iinfo(np.int64).max, c0, a, amax)
        else:
            # Solve |(c0 + t a, d0 + t b)|^2 <= r2 - r1sq for integer t.
            r1sq = r1sq[keep]
            budget = r2 - r1sq
            bb = a * c0 + b * d0
            cc = c0 * c0 + d0 * d0 - budget
            disc = bb * bb - r1sq * cc
            rows = disc >= 0
            a, b, c0, d0, r1sq, budget, bb = (v[rows] for v in (a, b, c0, d0, r1sq, budget, bb))
            root = np.sqrt(disc[rows])
            t_lo = np.floor((-bb - root) / r1sq).astype(np.int64) - 1
            t_hi = np.ceil((-bb + root) / r1sq).astype(np.int64) + 1
            t_lo, t_hi = _clip_to_box(t_lo, t_hi, c0, a, amax)
        t_lo, t_hi = _clip_to_box(t_lo, t_hi, d0, b, amax)
        counts = np.maximum(t_hi - t_lo + 1, 0)
        # Each row's line from its point at t = t_lo: rows in order, t ascending.
        cols = (a, b, c0 + t_lo * a, d0 + t_lo * b)
        if boxed:
            lines.append((counts, cols))
            continue
        for a, b, cs, ds, budget, dt in expand(counts, *cols, budget, chunk=_BLOCK_ROWS):
            cs += dt * a
            ds += dt * b
            keep = (cs * cs + ds * ds) <= budget
            if N > 1:
                keep &= ((cs - r21) % N == 0) & ((ds - r22) % N == 0)
            chunks.append(np.stack([a[keep], b[keep], cs[keep], ds[keep]], axis=1).astype(np.int32))
    if boxed:
        out = np.empty((sum(int(counts.sum()) for counts, _ in lines), 4), dtype=np.int32)
        end = 0
        for counts, cols in lines:
            for a, b, cs, ds, dt in expand(counts, *cols, chunk=_BLOCK_ROWS):
                cs += dt * a
                ds += dt * b
                if N > 1:
                    keep = ((cs - r21) % N == 0) & ((ds - r22) % N == 0)
                    a, b, cs, ds = a[keep], b[keep], cs[keep], ds[keep]
                start, end = end, end + len(cs)
                for j, col in enumerate((a, b, cs, ds)):
                    out[start:end, j] = col
        # The class filter leaves part of the expanded rows at N > 1.
        out = out if end == len(out) else out[:end].copy()
    else:
        out = np.concatenate(chunks, axis=0)
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
    so the enumeration runs none of the ball's norm tests.  Matrices enter
    through their flattened rows a = (a1, a2, a3, a4); each contributes
    e(alpha . a) w(a / X).  The entries are integers in [-n, n], n = floor(B X),
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

