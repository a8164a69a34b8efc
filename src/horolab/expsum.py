"""Weighted exponential sums over balls in determinant-one integer cosets.

Enumeration is array code over blocks of primitive first rows (a, b) in the
disk, completed by one array extended gcd: the solutions of a d - b c = 1
form the line (c, d) = (c0, d0) + t (a, b), and the admissible t make up an
explicit interval.  Congruence classes mod N are filtered along the way, so
the ball of matrices A = R mod N with Frobenius norm at most rho comes out
in one deterministic pass, ordered by a, b, then t.  Radii above
``BALL_RADIUS_CAP`` are refused; balls are cached in an LRU bounded by bytes.

On top of the enumeration sit the linear-twist sums

    L(X, alpha) = sum over A in the coset, |A| <= B X, of e(alpha . A) w(A / X)

and the divisor-weighted comparison expression they are measured against.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import CosetSpec, ExactSum, divisor_counts, exact_sum, xgcd_array
from .errors import DomainError, guard
from .smoothfns import bump6

#: Largest ball radius enumerated (6.3 million matrices); the scripts go up to 800.
BALL_RADIUS_CAP = 1024.0
#: Bytes of balls kept; a cancellation report up to X = 200 reuses its four (20 MB).
BALL_CACHE_BYTES = 64 << 20
#: Candidate first rows per enumeration block, and ball rows per weight block; at 1 << 16
#: the radius-400 block temporaries set the peak RSS, and it swung 14 MB with heap layout.
_BLOCK_ROWS = 1 << 14
CacheInfo = namedtuple("CacheInfo", "hits misses nbytes")


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

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 4:
            raise DomainError("weight expects 4-component points")
        b = bump6(pts / self.B)
        return b[..., 0] * b[..., 1] * b[..., 2] * b[..., 3]


class _BallCache:
    """LRU cache of coset balls bounded by total bytes; a ball larger than the
    bound is not kept.  ``cache_info`` counts hits and misses like ``lru_cache``."""

    def __init__(self, build, max_bytes: int):
        self._build, self._max_bytes = build, max_bytes
        self._balls: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def __call__(self, spec: CosetSpec, rho: float) -> np.ndarray:
        key = (spec, rho)
        with self._lock:
            if key in self._balls:
                self._hits += 1
                self._balls.move_to_end(key)
                return self._balls[key]
            self._misses += 1
        ball = self._build(spec, rho)
        with self._lock:
            if ball.nbytes <= self._max_bytes:
                self._balls[key] = ball
            while sum(b.nbytes for b in self._balls.values()) > self._max_bytes:
                self._balls.popitem(last=False)
        return ball

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, sum(b.nbytes for b in self._balls.values()))


def _coset_ball(spec: CosetSpec, rho: float) -> np.ndarray:
    r2 = rho * rho
    amax = int(math.floor(rho))
    N = spec.N
    r11, r12, r21, r22 = spec.rep
    axis = np.arange(-amax, amax + 1, dtype=np.int64)
    a_step = max(1, _BLOCK_ROWS // len(axis))
    # Stored as int32 (entries are at most BALL_RADIUS_CAP): half the bytes of the ball.
    chunks = [np.zeros((0, 4), dtype=np.int32)]
    for a0 in range(0, len(axis), a_step):
        # Candidate first rows of this block, a ascending, then b ascending.
        a = np.repeat(axis[a0 : a0 + a_step], len(axis))
        b = np.tile(axis, len(a) // len(axis))
        r1sq = a * a + b * b
        # The second row has norm at least 1/|row1| (unit area), so
        # overly long first rows cannot be completed inside the ball.
        keep = np.gcd(a, b) == 1
        keep[keep] = r1sq[keep] + 1.0 / r1sq[keep] <= r2
        if N > 1:
            keep &= ((a - r11) % N == 0) & ((b - r12) % N == 0)
        a, b, r1sq = a[keep], b[keep], r1sq[keep]
        g, x_co, y_co = xgcd_array(a, b)  # g = +-1 on primitive rows
        d0, c0 = g * x_co, -g * y_co
        # Solve |(c0 + t a, d0 + t b)|^2 <= r2 - r1sq for integer t.
        budget = r2 - r1sq
        bb = a * c0 + b * d0
        cc = c0 * c0 + d0 * d0 - budget
        disc = bb * bb - r1sq * cc
        rows = disc >= 0
        a, b, c0, d0, r1sq, budget, bb = (v[rows] for v in (a, b, c0, d0, r1sq, budget, bb))
        root = np.sqrt(disc[rows])
        t_lo = np.floor((-bb - root) / r1sq).astype(np.int64) - 1
        t_hi = np.ceil((-bb + root) / r1sq).astype(np.int64) + 1
        # Every row's t interval, expanded in place: rows in order, t ascending.
        counts = t_hi - t_lo + 1
        row = np.repeat(np.arange(len(counts)), counts)
        ts = t_lo[row] + np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b = a[row], b[row]
        cs = c0[row] + ts * a
        ds = d0[row] + ts * b
        keep = (cs * cs + ds * ds) <= budget[row]
        if N > 1:
            keep &= ((cs - r21) % N == 0) & ((ds - r22) % N == 0)
        chunks.append(np.stack([a[keep], b[keep], cs[keep], ds[keep]], axis=1).astype(np.int32))
    out = np.concatenate(chunks, axis=0).reshape(-1, 2, 2)
    out.setflags(write=False)
    return out


_coset_ball_cached = _BallCache(_coset_ball, BALL_CACHE_BYTES)


def enumerate_coset_ball(spec: CosetSpec, rho: float) -> np.ndarray:
    """All coset matrices with Frobenius norm at most rho, as an (n, 2, 2)
    int32 array in (first row, then completion parameter) order."""
    if not (rho >= 0 and math.isfinite(rho)):
        raise DomainError("ball radius must be a finite nonnegative number")
    guard(rho, BALL_RADIUS_CAP, "ball-radius units")
    return _coset_ball_cached(spec, float(rho))


def weighted_expsum_lhs(
    spec: CosetSpec, weight: WeightFn, X: float, alpha: Sequence[float]
) -> complex:
    """The twisted, weighted count over the coset box of side 2 B X.

    Matrices enter through their flattened rows a = (a1, a2, a3, a4); each
    contributes e(alpha . a) w(a / X).  The sum is exact, correctly rounded
    and the enumeration order fixed, so results are bit-reproducible.
    """
    if not X >= 1.0:
        raise DomainError("scale X must be at least 1")
    alpha_arr = np.asarray(alpha, dtype=float)
    if alpha_arr.shape != (4,):
        raise DomainError("twist alpha must be a 4-vector")
    side = weight.B * X
    mats = enumerate_coset_ball(spec, 2.0 * side).reshape(-1, 4)
    # Terms are computed row by row, so ball blocks give the floats of one pass.
    acc = ExactSum()
    for i in range(0, len(mats), _BLOCK_ROWS):
        block = mats[i : i + _BLOCK_ROWS]
        # Column by column: numpy reduces a length-4 axis slowly.
        a = np.abs(block)
        box = np.maximum(np.maximum(a[:, 0], a[:, 1]), np.maximum(a[:, 2], a[:, 3])) <= side
        flat = block[box].astype(float)
        acc.add(weight(flat / X) * np.exp(2j * np.pi * (flat @ alpha_arr)))
    return complex(acc.totals()[0])


def expsum_rhs(X: float, alpha: Sequence[float]) -> float:
    """Divisor-weighted comparison expression.

    For each modulus q up to X the twist is penalized by the Euclidean
    distance of q alpha from the integer lattice:

        X^2 sum_q tau(q) q^{-3/2} / (1 + X dist(q alpha) / q).
    """
    if not X >= 1.0:
        raise DomainError("scale X must be at least 1")
    alpha_arr = np.asarray(alpha, dtype=float)
    if alpha_arr.shape != (4,):
        raise DomainError("twist alpha must be a 4-vector")
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

