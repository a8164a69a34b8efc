"""Weighted exponential sums over balls in determinant-one integer cosets.

Enumeration walks primitive first rows (a, b) inside the disk; for each,
the solutions of a d - b c = 1 form the line (c, d) = (c0, d0) + t (a, b),
and the admissible t make up an explicit interval.  Congruence classes mod
N are filtered along the way, so the whole ball of matrices A = R mod N
with Frobenius norm at most rho comes out in one deterministic pass.

On top of the enumeration sit the linear-twist sums

    L(X, alpha) = sum over A in the coset, |A| <= B X, of e(alpha . A) w(A / X)

and the divisor-weighted comparison expression they are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError
from .smoothfns import bump6

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CosetSpec:
    """Integer matrices of determinant one in a fixed class mod N.

    The representative is stored reduced mod N and must have determinant
    1 mod N, otherwise the coset misses the determinant-one surface
    entirely.
    """

    N: int
    rep: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError("level N must be a positive integer")
        if len(self.rep) != 4:
            raise DomainError("coset representative needs four entries")
        r = tuple(int(x) % self.N for x in self.rep)
        if (r[0] * r[3] - r[1] * r[2]) % self.N != 1 % self.N:
            raise DomainError("representative determinant is not 1 mod N")
        object.__setattr__(self, "rep", r)

    @classmethod
    def principal(cls, N: int) -> "CosetSpec":
        return cls(N, (1, 0, 0, 1))


@dataclass(frozen=True)
class WeightFn:
    """Product of four scaled bumps: w(x) = prod bump6(x_i / B).

    C^5 with support exactly [-B, B]^4; B must be at least 1 so the unit
    box always carries weight.
    """

    B: float = 1.0

    def __post_init__(self) -> None:
        if not self.B >= 1.0:
            raise DomainError("weight half-width B must be at least 1")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 4:
            raise DomainError("weight expects 4-component points")
        return np.prod(bump6(pts / self.B), axis=-1)

    @property
    def sup(self) -> float:
        return 1.0


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


@lru_cache(maxsize=32)
def _coset_ball_cached(spec: CosetSpec, rho: float) -> np.ndarray:
    if rho < SQRT2:
        return np.zeros((0, 2, 2), dtype=np.int64)
    r2 = rho * rho
    amax = int(math.floor(rho))
    N = spec.N
    r11, r12, r21, r22 = spec.rep
    chunks = []
    for a in range(-amax, amax + 1):
        for b in range(-amax, amax + 1):
            r1sq = a * a + b * b
            # The second row has norm at least 1/|row1| (unit area), so
            # overly long first rows cannot be completed inside the ball.
            if r1sq == 0 or r1sq + 1.0 / r1sq > r2:
                continue
            if math.gcd(a, b) != 1:
                continue
            if N > 1 and ((a - r11) % N or (b - r12) % N):
                continue
            g, x_co, y_co = _xgcd(a, b)
            if g < 0:
                x_co, y_co = -x_co, -y_co
            d0, c0 = x_co, -y_co
            # Solve |(c0 + t a, d0 + t b)|^2 <= r2 - r1sq for integer t.
            budget = r2 - r1sq
            bb = a * c0 + b * d0
            cc = c0 * c0 + d0 * d0 - budget
            disc = bb * bb - r1sq * cc
            if disc < 0:
                continue
            root = math.sqrt(disc)
            t_lo = int(math.floor((-bb - root) / r1sq)) - 1
            t_hi = int(math.ceil((-bb + root) / r1sq)) + 1
            ts = np.arange(t_lo, t_hi + 1, dtype=np.int64)
            cs = c0 + ts * a
            ds = d0 + ts * b
            keep = (cs * cs + ds * ds) <= budget
            if N > 1:
                keep &= ((cs - r21) % N == 0) & ((ds - r22) % N == 0)
            if not np.any(keep):
                continue
            cs, ds = cs[keep], ds[keep]
            block = np.empty((len(cs), 2, 2), dtype=np.int64)
            block[:, 0, 0] = a
            block[:, 0, 1] = b
            block[:, 1, 0] = cs
            block[:, 1, 1] = ds
            chunks.append(block)
    if not chunks:
        return np.zeros((0, 2, 2), dtype=np.int64)
    out = np.concatenate(chunks, axis=0)
    out.setflags(write=False)
    return out


def enumerate_coset_ball(spec: CosetSpec, rho: float) -> np.ndarray:
    """All coset matrices with Frobenius norm at most rho, as an (n, 2, 2)
    integer array in (first row, then completion parameter) order."""
    if not (rho >= 0 and math.isfinite(rho)):
        raise DomainError("ball radius must be a finite nonnegative number")
    return _coset_ball_cached(spec, float(rho))


def weighted_expsum_lhs(
    spec: CosetSpec, weight: WeightFn, X: float, alpha: Sequence[float]
) -> complex:
    """The twisted, weighted count over the coset box of side 2 B X.

    Matrices enter through their flattened rows a = (a1, a2, a3, a4); each
    contributes e(alpha . a) w(a / X).  Accumulation is compensated and the
    enumeration order fixed, so results are bit-reproducible.
    """
    if not X >= 1.0:
        raise DomainError("scale X must be at least 1")
    alpha_arr = np.asarray(alpha, dtype=float)
    if alpha_arr.shape != (4,):
        raise DomainError("twist alpha must be a 4-vector")
    mats = enumerate_coset_ball(spec, 2.0 * weight.B * X)
    flat = mats.reshape(-1, 4).astype(float)
    keep = np.max(np.abs(flat), axis=1) <= weight.B * X
    flat = flat[keep]
    if len(flat) == 0:
        return 0j
    w = weight(flat / X)
    phase = flat @ alpha_arr
    vals = w * np.exp(2j * np.pi * phase)
    return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


def expsum_rhs(X: float, alpha: Sequence[float]) -> float:
    """Divisor-weighted comparison expression.

    For each modulus q up to X the twist is penalized by the Euclidean
    distance of q alpha from the integer lattice:

        X^2 sum_q tau(q) q^{-3/2} / (1 + X dist(q alpha) / q).
    """
    from .arith import divisor_count

    if not X >= 1.0:
        raise DomainError("scale X must be at least 1")
    alpha_arr = np.asarray(alpha, dtype=float)
    if alpha_arr.shape != (4,):
        raise DomainError("twist alpha must be a 4-vector")
    qs = np.arange(1, int(math.floor(X)) + 1, dtype=float)
    taus = np.array([divisor_count(int(q)) for q in qs])
    qa = qs[:, None] * alpha_arr[None, :]
    frac = qa - np.round(qa)
    dist = np.sqrt((frac * frac).sum(axis=1))
    terms = taus * qs ** -1.5 / (1.0 + X * dist / qs)
    return X * X * math.fsum(terms.tolist())


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

