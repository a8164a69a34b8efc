"""Elementary arithmetic kernels: divisor counts, extended gcds,
Kloosterman sums, and complete exponential sums over determinant-one
congruence classes.

The quadratic sum evaluated here runs over 4-tuples x in a fixed residue
class mod N, weighted by additive characters in both the determinant
constraint x1 x4 - x2 x3 = 1 and a linear twist v . x:

    S(q, v) = sum over units a mod q, sum over x mod qN with x = r (N)
              of e((a N (x1 x4 - x2 x3 - 1) + v . x) / (q N)).

Two evaluation routes are provided.  The brute-force route sums the
definition directly and refuses clearly oversized requests.  The closed
route reduces everything to Kloosterman sums, runs in roughly O(N^4 + q)
per call, and is the one production code should use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceGuardError

#: Largest modulus for which the divisor-count sieve will allocate a table.
SIEVE_CAP = 1_000_000

#: Brute-force quadratic sums are refused beyond this many character evaluations.
BRUTE_FORCE_LIMIT = 100_000_000

#: Largest Kloosterman modulus.  Building the unit tables costs most at a prime,
#: where every residue is a unit: measured (2 cores, whole process) 1.65 s and
#: 154 MB at q = 999983, 6.0 s and 337 MB at q = 2999999, so about 2 us and
#: 92 bytes per unit.  A 20 s budget would allow about 10^7, which would peak
#: near 950 MB, so memory binds: this cap keeps one row near 4 s and 250 MB.
KLOOSTERMAN_Q_CAP = 2_000_000

#: Work of one closed quadratic sum, counted as g^4 (q + 600) with g = gcd(q, N):
#: each of the g^4 shift classes costs one Kloosterman sum, measured (2 cores,
#: cached tables, prime q) at about 10 us plus 17 ns per unit of q, and 10 us
#: is the cost of 600 units.  At 17 ns per unit this cap is about 20 s.
QUADSUM_WORK_CAP = 1_200_000_000

_sieve_table: np.ndarray | None = None


def divisor_counts(n: int) -> np.ndarray:
    """Read-only view of tau(1), ..., tau(n) in one shared sieve table."""
    global _sieve_table
    if n > SIEVE_CAP:
        raise ResourceGuardError(f"divisor counts up to {n} exceed the sieve cap {SIEVE_CAP}")
    if _sieve_table is None or len(_sieve_table) <= n:
        size = 1024
        while size <= n:
            size *= 4
        size = min(size, SIEVE_CAP + 1)
        # Divisor pairs d < n / d count 2 at n = d (d + 1), d (d + 2), ...; a square root 1.
        table = np.zeros(size, dtype=np.int32)
        for d in range(1, math.isqrt(size - 1) + 1):
            table[d * d] += 1
            table[d * (d + 1) :: d] += 2
        table.setflags(write=False)
        _sieve_table = table
    return _sieve_table[1 : n + 1]


def divisor_count(n: int) -> int:
    """Number of positive divisors of n.

    Values up to one million come from a shared sieve table; larger inputs
    fall back to trial-division factorization.
    """
    if n < 1 or n != int(n):
        raise DomainError("divisor count requires a positive integer")
    n = int(n)
    if n <= SIEVE_CAP:
        return int(divisor_counts(n)[n - 1])
    count = 1
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            count *= e + 1
        p += 1 if p == 2 else 2
    if rest > 1:
        count *= 2
    return count


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, s, t) with s a + t b = g, g = +-gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def xgcd_array(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`xgcd` of each pair (a[i], b[i]), signs included: the same steps
    on int64 arrays, taken only by pairs whose remainder is still nonzero."""
    old_r, r = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    old_s, s = np.ones_like(old_r), np.zeros_like(old_r)
    old_t, t = np.zeros_like(old_r), np.ones_like(old_r)
    live = np.flatnonzero(r)
    while live.size:
        quot = old_r[live] // r[live]
        for old, new in ((old_r, r), (old_s, s), (old_t, t)):
            old[live], new[live] = new[live], old[live] - quot * new[live]
        live = live[r[live] != 0]
    return old_r, old_s, old_t


def mod_inverse(a: int, q: int) -> int:
    """Multiplicative inverse of a modulo q, normalized into [1, q]."""
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    if math.gcd(a, q) != 1:
        raise DomainError(f"{a} is not invertible modulo {q}")
    inv = pow(a % q, -1, q)
    return q if inv == 0 else inv


@lru_cache(maxsize=8)
def _unit_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Units modulo q and their inverses, as parallel integer arrays."""
    units = [a for a in range(1, max(q, 2)) if math.gcd(a, q) == 1]
    if q == 1:
        units = [0]
    inv = [pow(a, -1, q) if q > 1 else 0 for a in units]
    return np.array(units, dtype=np.int64), np.array(inv, dtype=np.int64)


@lru_cache(maxsize=8)
def _cos_table(q: int) -> np.ndarray:
    return np.cos(2.0 * np.pi * np.arange(q) / q)


def kloosterman(m: int, n: int, q: int) -> float:
    """The complete sum over units a mod q of e((m a + n a^{-1}) / q).

    Pairing a with -a shows the sum is real, so it is accumulated through
    cosines directly.  The twists are reduced mod q first, so any integers
    are accepted and the int64 products cannot wrap.
    """
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    if q == 1:
        return 1.0
    if q > KLOOSTERMAN_Q_CAP:
        raise ResourceGuardError(f"Kloosterman modulus {q} exceeds the cap {KLOOSTERMAN_Q_CAP}")
    units, inv = _unit_tables(q)
    phases = (m % q * units + n % q * inv) % q
    return float(_cos_table(q)[phases].sum())


def kloosterman_weil_bound(m: int, n: int, q: int) -> float:
    """Classical square-root cancellation bound for the sum above."""
    g = math.gcd(math.gcd(abs(m), abs(n)), q)
    return divisor_count(q) * math.sqrt(g) * math.sqrt(q)


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
        try:
            N, rep = operator.index(self.N), tuple(operator.index(x) for x in self.rep)
        except TypeError as exc:
            raise DomainError("level N and the coset representative must be integers") from exc
        if N < 1:
            raise DomainError("level N must be a positive integer")
        if len(rep) != 4:
            raise DomainError("coset representative needs four entries")
        r = tuple(x % N for x in rep)
        if (r[0] * r[3] - r[1] * r[2]) % N != 1 % N:
            raise DomainError("representative determinant is not 1 mod N")
        object.__setattr__(self, "rep", r)

    @classmethod
    def principal(cls, N: int) -> "CosetSpec":
        return cls(N, (1, 0, 0, 1))


def _check_v(v: Sequence[int]) -> tuple[int, int, int, int]:
    vv = tuple(int(x) for x in v)
    if len(vv) != 4 or any(x != y for x, y in zip(vv, v)):
        raise DomainError("twist vector v must be four integers")
    return vv


def quad_expsum_bruteforce(q: int, spec: CosetSpec, v: Sequence[int]) -> complex:
    """Direct evaluation of S(q, v) from the definition.

    The work grows like (qN)^4 q, so requests beyond ``BRUTE_FORCE_LIMIT``
    character evaluations are refused outright.
    """
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    vv = _check_v(v)
    N = spec.N
    cost = (q * N) ** 4 * q
    if cost > BRUTE_FORCE_LIMIT:
        raise ResourceGuardError(
            f"brute-force size (qN)^4 q = {cost} exceeds the limit {BRUTE_FORCE_LIMIT}; "
            "use quad_expsum_closed instead"
        )
    qN = q * N
    axes = [spec.rep[i] + N * np.arange(q, dtype=np.int64) for i in range(4)]
    x1, x2, x3, x4 = np.meshgrid(*axes, indexing="ij", sparse=True)
    quad = x1 * x4 - x2 * x3 - 1
    linear = vv[0] * x1 + vv[1] * x2 + vv[2] * x3 + vv[3] * x4
    roots = np.exp(2j * np.pi * np.arange(qN) / qN)
    units, _ = _unit_tables(q)
    total = 0j
    for a in units.tolist():
        phases = (a * N * quad + linear) % qN
        total += roots[phases].sum()
    return complex(total)


def quad_expsum_closed(q: int, spec: CosetSpec, v: Sequence[int]) -> complex:
    """Kloosterman-sum evaluation of S(q, v).

    Completing the square in the unit average turns each admissible shift
    class c (solving q c = v mod N componentwise) into a single Kloosterman
    sum at the integer point w = (v - q c) / N:

        S(q, v) = q^2 sum_c e(r . c / N) K(-1, -(w1 w4 - w2 w3); q).

    Coordinates with gcd(q, N) not dividing v_i admit no shift class and
    the whole sum vanishes.  Sums above ``QUADSUM_WORK_CAP`` are refused.
    """
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    vv = _check_v(v)
    N = spec.N
    g = math.gcd(q, N)
    if g ** 4 * (q + 600) > QUADSUM_WORK_CAP:
        raise ResourceGuardError(
            f"{g ** 4} shift classes at modulus {q} exceed the work cap {QUADSUM_WORK_CAP}"
        )
    n_g = N // g
    per_coord: list[list[int]] = []
    for vi in vv:
        if vi % g != 0:
            return 0j
        base = ((vi // g) * mod_inverse(q // g, n_g)) % n_g if n_g > 1 else 0
        per_coord.append([base + t * n_g for t in range(g)])
    total = 0j
    for c1 in per_coord[0]:
        for c2 in per_coord[1]:
            for c3 in per_coord[2]:
                for c4 in per_coord[3]:
                    w1 = (vv[0] - q * c1) // N
                    w2 = (vv[1] - q * c2) // N
                    w3 = (vv[2] - q * c3) // N
                    w4 = (vv[3] - q * c4) // N
                    r = spec.rep
                    phase = (r[0] * c1 + r[1] * c2 + r[2] * c3 + r[3] * c4) % N
                    kl = kloosterman(-1, -(w1 * w4 - w2 * w3), q)
                    total += np.exp(2j * np.pi * phase / N) * kl
    return complex(q * q * total)


def quadsum_weil_bound(q: int, N: int) -> float:
    """Size bound N^4 tau(q) q^{5/2} for the quadratic sum at level N."""
    return N ** 4 * divisor_count(q) * q ** 2.5
