"""Elementary arithmetic kernels: exact sums of float arrays, divisor
counts, extended gcds, the chunked expansion of rows into ranges, Kloosterman
sums, and complete exponential sums over determinant-one congruence classes.

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
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, guard

#: Largest modulus for which the divisor-count sieve will allocate a table.
SIEVE_CAP = 1_000_000

#: Trial divisors of one factorization.  Trial division costs 170-230 ns per
#: divisor (2 cores, Python 3.11, primes from 10^12 to 2^63), so the cap is at
#: most 0.23 s of work.  It factors every n whose cofactor after its prime
#: factors below 2 * 10^6 is below 4 * 10^12; divisor counts of moduli up to
#: 1.2 * 10^9 need at most 1.7 * 10^4 divisors.
FACTOR_TRIAL_CAP = 1_000_000

#: Brute-force quadratic sums are refused beyond this many character evaluations.
BRUTE_FORCE_LIMIT = 100_000_000

#: Largest Kloosterman modulus.  Building the unit tables costs most at a prime,
#: where every residue is a unit.  The cap was set when the tables were built in
#: Python (whole process, 2 cores: 1.65 s and 154 MB at q = 999983, so memory
#: bound a 20 s budget); the array build now takes 0.5 s and 73 MB there, and
#: 1.0 s and 120 MB at q = 1999993, so the cap is conservative.
KLOOSTERMAN_Q_CAP = 2_000_000

#: Work of one closed quadratic sum, counted as g^4 (q + 600) with g = gcd(q, N):
#: each of the g^4 shift classes costs one Kloosterman sum, measured (2 cores,
#: cached tables, prime q) at about 10 us plus 17 ns per unit of q, and 10 us
#: is the cost of 600 units.  At 17 ns per unit this cap is about 20 s.
QUADSUM_WORK_CAP = 1_200_000_000

#: Every finite float64 is M 2^(e - 53) with frexp's integer mantissa |M| < 2^53 and
#: exponent e >= -1073, so sums are kept as integers in units of 2^-1126.
_EXACT_SHIFT = 1126
#: Terms per bincount.  Each mantissa half is below 2^27 in magnitude and a bin takes
#: the low half of its own exponent and the high half of the exponent 27 below, so
#: a bin's float64 sum stays an integer below 1.5 * 2^52: exact.
_EXACT_CHUNK = 1 << 25
#: Bins one fold of a chunk may fill, (parts) x (exponent span + 27): 512 KiB of
#: float64, and each fold holds about four arrays of that size.
_EXACT_BINS = 1 << 16


class ExactSum:
    """Running sums of float64 or complex128 terms in ``n`` groups, exact
    until one final rounding.

    Terms arrive block by block through :meth:`add`, each with its group
    index.  A block costs a few array passes and one ``np.bincount`` per
    mantissa half, keyed by (group part, binary exponent) over the block's
    own exponent range and its part range, or the parts present where that
    range would pass ``_EXACT_BINS`` bins, at most ``_EXACT_BINS`` bins at a
    time.  A block added without groups goes to group 0 with no group array:
    its real and imaginary parts each fold alone, keyed by exponent only.  The
    bins are packed into int64 words and folded into one Python int per group
    part (real and imaginary parts apart), so states of different blocks add
    exactly.  :meth:`totals` divides each int by 2^1126 once, which is
    correctly rounded: every part is the float ``math.fsum`` returns for the
    same terms, whatever their order or cut into blocks.
    Non-finite terms act as in ``math.fsum``: NaN gives NaN, inf of one sign
    gives that inf, and both signs raise ``ValueError``; otherwise a sum
    beyond the float range raises ``OverflowError``.  (``math.fsum`` also
    raises when a partial sum overflows, depending on the order of terms.)
    """

    def __init__(self, n: int = 1) -> None:
        self._ints = [0] * (2 * n)  # part 2g is group g's real part, 2g + 1 its imaginary
        self._special: dict[int, tuple[float, float]] = {}  # part -> (all, inf) non-finite sums

    def add(self, terms: np.ndarray, groups: np.ndarray | None = None) -> None:
        """Add the 1-d ``terms`` into ``groups`` (same length; default all group 0)."""
        terms = np.asarray(terms)
        if groups is None:
            # Group 0 alone: each part of the terms folds on its own, keyed by
            # exponent only, with no group array and no range check.
            columns = (terms.real, terms.imag) if np.iscomplexobj(terms) else (terms,)
            for part, values in enumerate(columns):
                values = values.astype(float, copy=False)
                for i in range(0, values.size, _EXACT_CHUNK):
                    self._add_chunk(values[i : i + _EXACT_CHUNK], part)
            return
        groups = np.asarray(groups)
        if np.iscomplexobj(terms):
            values = np.ascontiguousarray(terms, dtype=complex).view(float)
            parts = (2 * groups[:, None] + np.arange(2)).ravel()
        else:
            values, parts = terms.astype(float, copy=False), 2 * groups
        if parts.size and not (0 <= parts.min() and parts.max() < len(self._ints)):
            raise IndexError("group index out of range")
        for i in range(0, values.size, _EXACT_CHUNK):
            self._add_chunk(values[i : i + _EXACT_CHUNK], parts[i : i + _EXACT_CHUNK])

    def _add_chunk(self, values: np.ndarray, parts: np.ndarray | int) -> None:
        """Add ``values`` into their ``parts``: one per term, or one int for all."""
        one = isinstance(parts, int)
        finite = np.isfinite(values)
        if not finite.all():
            bad = values[~finite].tolist()
            for part, x in zip([parts] * len(bad) if one else parts[~finite].tolist(), bad):
                every, inf = self._special.get(part, (0.0, 0.0))
                self._special[part] = (every + x, inf + x if math.isinf(x) else inf)
            values = values[finite]
            parts = parts if one else parts[finite]
        if not values.size:
            return
        # A part takes (exponent span + 27) bins.  When the chunk's part range
        # would pass _EXACT_BINS bins, parts are keyed by their rank among the
        # parts present, so parts without terms take none, and the chunk is
        # folded in pieces of consecutive ranks.
        frac, exp = np.frexp(values)
        e_lo = int(exp.min())
        span = int(exp.max()) - e_lo + 1
        if one:
            self._fold(frac, exp, e_lo, span, None, 0, np.array([parts]))
            return
        per = max(1, _EXACT_BINS // (span + 27))
        p_lo, p_hi = int(parts.min()), int(parts.max())
        if p_hi - p_lo < per:
            self._fold(frac, exp, e_lo, span, parts, p_lo, np.arange(p_lo, p_hi + 1))
            return
        present = np.zeros(p_hi - p_lo + 1, dtype=bool)
        present[parts - p_lo] = True
        ids = np.flatnonzero(present) + p_lo
        rank = (np.cumsum(present) - 1)[parts - p_lo]
        order = np.argsort(rank, kind="stable")
        cuts = np.searchsorted(rank[order], np.arange(per, ids.size, per))
        for start, piece in zip(range(0, ids.size, per), np.split(order, cuts)):
            owners = ids[start : start + per]
            self._fold(frac[piece], exp[piece], e_lo, span, rank[piece], start, owners)

    def _fold(
        self, frac: np.ndarray, exp: np.ndarray, e_lo: int, span: int, rows: np.ndarray | None,
        r_lo: int, ids: np.ndarray,
    ) -> None:
        """Add the finite terms frac 2^exp, term i into part ids[rows[i] - r_lo]
        (into ids[0] without ``rows``); every exp lies in e_lo .. e_lo + span - 1."""
        # The mantissa M = frac 2^53 splits as hi 2^27 + lo, hi = floor(M / 2^27),
        # 0 <= lo < 2^27; every step is exact in float64.
        hi = np.floor(frac * 2.0 ** 26)
        lo = frac * 2.0 ** 53 - hi * 2.0 ** 27
        n_parts = ids.size
        keys = exp - e_lo if rows is None else (rows - r_lo) * span + (exp - e_lo)
        bins = np.zeros((n_parts, span + 27))
        bins[:, :span] = np.bincount(keys, weights=lo, minlength=n_parts * span).reshape(n_parts, span)
        bins[:, 27:] += np.bincount(keys, weights=hi, minlength=n_parts * span).reshape(n_parts, span)
        # Pack k adjacent exponents of a part into one int64 word: each bin is
        # below 2^bits, so a word is below 2^(bits + k) = 2^62.
        k = 62 - int(np.abs(bins).max()).bit_length()
        n_words = -(-(span + 27) // k)
        packed = np.zeros((n_parts, n_words * k), dtype=np.int64)
        packed[:, : span + 27] = bins
        words = (packed.reshape(n_parts, n_words, k) << np.arange(k)).sum(axis=2).ravel()
        nz = np.flatnonzero(words)
        part, word = np.divmod(nz, n_words)
        ints, base = self._ints, e_lo - 53 + _EXACT_SHIFT
        for p, shift, w in zip(ids[part].tolist(), (word * k + base).tolist(), words[nz].tolist()):
            ints[p] += w << shift

    def totals(self) -> np.ndarray:
        """The (n,) complex array of group sums, each part correctly rounded."""
        parts = []
        for p, value in enumerate(self._ints):
            every, inf = self._special.get(p, (0.0, 0.0))
            if math.isnan(inf):
                raise ValueError("-inf + inf in exact sum")
            parts.append(every if every != 0.0 else value / (1 << _EXACT_SHIFT))
        out = np.empty(len(parts) // 2, dtype=complex)
        out.real, out.imag = parts[0::2], parts[1::2]
        return out


def exact_sum(terms: np.ndarray) -> complex:
    """``math.fsum`` of the real and of the imaginary parts of ``terms``:
    the one-group :class:`ExactSum`."""
    acc = ExactSum()
    acc.add(np.ravel(terms))
    return complex(acc.totals()[0])


_sieve_table: np.ndarray | None = None


def divisor_counts(n: int) -> np.ndarray:
    """Read-only view of tau(1), ..., tau(n) in one shared sieve table."""
    global _sieve_table
    guard(n, SIEVE_CAP, "sieve entries")
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
    """Number of positive divisors of n, by :func:`factorize`."""
    try:
        whole = int(n)
    except (ValueError, OverflowError):  # nan, inf
        whole = None
    if whole is None or whole < 1 or n != whole:
        raise DomainError("divisor count requires a positive integer")
    return math.prod(e + 1 for _, e in factorize(whole))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of a positive integer as (prime, exponent) pairs,
    primes ascending, by trial division with 2 and the odd numbers.

    A cofactor that needs more than ``FACTOR_TRIAL_CAP`` trial divisors is
    refused.
    """
    pairs, rest, p = [], n, 2
    while p * p <= rest and p <= 2 * FACTOR_TRIAL_CAP:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    if p * p <= rest:
        # Divisors 2, 3, 5, ..., isqrt(rest): past the cap whenever the loop stopped early.
        guard((math.isqrt(rest) + 1) // 2, FACTOR_TRIAL_CAP, "trial divisors")
    if rest > 1:
        pairs.append((rest, 1))
    return pairs


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


def expand(counts: np.ndarray, *cols: np.ndarray, chunk: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Expand row i into counts[i] flat rows, in order, and yield them in slices of
    at most ``chunk``: every column of ``cols`` at the owning rows, then each flat
    row's offset within its row.  A slice may cut a row in two.  Counts may be floats."""
    edges = np.cumsum(np.r_[0, np.asarray(counts).astype(np.int64)])  # row i: edges[i:i + 2]
    for lo in range(0, int(edges[-1]), chunk):
        hi = min(lo + chunk, int(edges[-1]))
        first, last = np.searchsorted(edges, [lo, hi - 1], side="right") - 1
        n = np.minimum(edges[first + 1 : last + 2], hi) - np.maximum(edges[first : last + 1], lo)
        owner = np.repeat(np.arange(first, last + 1), n)  # its buffer then takes the offsets
        yield (*(c[owner] for c in cols), np.subtract(np.arange(lo, hi), edges[owner], out=owner))


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
    if q == 1:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    residues = np.arange(1, q, dtype=np.int64)
    units = residues[np.gcd(residues, q) == 1]
    # Euler: a^phi(q) = 1 mod q, so a^(phi(q) - 1) is the inverse, by square and
    # multiply.  Products stay below q^2, inside int64 for q < 3 * 10^9.  At
    # q = 999983 (2 cores) this takes 0.22 s; xgcd_array's floor divisions took 1.35 s.
    inv, power, e = np.ones_like(units), units.copy(), units.size - 1
    while e:
        if e & 1:
            inv = inv * power % q
        e >>= 1
        if e:
            power = power * power % q
    return units, inv


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
    guard(q, KLOOSTERMAN_Q_CAP, "Kloosterman residues")
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
    guard((q * N) ** 4 * q, BRUTE_FORCE_LIMIT, "brute-force character evaluations")
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
    guard(g**4 * (q + 600), QUADSUM_WORK_CAP, "closed-form work units")
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
