"""Diophantine majorant series and the comparison bounds built from them.

The central object is a two-index series over integer vectors q != 0 and
positive integers d.  Each term couples an arithmetic weight
tau(d) / (|q|^m d^{3/2}) to a closeness factor measuring how near d q xi
sits to the integer lattice relative to the scale d sqrt(y):

    value(y; xi) = sum_q sum_d  tau(d) |q|^{-m} d^{-3/2}
                               / (1 + dist(d q xi) / (d sqrt(y))).

Truncation is always reported honestly: every evaluation returns the
partial sum together with a certified bound on everything discarded, so
the true value is bracketed by [value, value + tail].

One evaluator serves planar blocks, single columns and batches of columns.
The distance is even in q, so each q is summed together with -q: the
evaluator runs over the vectors whose first nonzero entry is positive
(ordered by increasing norm, then lexicographically) with doubled weights,
and the -q term it stands for is the same float.  The (q, d) plane is cut
into tiles whose sizes depend only on the number of q vectors and on d_max.
Per tile the weights are multiplied by the scale d sqrt(y) once, so each term
is one division, weight d sqrt(y) / (d sqrt(y) + dist).  The products d q.xi
are one einsum outer product and the scale is added from a (q, d) copy, so
every pass runs over contiguous tiles.  Planar blocks measure the lattice
distance as the root of the summed squares of the two columns' fractional
parts; column blocks take the fractional part's absolute value directly, which
gives the same term for every y above about 7e-276 (see ``_series``).  numpy
sums each row's terms per tile and ``math.fsum`` combines a row's tile sums.
The rows of a batch are split into contiguous ranges summed on separate
threads (``_split_rows``).  A row's value is therefore the same float alone or
inside any batch, on any number of workers, and on every run.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .affine import GroupElement, grid_gap_many, log_gauge
from .arith import divisor_counts
from .errors import DomainError, guard, integers

#: zeta(3/2); the divisor-weighted series sum_d tau(d) d^{-3/2} equals its square.
ZETA_THREE_HALVES = 2.612375348685488

#: Terms (q x d) of one tile of the (q, d) plane; fixes the tile sizes.
_BLOCK_TERMS = 1 << 15

#: Terms (rows x q x d) of one block of rows against one tile.  Each row range
#: allocates two buffers of c times this many floats once per call and reuses them.
#: Threads hand the GIL over between ufuncs, so only long ufuncs overlap: a bare
#: numpy loop ran 1.9-2.3x faster on two threads than on one with 65,536 elements
#: per ufunc, 1.0-1.4x with 20,000 (2 cores).  A07's rows at y = 1e-6 hold 20
#: half-set q x 1000 d, so a block holds 3 of them.  Blocks of 1 << 17 terms were
#: faster still but added 3-5 MB to ``majorant_batch``'s 39 MB of peak memory.
_ROW_BLOCK_TERMS = 1 << 16

#: Threads that one series call splits its rows across: the cores this process may
#: run on (not its CPU quota), at most 2, which holds the buffers at 2 MB per column.
#: On 2 cores two threads gained only 5-15% with one-row blocks of 20,000 terms;
#: with the blocks above, ``majorant_batch`` went from 0.89 to 0.48 s of scaled wall
#: time and from 39.4 to 40.6 MB.  More workers are unmeasured: each adds about
#: 1 MB per column, which would take that peak past its 5% bound at 4.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

#: Fewest d values a tile spans when d_max allows.  Every pass of the block loop runs
#: over d innermost, so a short d axis makes numpy's per-row loop overhead dominate:
#: planar blocks against 15,708 half-set vectors (k = 2, q_max = 100) were measured
#: (2 cores) at 20-22 ns per term with 2 values of d per tile, 9 with 8 and 6-7 with
#: 32 or more.  1 << 15 / 32 = 1024, so up to 1024 half-set vectors keep one q tile.
_MIN_D_SPAN = 32

#: Points of the (2 q_max + 1)^k grid that the q set is cut from.  Building the set
#: was measured (2 cores) at about 250 ns and 50-104 bytes of peak memory per grid
#: point for k = 1..4, the bytes growing like 8 (3k + 1); at 10^6 points that is
#: about 0.25 s and at most 130 MB up to k = 5.  CLI defaults and A06 use <= 41^2.
Q_GRID_CAP = 1_000_000

#: Work of one ``lfd_test`` scan, counted as d_max (n_q + 450) for n_q scanned q
#: vectors.  Each d step was measured (2 cores) at about 11 us plus 20-30 ns per
#: q vector (1.16 s at d_max = 10^5 with 20 vectors, 0.76 s at 2 10^4 with 1000),
#: and 11 us is the cost of about 450 vectors.  At 25 ns per unit this is ~20 s.
LFD_WORK_CAP = 800_000_000

#: Gap offsets of one orbit gap bound, counted per time as n_q d_max for the n_q
#: vectors of the full q set, so ± pairs and repeated offsets d q count whole
#: although one of each distinct offset is scored.  The cap was set at 8 us per
#: full-set offset (~20 s).  Paired, deduplicated and scored in 160-row gap
#: blocks, each one was measured (2 cores) at 1.14-1.29 us of ``grid_gap_many``
#: and series work (2.28-2.57 s at q_max = 10, d_max = 10^5 and one time, that is
#: 2 10^6 offsets of which 496,031 of the half set are distinct, with 121 MB
#: peak RSS, against 2.87-3.43 s and 133 MB scoring every half-set offset in
#: 128-row blocks on the same host), so a bound at the cap takes ~3.2 s.
#: The cap is kept, so the same calls are refused.  CLI defaults, A15 and
#: ``run_orbit_decay.py`` use 200 (q_max = d_max = 10).
ORBIT_GAP_WORK_CAP = 2_500_000

#: Work of one series evaluation, counted as rows x half-set q vectors x d_max x
#: columns.  The slowest shape, planar blocks against 15,708 half-set vectors
#: (k = 2, q_max = 100), was measured (2 cores) at 6-9 ns per unit; at 10 ns this
#: is ~20 s.  The largest call of A07 and the benchmark is 2 10^8 units, A06 6 10^6.
SERIES_WORK_CAP = 2_000_000_000


@dataclass(frozen=True)
class MajorantParams:
    """Shape of the series: block height k, decay exponent m, truncation cuts.

    The exponent must exceed k or the q-sum would diverge.  ``d_max=None``
    selects the y-dependent default ceil(y^{-1/2}) at evaluation time.
    """

    k: int
    m: float
    q_max: int = 20
    d_max: int | None = None

    def __post_init__(self) -> None:
        # The cuts index arrays and size tables, so they must be whole numbers.
        for name in ("k", "q_max") if self.d_max is None else ("k", "q_max", "d_max"):
            object.__setattr__(self, name, int(integers(getattr(self, name), name)))
        if self.k < 1:
            raise DomainError("block height k must be at least 1")
        if not self.m > self.k:
            raise DomainError(f"exponent m={self.m} must exceed k={self.k}")
        if self.q_max < 1:
            raise DomainError("q_max must be at least 1")
        if self.d_max is not None and self.d_max < 1:
            raise DomainError("d_max must be at least 1 when given")

    def effective_d_max(self, y: float) -> int:
        return self.d_max if self.d_max is not None else int(math.ceil(y ** -0.5))


@dataclass(frozen=True)
class MajorantValue:
    """A truncated series value plus a certified bound on the discarded part."""

    value: float
    tail_bound: float

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound


@lru_cache(maxsize=8)
def _q_vectors(k: int, q_max: int) -> np.ndarray:
    """Nonzero integer vectors of norm at most q_max, norm-then-lex ordered."""
    guard((2 * q_max + 1) ** k, Q_GRID_CAP, "q-grid points")
    grids = np.meshgrid(*[np.arange(-q_max, q_max + 1)] * k, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    norms2 = (flat * flat).sum(axis=1)
    keep = (norms2 > 0) & (norms2 <= q_max * q_max)
    flat, norms2 = flat[keep], norms2[keep]
    # lexsort's last key is the primary one: norm^2, then the entries in order.
    order = np.lexsort((*flat.T[::-1], norms2))
    out = flat[order].astype(np.int64)
    out.setflags(write=False)
    return out


def _half_set(qs: np.ndarray) -> np.ndarray:
    """Mask of the q whose first nonzero entry is positive: one of each pair q, -q."""
    return qs[np.arange(len(qs)), np.argmax(qs != 0, axis=1)] > 0


def q_tail_bound(k: int, m: float, q_max: int) -> float:
    """Upper bound for the discarded weights sum over |q| > q_max of |q|^{-m}."""
    return 2 ** k * k * q_max ** (k - m) * (1.0 + 1.0 / (m - k))


def d_tail_bound(d_max: int) -> float:
    """Upper bound for sum over d > d_max of tau(d) d^{-3/2}."""
    return 8.0 * d_max ** -0.5 * (math.log(d_max) + 2.0)


class _Weights(NamedTuple):
    qs: np.ndarray  # the full q set, norm-then-lex ordered
    coef_q: np.ndarray  # |q|^{-m}
    coef_d: np.ndarray  # tau(d) d^{-3/2} for d = 1..d_max
    tail: float  # certified bound on the discarded (q, d) terms


@lru_cache(maxsize=64)
def _weights(params: MajorantParams, d_max: int) -> _Weights:
    """The q-weights, the d-weights and the truncation tail of the series."""
    taus = divisor_counts(d_max)  # refuses d_max above the sieve cap first
    qs = _q_vectors(params.k, params.q_max)
    coef_q = np.sqrt((qs * qs).sum(axis=1).astype(float)) ** -params.m
    coef_d = taus * np.arange(1, d_max + 1, dtype=float) ** -1.5
    coef_q.setflags(write=False)
    coef_d.setflags(write=False)
    # Each closeness factor is at most 1, so the discarded mass is bounded by
    # the full d-series times the q-tail plus the kept q-weights times the
    # d-tail.
    zz = ZETA_THREE_HALVES * ZETA_THREE_HALVES
    tail = zz * q_tail_bound(params.k, params.m, params.q_max) + float(coef_q.sum()) * d_tail_bound(
        d_max
    )
    return _Weights(qs, coef_q, coef_d, tail)


def _check_finite(values: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{name} must be finite")
    return values


def _split_rows(fill: Callable[[int, int], None], n_rows: int, row_step: int) -> None:
    """Run ``fill(lo, hi)`` over contiguous row ranges covering 0..n_rows-1.

    The rows are split across up to ``_WORKERS`` threads only when each gets
    at least ``row_step`` rows; otherwise, as for every one-row call, the
    caller's thread fills them all.  The caller fills the first range while
    the threads fill the others.  Every thread is joined before anything is
    raised, and the first exception a range raised is raised again here.
    """
    workers = min(_WORKERS, n_rows // row_step)
    if workers <= 1:
        fill(0, n_rows)
        return
    bounds = [n_rows * i // workers for i in range(workers + 1)]
    errors: list[BaseException] = []

    def run(lo: int, hi: int) -> None:
        try:
            fill(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    started = []
    try:
        for span in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=run, args=span)
            thread.start()
            started.append(thread)
        fill(bounds[0], bounds[1])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def _series(params: MajorantParams, xis: np.ndarray, y: float) -> tuple[np.ndarray, float]:
    """Truncated values for a batch of blocks ``xis`` of shape (n, k, c), and the tail.

    The (q, d) plane is cut into tiles of at most ``_BLOCK_TERMS`` (q, d)
    pairs that span at least min(d_max, ``_MIN_D_SPAN``) values of d.  The
    rows are split into contiguous ranges, one per worker thread
    (``_split_rows``), and each range runs over the tiles in blocks of whole
    rows, ``_ROW_BLOCK_TERMS`` terms or one row at most.  Per tile and range
    the weight table coef_q (x) (coef_d d sqrt(y)) and a (q, d) copy of the
    scale d sqrt(y) are built once, so every term costs one division: weight d
    sqrt(y) / (d sqrt(y) + dist).  The einsum outer product d (q . xi) is one
    product per element; it may turn -0.0 to +0.0, which frac - rint(frac)
    maps to the same float.  The projections q . xi are summed over the k
    entries of q in a fixed order, so a column's projections do not depend on
    the block's column count c.

    The lattice distance of d q xi is sqrt(f0^2 + f1^2) over the fractional
    parts of the two columns for planar blocks (c = 2).  Column blocks
    (c = 1) take |f0| directly.  In binary64 sqrt(fl(x^2)) = |x| unless x^2
    underflows, which needs |x| < 2^-511 (about 1.5e-154), and then both
    distances lie below 2^-511, which is less than half an ulp of the scale
    d sqrt(y) when d sqrt(y) >= 2^-457 = 2^54 2^-511, that is for every
    y >= 2^-914 (about 7e-276).  There scale + |x| is the scale either way,
    so each column term is the float the planar formula gives for [psi | 0].

    Calls above ``SERIES_WORK_CAP`` units of work are refused before the
    weights are built.
    """
    if not (0.0 < y <= 1.0):
        raise DomainError(f"scale parameter y={y} must lie in (0, 1]")
    _check_finite(xis, "torus coordinates")
    n_rows, k, c = xis.shape
    d_max = params.effective_d_max(y)
    # The q set holds each pair q, -q, and the series runs over one of each.
    n_half = len(_q_vectors(k, params.q_max)) // 2
    guard(n_rows * n_half * d_max * c, SERIES_WORK_CAP, "series work units")
    weights = _weights(params, d_max)
    half = _half_set(weights.qs)
    qs = weights.qs[half].astype(float)
    coef_q = 2.0 * weights.coef_q[half]
    ds = np.arange(1, d_max + 1, dtype=float)
    scale = ds * math.sqrt(y)
    coef_d = weights.coef_d * scale
    d_step = min(d_max, max(_MIN_D_SPAN, _BLOCK_TERMS // n_half))
    q_step = min(n_half, _BLOCK_TERMS // d_step)
    row_step = max(1, _ROW_BLOCK_TERMS // (q_step * d_step))
    tiles = [
        (slice(q0, q0 + q_step), slice(d0, d0 + d_step))
        for q0 in range(0, n_half, q_step)
        for d0 in range(0, d_max, d_step)
    ]
    # Column-major rows, (c, n, k), so that each column's fractional parts are one
    # contiguous (rows, q, d) array.
    cols = xis.transpose(2, 0, 1)
    blocks = np.empty((n_rows, len(tiles)))

    def fill(lo: int, hi: int) -> None:
        """Sum rows lo..hi-1 per tile into ``blocks``, in two reused buffers."""
        frac_buf = np.empty(c * min(row_step, hi - lo) * q_step * d_step)
        rint_buf = np.empty_like(frac_buf)
        for j, (q_tile, d_tile) in enumerate(tiles):
            table = coef_q[q_tile, None] * coef_d[d_tile]
            scales = np.broadcast_to(scale[d_tile], table.shape).copy()
            q_cols = qs[q_tile].T
            for r0 in range(lo, hi, row_step):
                rows = cols[:, r0 : min(r0 + row_step, hi)]
                proj = rows[..., 0, None] * q_cols[0]
                for i in range(1, k):
                    proj += rows[..., i, None] * q_cols[i]
                shape = (*proj.shape, table.shape[1])
                size = math.prod(shape)
                frac = np.einsum("...i,j->...ij", proj, ds[d_tile], out=frac_buf[:size].reshape(shape))
                frac -= np.rint(frac, out=rint_buf[:size].reshape(shape))
                f0 = frac[0]
                if c == 1:
                    denom = np.abs(f0, out=f0)
                else:
                    f1 = frac[1]
                    f0 *= f0
                    f1 *= f1
                    f0 += f1
                    denom = np.sqrt(f0, out=f0)
                denom += scales
                terms = np.divide(table, denom, out=denom)
                blocks[r0 : r0 + len(terms), j] = terms.reshape(len(terms), -1).sum(axis=1)

    _split_rows(fill, n_rows, row_step)
    if len(tiles) == 1:  # fsum of one float is that float
        return blocks[:, 0], weights.tail
    return np.array([math.fsum(row) for row in blocks.tolist()]), weights.tail


def majorant_full(params: MajorantParams, xi: np.ndarray, y: float) -> MajorantValue:
    """Evaluate the series against a k x 2 torus block xi.

    The lattice distance is the planar one: each term measures how far
    d q xi falls from the nearest point of the integer plane lattice.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (params.k, 2):
        raise DomainError(f"xi must have shape ({params.k}, 2), got {xi.shape}")
    values, tail = _series(params, xi[None], y)
    return MajorantValue(float(values[0]), tail)


def majorant_column(params: MajorantParams, psi: Sequence[float], y: float) -> MajorantValue:
    """Evaluate the series against a single column vector psi.

    This is the block whose left column is psi and right column zero, so the
    planar lattice distance collapses to the scalar distance |d q . psi|
    from the nearest integer, and the value equals :func:`majorant_full` on
    [psi | 0] for every y above about 7e-276.
    """
    psi_arr = np.asarray(psi, dtype=float)
    if psi_arr.shape != (params.k,):
        raise DomainError(f"psi must have shape ({params.k},), got {psi_arr.shape}")
    values, tail = _series(params, psi_arr[None, :, None], y)
    return MajorantValue(float(values[0]), tail)


def majorant_column_many(params: MajorantParams, psis: np.ndarray, y: float) -> np.ndarray:
    """Truncated column values for a whole batch of psi rows at once.

    Returns one float per row of ``psis`` (shape n x k), equal to the
    ``value`` that :func:`majorant_column` gives for that row.  The tail
    bound is the same for every row and is not returned.
    """
    psis = np.atleast_2d(np.asarray(psis, dtype=float))
    if psis.ndim != 2 or psis.shape[1] != params.k:
        raise DomainError(f"psi batch must have {params.k} columns")
    return _series(params, psis[:, :, None], y)[0]


@dataclass(frozen=True)
class LowerEnvelopeReport:
    """Ratios of truncated values to the reference envelope y^{1/4} log(1/y + 1)."""

    rows: tuple[tuple[float, float, float], ...]
    min_ratio: float


def delta_lower_check(
    params: MajorantParams, psi: Sequence[float], ys: Sequence[float]
) -> LowerEnvelopeReport:
    """Compare column values against the small-y envelope on a grid of scales.

    Each row records (y, value, value / envelope).  A healthy series keeps
    the ratio bounded away from zero as y shrinks.
    """
    rows = []
    ratios = []
    for y in ys:
        val = majorant_column(params, psi, y).value
        envelope = y ** 0.25 * math.log(1.0 / y + 1.0)
        ratio = val / envelope
        rows.append((float(y), val, ratio))
        ratios.append(ratio)
    return LowerEnvelopeReport(tuple(rows), min(ratios))


@dataclass(frozen=True)
class LfdWitness:
    """A pair (d, q) violating the Diophantine lower bound."""

    d: int
    q: tuple[int, ...]


def lfd_test(
    psi: Sequence[float],
    kappa: float,
    alpha: float,
    c: float,
    q_max: int,
    d_max: int,
) -> LfdWitness | None:
    """Scan for violations of dist(d q . psi) >= c d^{-alpha} |q|^{-kappa}.

    The distance is even in q, so only vectors whose first nonzero entry is
    positive are scanned.  Returns None when every pair in the window
    satisfies the bound, otherwise the first failing pair in (d ascending,
    q norm-then-lex) order.  Scans above ``LFD_WORK_CAP`` are refused, and so
    is a psi whose products d q . psi overflow.
    """
    if q_max < 1 or d_max < 1:
        raise DomainError("q_max and d_max must be at least 1")
    if not all(math.isfinite(v) for v in (kappa, alpha, c)):
        raise DomainError("kappa, alpha and c must be finite")
    if c <= 0.0:
        raise DomainError("lower-bound constant c must be positive")
    psi_arr = _check_finite(np.asarray(psi, dtype=float), "psi")
    k = psi_arr.shape[0]
    qs = _q_vectors(k, q_max)
    qs = qs[_half_set(qs)]
    guard(d_max * (len(qs) + 450), LFD_WORK_CAP, "Diophantine scan work units")
    norms = np.sqrt((qs * qs).sum(axis=1).astype(float))
    # Extreme exponents overflow a power to inf.  A bound inf * 0 = nan flags
    # nothing, but it only comes after a flagged pair: an infinite d^-alpha
    # flags the first q (norm one) at that d, an infinite |q|^-kappa its q at d = 1.
    # They also underflow it to 0, but c > 0 makes the true bound positive,
    # so a zero distance is flagged whatever the rounded bound.
    with np.errstate(over="ignore", invalid="ignore"):
        proj = qs.astype(float) @ psi_arr
        if not float(np.abs(proj).max()) * d_max < math.inf:
            raise DomainError("psi is too large: the products d q . psi overflow")
        norm_factor = norms ** -kappa
        for d in range(1, d_max + 1):
            x = d * proj
            dist = np.abs(x - np.round(x))
            bound = c * np.float64(d) ** -alpha * norm_factor
            bad = np.nonzero((dist < bound) | (dist == 0.0))[0]
            if len(bad):
                i = int(bad[0])
                return LfdWitness(d, tuple(int(v) for v in qs[i]))
    return None


@dataclass(frozen=True)
class OrbitGapBound:
    """Gauge-weighted bound assembled from rectangle gap statistics.

    ``term0`` is the contribution of the unprojected lattice, ``series`` the
    truncated double sum over (q, d), and ``tail_bound`` certifies the
    truncation.  The headline number is ``total = term0 + series``.
    """

    term0: float
    series: float
    tail_bound: float

    @property
    def total(self) -> float:
        return self.term0 + self.series

    @property
    def upper(self) -> float:
        return self.total + self.tail_bound


def orbit_gap_bounds(
    element: GroupElement, Ts: Sequence[float], params: MajorantParams
) -> list[OrbitGapBound]:
    """Evaluate the long-orbit comparison bound at each time T >= 2 of ``Ts``.

    The leading term applies the cubic gauge to the reciprocal square root
    of the q = 0 gap; each series term applies the linear gauge to
    1 / (1 + gap(d q) / d), weighted like the majorant series.  The gap is
    even in the offset (``affine`` module docstring), so only the half set's
    offsets are scored and each term is counted twice; the sum is the same
    float as over the full set.  Calls with more than ``ORBIT_GAP_WORK_CAP``
    gap offsets (q, d) of the full set per time are refused; every time is
    checked before any gap is scored.

    Each distinct offset d q is scored once for all times, in one
    ``grid_gap_many`` batch per group of times: equal integer rows give equal
    float offsets through its one-row products, and a row's gap does not
    depend on its batch, so the gaps are those of the full offset list.  A
    group holds at most ``ORBIT_GAP_WORK_CAP`` full-set offsets over its times
    (or one time), which bounds its arrays as for one capped call.  Each
    bound's terms are summed in the one-T order, so it is the same float as
    ``orbit_gap_bound`` at that time.
    """
    for T in Ts:
        if not T >= 2.0:
            raise DomainError("time parameter must be at least 2")
    if params.d_max is None:
        raise DomainError("orbit gap bound needs an explicit d_max")
    if element.k != params.k:
        raise DomainError(f"element has k={element.k}, params expect {params.k}")
    offsets = len(_q_vectors(params.k, params.q_max)) * params.d_max
    guard(offsets, ORBIT_GAP_WORK_CAP, "gap offsets")
    qs, coef_q, coef_d, tail = _weights(params, params.d_max)
    # The q = 0 row, then d q for each half-set q and d = 1..d_max.
    half = _half_set(qs)
    ds = np.arange(1, params.d_max + 1)
    dq = (qs[half][:, None, :] * ds[:, None]).reshape(-1, params.k)
    ns = np.concatenate([np.zeros((1, params.k), dtype=int), dq])
    distinct, inverse = np.unique(ns, axis=0, return_inverse=True)
    # Only the distinct rows stay alive while the gaps and terms are built.
    del dq, ns
    weights = coef_q[half][:, None] * coef_d
    step = max(1, ORBIT_GAP_WORK_CAP // offsets)
    bounds = []
    for lo in range(0, len(Ts), step):
        gaps = grid_gap_many(element, distinct, Ts[lo:lo + step])[0]
        # log_gauge(x, 1) per term, with math.log as there: np.log may differ by an ulp.
        x = 1.0 / (1.0 + gaps[:, inverse[1:]].reshape(len(gaps), -1, params.d_max) / ds)
        if not (x.min() > 0.0 and x.max() < math.inf):
            raise DomainError("gauge argument must be a positive finite number")
        terms = np.fromiter(map(math.log, (2.0 + 1.0 / x).ravel().tolist()), float, x.size)
        # In place, the same floats as 2 (weights (x log)).  Doubling the term,
        # not the weight, is exact even for a subnormal product.
        terms = terms.reshape(x.shape)
        terms *= x
        terms *= weights
        terms *= 2.0
        bounds.extend(
            OrbitGapBound(log_gauge(float(gap) ** -0.5, 3), math.fsum(row), math.log(3.0) * tail)
            for gap, row in zip(gaps[:, inverse[0]], terms.reshape(len(gaps), -1).tolist())
        )
    return bounds


def orbit_gap_bound(element: GroupElement, T: float, params: MajorantParams) -> OrbitGapBound:
    """The bound of :func:`orbit_gap_bounds` at the one time T >= 2."""
    return orbit_gap_bounds(element, [T], params)[0]


@dataclass(frozen=True)
class LineSumComparison:
    """Two-sided comparison of the aperture-weighted line sum.

    ``lhs`` is the partial sum over |j| <= j_max, ``lhs_slack`` a certified
    bound on the discarded |j| > j_max terms, and ``rhs`` the gauge
    expression it is measured against.
    """

    lhs: float
    lhs_slack: float
    rhs: float

    @property
    def ratio(self) -> float:
        return (self.lhs + self.lhs_slack) / self.rhs


def shifted_line_sum(
    w1: float, w2: float, alpha: float, beta: float, j_max: int = 10_000
) -> LineSumComparison:
    """Sum the aperture weights alpha / (alpha + |j|)^2 damped by closeness
    of j w1 + w2 to the integers, and compare with the gauge bound.

    Arguments are restricted to w1, w2 in [0, 1/2], alpha >= 1/10, beta > 0;
    j_max may be raised for sharper anchors but not lowered below 10^4.
    """
    if not (0.0 <= w1 <= 0.5 and 0.0 <= w2 <= 0.5):
        raise DomainError("offsets w1, w2 must lie in [0, 1/2]")
    if not alpha >= 0.1:
        raise DomainError("aperture alpha must be at least 1/10")
    if not beta > 0.0:
        raise DomainError("scale beta must be positive")
    if j_max < 10_000:
        raise DomainError("j_max below 10^4 gives too coarse a partial sum")
    js = np.arange(-j_max, j_max + 1, dtype=float)
    absj = np.abs(js)
    x = js * w1 + w2
    dist = np.abs(x - np.round(x))
    weights = alpha / (alpha + absj) ** 2
    damp = 1.0 + alpha * beta * (w1 + dist) / (alpha + absj)
    lhs = float((weights / damp).sum())
    slack = 2.0 * alpha / j_max
    rhs = log_gauge(1.0 / (1.0 + alpha * beta * w1 + beta * w2), 1) + log_gauge(
        1.0 / (1.0 + beta), 2
    )
    return LineSumComparison(lhs, slack, rhs)
