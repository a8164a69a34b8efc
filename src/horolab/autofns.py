"""Automorphic test functions periodized from a compactly supported bump.

A test function here is a sum of one smooth, radially cut off kernel over
a principal congruence group, with each translate twisted by a unitary
character of the torus fibre.  Because the kernel vanishes outside a
Frobenius ball, only finitely many translates contribute at any point and
everything reduces to finite lattice sums plus torus quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import CosetSpec, factorize
from .errors import DomainError, guard, integers
from .expsum import enumerate_coset_ball
from .quadrature import box_grid
from .sl2core import Sl2Matrix, _unimodular, reduce_stack
from .smoothfns import BUMP6_MASS, bump6

MIN_SUPPORT_RADIUS = math.sqrt(2.0)
# Ball enumeration is quadratic in the radius, and a cold ``_series_data`` peaks
# near 121 bytes per ball matrix (traced at radii 300, 400, 600 and 632.25).  This
# radius (600, 2.16 million matrices) bounds the peak near 250 MiB (249.3 MiB
# traced); expsum's cap of 1024 would allow about 730 MiB.
BALL_RADIUS_SQ_GUARD = 3.6e5
_GRID_CHUNK = 4096
#: (matrix, ball candidate) pairs kernel-evaluated at a time; each of a block's
#: float temporaries over the pairs is 128 KiB.
_BLOCK_CANDIDATES = 1 << 14
#: (matrix, translate) slots of one zero-padded sum at a time, unless one
#: block of ``_BLOCK_CANDIDATES`` pairs alone needs more.
_BLOCK_TERMS = 1 << 12
#: Matrices of a stack reduced and evaluated at a time.
_BLOCK_POINTS = 1 << 10
_INT64_LIMIT = 2.0**63


@dataclass(frozen=True)
class PoincareTestFn:
    """Congruence-periodized bump with an integer frequency twist.

    ``freq`` is the k x 2 integer matrix of torus frequencies carried by
    the identity translate; the value at ``(M, v)`` sums the kernel over
    all level-``level`` integer translates of ``M``, each multiplied by
    the correspondingly transported character of ``xi = v M^{-1}``.

    The kernel is ``bump6((|A|_F^2 - 2) / (support_radius^2 - 2))``,
    which peaks at rotations (the minimum of the Frobenius norm) and
    vanishes for ``|A|_F >= support_radius``.
    """

    level: int
    freq: tuple[tuple[int, int], ...]
    support_radius: float = 3.0

    def __post_init__(self) -> None:
        # The kernels compute with the level and the frequencies in int64.
        if not isinstance(self.level, int) or not 1 <= self.level < 2**63:
            raise DomainError("level must be a positive 64-bit integer")
        arr = np.asarray(self.freq)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise DomainError(f"freq must be a k x 2 integer array, got shape {arr.shape}")
        object.__setattr__(self, "freq", tuple(map(tuple, integers(arr, "freq entries").tolist())))
        if not (MIN_SUPPORT_RADIUS < self.support_radius < math.inf):
            raise DomainError(
                "support_radius must be finite and exceed sqrt(2), the smallest "
                "Frobenius norm on the determinant-one surface"
            )

    @property
    def k(self) -> int:
        return len(self.freq)

    @property
    def freq_array(self) -> np.ndarray:
        return np.asarray(self.freq, dtype=np.int64)


def kernel_value(fn: PoincareTestFn, mats: np.ndarray) -> np.ndarray:
    """Kernel of ``fn`` on a stacked (..., 2, 2) array of matrices."""
    arr = np.asarray(mats, dtype=float)
    if arr.shape[-2:] != (2, 2):
        raise DomainError("expected trailing 2 x 2 matrix axes")
    return _kernel(fn, np.sum(arr * arr, axis=(-2, -1)))


def _kernel(fn: PoincareTestFn, norm_sq: np.ndarray) -> np.ndarray:
    """The kernel as a function of the squared Frobenius norm."""
    rho_sq = fn.support_radius * fn.support_radius
    return bump6((norm_sq - 2.0) / (rho_sq - 2.0))


def _product_norm_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|X Y|_F^2 for every pair of the matrices X whose entries x00, x01, x10,
    x11 are the rows of a (4, m) array and the matrices Y of a (4, n, 1)
    array, as an (n, m) array.  Each entry of X Y is :func:`stack_product`'s
    x_i0 y_0j + x_i1 y_1j with both products rounded, and the four squares
    are added in row-major order, as :func:`kernel_value` adds them."""
    total = None
    for i, j in ((0, 0), (0, 1), (2, 0), (2, 1)):
        e = x[i] * y[j]
        e += x[i + 1] * y[j + 2]
        e *= e
        total = e if total is None else np.add(total, e, out=total)
    return total


def _moved_freqs(freq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(m, k, 2) integer rows (adj X) m_k^T of the identity frequencies m
    (k x 2) at the candidates X whose entries are the rows of a (4, m)
    integer array: the frequencies the translate X carries before its
    pull-back."""
    f0, f1 = freq[:, 0], freq[:, 1]
    u0 = x[3][:, None] * f0 - x[1][:, None] * f1
    u1 = x[0][:, None] * f1 - x[2][:, None] * f0
    return np.stack((u0, u1), -1)


def _freq_rows(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Flattened frequency rows, (n, 2k) floats, of the translates X gamma^{-1}
    for the :func:`_moved_freqs` rows u (n, k, 2) of the candidates X and the
    reducing matrices gamma, the rows (a, b, c, d) of an (n, 4) integer array
    g.  The frequencies m (X gamma^{-1})^{-T} have rows gamma (adj X) m_k^T;
    the entry formulas are exact in integers."""
    rows = np.empty(u.shape, dtype=np.int64)
    rows[:, :, 0] = g[:, 0, None] * u[:, :, 0] + g[:, 1, None] * u[:, :, 1]
    rows[:, :, 1] = g[:, 2, None] * u[:, :, 0] + g[:, 3, None] * u[:, :, 1]
    return rows.reshape(u.shape[0], -1).astype(float)


def _series_stack(
    fn: PoincareTestFn, mats: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks of the translates through the matrices of an (n, 2, 2) stack:
    kernel weights and flattened frequency rows, then the stack indices of
    the matrices with a translate and how many each has.

    Enumeration runs at the domain-reduced matrix so the candidate ball
    stays small no matter how far a matrix sits from the maximal compact;
    translates are then pulled back through the reducing word.  Matrices
    that share a coset and a quantized ball radius share one enumeration,
    and their kernel weights are formed over at most ``_BLOCK_CANDIDATES``
    (matrix, candidate) pairs at a time.  Each kernel argument is
    :func:`_product_norm_sq` of the candidate and the reduced matrix, and
    each pull-back an integer entry formula: no BLAS kernel is called.  A
    matrix's kept translates all come out in one block, in enumeration
    order, so its series is the one it has alone; a block takes as many
    matrices as keep its zero-padded sum within ``_BLOCK_TERMS`` slots.
    """
    rho = fn.support_radius
    rho_sq = rho * rho
    gammas, reduced = reduce_stack(mats)
    n = reduced.shape[0]
    a, b, c, d = reduced.reshape(n, 4).T
    # Every integer translate of a matrix whose reduced height exceeds
    # rho^2 has Frobenius norm above rho, so the sum is empty.
    with np.errstate(divide="ignore"):  # a bottom row that squares to 0 has infinite height
        live = np.flatnonzero(~(1.0 / (c * c + d * d) > rho_sq))
    if not live.size:
        return
    radius = rho * np.sqrt(a * a + b * b + c * c + d * d) * (1.0 + 1e-12)
    # Quantizing the ball radius upward makes repeated evaluations share
    # cached enumerations; the extra candidates all carry weight zero.
    radius_q = np.ceil(radius[live] * 4.0) / 4.0
    radius_sq = radius_q * radius_q
    over = ~(radius_sq <= BALL_RADIUS_SQ_GUARD)
    if over.any():
        guard(radius_sq[over][0], BALL_RADIUS_SQ_GUARD, "squared ball-radius units")
    gamma = gammas[live].reshape(-1, 4)
    if not np.all(np.abs(gamma) < _INT64_LIMIT):
        raise DomainError("the reducing matrix has entries beyond 64-bit integers")
    gamma = gamma.astype(np.int64)
    red = reduced[live].reshape(-1, 4).T
    # Group by (coset of gamma mod the level, quantized radius); the sort is
    # stable, so each group keeps its matrices in stack order.
    keys = np.vstack(((gamma % fn.level).T, (radius_q * 4.0).astype(np.int64)))
    order = np.lexsort(keys)
    sorted_keys = keys[:, order]
    starts = np.flatnonzero(np.any(sorted_keys[:, 1:] != sorted_keys[:, :-1], axis=0)) + 1
    bounds = [0, *starts.tolist(), order.size]
    freq = fn.freq_array

    def batch(parts):
        return tuple(np.concatenate(part) for part in zip(*parts))

    # _values pads a batch to (matrices, most translates of one matrix); a
    # part that would take that past _BLOCK_TERMS starts a new batch.
    parts, held, widest = [], 0, 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        *coset, r4 = sorted_keys[:, lo].tolist()
        cands = enumerate_coset_ball(CosetSpec(fn.level, tuple(coset)), r4 / 4.0)
        if cands.shape[0] == 0:
            continue
        x = cands.reshape(-1, 4).T.astype(np.int64)
        x_f = x.astype(float)
        moved = _moved_freqs(freq, x)
        step = max(1, _BLOCK_CANDIDATES // cands.shape[0])
        for first in range(lo, hi, step):
            pts = order[first : min(first + step, hi)]
            kernel = _kernel(fn, _product_norm_sq(x_f, red[:, pts, None]))
            # np.take gathers here several times faster than fancy indexing.
            kept = np.flatnonzero(kernel)
            if not kept.size:
                continue
            row, col = np.divmod(kept, kernel.shape[1])
            counts = np.bincount(row, minlength=pts.size)
            has = counts != 0
            counts = counts[has]
            most = int(counts.max())
            if parts and (held + counts.size) * max(widest, most) > _BLOCK_TERMS:
                yield batch(parts)
                parts, held, widest = [], 0, 0
            g = gamma.take(pts, axis=0).take(row, axis=0)
            freq_rows = _freq_rows(moved.take(col, axis=0), g)
            parts.append((kernel.take(kept), freq_rows, live.take(pts[has]), counts))
            held, widest = held + counts.size, max(widest, most)
    if parts:
        yield batch(parts)


@lru_cache(maxsize=256)
def _series_data(fn: PoincareTestFn, matrix: Sl2Matrix) -> tuple[np.ndarray, np.ndarray]:
    """Weights and frequency rows of :func:`_series_stack` for one matrix,
    cached and read-only."""
    blocks = list(_series_stack(fn, matrix.as_array()[None]))  # at most one
    weights, phase_rows = blocks[0][:2] if blocks else (np.zeros(0), np.zeros((0, 2 * fn.k)))
    weights.setflags(write=False)
    phase_rows.setflags(write=False)
    return weights, phase_rows


def _torus_block(fn: PoincareTestFn, torus_point: np.ndarray) -> np.ndarray:
    xi = np.atleast_2d(np.asarray(torus_point, dtype=float))
    if xi.shape != (fn.k, 2):
        raise DomainError(f"torus point must have shape ({fn.k}, 2), got {xi.shape}")
    return xi - np.floor(xi)


def _values(
    weights: np.ndarray, phase_rows: np.ndarray, counts: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Values of the series that list their translates one after another,
    ``counts`` translates each.

    Each phase sums the 2k products of a frequency row and the flattened
    torus block from left to right, one ``np.exp`` turns the phases into
    characters, and each series adds its weighted characters left to right
    in enumeration order, as one cumulative sum along each row of a
    zero-padded (series, most translates) array.
    """
    flat = xi.ravel()
    phase = phase_rows[:, 0] * flat[0]
    for j in range(1, flat.size):
        phase += phase_rows[:, j] * flat[j]
    width = counts.max()
    padded = np.zeros((counts.size, width), dtype=complex)
    # Translate j of series i goes to slot i * width + j - (translates before i).
    shift = np.arange(0, counts.size * width, width) - (np.cumsum(counts) - counts)
    slots = np.arange(weights.size) + np.repeat(shift, counts)
    padded.ravel()[slots] = weights * np.exp(2j * np.pi * phase)
    return np.cumsum(padded, axis=1)[:, -1]


def evaluate_f(
    fn: PoincareTestFn, matrix: Sl2Matrix | np.ndarray, torus_point: np.ndarray
) -> complex | np.ndarray:
    """Value of ``fn`` at the element with the given matrix and torus block.

    ``matrix`` is one :class:`Sl2Matrix`, or an (n, 2, 2) stack of
    matrices that share the torus block, for which the n values come back
    as a complex array; each equals the value at that matrix alone.  Stack
    rows are taken as they stand, like ``Sl2Matrix`` entries, and are
    handled ``_BLOCK_POINTS`` at a time.  The torus block is reduced into
    [0, 1) entrywise before any phase is formed, so shifting it by exact
    integers returns bit-identical values.  Each value is the sum of its
    translates' weighted characters, added left to right in enumeration
    order; each phase adds its 2k frequency-times-torus products left to
    right.  No BLAS kernel is called, so the bits do not depend on the
    host's BLAS build.
    """
    xi = _torus_block(fn, torus_point)
    if isinstance(matrix, Sl2Matrix):
        weights, phase_rows = _series_data(fn, matrix)
        if weights.size == 0:
            return 0.0 + 0.0j
        return complex(_values(weights, phase_rows, np.array([weights.size]), xi)[0])
    mats = np.asarray(matrix, dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        raise DomainError(f"expected a matrix or an (n, 2, 2) stack, got shape {mats.shape}")
    _unimodular(mats.reshape(-1, 4).T)  # refuses what Sl2Matrix refuses; rows stay as they stand
    values = np.zeros(mats.shape[0], dtype=complex)
    for lo in range(0, mats.shape[0], _BLOCK_POINTS):
        for weights, phase_rows, points, counts in _series_stack(fn, mats[lo : lo + _BLOCK_POINTS]):
            values[lo + points] = _values(weights, phase_rows, counts, xi)
    return values


def coefficient_support(fn: PoincareTestFn, matrix: Sl2Matrix) -> np.ndarray:
    """Distinct integer frequencies with a contributing translate, sorted."""
    _, phase_rows = _series_data(fn, matrix)
    if phase_rows.shape[0] == 0:
        return np.zeros((0, fn.k, 2), dtype=np.int64)
    rows = np.unique(np.round(phase_rows).astype(np.int64), axis=0)
    return rows.reshape(-1, fn.k, 2)


def _check_freq_like(fn: PoincareTestFn, m: np.ndarray) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(m))
    if arr.shape != (fn.k, 2):
        raise DomainError(f"frequency must have shape ({fn.k}, 2), got {arr.shape}")
    return integers(arr, "frequency entries")


def fourier_coefficient_exact(fn: PoincareTestFn, matrix: Sl2Matrix, m: np.ndarray) -> float:
    """Coefficient by direct regrouping of the translate sum.

    Collecting all translates that carry the requested frequency gives the
    coefficient without any integration, and shows it is real for a real
    kernel.
    """
    target = _check_freq_like(fn, m).ravel().astype(float)
    weights, phase_rows = _series_data(fn, matrix)
    if weights.size == 0:
        return 0.0
    hit = np.all(phase_rows == target, axis=1)
    return float(np.sum(weights[hit]))


def _grid_coefficient(
    weights: np.ndarray,
    phase_rows: np.ndarray,
    target: np.ndarray,
    dim: int,
    panels: int,
    points: int,
) -> complex:
    pts, wts = box_grid([0.0] * dim, [1.0] * dim, panels, points)
    total = 0.0 + 0.0j
    for start in range(0, pts.shape[0], _GRID_CHUNK):
        block = pts[start : start + _GRID_CHUNK]
        bw = wts[start : start + _GRID_CHUNK]
        vals = np.exp(2j * np.pi * (block @ phase_rows.T)) @ weights
        total += np.sum(bw * vals * np.exp(-2j * np.pi * (block @ target)))
    return complex(total)


def fourier_coefficient(
    fn: PoincareTestFn,
    matrix: Sl2Matrix,
    m: np.ndarray,
    panels: int = 4,
    points: int = 8,
) -> complex:
    """Torus integral of ``fn`` against the conjugate character at ``m``.

    Uses a composite Gauss-Legendre grid over the unit box in the torus
    coordinates; at least four panels per dimension are required so the
    rule resolves the oscillation of nearby frequencies.
    """
    target = _check_freq_like(fn, m).ravel().astype(float)
    if panels < 4:
        raise DomainError("coefficient quadrature needs at least 4 panels per dimension")
    weights, phase_rows = _series_data(fn, matrix)
    if weights.size == 0:
        return 0.0 + 0.0j
    return _grid_coefficient(weights, phase_rows, target, 2 * fn.k, panels, points)


def sl2_count_mod(n: int) -> int:
    """Number of 2 x 2 determinant-one matrices over the integers mod n."""
    if n < 1:
        raise DomainError("modulus must be a positive integer")
    count = n ** 3
    for p, _ in factorize(n):
        count = count // (p * p) * (p * p - 1)
    return count


def covolume(level: int) -> float:
    """Volume of the level quotient under the measure v^{-2} du dv dtheta."""
    if not isinstance(level, int) or level < 1:
        raise DomainError("level must be a positive integer")
    return sl2_count_mod(level) * math.pi * math.pi / 3.0


def kernel_haar_mass(fn: PoincareTestFn) -> float:
    """Integral of the kernel of ``fn`` over the whole group, in closed form.

    With r the hyperbolic distance from i to A(i), |A|_F^2 = 2 cosh r, and
    in geodesic polar coordinates about i the area v^{-2} du dv is
    sinh r dr dphi.  The kernel depends on r alone, so the angular fibre
    and the polar angle each contribute 2 pi, and

        mass = 4 pi^2 int_0^inf bump6((2 cosh r - 2) / (rho^2 - 2)) sinh r dr.

    Substituting s = (2 cosh r - 2) / (rho^2 - 2), so sinh r dr =
    (rho^2 - 2) ds / 2, leaves the half mass of the bump on [0, 1]:

        mass = 2 pi^2 (rho^2 - 2) * BUMP6_MASS / 2 = pi^2 (rho^2 - 2) BUMP6_MASS.
    """
    rho_sq = fn.support_radius * fn.support_radius
    return math.pi * math.pi * (rho_sq - 2.0) * BUMP6_MASS


def mean_value(fn: PoincareTestFn) -> float:
    """Average of ``fn`` over the level quotient, times the torus average.

    Any nonzero frequency integrates to zero along the torus fibre; the
    untwisted case reduces to the kernel mass divided by the covolume.
    """
    if np.any(fn.freq_array != 0):
        return 0.0
    return kernel_haar_mass(fn) / covolume(fn.level)
