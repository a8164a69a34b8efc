"""The affine extension: unimodular matrices paired with row-vector blocks.

Elements are pairs (M, v) where v is a k x 2 real block, multiplying by

    (M, v) (M', v') = (M M', v M' + v').

The torus variable attached to an element is xi = v M^{-1}; pushing an
integer vector q through :meth:`GroupElement.project` collapses the block
to the single row q v, which is what the planar gap statistic consumes.
Integer vectors are read by :func:`horolab.errors.integers`, 2 x 2 systems
c B = p solved by ``_coefficients``, lattice membership by ``_on_lattice``.

The gap statistic measures how far a shifted lattice stays from a thin
rectangle anchored at the origin: the rectangle [-1/T, 1/T] x [-1, 1] is
inflated until it first touches the lattice, and the critical inflation
factor is returned.  A lattice that already contains the origin (only
possible for a nonzero q) gives zero.

All projected grids of one element share the basis rows M, so
:func:`grid_gap_many` reduces it once per (element, T) and scores every
offset q v, at one time or at several, as array code; :func:`grid_gap` is
its one-row case.  It scores up to 160 (time, offset) rows per array block:
a block's time is mostly fixed numpy cost, and at 160 rows its candidate
arrays still stay below glibc's mmap threshold, so the 43 distinct offsets
of a default orbit gap bound at its three default times make one block.
Where the minimum is attained twice (always for q = 0, by p and -p) the
witness is the first minimizer in candidate order: c1, then breakpoint,
then c0.  A breakpoint that does not exist (zero denominator) is a nan
candidate, which never wins, so every row's finite candidates keep that
order whatever the other rows of its block are.

The gap value is even in the offset: the rows n and -n give the same float
(not always opposite witnesses, since ties are broken in candidate order),
because the lattice is symmetric and every step is odd or even in the
offset.  The offset, the Cramer coefficients, ``rint``, the breakpoints and the
candidates are odd; ``_point_value`` and the membership test are even.  Only
the ``floor``-based c0 window shifts, and only at an integer breakpoint, where
both windows still hold its floor and ceiling.  So a sum over a ± symmetric
set of offsets may score one of each pair and count it twice, as
``majorant.orbit_gap_bounds`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, integers
from .sl2core import Sl2Matrix

#: Inflation factors beyond this are reported as the cap itself.
GAP_CAP = 1e30

#: Largest T * max|M| accepted: the lattice reduction squares entries of that size.
SCALED_CAP = 2.0**511

#: Largest eps * T * |M|^2 answered for a matrix with a non-integer entry: a
#: grid point's coordinates carry a relative rounding error of about that
#: size (8e-4 at T = 1e10 for the largest |M|^2 = 361 of A15's ensemble).
_ROUNDING_CAP = 1e-3

#: Lattice membership is decided in coefficient space at this tolerance.
MEMBERSHIP_TOL = 1e-9

_MAX_REDUCTION_SWEEPS = 200

#: (time, offset) rows scored per array block in grid_gap_many.  Most of a
#: block's time is fixed numpy cost, not per-row work (one block of default
#: orbit bound rows, 2 cores, numpy 2.4, timeit min): 145-160 us at 32 rows,
#: 165-185 at 43, 195-210 at 64, 255-280 at 101, 500-540 at 129, 610-680 at
#: 160 and 765-875 at 200.  At 160 rows the (rows, 5, 5, 4) float candidate
#: arrays hold 125 KiB, below glibc's 128 KiB mmap threshold, and the 43
#: distinct offsets of an orbit gap bound at q_max = d_max = 10 at its three
#: default times make one 129-row block, not three blocks of 43.
_BLOCK_ROWS = 160


@dataclass(frozen=True)
class GroupElement:
    """A pair (matrix, translation block) with the translation a k x 2 array."""

    matrix: Sl2Matrix
    translation: np.ndarray

    def __post_init__(self) -> None:
        block = np.asarray(self.translation, dtype=float)
        if block.ndim != 2 or block.shape[1] != 2 or block.shape[0] < 1:
            raise DomainError(f"translation block must be k x 2, got shape {block.shape}")
        if not np.all(np.isfinite(block)):
            raise DomainError("translation block must be finite")
        block = np.array(block, copy=True)
        block.setflags(write=False)
        object.__setattr__(self, "translation", block)

    @property
    def k(self) -> int:
        return self.translation.shape[0]

    @classmethod
    def identity(cls, k: int = 1) -> "GroupElement":
        return cls(Sl2Matrix.identity(), np.zeros((k, 2)))

    @classmethod
    def from_torus_point(cls, matrix: Sl2Matrix, xi: np.ndarray) -> "GroupElement":
        """Build the element whose torus variable is the given xi (k x 2)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        # A product beyond the float range is refused by the finiteness check.
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(matrix, xi @ matrix.as_array())

    def torus_point(self) -> np.ndarray:
        """The k x 2 block xi = v M^{-1}."""
        return self.translation @ self.matrix.inverse().as_array()

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.k != other.k:
            raise DomainError(f"cannot multiply elements with k={self.k} and k={other.k}")
        return GroupElement(
            self.matrix @ other.matrix,
            self.translation @ other.matrix.as_array() + other.translation,
        )

    def inverse(self) -> "GroupElement":
        minv = self.matrix.inverse()
        return GroupElement(minv, -self.translation @ minv.as_array())

    def project(self, q: Sequence[int]) -> "GroupElement":
        """Contract the translation block against an integer vector.

        The result has k = 1 and translation q v.  This is a group
        homomorphism for each fixed q.
        """
        qv = integers(q, "projection vector")
        if qv.shape != (self.k,):
            raise DomainError(f"q must have length {self.k}, got shape {qv.shape}")
        return GroupElement(self.matrix, (qv.astype(float) @ self.translation)[None, :])


def _det(basis):
    """ad - bc of a 2 x 2 matrix, or of each matrix of a (..., 2, 2) stack."""
    return basis[..., 0, 0] * basis[..., 1, 1] - basis[..., 0, 1] * basis[..., 1, 0]


def _coefficients(basis, points):
    """The c of c @ basis = points, basis rows (..., 2, 2) and points (..., 2),
    by Cramer's rule, forward stable for 2 x 2 systems (Higham, Accuracy and
    Stability of Numerical Algorithms, section 1.10.1)."""
    p0, p1, det = points[..., 0], points[..., 1], _det(basis)
    return np.stack([(p0 * basis[..., 1, 1] - p1 * basis[..., 1, 0]) / det,
                     (p1 * basis[..., 0, 0] - p0 * basis[..., 0, 1]) / det], axis=-1)


def _on_lattice(basis, points):
    """Whether each point (..., 2) has both coefficients within MEMBERSHIP_TOL of
    integers: the membership test of PlanarGrid.contains and the gap kernel."""
    c = _coefficients(basis, points)
    return np.max(np.abs(c - np.round(c)), axis=-1) <= MEMBERSHIP_TOL


@dataclass(frozen=True)
class PlanarGrid:
    """A shifted planar lattice: all points n B + offset with n integral.

    ``basis`` holds the two spanning vectors as rows.
    """

    basis: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(np.asarray(self.basis, dtype=float), copy=True)
        o = np.array(np.asarray(self.offset, dtype=float), copy=True)
        if b.shape != (2, 2):
            raise DomainError(f"basis must be 2x2, got {b.shape}")
        if o.shape != (2,):
            raise DomainError(f"offset must be a 2-vector, got {o.shape}")
        if abs(_det(b)) < 1e-14:
            raise DomainError("basis rows are numerically dependent")
        b.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "offset", o)

    def contains(self, point: Sequence[float]) -> bool:
        return bool(_on_lattice(self.basis, np.asarray(point, dtype=float) - self.offset))


def grid_of(element: GroupElement, q: Sequence[int]) -> PlanarGrid:
    """The planar grid swept out by integer translates of a projected element.

    For an element (M, v) and integer vector q this is the lattice with
    basis rows M shifted by q v.
    """
    proj = element.project(q)
    return PlanarGrid(proj.matrix.as_array(), proj.translation[0])


@dataclass(frozen=True)
class RectangleRT:
    """The anchor rectangle [-1/T, 1/T] x [-1, 1] for a time parameter T >= 1."""

    T: float

    def __post_init__(self) -> None:
        if not (self.T >= 1.0 and math.isfinite(self.T)):
            raise DomainError("time parameter must be a finite number >= 1")

    def entry_scale(self, point: Sequence[float]) -> float:
        """Smallest S >= 0 whose inflation S * rectangle contains the point.

        The rectangle is closed, so a point on the boundary of the inflated
        copy counts as contained.
        """
        x1, x2 = float(point[0]), float(point[1])
        return max(self.T * abs(x1), abs(x2))


@dataclass(frozen=True)
class GapResult:
    """Outcome of the gap computation: the critical scale and a witness point."""

    value: float
    witness: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(np.asarray(self.witness, dtype=float), copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "witness", w)


def _gauss_reduce(rows: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Euclidean reduction of a 2D lattice basis, tracking the integer change
    of coordinates u with reduced = u @ rows.

    The rows are held as four Python floats, so each norm and inner product
    is a0 * b0 + a1 * b1 in plain float arithmetic, never a BLAS dot, whose
    use of fused multiply-adds depends on the kernel.  A basis still
    unreduced after ``_MAX_REDUCTION_SWEEPS`` sweeps raises
    :class:`ConvergenceError`: the candidate window needs a reduced basis.
    """
    (a0, a1), (b0, b1) = rows.tolist()
    u = [[1, 0], [0, 1]]
    for _ in range(_MAX_REDUCTION_SWEEPS):
        n0 = a0 * a0 + a1 * a1
        n1 = b0 * b0 + b1 * b1
        if n0 > n1:
            a0, a1, b0, b1 = b0, b1, a0, a1
            u = [u[1], u[0]]
            n0 = n1
        mu = round((a0 * b0 + a1 * b1) / n0)
        if mu == 0:
            return np.array([[a0, a1], [b0, b1]]), u
        b0, b1 = b0 - mu * a0, b1 - mu * a1
        u = [u[0], [u[1][0] - mu * u[0][0], u[1][1] - mu * u[0][1]]]
    raise ConvergenceError(f"lattice reduction did not converge within {_MAX_REDUCTION_SWEEPS} sweeps")


def _point_value(n0, n1, basis: np.ndarray, offset: np.ndarray, T: np.ndarray):
    # Shared evaluation formula; the brute-force cross-check in the test
    # suite mirrors it term for term so the two routes agree bitwise.
    x1 = n0 * basis[0, 0] + n1 * basis[1, 0] + offset[..., 0]
    x2 = n0 * basis[0, 1] + n1 * basis[1, 1] + offset[..., 1]
    return np.maximum(T * np.abs(x1), np.abs(x2)), x1, x2


def _breakpoints(num, den):
    # A zero denominator gives no breakpoint: nan, which never wins below.
    den = den[:, None]
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=den != 0.0)


def _gap_block(basis, reduced, u, offsets, exempt, T):
    """Gap values and witnesses of rows that each carry their own time ``T``
    (rows,), reduced basis ``reduced`` (rows, 2, 2) and change of coordinates
    ``u`` (rows, 2, 2); origin membership is left to the caller.  Candidate
    arrays are laid out (row, c1, break, c0) with five breakpoints per c1.  A
    breakpoint with a zero denominator is a nan candidate, so the finite
    candidates keep their order and the first minimizer is the same."""
    n = len(offsets)
    # Work in coordinates rescaled so the target becomes the sup-norm ball.
    # After Euclidean reduction the coefficient of the longer basis vector
    # at any sup-norm minimizer sits within 2 of the rounded real solution,
    # so it is enumerated directly.  Along the shorter vector the minimizer
    # can drift arbitrarily far, but there the objective is convex piecewise
    # linear in one variable, so its breakpoints pin down the candidates.
    shifted = np.column_stack((offsets[:, 0] * T, offsets[:, 1]))
    target = _coefficients(reduced, -shifted)
    c1 = np.rint(target[:, 1])[:, None] + np.arange(-2.0, 3.0)
    base = c1[:, :, None] * reduced[:, None, 1] + shifted[:, None, :]
    first = reduced[:, 0]
    # A subnormal reduced entry sends its breakpoints to inf, and far candidates
    # at huge T or offsets may overflow to inf or nan.  The isfinite mask skips
    # inf and nan breakpoints and fmin sends nan to inf, so neither ever wins.
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.stack([
            np.broadcast_to(target[:, :1], c1.shape),
            _breakpoints(-base[:, :, 0], first[:, 0]),
            _breakpoints(-base[:, :, 1], first[:, 1]),
            _breakpoints(base[:, :, 1] - base[:, :, 0], first[:, 0] - first[:, 1]),
            _breakpoints(-base[:, :, 1] - base[:, :, 0], first[:, 0] + first[:, 1]),
        ], axis=2)[:, :, :, None]
        c0 = np.floor(x) + np.arange(-1.0, 3.0)
        c1 = c1[:, :, None, None]
        u = u.reshape(n, 2, 2, 1, 1, 1)
        # Integer-valued floats, equal to the exact lattice indices below 2^53.
        n0 = c0 * u[:, 0, 0] + c1 * u[:, 1, 0]
        n1 = c0 * u[:, 0, 1] + c1 * u[:, 1, 1]
        vals, x1, x2 = _point_value(n0, n1, basis, offsets[:, None, None, None, :], T[:, None, None, None])
    vals = np.where(np.isfinite(x), np.fmin(vals, np.inf), np.inf)
    # The q = 0 rows skip the origin; only those rows are masked.
    zero = np.flatnonzero(exempt)
    vals[zero] = np.where((n0[zero] == 0.0) & (n1[zero] == 0.0), np.inf, vals[zero])
    vals = vals.reshape(n, -1)
    rows = np.arange(n)
    best = np.argmin(vals, axis=1)
    value = vals[rows, best]
    witness = np.stack([x1.reshape(n, -1)[rows, best], x2.reshape(n, -1)[rows, best]], axis=1)
    witness[np.isinf(value)] = 0.0
    return np.minimum(value, GAP_CAP), witness


def grid_gap_many(element: GroupElement, ns: np.ndarray, T) -> tuple[np.ndarray, np.ndarray]:
    """Gap values (n,) and witnesses (n, 2) for the rows of the (n, k) integer
    array ``ns``; row i is exactly ``grid_gap(element, ns[i], T)`` in any batch.
    ``T`` is one time or a 1-D sequence of times; a sequence gives values
    (len(T), n) and witnesses (len(T), n, 2), row t being the one-T answer at
    ``T[t]``.  A matrix with a non-integer entry is refused once
    eps * T * |M|^2, the relative rounding error of its grid coordinates,
    passes 1e-3.  Every time is checked and reduced before any block runs.

    The rows (time, offset) go into blocks of ``_BLOCK_ROWS`` time-major; the
    origin test depends on the offset alone and runs once per offset."""
    times = [RectangleRT(float(t)).T for t in (T if np.ndim(T) else [T])]
    ns = integers(ns, "projection vectors")
    if ns.ndim != 2 or ns.shape[1] != element.k:
        raise DomainError(f"projection vectors must form an (n, {element.k}) array: {ns.shape}")
    # One small product per row, as in GroupElement.project, so a row's
    # offset does not depend on the batch around it.
    offsets = np.matmul(ns.astype(float)[:, None, :], element.translation)[:, 0, :]
    basis = element.matrix.as_array()
    entry, norm2 = float(np.abs(basis).max()), float(np.sum(basis * basis))
    reach = float(np.abs(offsets[:, 0]).max(initial=0.0))
    reduced, us = np.empty((len(times), 2, 2)), np.empty((len(times), 2, 2))
    for j, t in enumerate(times):
        if not t * entry <= SCALED_CAP:
            raise DomainError(f"T={t:g}: T * max|M| above 2^511 overflows the lattice reduction")
        rounding = 2.0**-52 * t * norm2
        if rounding > _ROUNDING_CAP and not element.matrix.is_integral(0.0):
            raise DomainError(
                f"T={t:g}: eps * T * |M|^2 = {rounding:.2g} exceeds {_ROUNDING_CAP:g}, so the gap of"
                " this non-integer matrix would be rounding noise"
            )
        if not math.isfinite(t * reach):
            raise DomainError(f"T={t:g} times the grid offset overflows")
        reduced[j], us[j] = _gauss_reduce(basis * np.array([t, 1.0]))
    times = np.array(times)
    n, total = len(ns), len(times) * len(ns)
    exempt = ~ns.any(axis=1)
    origin = _on_lattice(basis, -offsets) & ~exempt
    values, witnesses = np.empty(total), np.empty((total, 2))
    for lo in range(0, total, _BLOCK_ROWS):
        blk = slice(lo, lo + _BLOCK_ROWS)
        t, i = np.divmod(np.arange(lo, min(lo + _BLOCK_ROWS, total)), n)
        values[blk], witnesses[blk] = _gap_block(basis, reduced[t], us[t], offsets[i], exempt[i], times[t])
    values, witnesses = values.reshape(len(times), n), witnesses.reshape(len(times), n, 2)
    # Only a nonzero row's grid can contain the origin, which forces the gap 0.
    values[:, origin] = 0.0
    witnesses[:, origin] = 0.0
    return (values, witnesses) if np.ndim(T) else (values[0], witnesses[0])


def grid_gap(element: GroupElement, q: Sequence[int], T: float) -> GapResult:
    """Critical inflation of the anchored rectangle against a projected grid.

    Returns the largest S for which S * [-1/T, 1/T] x [-1, 1] misses every
    relevant grid point.  For q = 0 the origin itself is exempt (it always
    lies in the lattice); for nonzero q a grid that contains the origin
    forces the answer 0.  Values are capped at ``GAP_CAP``.
    """
    values, witnesses = grid_gap_many(element, np.asarray(q)[None], T)
    return GapResult(values[0], witnesses[0])


def log_gauge(x: float, j: int) -> float:
    """The gauge x * (log(2 + 1/x))^j, defined for x > 0 and integer j >= 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError("gauge argument must be a positive finite number")
    j = int(integers(j, "gauge order"))
    if j < 0:
        raise DomainError("gauge order must be a nonnegative integer")
    return x * math.log(2.0 + 1.0 / x) ** j
