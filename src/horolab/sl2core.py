"""Arithmetic on the group of real unimodular 2x2 matrices.

Everything downstream (grids, majorant sums, orbit integrals) leans on a
small set of exact-as-possible primitives collected here: the Iwasawa chart
(horizontal translation, height, rotation angle), the [u, v, s] shear
chart, Frobenius norms, the Moebius action on the upper half plane,
reduction into the classical fundamental domain, and the cuspidal height.

Conventions: matrices act on row vectors from the right, and on the upper
half plane by fractional linear maps.  The rotation angle is kept in
[0, 2*pi), not folded modulo pi, because minus the identity is a genuine
group element here and the covolume bookkeeping in :mod:`horolab.autofns`
depends on the full circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

# Determinant drift larger than this triggers renormalization by det^{-1/2}.
DET_RENORM_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Sl2Matrix:
    """A real 2x2 matrix of determinant one.

    Construction renormalizes mild determinant drift (|det - 1| up to
    1e-6) by dividing through sqrt(det); anything worse, or a
    non-positive determinant, is rejected, by :func:`_unimodular` for any
    determinant not within ``DET_RENORM_TOL`` of one.  Instances are
    immutable and hashable, so they can be used freely as dictionary keys.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not abs(self.det - 1.0) <= DET_RENORM_TOL:
            entries = _unimodular(np.array([[self.a], [self.b], [self.c], [self.d]], dtype=float))
            for name, x in zip("abcd", entries[:, 0].tolist()):
                object.__setattr__(self, name, x)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls) -> "Sl2Matrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, x: float) -> "Sl2Matrix":
        """Upper unipotent u_x = (1, x; 0, 1)."""
        return cls(1.0, float(x), 0.0, 1.0)

    @classmethod
    def dilation(cls, y: float) -> "Sl2Matrix":
        """Diagonal a_y = (sqrt(y), 0; 0, 1/sqrt(y)) for y > 0."""
        if y <= 0.0:
            raise DomainError("dilation parameter must be positive")
        r = math.sqrt(y)
        return cls(r, 0.0, 0.0, 1.0 / r)

    @classmethod
    def rotation(cls, theta: float) -> "Sl2Matrix":
        ct, st = math.cos(theta), math.sin(theta)
        return cls(ct, -st, st, ct)

    @classmethod
    def inversion(cls) -> "Sl2Matrix":
        """The order-four element (0, -1; 1, 0)."""
        return cls(0.0, -1.0, 1.0, 0.0)

    @classmethod
    def from_array(cls, arr: np.ndarray | Sequence[Sequence[float]]) -> "Sl2Matrix":
        m = np.asarray(arr, dtype=float)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 array, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    # -- basic queries ------------------------------------------------

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def frobenius_norm(self) -> float:
        return math.sqrt(self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d)

    def inverse(self) -> "Sl2Matrix":
        return Sl2Matrix(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return Sl2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Sl2Matrix":
        return Sl2Matrix(-self.a, -self.b, -self.c, -self.d)

    def mobius(self, tau: complex) -> complex:
        """Fractional linear action on a point of the upper half plane."""
        if tau.imag <= 0.0:
            raise DomainError("mobius action expects Im tau > 0")
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def is_integral(self, tol: float = 1e-9) -> bool:
        return all(abs(x - round(x)) <= tol for x in (self.a, self.b, self.c, self.d))


@dataclass(frozen=True)
class IwasawaCoords:
    """Coordinates (u, v, theta) with M = u_u a_v rot(theta), v > 0."""

    u: float
    v: float
    theta: float

    def __post_init__(self) -> None:
        if self.v <= 0.0:
            raise DomainError("height coordinate must be positive")


@dataclass(frozen=True)
class UvsCoords:
    """The (u, v, s) chart: M = (u, -v/(u^2+v^2); v, u/(u^2+v^2)) u_s.

    Here (u, v) is the first column of the matrix, which must not vanish.
    """

    u: float
    v: float
    s: float

    def __post_init__(self) -> None:
        if self.u == 0.0 and self.v == 0.0:
            raise DomainError("(u, v) = (0, 0) is outside the chart")


def iwasawa_decompose(m: Sl2Matrix) -> IwasawaCoords:
    """Split M as u_u a_v rot(theta) with theta in [0, 2*pi).

    The bottom row determines v = 1/(c^2+d^2) and theta = atan2(c, d); u is
    the real part of M(i).
    """
    denom = m.c * m.c + m.d * m.d
    v = 1.0 / denom
    u = (m.a * m.c + m.b * m.d) * v
    theta = math.atan2(m.c, m.d)
    if theta < 0.0:
        theta += _TWO_PI
    return IwasawaCoords(u, v, theta % _TWO_PI)


def iwasawa_compose(coords: IwasawaCoords) -> Sl2Matrix:
    """Inverse of :func:`iwasawa_decompose`."""
    r = math.sqrt(coords.v)
    ct, st = math.cos(coords.theta), math.sin(coords.theta)
    # u_u a_v = (r, u/r; 0, 1/r), then multiply by the rotation.
    return Sl2Matrix(
        r * ct + (coords.u / r) * st,
        -r * st + (coords.u / r) * ct,
        st / r,
        ct / r,
    )


def uvs_decompose(m: Sl2Matrix) -> UvsCoords:
    """Read off the (u, v, s) chart: u = a, v = c, s = (ab + cd)/(a^2 + c^2)."""
    denom = m.a * m.a + m.c * m.c
    if denom == 0.0:
        raise DomainError("zero first column cannot occur for a unimodular matrix")
    return UvsCoords(m.a, m.c, (m.a * m.b + m.c * m.d) / denom)


def uvs_compose(coords: UvsCoords) -> Sl2Matrix:
    u, v, s = coords.u, coords.v, coords.s
    denom = u * u + v * v
    return Sl2Matrix(u, u * s - v / denom, v, v * s + u / denom)


# -- fundamental domain -----------------------------------------------

#: Slack accepted on the fundamental-domain inequalities.
FUNDAMENTAL_TOL = 1e-12

_MAX_REDUCTION_STEPS = 4000


def _unimodular(m: np.ndarray) -> np.ndarray:
    """The determinant rule of :class:`Sl2Matrix`, whose construction calls
    it, on a (4, n) array of entries a, b, c, d: a determinant drift past
    ``DET_RENORM_TOL`` is divided out by sqrt(det), and a determinant more
    than 1e-6 from one, non-positive or not finite is refused."""
    a, b, c, d = m
    det = a * d - b * c
    drift = np.abs(det - 1.0)
    if np.all(drift <= DET_RENORM_TOL):
        return m
    bad = ~(np.isfinite(det) & (det > 0.0))
    if bad.any():
        raise DomainError(f"matrix determinant {float(det[bad][0])} is not a positive real")
    far = drift > 1e-6
    if far.any():
        raise DomainError(f"determinant {float(det[far][0])} too far from 1 to renormalize")
    return m * np.where(drift > DET_RENORM_TOL, 1.0 / np.sqrt(det), 1.0)


def stack_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y on broadcast (..., 2, 2) stacks, entry for entry as
    :class:`Sl2Matrix`'s product and construction, so every matrix of the
    stack equals its ``Sl2Matrix`` counterpart bit for bit."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the rule refuses what overflows
        entries = np.broadcast_arrays(
            *(x[..., i, 0] * y[..., 0, j] + x[..., i, 1] * y[..., 1, j] for i in (0, 1) for j in (0, 1))
        )
        flat = _unimodular(np.stack(entries).reshape(4, -1))
    return flat.T.reshape(*entries[0].shape, 2, 2)


def _tau_at_i(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Real part and modulus of M(i) from arrays of entries, with the float
    operations of Python's complex division (Smith's method, scaled by the
    larger of c and d) and ``abs``, so each value equals
    ``Sl2Matrix.mobius(1j)``'s on float entries.  (On numpy-scalar entries
    ``mobius`` divides the numpy way, by a reciprocal, up to an ulp apart.)"""
    big = np.abs(d) >= np.abs(c)
    num, den = np.where(big, c, d), np.where(big, d, c)
    ratio = num / den
    ar, br = a * ratio, b * ratio
    scale = den + num * ratio
    re = np.where(big, b + ar, br + a) / scale
    im = np.where(big, a - br, ar - b) / scale
    return re, np.hypot(re, im)


_to_int = np.frompyfunc(int, 1, 1)


def reduce_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Domain reduction of an (n, 2, 2) stack of matrices, all in one loop.

    Returns (gamma, reduced), two (n, 2, 2) float stacks with
    ``reduced[i]`` = gamma_i^{-1} m_i as :func:`reduce_fundamental`
    describes.  The rows are taken as they stand, like the entries of an
    :class:`Sl2Matrix`; re-applying its construction rule would move rows
    whose determinant only rounds to one.  Each pass takes one reduction
    step on every matrix not yet reduced, with the tie rules and float
    operations of the step-by-step reduction, and applies the determinant
    rule of :class:`Sl2Matrix` after every step, so each row equals the
    reduction of its matrix alone.  The words gamma_i^{-1} are accumulated
    as exact Python integers.
    """
    arr = np.asarray(mats, dtype=float)
    if arr.ndim != 3 or arr.shape[1:] != (2, 2):
        raise DomainError(f"expected an (n, 2, 2) stack of matrices, got shape {arr.shape}")
    n = arr.shape[0]
    reduced, words = np.empty((4, n)), np.empty((4, n), dtype=object)
    # Rows a, b, c, d of the matrices not yet reduced, and of their words.
    cur = arr.reshape(n, 4).T
    w = np.array([[1], [0], [0], [1]], dtype=object).repeat(n, axis=1)
    rows = np.arange(n)
    tol = FUNDAMENTAL_TOL
    for _ in range(_MAX_REDUCTION_STEPS if n else 0):
        with np.errstate(over="ignore", invalid="ignore"):
            re, norm = _tau_at_i(*cur)
        if not np.all(np.isfinite(re)):
            raise DomainError("Re M(i) overflows: the matrix is too far out to reduce")
        inside = (np.abs(re) <= 0.5 + tol) & (norm >= 1.0 - tol)
        # Inside the domain the right edge of the strip shifts by one (prefer
        # Re tau <= 0) and the unit-circle boundary with Re tau > 0 flips
        # across; outside, shift to the nearest integer, or invert at zero.
        edge = re > 0.5 - tol
        shift = np.where(inside, edge, np.floor(re + 0.5))
        still = shift == 0.0
        flip = still & (~inside | ((np.abs(norm - 1.0) <= tol) & (re > tol)))
        done = still & ~flip
        if done.any():
            reduced[:, rows[done]] = cur[:, done]
            words[:, rows[done]] = w[:, done]
            go = ~done
            rows = rows[go]
            if not rows.size:
                break
            shift, flip, cur, w = shift[go], flip[go], cur[:, go], w[:, go]
        # Shift: (a - n c, b - n d, c, d); flip: (-c, -d, a, b).  An entry
        # that overflows makes the determinant rule refuse the row.
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.concatenate((cur[:2] - shift * cur[2:], cur[2:]))
            cur = _unimodular(np.where(flip, np.concatenate((-cur[2:], cur[:2])), step))
        w = np.where(flip, np.concatenate((-w[2:], w[:2])),
                     np.concatenate((w[:2] - _to_int(shift) * w[2:], w[2:])))
    if rows.size:
        raise RuntimeError("fundamental-domain reduction did not terminate")
    # gamma = w^{-1} as floats.  Integer floats give an integer determinant,
    # so the determinant rule either keeps them (determinant exactly one) or,
    # once products pass 2^53, refuses them with its own error.
    gamma = words[[3, 1, 2, 0]]
    gamma[1:3] = -gamma[1:3]
    gamma = gamma.astype(float)
    _unimodular(gamma)
    return gamma.T.reshape(n, 2, 2), np.ascontiguousarray(reduced.T).reshape(n, 2, 2)


def reduce_fundamental(m: Sl2Matrix) -> tuple[Sl2Matrix, Sl2Matrix]:
    """Return (gamma, m_red) with m_red = gamma^{-1} m in the classical domain.

    gamma has integer entries and determinant one, and tau = m_red(i)
    satisfies |Re tau| <= 1/2 and |tau| >= 1 up to ``FUNDAMENTAL_TOL``.
    Ties are broken deterministically: the translation step lands the real
    part in [-1/2, 1/2), and a boundary point with |tau| = 1, Re tau > 0 is
    flipped by the inversion so every platform returns the same gamma.
    This is :func:`reduce_stack` on a stack of one.
    """
    gamma, reduced = reduce_stack(m.as_array()[None])
    return Sl2Matrix(*gamma[0].ravel().tolist()), Sl2Matrix(*reduced[0].ravel().tolist())


def cuspidal_height(m: Sl2Matrix) -> float:
    """Largest imaginary part of M(i) over the integer unimodular orbit.

    Always at least sqrt(3)/2 and never more than the squared Frobenius
    norm of M.
    """
    _, reduced = reduce_fundamental(m)
    return reduced.mobius(1j).imag

