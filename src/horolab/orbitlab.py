"""Horocycle averages and orbit splitting.

The functions here push a periodized bump (an ``autofns`` test function)
along horocycle pieces and compare the observed averages with the
structural bounds from :mod:`horolab.majorant`.  The same averages are
computed by independent routes: pointwise adaptive quadrature, a lattice
swap that enumerates the finitely many contributing translates, and for
long expanding orbits a partition-of-unity split into bounded windows.
Mutual agreement of the routes is the main correctness check.

Window callables are evaluated on arrays of nodes and must vectorize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .affine import GroupElement
from .arith import xgcd_array
from .autofns import PoincareTestFn, evaluate_f, kernel_profile, mean_value
from .errors import ConvergenceError, DomainError, ResourceGuardError
from .majorant import MajorantParams, majorant_full
from .quadrature import _rule, adaptive_quad
from .sl2core import Sl2Matrix, cuspidal_height, reduce_fundamental
from .smoothfns import bump6_normalized

# Above this many translate candidates a single average would stall or
# exhaust memory; callers see the guard instead of a silent truncation.
CANDIDATE_CAP = 3_000_000
_CHUNK = 65536
_CEILING_SLACK = 1e-9
_PAD = 1.0 + 1e-12


@dataclass(frozen=True)
class SplitData:
    """One point of an orbit written as shift * core * dilation.

    ``reduced`` is the domain representative of the orbit matrix; for a
    position z off the pole, ``reduced @ u_z`` factors as
    ``u_shift @ core @ a_scale`` with an integer shift, a positive scale,
    and a core matrix whose bottom right entry is a unit.  Near the cusp
    the core stays bounded, which is what makes the factorization useful.
    """

    scale: float
    shift: int
    core: Sl2Matrix
    reduced: Sl2Matrix

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError("split scale must be positive and finite")
        if not isinstance(self.shift, int):
            raise DomainError("split shift must be an integer")
        if abs(abs(self.core.d) - 1.0) > 1e-9:
            raise DomainError("split core must end in a unit entry")


def _positive_row(m: Sl2Matrix) -> Sl2Matrix:
    """Fix the overall sign of a matrix by its bottom row.

    Domain reduction determines a matrix only up to sign; choosing the
    representative whose bottom row points into the upper half plane makes
    downstream splits independent of the reduction path.
    """
    if m.c < 0.0 or (m.c == 0.0 and m.d < 0.0):
        return Sl2Matrix(-m.a, -m.b, -m.c, -m.d)
    return m


def orbit_split(matrix: Sl2Matrix, T: float, z: float) -> SplitData:
    """Split the time-T orbit of ``matrix`` at horocycle position z.

    The orbit matrix is reduced to the classical domain first, so the
    output only depends on the left integer class of ``matrix``.  The
    position must avoid the single pole where the reduced bottom row
    annihilates it.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise DomainError("orbit time must be positive and finite")
    if not math.isfinite(z):
        raise DomainError("horocycle position must be finite")
    _, reduced = reduce_fundamental(matrix @ Sl2Matrix.dilation(T))
    reduced = _positive_row(reduced)
    a, b, c, d = reduced.a, reduced.b, reduced.c, reduced.d
    denom = c * z + d
    if abs(denom) < 1e-12 * (abs(c) * abs(z) + abs(d) + 1.0):
        raise DomainError("horocycle position sits at the pole of the reduced row")
    scale = 1.0 / (denom * denom)
    ratio = (a * z + b) / denom
    shift = math.floor(ratio)
    if ratio - shift > 1.0 - _CEILING_SLACK:
        shift += 1
    mag, sign = abs(denom), math.copysign(1.0, denom)
    core = Sl2Matrix(
        (a - shift * c) * mag,
        (a * z + b - shift * denom) / mag,
        c * mag,
        sign,
    )
    return SplitData(scale, int(shift), core, reduced)


def partition_identity(
    phi: Callable[[np.ndarray], np.ndarray], c: float, d: float, s: float
) -> float:
    """Mass in the window position of a source-scaled unit bump.

    For a mass-one profile ``phi``, the bump centred at source point s and
    scaled by ``(cs+d)**2`` keeps unit mass when integrated over the window
    position; this is the fact that lets an orbit integral be smeared over
    window positions without changing its value.  Computed by quadrature as
    a check of the profile normalization, so the return value is ~1.
    """
    width = c * s + d
    if abs(width) < 1e-12 * (abs(c) * abs(s) + abs(d) + 1.0):
        raise DomainError("source point sits at the pole")
    w2 = width * width

    def scaled(z: np.ndarray) -> np.ndarray:
        return phi((np.asarray(z, dtype=float) - s) / w2) / w2

    return float(adaptive_quad(scaled, s - w2, s + w2, rel_tol=1e-10, abs_tol=1e-13))


def _h_mass(h: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    return float(adaptive_quad(lambda x: np.asarray(h(x), dtype=float), lo, hi, rel_tol=1e-10))


def translate_integral(
    fn: PoincareTestFn,
    element: GroupElement,
    y: float,
    h: Callable[[np.ndarray], np.ndarray],
    h_support: tuple[float, float] | None = (-1.0, 1.0),
) -> complex:
    """Reference route: pointwise adaptive quadrature of the translated value.

    The quadrature asks for relative tolerance 1e-7 at depth up to 24.  With
    no support given, ``h`` must decay at least like the inverse cube
    of the position; the integration window then doubles until the value
    stops moving.  This route evaluates the function matrix by matrix, so
    it is the slow but independent benchmark for the lattice route.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("height must be positive and finite")
    if element.k != fn.k:
        raise DomainError("element and test function carry different block counts")
    xi = element.torus_point()
    base = element.matrix
    scale = Sl2Matrix.dilation(y)

    def point(x: float) -> complex:
        return evaluate_f(fn, base @ Sl2Matrix.translation(float(x)) @ scale, xi)

    def integrand(xs: np.ndarray) -> np.ndarray:
        flat = np.atleast_1d(np.asarray(xs, dtype=float))
        weights = np.asarray(h(flat), dtype=float)
        return np.array(
            [0.0 if w == 0.0 else point(x) * w for x, w in zip(flat, weights)]
        )

    if h_support is not None:
        lo, hi = h_support
        if not lo < hi:
            raise DomainError("support interval must be increasing")
        return complex(adaptive_quad(integrand, lo, hi, rel_tol=1e-7, max_depth=24))
    half, prev = 2.0, None
    for _ in range(8):
        val = complex(adaptive_quad(integrand, -half, half, rel_tol=1e-7, max_depth=24))
        if prev is not None and abs(val - prev) <= 1e-7 * max(1.0, abs(val)):
            return val
        prev, half = val, half * 2.0
    raise ConvergenceError("translated integral did not stabilize under window doubling")


def lattice_window_average(
    fn: PoincareTestFn,
    element: GroupElement,
    y: float,
    window: Callable[[np.ndarray], np.ndarray],
    support: tuple[float, float],
    max_panel: float | None = None,
) -> complex:
    """Fast route: swap the translate series with the window integral.

    Computes the same integral as :func:`translate_integral` with weight
    ``window`` on ``support``, but sums over the finitely many integer
    translates whose kernel term can meet the support.  Translates are
    enumerated through their bottom rows (integer combinations of the base
    rows confined to a thin slab), each completed to the compatible top
    rows; per translate the window integral runs on its exact support
    interval with one 24-point Gauss-Legendre panel.  Windows with features
    much shorter than those intervals need ``max_panel`` to cap the length
    each rule is asked to cover.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("height must be positive and finite")
    if element.k != fn.k:
        raise DomainError("element and test function carry different block counts")
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise DomainError("support interval must be increasing")
    level = fn.level
    rho_sq = fn.support_radius * fn.support_radius
    root_y = math.sqrt(y)
    p_max = fn.support_radius / root_y
    slab = fn.support_radius * root_y
    b_max = max(abs(lo), abs(hi))
    s_cap = slab + p_max * b_max
    w_max = math.hypot(p_max, s_cap)
    m_arr = element.matrix.as_array()
    m_inv = element.matrix.inverse().as_array()
    xi = element.torus_point()
    xi = xi - np.floor(xi)

    bound1 = int(w_max * math.hypot(m_inv[0, 0], m_inv[1, 0])) + 1
    bound2 = int(w_max * math.hypot(m_inv[0, 1], m_inv[1, 1])) + 1
    if 2 * bound2 + 1 > CANDIDATE_CAP:
        raise ResourceGuardError(
            f"bottom-row scan over {2 * bound2 + 1} columns exceeds the enumeration budget"
        )
    n2s = np.arange(-bound2, bound2 + 1, dtype=np.int64)
    if level > 1:
        n2s = n2s[n2s % level == 1 % level]
    if n2s.size == 0:
        return 0.0 + 0.0j

    # Per-column interval for the first integer coordinate, taken from the
    # better conditioned of the two linear forms; the other form is applied
    # as an exact filter afterwards.
    use_q = abs(m_arr[0, 0]) >= abs(m_arr[0, 1])
    a_star = m_arr[0, 0] if use_q else m_arr[0, 1]
    b_star = m_arr[1, 0] if use_q else m_arr[1, 1]
    cap_star = (p_max if use_q else s_cap) * _PAD
    edge1 = (-cap_star - n2s * b_star) / a_star
    edge2 = (cap_star - n2s * b_star) / a_star
    n1_lo = np.maximum(np.minimum(edge1, edge2), -bound1 - 0.5)
    n1_hi = np.minimum(np.maximum(edge1, edge2), bound1 + 0.5)
    k_lo = np.ceil(n1_lo / level).astype(np.int64)
    k_hi = np.floor(n1_hi / level).astype(np.int64)
    counts = np.maximum(0, k_hi - k_lo + 1)
    total = int(np.sum(counts))
    if total > CANDIDATE_CAP:
        raise ResourceGuardError(f"{total} bottom-row candidates exceed the enumeration budget")
    if total == 0:
        return 0.0 + 0.0j
    keep_cols = counts > 0
    n2s, k_lo, counts = n2s[keep_cols], k_lo[keep_cols], counts[keep_cols]
    col_idx = np.repeat(np.arange(n2s.size), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    n1 = level * (k_lo[col_idx] + offsets)
    n2 = n2s[col_idx]

    keep = (n1 != 0) | (n2 != 0)
    n1, n2 = n1[keep], n2[keep]
    keep = np.gcd(np.abs(n1), np.abs(n2)) == 1
    n1, n2 = n1[keep], n2[keep]
    if n1.size == 0:
        return 0.0 + 0.0j
    q = n1 * m_arr[0, 0] + n2 * m_arr[1, 0]
    s = n1 * m_arr[0, 1] + n2 * m_arr[1, 1]
    left_val, right_val = q * lo + s, q * hi + s
    min_abs = np.where(
        left_val * right_val <= 0.0, 0.0, np.minimum(np.abs(left_val), np.abs(right_val))
    )
    keep = (np.abs(q) <= p_max * _PAD) & (min_abs <= slab * _PAD)
    n1, n2, q, s = n1[keep], n2[keep], q[keep], s[keep]
    if n1.size == 0:
        return 0.0 + 0.0j

    g, x_co, y_co = xgcd_array(n2, n1)  # g = +-1 on primitive rows
    alpha0, beta0 = g * x_co, -g * y_co
    t_anchor = (-beta0) % level
    p0 = alpha0 * m_arr[0, 0] + beta0 * m_arr[1, 0]
    r0 = alpha0 * m_arr[0, 1] + beta0 * m_arr[1, 1]

    row_eps = 1e-9 * (1.0 + element.matrix.frobenius_norm())
    big = 1e18
    with np.errstate(divide="ignore", invalid="ignore"):
        t_q_lo = np.where(np.abs(q) > row_eps, (-p_max * _PAD - p0) / q, -big)
        t_q_hi = np.where(np.abs(q) > row_eps, (p_max * _PAD - p0) / q, big)
        q_win_lo = np.minimum(t_q_lo, t_q_hi)
        q_win_hi = np.maximum(t_q_lo, t_q_hi)
        t_s_lo = np.where(np.abs(s) > row_eps, (-s_cap * _PAD - r0) / s, -big)
        t_s_hi = np.where(np.abs(s) > row_eps, (s_cap * _PAD - r0) / s, big)
        s_win_lo = np.minimum(t_s_lo, t_s_hi)
        s_win_hi = np.maximum(t_s_lo, t_s_hi)
    t_lo = np.maximum(q_win_lo, s_win_lo)
    t_hi = np.minimum(q_win_hi, s_win_hi)
    if np.any((t_lo <= -big) & (t_hi >= big)):
        raise ResourceGuardError("degenerate base rows leave the completion range unbounded")
    t_start = t_anchor + level * np.ceil((t_lo - t_anchor) / level)
    counts = np.maximum(0, (np.floor((t_hi - t_start) / level) + 1.0).astype(np.int64))
    counts[t_hi < t_lo] = 0
    total_rows = int(np.sum(counts))
    if total_rows > CANDIDATE_CAP:
        raise ResourceGuardError(f"{total_rows} translate candidates exceed the enumeration budget")
    if total_rows == 0:
        return 0.0 + 0.0j

    nz = counts > 0
    n1, n2, q, s = n1[nz], n2[nz], q[nz], s[nz]
    alpha0, beta0, p0, r0 = alpha0[nz], beta0[nz], p0[nz], r0[nz]
    t_start, counts = t_start[nz].astype(np.int64), counts[nz]

    row_idx = np.repeat(np.arange(n1.size), counts)
    offsets = np.arange(total_rows) - np.repeat(np.cumsum(counts) - counts, counts)
    t = t_start[row_idx] + level * offsets

    alpha = alpha0[row_idx] + t * n1[row_idx]
    beta = beta0[row_idx] + t * n2[row_idx]
    gam = n1[row_idx]
    delta = n2[row_idx]
    p = p0[row_idx] + t * q[row_idx]
    r = r0[row_idx] + t * s[row_idx]
    qq = q[row_idx]
    ss = s[row_idx]

    # Exact interval on which this translate's kernel term can be nonzero.
    a2 = p * p + qq * qq
    budget = y * (rho_sq - y * a2)
    bb = p * r + qq * ss
    cc = r * r + ss * ss - budget
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = bb * bb - a2 * cc
        ok = (budget > 0.0) & (disc > 0.0)
        root = np.sqrt(np.where(ok, disc, 0.0))
        x_lo = np.maximum((-bb - root) / a2, lo)
        x_hi = np.minimum((-bb + root) / a2, hi)
    ok &= x_hi > x_lo
    if not np.any(ok):
        return 0.0 + 0.0j
    alpha, beta, gam, delta = alpha[ok], beta[ok], gam[ok], delta[ok]
    p, r, qq, ss, a2 = p[ok], r[ok], qq[ok], ss[ok], a2[ok]
    x_lo, x_hi = x_lo[ok], x_hi[ok]

    if max_panel is not None:
        if not (max_panel > 0.0 and math.isfinite(max_panel)):
            raise DomainError("panel cap must be positive and finite")
        spans = x_hi - x_lo
        pieces = np.maximum(1, np.ceil(spans / max_panel)).astype(np.int64)
        total_p = int(np.sum(pieces))
        if total_p > CANDIDATE_CAP:
            raise ResourceGuardError(f"{total_p} quadrature panels exceed the enumeration budget")
        rep = np.repeat(np.arange(pieces.size), pieces)
        frac = (np.arange(total_p) - np.repeat(np.cumsum(pieces) - pieces, pieces)).astype(float)
        widths = (spans / pieces)[rep]
        alpha, beta, gam, delta = alpha[rep], beta[rep], gam[rep], delta[rep]
        p, r, qq, ss, a2 = p[rep], r[rep], qq[rep], ss[rep], a2[rep]
        x_lo = x_lo[rep] + frac * widths
        x_hi = x_lo + widths

    m0 = fn.freq_array.astype(float)
    c_delta = float(np.dot(m0[:, 0], xi[:, 0]))
    c_beta = float(np.dot(m0[:, 1], xi[:, 0]))
    c_gamma = float(np.dot(m0[:, 0], xi[:, 1]))
    c_alpha = float(np.dot(m0[:, 1], xi[:, 1]))

    nodes, wts = _rule(24)
    acc = 0.0 + 0.0j
    for start in range(0, p.size, _CHUNK):
        sl = slice(start, start + _CHUNK)
        mid = 0.5 * (x_lo[sl] + x_hi[sl])[:, None]
        half = 0.5 * (x_hi[sl] - x_lo[sl])[:, None]
        xs = mid + half * nodes[None, :]
        top = p[sl][:, None] * xs + r[sl][:, None]
        bot = qq[sl][:, None] * xs + ss[sl][:, None]
        norm_sq = (y * a2[sl])[:, None] + (top * top + bot * bot) / y
        vals = kernel_profile(fn, norm_sq) * window(xs)
        ints = half[:, 0] * (vals @ wts)
        phase = (
            c_delta * delta[sl]
            - c_beta * beta[sl]
            - c_gamma * gam[sl]
            + c_alpha * alpha[sl]
        )
        acc += np.sum(ints * np.exp(2j * np.pi * phase))
    return complex(acc)


def smeared_average(
    fn: PoincareTestFn,
    element: GroupElement,
    y: float,
    T: float,
    eta: Callable[[np.ndarray], np.ndarray],
    h: Callable[[np.ndarray], np.ndarray],
) -> complex:
    """Length-T window average along the height-y horocycle.

    Computes the translate integral against the long window
    ``eta(x) h(x/T) / T`` on [-T, T], the T-fold stretch of the support
    [-1, 1] of ``h``.  Uniformity of the distance to the limit over T is
    the content of the smeared equidistribution statement.  Each 24-point
    rule covers at most length 1, so the features of ``eta`` must be no
    shorter than 1.
    """
    if not (T >= 1.0 and math.isfinite(T)):
        raise DomainError("window length must be at least one")

    def long_window(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.asarray(eta(xs), dtype=float) * np.asarray(h(xs / T), dtype=float) / T

    return lattice_window_average(fn, element, y, long_window, (-T, T), max_panel=1.0)


def long_orbit_average(
    fn: PoincareTestFn,
    element: GroupElement,
    T: float,
    h: Callable[[np.ndarray], np.ndarray],
    route: str = "lattice",
) -> complex:
    """Time-averaged value of f over the orbit piece of length 2T through g.

    The value is (1/T) times the integral of f(g u_t) h(t/T) over real t,
    so the window h, supported on [-1, 1], weighs the scaled time.  The
    lattice route rewrites the orbit as a height-(1/T) translate integral of
    the reduced time-T matrix and sums contributing translates; the
    pointwise route samples the orbit on max(48, ceil(6 T)) panels of 24
    Gauss-Legendre nodes and exists as a slow independent check.
    """
    if not (T >= 1.0 and math.isfinite(T)):
        raise DomainError("orbit time must be at least one")
    if element.k != fn.k:
        raise DomainError("element and test function carry different block counts")
    xi = element.torus_point()
    if route == "lattice":
        if fn.level != 1:
            raise DomainError(
                "the reduced lattice route applies to level-one functions; use route='pointwise'"
            )
        gamma, reduced = reduce_fundamental(element.matrix @ Sl2Matrix.dilation(T))
        shifted = GroupElement.from_torus_point(reduced, xi @ gamma.as_array())
        return lattice_window_average(fn, shifted, 1.0 / T, h, (-1.0, 1.0))
    if route != "pointwise":
        raise DomainError(f"unknown orbit average route {route!r}")
    base = element.matrix
    nodes, wts = _rule(24)
    edges = np.linspace(-1.0, 1.0, max(48, int(math.ceil(6.0 * T))) + 1)
    acc = 0.0 + 0.0j
    for left, right in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        xs = mid + half * nodes
        hx = np.asarray(h(xs), dtype=float)
        for x, hv, wv in zip(xs, hx, wts):
            if hv == 0.0:
                continue
            acc += half * wv * hv * evaluate_f(fn, base @ Sl2Matrix.translation(float(T * x)), xi)
    return complex(acc)


def split_orbit_average(
    fn: PoincareTestFn,
    element: GroupElement,
    T: float,
    h: Callable[[np.ndarray], np.ndarray],
) -> complex:
    """Orbit average recomputed through the bounded-window splitting.

    Valid in the cusp regime (orbit height above 100).  The time average
    is smeared over window positions z by a mass-one bump scaled with the
    square of the reduced bottom row; at each z the orbit factors through
    :func:`orbit_split` into a bounded core times a dilation, and the
    inner integral becomes a short translate integral at height scale/T
    evaluated by the lattice route.  The z grid has max(128, ceil(0.35 T
    rho^2)) panels of 16 Gauss-Legendre nodes, rho the support radius.
    Positions whose whole window sits above the kernel support contribute
    exactly zero and are skipped.
    """
    if not (T >= 2.0 and math.isfinite(T)):
        raise DomainError("orbit time must be at least two")
    if element.k != fn.k:
        raise DomainError("element and test function carry different block counts")
    if fn.level != 1:
        raise DomainError("orbit splitting reduces by the full integer group, so it needs level one")
    height = cuspidal_height(element.matrix @ Sl2Matrix.dilation(T))
    if not height > 100.0:
        raise DomainError("splitting applies to orbits of cusp height above 100")
    rho_sq = fn.support_radius * fn.support_radius
    gamma, reduced = reduce_fundamental(element.matrix @ Sl2Matrix.dilation(T))
    if _positive_row(reduced) is not reduced:
        reduced = _positive_row(reduced)
        gamma = Sl2Matrix(-gamma.a, -gamma.b, -gamma.c, -gamma.d)
    c, d = reduced.c, reduced.d
    xi_gamma = element.torus_point() @ gamma.as_array()
    reach = 2.0 / height

    def weighted(z: float, split: SplitData) -> complex:
        t = split.scale
        s_lo = max(-1.0, z - reach)
        s_hi = min(1.0, z + reach)
        if s_hi <= s_lo:
            return 0.0 + 0.0j
        # The whole window lies above the kernel support when even its
        # lowest point has cusp height beyond the support radius.
        w2_ends = max((c * s_lo + d) ** 2, (c * s_hi + d) ** 2)
        if (w2_ends + c * c / (T * T)) * T * rho_sq < 1.0:
            return 0.0 + 0.0j

        def inner_window(xs: np.ndarray) -> np.ndarray:
            ss = z + np.asarray(xs, dtype=float) / t
            w2 = (c * ss + d) ** 2
            safe = w2 > 1e-300
            w2s = np.where(safe, w2, 1.0)
            bump = np.where(safe, bump6_normalized((z - ss) / w2s) / w2s, 0.0)
            return np.asarray(h(ss), dtype=float) * bump

        shifted = xi_gamma @ Sl2Matrix.translation(float(split.shift)).as_array()
        inner_element = GroupElement.from_torus_point(split.core, shifted)
        inner = lattice_window_average(
            fn, inner_element, t / T, inner_window, (t * (s_lo - z), t * (s_hi - z))
        )
        return inner / t

    nodes, wts = _rule(16)
    span = 1.0 + 1.0 / 50.0
    edges = np.linspace(-span, span, max(128, int(math.ceil(0.35 * T * rho_sq))) + 1)
    acc = 0.0 + 0.0j
    for left, right in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        for node, wv in zip(nodes, wts):
            z = float(mid + half * node)
            split = orbit_split(element.matrix, T, z)
            acc += half * wv * weighted(z, split)
    return complex(acc)


@dataclass(frozen=True)
class EquidistResult:
    """Measured distance of one window average from its limit, with the
    structural bound it is compared against."""

    average: complex
    limit: float
    error: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.error / self.bound


def equidist_error(
    fn: PoincareTestFn,
    element: GroupElement,
    y: float,
    h: Callable[[np.ndarray], np.ndarray],
    params: MajorantParams,
) -> EquidistResult:
    """Compare a translated window average against the diophantine bound.

    The window ``h`` is supported on [-1, 1].  The limit is the product of
    the mean value with the window mass; the bound multiplies the
    thirteenth power of the base norm by the lattice majorant at the
    element's torus block.  The average uses the lattice route below height
    0.05, where pointwise quadrature would need millions of samples; the
    routes agree on their common range.
    """
    if params.k != fn.k:
        raise DomainError("majorant parameters carry a different block count")
    if y < 0.05:
        average = lattice_window_average(fn, element, y, h, (-1.0, 1.0))
    else:
        average = translate_integral(fn, element, y, h)
    mean = mean_value(fn)
    limit = mean * _h_mass(h, -1.0, 1.0) if mean != 0.0 else 0.0
    error = abs(average - limit)
    xi = element.torus_point()
    xi = xi - np.floor(xi)
    envelope = majorant_full(params, xi, y).upper
    bound = element.matrix.frobenius_norm() ** 13 * envelope
    return EquidistResult(average, limit, error, bound)


@dataclass(frozen=True)
class OrbitExperiment:
    """A base point, a window supported on [-1, 1], and the schedule of
    scales to visit."""

    fn: PoincareTestFn
    element: GroupElement
    schedule: tuple[float, ...]
    h: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.element.k != self.fn.k:
            raise DomainError("element and test function carry different block counts")
        sched = tuple(float(x) for x in self.schedule)
        if len(sched) < 1:
            raise DomainError("schedule must contain at least one scale")
        if any(not (x > 0.0 and math.isfinite(x)) for x in sched):
            raise DomainError("schedule entries must be positive and finite")
        diffs = [b - a for a, b in zip(sched[:-1], sched[1:])]
        if diffs and not (all(d > 0.0 for d in diffs) or all(d < 0.0 for d in diffs)):
            raise DomainError("schedule must be strictly monotone")
        object.__setattr__(self, "schedule", sched)


@dataclass(frozen=True)
class MainTermRow:
    y: float
    average: float
    limit: float
    error: float


def horocycle_main_term(experiment: OrbitExperiment) -> list[MainTermRow]:
    """Window averages of an untwisted function along the height schedule.

    Rows report the measured average, the predicted main term (mean value
    times window mass), and their distance, one row per schedule entry.
    """
    if np.any(experiment.fn.freq_array != 0):
        raise DomainError("main-term tables need an untwisted function")
    fn, element, h = experiment.fn, experiment.element, experiment.h
    limit = mean_value(fn) * _h_mass(h, -1.0, 1.0)
    rows = []
    for y in experiment.schedule:
        avg = lattice_window_average(fn, element, y, h, (-1.0, 1.0))
        rows.append(MainTermRow(y, float(avg.real), limit, abs(avg - limit)))
    return rows

