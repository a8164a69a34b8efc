"""Horocycle averages and orbit splitting.

The functions here push a periodized bump (an ``autofns`` test function)
along horocycle pieces and compare the observed averages with the
structural bounds from :mod:`horolab.majorant`.  The same averages are
computed by independent routes: pointwise adaptive quadrature, a lattice
swap that enumerates the finitely many contributing translates, and for
long expanding orbits a partition-of-unity split into bounded windows.
Mutual agreement of the routes is the main correctness check.

Every lattice average goes through one kernel over a stack of windows.  It
runs one block of at most ``_BLOCK_CANDIDATES`` bottom-row candidates at a
time through enumeration, filters and completion, releases the block's
filter and completion temporaries, and runs its translates through
integration in chunks of at most 8 * ``_BLOCK_ROWS`` rows, all cut by
``arith.expand``, so its arrays stay bounded by the block and the chunk, not
by the window or its depth: A09's window peaks at 2.7 to 3.5 MiB traced from
y = 1e-4 to 1.14e-6.  A window's value is the exact, correctly rounded sum of
its own translate terms (``arith.ExactSum``), so it is the same float alone,
in any batch and at any block size.  Window callables take arrays of nodes;
the kernel's take a node-major (nodes, rows) block and the owning window of
each row.

At levels 1 and 2 the group contains -I, so every translate A comes with
-A, whose bottom row is the mirror of A's.  The kernel argument and the
support interval are even in A and the character phase is odd, so the two
terms are exact conjugates.  The kernel enumerates one bottom row of each
pair and adds 2 Re term(A): doubling is exact and each window's sum is
correctly rounded, so the value is the same float as the sum over both,
with imaginary part 0.0, at half the cost.  The guards still count both
members of each pair.  At level 3 and above -I is not in the group and
every translate is summed.

Completion bounds each bottom row q's translates by the disk
p^2 + q^2 < p_max^2 (p_max = radius / sqrt(y)) that every integrated
translate lies in; no other translate has a kernel term.  On a
translate's support interval the kernel argument is a quadratic in the
Gauss node, built per row about the interval's midpoint, once per chunk
of translates.  The nodes of ``_BLOCK_ROWS`` rows form a node-major (24, rows)
block, so every array operation runs along the rows, and ``_node_sum`` adds
each row's nodes in the order ``np.sum`` adds a contiguous (rows, 24) row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator

import numpy as np

from .affine import GroupElement
from .arith import ExactSum, exact_sum, expand, xgcd_array
from .autofns import PoincareTestFn, evaluate_f, mean_value
from .errors import DomainError, ResourceGuardError, guard
from .majorant import MajorantParams, majorant_full
from .quadrature import _panels, _rule, adaptive_quad
from .sl2core import Sl2Matrix, reduce_fundamental, stack_product
from .smoothfns import bump6, bump6_normalized

#: Candidates of one window in any of the three counts (bottom-row columns,
#: bottom-row candidates, translate candidates), mirror pairs counted whole.  The
#: slower window shape is A09's ((2, 1; 1, 1) at the golden torus point), whose
#: bottom-row candidates are the largest count: it was measured (2 cores) at
#: 0.32-0.41 us per candidate from y = 1e-4 to 1.2e-6, where 47.3 million took
#: 16.9-17.9 s at 43 MB peak RSS; the CLI's one-period window ran at 0.31-0.44 us.
#: At 0.4 us per candidate the ~20 s budget allows 5e7, so A09's window answers
#: down to about y = 1.14e-6 and ``horocycle``'s default one down to 1.02e-6.
CANDIDATE_CAP = 50_000_000
#: Panels of the pointwise orbit route.  Batched, a 24-node panel took 0.16-0.49 ms
#: on 2 cores (levels 1 and 2, T = 100 to 3000, three base points), so 18,000
#: panels (T = 3000) take about 9 s at the slowest rate; the cap is kept so that
#: the same calls are refused.
POINTWISE_PANEL_CAP = 18_000
#: Bottom-row columns and candidates enumerated at a time across a batch of
#: windows: it bounds the candidate stage's arrays, and the block's kept rows
#: with their filter and completion arrays, which live until its translates are done.
_BLOCK_CANDIDATES = 1 << 14
#: Translate rows integrated at a time: it bounds the node-major (24, rows) blocks.
#: A (24, 512) float temporary is 96 KiB, below glibc's mmap threshold, so the
#: integration reuses heap memory; at 8,192 rows every temporary was mmapped and
#: faulted in afresh.  A block's translates expand in chunks of 8 * ``_BLOCK_ROWS``
#: rows, which bounds the chunk's columns, panels and phase factors to 32 KiB a
#: float column: A09's y = 1e-4 window traced 2.7 MiB, against 7.4 MiB with
#: chunks as large as a candidate block.
_BLOCK_ROWS = 512
#: Pointwise orbit panels evaluated at a time: 1,008 node matrices, within one
#: block of ``autofns._BLOCK_POINTS``.
_BLOCK_PANELS = 42
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
    return -m if m.c < 0.0 or (m.c == 0.0 and m.d < 0.0) else m


def _split_nodes(reduced: Sl2Matrix, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`orbit_split` of a reduced matrix at an array of positions: the
    scales, the integer shifts (as floats) and the (n, 2, 2) cores.  Each core
    carries the sign of c z + d, so the matrix and its negative give the same
    scales and shifts and opposite cores."""
    a, b, c, d = reduced.a, reduced.b, reduced.c, reduced.d
    denom = c * z + d
    if np.any(np.abs(denom) < 1e-12 * (abs(c) * np.abs(z) + abs(d) + 1.0)):
        raise DomainError("horocycle position sits at the pole of the reduced row")
    ratio = (a * z + b) / denom
    shift = np.floor(ratio)
    shift += ratio - shift > 1.0 - _CEILING_SLACK
    mag = np.abs(denom)
    core = [(a - shift * c) * mag, (a * z + b - shift * denom) / mag, c * mag, np.sign(denom)]
    return 1.0 / (denom * denom), shift, np.stack(core, axis=-1).reshape(-1, 2, 2)


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
    reduced = _positive_row(reduce_fundamental(matrix @ Sl2Matrix.dilation(T))[1])
    scale, shift, core = _split_nodes(reduced, np.array([float(z)]))
    return SplitData(float(scale[0]), int(shift[0]), Sl2Matrix(*core[0].ravel().tolist()), reduced)


def partition_identity(
    phi: Callable[[np.ndarray], np.ndarray], c: float, d: float, s: float
) -> float:
    """Mass in the window position of a source-scaled unit bump.

    For a mass-one bump ``phi``, the copy centred at source point s and
    scaled by ``(cs+d)**2`` keeps unit mass when integrated over the window
    position; this is the fact that lets an orbit integral be smeared over
    window positions without changing its value.  Computed by quadrature as
    a check of the normalization of ``phi``, so the return value is ~1.
    """
    width = c * s + d
    if abs(width) < 1e-12 * (abs(c) * abs(s) + abs(d) + 1.0):
        raise DomainError("source point sits at the pole")
    w2 = width * width

    def scaled(z: np.ndarray) -> np.ndarray:
        return phi((np.asarray(z, dtype=float) - s) / w2) / w2

    return float(adaptive_quad(scaled, s - w2, s + w2, rel_tol=1e-10, abs_tol=1e-13))


def _check_blocks(fn: PoincareTestFn, element: GroupElement) -> None:
    if element.k != fn.k:
        raise DomainError("element and test function carry different block counts")


def translate_integral(
    fn: PoincareTestFn,
    element: GroupElement,
    y: float,
    h: Callable[[np.ndarray], np.ndarray],
) -> complex:
    """Reference route: pointwise adaptive quadrature of the translated value.

    The quadrature of ``h`` on its support [-1, 1] asks for relative
    tolerance 1e-7 at depth up to 24.  This route evaluates the function
    at each node's matrix g u_x a_y, by domain reduction and a coset ball,
    so it is the slow but independent benchmark for the lattice route.
    Each adaptive panel's nodes with a nonzero window go to the stack form
    of :func:`evaluate_f` in one call.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("height must be positive and finite")
    _check_blocks(fn, element)
    xi = element.torus_point()
    base = element.matrix.as_array()
    scale = Sl2Matrix.dilation(y).as_array()

    def integrand(xs: np.ndarray) -> np.ndarray:
        flat = np.atleast_1d(np.asarray(xs, dtype=float))
        weights = np.asarray(h(flat), dtype=float)
        live = weights != 0.0
        mats = stack_product(stack_product(base, _unipotents(flat[live])), scale)
        values = np.zeros(flat.shape, dtype=complex)
        values[live] = evaluate_f(fn, mats, xi) * weights[live]
        return values

    return complex(adaptive_quad(integrand, -1.0, 1.0, rel_tol=1e-7, max_depth=24))


def _unipotents(ts: np.ndarray) -> np.ndarray:
    """The stack of translations u_t = (1, t; 0, 1)."""
    u = np.zeros((ts.size, 2, 2))
    u[:, 0, 0] = u[:, 1, 1] = 1.0
    u[:, 0, 1] = ts
    return u


def _paired(level: int) -> bool:
    """Whether -I lies in the group of the level: at levels 1 and 2, where
    -1 is 1 mod the level."""
    return level <= 2


def _node_sum(block: np.ndarray) -> np.ndarray:
    """Sums over the first axis of an (n, rows) block, n <= 128, as the floats
    ``np.sum(axis=1)`` gives on its C-contiguous transpose: numpy's pairwise sum
    of 8 to 128 contiguous terms adds eight strided partial sums in a fixed tree,
    then the rest in order; it adds fewer than 8 in order, all after 0.0."""
    n = len(block)
    whole = n - n % 8 if n >= 8 else 0
    total = np.zeros(block.shape[1])
    if whole:
        r = block[:8].copy()
        for i in range(8, whole, 8):
            r += block[i : i + 8]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in block[whole:]:
        total += row
    return total


def _guard(tally: np.ndarray, win: np.ndarray, counts: np.ndarray, what: str) -> None:
    # Per window and summed over blocks, so a window trips the guard in a
    # batch exactly when it does alone.
    tally += np.bincount(win, weights=counts, minlength=tally.size)
    guard(tally.max(initial=0.0), CANDIDATE_CAP, what)


def _candidate_blocks(
    level: int,
    bound1: np.ndarray,
    bound2: np.ndarray,
    a_star: np.ndarray,
    b_star: np.ndarray,
    cap_star: np.ndarray,
    tally: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Bottom-row candidates (win, n1, n2) of every window in window order,
    in blocks of at most ``_BLOCK_CANDIDATES`` rows (``arith.expand``).  Column
    n2 of window w runs over |n2| <= bound2[w]; its first coordinates n1 are
    the multiples of the level with |a_star n1 + b_star n2| <= cap_star and
    |n1| <= bound1.  That form is the better conditioned of the two; the
    caller applies the other as an exact filter.

    When :func:`_paired`, only the columns n2 >= 0 are yielded, on the
    column n2 = 0 only n1 > 0; the bounds give (n1, n2) and (-n1, -n2) the
    same floats.  The guard counts each column n2 > 0 twice and the column
    n2 = 0 whole, so it trips on the same windows as an unpaired walk."""
    paired = _paired(level)
    columns = bound2 + 1.0 if paired else 2.0 * bound2 + 1.0

    def first_coordinates(w, k, n, n1):
        # n1 = level (k + offset) in the offsets' buffer: k is integral, so exact.
        np.add(n1, k, out=n1, casting="unsafe")
        n1 *= level
        return w, n1, n

    for win, n2 in expand(columns, np.arange(bound2.size), chunk=_BLOCK_CANDIDATES):
        if not paired:
            n2 -= bound2.astype(np.int64)[win]
        keep = n2 % level == 1 % level
        win, n2 = win[keep], n2[keep]
        edges = ([[-1.0], [1.0]] * cap_star[win] - n2 * b_star[win]) / a_star[win]
        n1_lo = np.maximum(edges.min(axis=0), -bound1[win] - 0.5)
        n1_hi = np.minimum(edges.max(axis=0), bound1[win] + 0.5)
        k_lo, k_hi = np.ceil(n1_lo / level), np.floor(n1_hi / level)
        counts = np.maximum(0.0, k_hi - k_lo + 1.0)
        # Counted before the cut below: a paired column n2 > 0 stands for -n2 too.
        _guard(tally, win, np.where(paired & (n2 > 0), 2.0, 1.0) * counts, "bottom-row candidates")
        if paired:  # the column n2 = 0 keeps n1 > 0
            k_lo[n2 == 0] = np.maximum(k_lo[n2 == 0], 1.0)
            counts = np.maximum(0.0, k_hi - k_lo + 1.0)
        # Across a yield only what the expansion reads stays alive: the columns
        # with candidates, and no filter array or yielded chunk.
        live = counts > 0.0
        counts, win, k_lo, n2 = counts[live], win[live], k_lo[live], n2[live]
        del keep, edges, n1_lo, n1_hi, k_hi, live
        yield from starmap(first_coordinates, expand(counts, win, k_lo, n2, chunk=_BLOCK_CANDIDATES))


def _translate_panels(y, lo, hi, rho_sq, p, r, q, s):
    """Which translate rows (p, r; q, s) at heights y meet their windows [lo, hi],
    and for those the panel on the exact interval where the kernel term can be
    nonzero: midpoint, half width and the coefficients t_a, t_b, t_c of the kernel
    argument, a quadratic in the Gauss node.  Its temporaries die on return."""
    a2 = p * p + q * q
    budget = y * (rho_sq - y * a2)
    bb = p * r + q * s
    cc = r * r + s * s - budget
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = bb * bb - a2 * cc
        ok = (budget > 0.0) & (disc > 0.0)
        root = np.sqrt(np.where(ok, disc, 0.0))
        x_lo = np.maximum((-bb - root) / a2, lo)
        x_hi = np.minimum((-bb + root) / a2, hi)
    ok &= x_hi > x_lo
    y, p, r, q, s, a2, x_lo, x_hi = (v[ok] for v in (y, p, r, q, s, a2, x_lo, x_hi))
    del budget, bb, cc, disc, root  # the kernel's traced peak is reached below

    # On x = mid + half u the rows top = p x + r and bot = q x + s are
    # affine in u, so the kernel argument is a quadratic per row, taken
    # about the midpoint: expanding about x = 0 cancels digits at small y.
    mid, half = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    d_top, d_bot = p * half, q * half
    top, bot, scale = p * mid + r, q * mid + s, y * (rho_sq - 2.0)
    t_a = (d_top * d_top + d_bot * d_bot) / scale
    t_b = 2.0 * (top * d_top + bot * d_bot) / scale
    t_c = (y * a2 + (top * top + bot * bot) / y - 2.0) / (rho_sq - 2.0)
    return ok, mid, half, t_a, t_b, t_c


def _lattice_batch(
    fn: PoincareTestFn,
    mats: np.ndarray,
    xis: np.ndarray,
    ys: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    window: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Lattice route for W windows: base matrices (W, 2, 2), torus points
    (W, k, 2), heights and support ends (W,), checked by the callers.  Each
    translate row carries its window index ``win``; the integration calls
    ``window(xs, win)`` on a node-major (n_nodes, rows) block ``xs`` and the
    (rows,) windows ``win`` of its rows.  Returns the (W,) window values.

    One block of bottom-row candidates at a time goes through the slab and
    gcd filters and completion; ``arith.expand`` then slices its translates
    into chunks of at most 8 * ``_BLOCK_ROWS`` rows for support intervals
    and integration, whose per-row coefficients and phase factors are
    computed once per chunk, the factors into one buffer for the batch.
    Each chunk's terms go into one exact sum keyed by window, so no term
    outlives its chunk.

    When :func:`_paired`, the mirror of a kept row would complete to exactly
    -A: ``xgcd_array`` of the negated row returns the negated gcd with the
    same coefficients, so every float of the completion and of the support
    interval is negated or unchanged.  The translate guard counts each kept
    translate twice."""
    n_win, level = ys.size, fn.level
    paired = _paired(level)
    mirrors = 2.0 if paired else 1.0  # translates each kept row stands for
    rho_sq = fn.support_radius * fn.support_radius
    root_y = np.sqrt(ys)
    p_max = fn.support_radius / root_y
    slab = fn.support_radius * root_y
    s_cap = slab + p_max * np.maximum(np.abs(los), np.abs(his))
    w_max = np.hypot(p_max, s_cap)
    m00, m01, m10, m11 = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    # Rows of the inverse bound the integer coordinates; compared as floats,
    # since an int64 cast of an astronomical bound wraps without an error,
    # and an overflow to inf is refused by the column guard.
    with np.errstate(over="ignore"):
        bound1 = np.floor(w_max * np.hypot(m11, m10)) + 1.0
        bound2 = np.floor(w_max * np.hypot(m01, m00)) + 1.0
        columns = 2.0 * bound2 + 1.0
    tally = np.zeros((3, n_win))
    _guard(tally[0], np.arange(n_win), columns, "bottom-row columns")
    use_q = np.abs(m00) >= np.abs(m01)
    blocks = _candidate_blocks(
        level, bound1, bound2, np.where(use_q, m00, m01), np.where(use_q, m10, m11),
        np.where(use_q, p_max, s_cap) * _PAD, tally[1],
    )
    row_eps = 1e-9 * (1.0 + np.sqrt(m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11))
    big = 1e18
    # c[w, i, j] pairs column i of the reduced torus point with frequency column j.
    c = np.swapaxes(xis - np.floor(xis), 1, 2) @ fn.freq_array.astype(float)
    nodes, wts = _rule(24)
    acc = ExactSum(n_win)
    chunk = 8 * _BLOCK_ROWS
    factors = np.empty(chunk, dtype=complex)

    def integrate(win, phase, p, r, q, s):
        """The terms of translate rows (p, r; q, s) that meet their window,
        with the windows they go to."""
        ok, mid, half, t_a, t_b, t_c = _translate_panels(ys[win], los[win], his[win], rho_sq, p, r, q, s)
        win = win[ok]
        terms = np.multiply(2j * np.pi, phase[ok], out=factors[: win.size])
        np.exp(terms, out=terms)  # the phase factors, scaled in place below
        for start in range(0, win.size, _BLOCK_ROWS):
            sl = slice(start, start + _BLOCK_ROWS)
            xs = np.einsum("j,i->ji", nodes, half[sl])
            xs += mid[sl]
            t = np.einsum("j,i->ji", nodes, t_a[sl])
            t += t_b[sl]
            t *= nodes[:, None]
            t += t_c[sl]
            vals = bump6(t) * window(xs, win[sl])
            vals *= wts[:, None]
            terms[sl] = half[sl] * _node_sum(vals) * terms[sl]
        return terms, win

    for win, n1, n2 in blocks:
        # The slab test before gcd: the filters commute and the slab drops more rows.
        q = n1 * m00[win] + n2 * m10[win]
        s = n1 * m01[win] + n2 * m11[win]
        left_val, right_val = q * los[win] + s, q * his[win] + s
        min_abs = np.where(
            left_val * right_val <= 0.0, 0.0, np.minimum(np.abs(left_val), np.abs(right_val))
        )
        keep = (np.abs(q) <= p_max[win] * _PAD) & (min_abs <= slab[win] * _PAD)
        n1, n2, q, s, win = (v[keep] for v in (n1, n2, q, s, win))
        keep = np.gcd(np.abs(n1), np.abs(n2)) == 1
        n1, n2, q, s, win = (v[keep] for v in (n1, n2, q, s, win))

        g, x_co, y_co = xgcd_array(n2, n1)  # g = +-1 on primitive rows
        alpha0, beta0 = g * x_co, -g * y_co
        t_anchor = (-beta0) % level
        p0 = alpha0 * m00[win] + beta0 * m10[win]
        r0 = alpha0 * m01[win] + beta0 * m11[win]

        # A translate outside the disk p^2 + q^2 < p_max^2 has no positive
        # budget, so |p| is bounded by the rest of that disk.
        eps, s_pad = row_eps[win], (s_cap * _PAD)[win]
        p_pad = np.sqrt(np.maximum((p_max * p_max * _PAD)[win] - q * q, 0.0))
        # A subnormal q or s overflows in the branch np.where discards.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_q = np.where(np.abs(q) > eps, [(-p_pad - p0) / q, (p_pad - p0) / q], [[-big], [big]])
            t_s = np.where(np.abs(s) > eps, [(-s_pad - r0) / s, (s_pad - r0) / s], [[-big], [big]])
        t_lo = np.maximum(t_q.min(axis=0), t_s.min(axis=0))
        t_hi = np.minimum(t_q.max(axis=0), t_s.max(axis=0))
        if np.any((t_lo <= -big) & (t_hi >= big)):
            raise ResourceGuardError("degenerate base rows leave the completion range unbounded")
        t_start = t_anchor + level * np.ceil((t_lo - t_anchor) / level)
        counts = np.maximum(0.0, np.floor((t_hi - t_start) / level) + 1.0)
        counts[t_hi < t_lo] = 0.0
        _guard(tally[2], win, mirrors * counts, "translate candidates")
        # Through the translate chunks only the expansion's columns stay alive.
        del left_val, right_val, min_abs, keep, g, x_co, y_co, t_anchor, eps, s_pad, p_pad
        del t_q, t_s, t_lo, t_hi

        translates = expand(counts, t_start, n1, n2, q, s, win, alpha0, beta0, p0, r0,
                            chunk=chunk)  # a chunk may cut a t range in two
        for t, n1, n2, q, s, win, alpha, beta, p, r, offset in translates:
            t = t.astype(np.int64) + level * offset
            alpha += t * n1
            beta += t * n2
            p += t * q
            r += t * s
            phase = (c[win, 0, 0] * n2 - c[win, 0, 1] * beta
                     - c[win, 1, 0] * n1 + c[win, 1, 1] * alpha)
            terms, win = integrate(win, phase, p, r, q, s)
            acc.add(2.0 * terms.real if paired else terms, win)
    return acc.totals()


def lattice_window_average(
    fn: PoincareTestFn,
    element: GroupElement,
    y: float,
    window: Callable[[np.ndarray], np.ndarray],
    support: tuple[float, float],
) -> complex:
    """Fast route: swap the translate series with the window integral.

    Computes the same integral as :func:`translate_integral` with weight
    ``window`` on ``support``, but sums over the finitely many integer
    translates whose kernel term can meet the support.  Translates are
    enumerated through their bottom rows (integer combinations of the base
    rows confined to a thin slab), each completed to the compatible top
    rows; per translate the window integral runs on its exact support
    interval with one 24-point Gauss-Legendre panel.  With a polynomial
    window of degree at most 23, such as ``bump6`` (degree 12), each
    translate's integrand is a polynomial of degree at most 47 on its
    interval (the bump6 kernel is degree 24 in x), so the rule is exact up
    to rounding at every height.

    The value does not depend on the block sizes or on the other windows of
    a batch, and at levels 1 and 2 its imaginary part is 0.0 (module
    docstring).
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("height must be positive and finite")
    _check_blocks(fn, element)
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise DomainError("support interval must be increasing")
    mats, xis = element.matrix.as_array()[None], element.torus_point()[None]
    ys, los, his = np.array([[y], [lo], [hi]], dtype=float)
    value = _lattice_batch(fn, mats, xis, ys, los, his, lambda xs, _: window(xs))
    return complex(value[0])


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
    Gauss-Legendre nodes and exists as a slow independent check, refused
    above ``POINTWISE_PANEL_CAP`` panels (T = 3000).  It builds the node
    matrices g u_{T x} as arrays, ``_BLOCK_PANELS`` panels at a time, and
    evaluates each block with the stack form of :func:`evaluate_f`.  The
    weighted values are added left to right in node order: each block's
    cumulative sum starts from the running total, so the bits are those of
    a scalar loop over the nodes.
    """
    if not (T >= 1.0 and math.isfinite(T)):
        raise DomainError("orbit time must be at least one")
    _check_blocks(fn, element)
    xi = element.torus_point()
    if route == "lattice":
        if fn.level != 1:
            raise DomainError(
                "the reduced lattice route applies to level-one functions; use route='pointwise'"
            )
        gamma, reduced = reduce_fundamental(element.matrix @ Sl2Matrix.dilation(T))
        with np.errstate(over="ignore", invalid="ignore"):  # refused as a non-finite block
            shifted = GroupElement.from_torus_point(reduced, xi @ gamma.as_array())
        return lattice_window_average(fn, shifted, 1.0 / T, h, (-1.0, 1.0))
    if route != "pointwise":
        raise DomainError(f"unknown orbit average route {route!r}")
    panels = max(48, int(math.ceil(6.0 * T)))
    guard(panels, POINTWISE_PANEL_CAP, "pointwise panels")
    base = element.matrix.as_array()
    edges = np.linspace(-1.0, 1.0, panels + 1)
    acc = np.zeros(1, dtype=complex)
    for lo in range(0, panels, _BLOCK_PANELS):
        xs, wts = _panels(edges[lo : lo + _BLOCK_PANELS + 1], 24)
        hx = np.asarray(h(xs), dtype=float)
        factor = wts * hx
        live = hx != 0.0
        values = evaluate_f(fn, stack_product(base, _unipotents(T * xs[live])), xi)
        acc = np.cumsum(np.concatenate((acc, factor[live] * values)))[-1:]
    return complex(acc[0])


def split_orbit_average(
    fn: PoincareTestFn,
    element: GroupElement,
    T: float,
    h: Callable[[np.ndarray], np.ndarray],
) -> complex:
    """Orbit average recomputed through the bounded-window splitting.

    Valid in the cusp regime (orbit height above 100).  The time average
    is smeared over window positions z by a mass-one bump scaled with the
    square of the reduced bottom row; at each z the orbit factors as in
    :func:`orbit_split` into a bounded core times a dilation, and the
    inner integral becomes a short translate integral at height scale/T
    evaluated by the lattice route, all positions in one batch.  The z
    grid has max(128, ceil(0.35 T rho^2)) panels of 16 Gauss-Legendre
    nodes, rho the support radius.  Positions whose whole window sits above
    the kernel support contribute exactly zero and are skipped.
    """
    if not (T >= 2.0 and math.isfinite(T)):
        raise DomainError("orbit time must be at least two")
    _check_blocks(fn, element)
    if fn.level != 1:
        raise DomainError("orbit splitting reduces by the full integer group, so it needs level one")
    gamma, reduced = reduce_fundamental(element.matrix @ Sl2Matrix.dilation(T))
    height = reduced.mobius(1j).imag
    if not height > 100.0:
        raise DomainError("splitting applies to orbits of cusp height above 100")
    rho_sq = fn.support_radius * fn.support_radius
    c, d = reduced.c, reduced.d
    reach = 2.0 / height

    span = 1.0 + 1.0 / 50.0
    edges = np.linspace(-span, span, max(128, int(math.ceil(0.35 * T * rho_sq))) + 1)
    z, weight = _panels(edges, 16)
    scale, shift, core = _split_nodes(reduced, z)
    s_lo, s_hi = np.maximum(-1.0, z - reach), np.minimum(1.0, z + reach)
    # A window lies wholly above the kernel support when even its lowest
    # point has cusp height beyond the support radius.
    w2_ends = np.maximum((c * s_lo + d) ** 2, (c * s_hi + d) ** 2)
    live = (s_hi > s_lo) & ((w2_ends + c * c / (T * T)) * T * rho_sq >= 1.0)
    z, t, shift, core, s_lo, s_hi, weight = (
        v[live] for v in (z, scale, shift, core, s_lo, s_hi, weight)
    )
    xis = np.repeat((element.torus_point() @ gamma.as_array())[None], z.size, axis=0)
    xis[:, :, 1] += xis[:, :, 0] * shift[:, None]

    def window(xs: np.ndarray, win: np.ndarray) -> np.ndarray:
        zw = z[win]
        ss = zw + xs / t[win]
        w2 = (c * ss + d) ** 2
        safe = w2 > 1e-300
        w2s = np.where(safe, w2, 1.0)
        bump = np.where(safe, bump6_normalized((zw - ss) / w2s) / w2s, 0.0)
        return np.asarray(h(ss), dtype=float) * bump

    inner = _lattice_batch(fn, core, xis, t / T, t * (s_lo - z), t * (s_hi - z), window)
    return exact_sum(weight * (inner / t))


def window_limit(fn: PoincareTestFn, h: Callable[[np.ndarray], np.ndarray]) -> float:
    """The limit of the averages of ``fn`` in the window ``h`` on [-1, 1], mean
    value times window mass; 0.0 for a twisted function, with no quadrature."""
    mean = mean_value(fn)
    if mean == 0.0:
        return 0.0
    mass = adaptive_quad(lambda x: np.asarray(h(x), dtype=float), -1.0, 1.0, rel_tol=1e-10)
    return mean * float(mass)


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
    element's torus block.  The average is the lattice route's at every
    height; ``translate_integral`` is the oracle it is tested against.
    """
    if params.k != fn.k:
        raise DomainError("majorant parameters carry a different block count")
    average = lattice_window_average(fn, element, y, h, (-1.0, 1.0))
    limit = window_limit(fn, h)
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
        _check_blocks(self.fn, self.element)
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
    All heights go to the lattice route in one batch; each row is the value
    :func:`lattice_window_average` gives at its height alone.
    """
    if np.any(experiment.fn.freq_array != 0):
        raise DomainError("main-term tables need an untwisted function")
    fn, element, h = experiment.fn, experiment.element, experiment.h
    limit = window_limit(fn, h)
    ys = np.array(experiment.schedule)
    tile = lambda a: np.repeat(a[None], ys.size, axis=0)
    avgs = _lattice_batch(
        fn, tile(element.matrix.as_array()), tile(element.torus_point()), ys,
        np.full(ys.size, -1.0), np.full(ys.size, 1.0), lambda xs, _: h(xs),
    )
    return [
        MainTermRow(y, float(avg.real), limit, abs(avg - limit))
        for y, avg in zip(experiment.schedule, avgs.tolist())
    ]

