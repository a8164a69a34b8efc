"""Fifteen-point acceptance battery.

Each check prints a single verdict line (``A03 PASS ...``) with the
measured quantity before asserting, so a red run still reports what was
observed.  Run ``pytest tests/test_acceptance.py -v -s`` to stream the
verdict lines; without ``-s`` pytest shows them only for failures.

Known red entries: A06 and A15 assert slope windows that the faithful
computation misses at the stated sample points; the measured values are
printed so the gap is visible.  See the repository notes for the
investigation.
"""

import math
import time

import mpmath
import numpy as np

from conftest import random_integer_gamma, random_sl2
from horolab.affine import GroupElement, grid_gap, grid_of
from horolab.arith import (
    CosetSpec,
    quad_expsum_bruteforce,
    quad_expsum_closed,
    quadsum_weil_bound,
)
from horolab.autofns import (
    PoincareTestFn,
    coefficient_support,
    evaluate_f,
    fourier_coefficient,
)
from horolab.errors import DomainError
from horolab.expsum import WeightFn, cancellation_report
from horolab.majorant import (
    MajorantParams,
    delta_lower_check,
    majorant_column,
    majorant_column_many,
    majorant_full,
    orbit_gap_bound,
    shifted_line_sum,
)
from horolab.orbitlab import (
    OrbitExperiment,
    equidist_error,
    horocycle_main_term,
    long_orbit_average,
    orbit_split,
    partition_identity,
    split_orbit_average,
)
from horolab.sl2core import (
    Sl2Matrix,
    cuspidal_height,
    iwasawa_compose,
    iwasawa_decompose,
    uvs_compose,
    uvs_decompose,
)
from horolab.smoothfns import bump6, bump6_normalized

GOLD = (math.sqrt(5.0) - 1.0) / 2.0
XI_GOLD = np.array([[GOLD, GOLD * GOLD]])
SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


def window(x):
    return bump6(np.asarray(x, dtype=float))


def cusp_base(height, T, slide, angle=None):
    w = Sl2Matrix.translation(slide) @ Sl2Matrix.dilation(height)
    if angle is not None:
        w = w @ Sl2Matrix.rotation(angle)
    return w @ Sl2Matrix.dilation(1.0 / T)


def random_congruence(rng, N):
    while True:
        r = rng.integers(0, max(N, 2), size=4)
        if (r[0] * r[3] - r[1] * r[2]) % N == 1 % N:
            return CosetSpec(N, tuple(int(x) for x in r))


def loglog_slope(xs, vals):
    return float(np.polyfit(np.log(xs), np.log(vals), 1)[0])


def _verdict(tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def test_a01_quadratic_sum_closed_form_matches_bruteforce(rng):
    start = time.time()
    worst = 0.0
    checks = 0
    for q in range(1, 7):
        for N in (1, 2, 3):
            for _ in range(20):
                spec = random_congruence(rng, N)
                v = tuple(int(x) for x in rng.integers(-5, 6, size=4))
                brute = quad_expsum_bruteforce(q, spec, v)
                closed = quad_expsum_closed(q, spec, v)
                worst = max(worst, abs(closed - brute) / max(1.0, abs(brute)))
                checks += 1
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict("A01", ok, f"max_rel={worst:.3e} checks={checks} t={elapsed:.1f}s")


def test_a02_square_root_bound_on_closed_sums(rng):
    start = time.time()
    worst = 0.0
    for N in (1, 2, 3):
        spec = CosetSpec(N, (1, 0, 0, 1))
        for q in range(1, 201):
            bound = quadsum_weil_bound(q, N)
            for v in rng.integers(-50, 51, size=(100, 4)):
                val = abs(quad_expsum_closed(q, spec, tuple(int(x) for x in v)))
                worst = max(worst, val / bound)
    elapsed = time.time() - start
    ok = worst <= 1.0 + 1e-9 and elapsed < 120.0
    _verdict("A02", ok, f"worst_ratio={worst:.6f} checks=60000 t={elapsed:.1f}s")


def test_a03_twisted_coset_sums_cancel_against_untwisted_growth():
    start = time.time()
    spec, weight = CosetSpec.principal(1), WeightFn(1.0)
    Xs = [25.0, 50.0, 100.0, 200.0]
    alpha = np.array([GOLD, GOLD**2, GOLD**3, GOLD**4]) / 4.0
    rows = cancellation_report(spec, weight, alpha, Xs)
    max_ratio = max(r.ratio for r in rows)
    exp_twisted = loglog_slope(Xs, [abs(r.lhs) for r in rows])
    rows0 = cancellation_report(spec, weight, np.zeros(4), Xs)
    exp_flat = loglog_slope(Xs, [abs(r.lhs) for r in rows0])
    elapsed = time.time() - start
    ok = (
        max_ratio <= 0.5
        and exp_twisted <= 1.7
        and 1.9 <= exp_flat <= 2.1
        and elapsed < 600.0
    )
    _verdict(
        "A03",
        ok,
        f"max_ratio={max_ratio:.4f} twisted_exp={exp_twisted:.3f} "
        f"flat_exp={exp_flat:.3f} t={elapsed:.1f}s",
    )


def test_a04_series_bracket_contains_zeta_product():
    start = time.time()
    out = majorant_full(MajorantParams(1, 3.0, 20, None), np.zeros((1, 2)), 0.25)
    target = float(2 * mpmath.zeta(3) * mpmath.zeta(1.5) ** 2)
    elapsed = time.time() - start
    ok = out.value <= target <= out.upper and elapsed < 1.0
    _verdict(
        "A04",
        ok,
        f"bracket=[{out.value:.4f},{out.upper:.4f}] target={target:.4f} t={elapsed:.2f}s",
    )


def test_a05_series_monotonicity_scaling_and_lower_envelope(rng):
    params = MajorantParams(1, 3.0, 20, 40)
    xi = rng.random((1, 2))
    ys = np.logspace(-3.0, -0.05, 10)
    vals = [majorant_full(params, xi, float(y)).value for y in ys]
    exact = 0
    violations = 0
    for i, (yi, vi) in enumerate(zip(ys, vals)):
        for yj, vj in zip(ys[:i], vals[:i]):
            # yj < yi: the value may only grow, and at most like sqrt(yi/yj)
            exact += 2
            if not vj <= vi:
                violations += 1
            if not vi <= math.sqrt(yi / yj) * vj:
                violations += 1
    report = delta_lower_check(
        MajorantParams(2, 5.0, 20, None), (SQRT2, SQRT3), [10.0**-e for e in range(1, 7)]
    )
    ok = violations == 0 and report.min_ratio >= 0.05
    _verdict(
        "A05",
        ok,
        f"pair_checks={exact} violations={violations} min_ratio={report.min_ratio:.3f}",
    )


def test_a06_diophantine_column_decay_slope():
    start = time.time()
    psi = (SQRT2, SQRT3)
    ys = [10.0 ** (-e) for e in range(2, 9)]
    vals = [majorant_column(MajorantParams(2, 5.0, 20, None), psi, y).value for y in ys]
    slope = loglog_slope(ys, vals)
    elapsed = time.time() - start
    ok = 0.20 <= slope <= 0.30 and elapsed < 60.0
    _verdict("A06", ok, f"slope={slope:.4f} want=[0.20,0.30] t={elapsed:.1f}s")


def test_a07_mean_value_envelope_over_random_columns(rng):
    start = time.time()
    psis = rng.uniform(0.0, 1.0, (10**4, 1))
    params = MajorantParams(1, 3.0, 20, None)
    ratios = []
    for y in (1e-2, 1e-4, 1e-6):
        mean = float(np.mean(majorant_column_many(params, psis, y)))
        ratios.append(mean / (y**0.25 * math.log(1.0 / y)))
    elapsed = time.time() - start
    ok = max(ratios) <= 6.5
    _verdict(
        "A07",
        ok,
        f"ratios={['%.3f' % r for r in ratios]} C=6.5 t={elapsed:.1f}s",
    )


def test_a08_value_invariance_and_coefficient_automorphy(rng):
    fn = PoincareTestFn(level=1, freq=((1, 1),))
    base_m = random_sl2(rng, scale=0.5)
    xi = rng.uniform(0.0, 1.0, (1, 2))
    base = evaluate_f(fn, base_m, xi)
    worst_inv = 0.0
    for _ in range(100):
        gamma = random_integer_gamma(rng, size=5)
        moved = evaluate_f(fn, gamma @ base_m, xi @ gamma.inverse().as_array())
        worst_inv = max(worst_inv, abs(moved - base))
    worst_auto = 0.0
    shapes = (((1, 2),), ((1, 0),), ((1, 1),))
    for i in range(20):
        shape = PoincareTestFn(level=1, freq=shapes[i % 3])
        m = random_sl2(rng, scale=0.5)
        support = coefficient_support(shape, m)
        freq = support[int(rng.integers(0, len(support)))]
        gamma = random_integer_gamma(rng, size=3)
        pulled = freq @ gamma.inverse().as_array().T
        lhs = fourier_coefficient(shape, gamma @ m, freq, panels=8, points=12)
        rhs = fourier_coefficient(shape, m, pulled, panels=8, points=12)
        worst_auto = max(worst_auto, abs(lhs - rhs))
    ok = worst_inv <= 1e-9 and worst_auto <= 1e-6
    _verdict("A08", ok, f"invariance={worst_inv:.2e} automorphy={worst_auto:.2e}")


def test_a09_untwisted_window_error_decays():
    start = time.time()
    fn = PoincareTestFn(level=1, freq=((0, 0),))
    element = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
    ys = [1e-1, 1e-2, 1e-3, 1e-4]
    rows = horocycle_main_term(OrbitExperiment(fn, element, tuple(ys), window))
    slope = loglog_slope(ys, [r.error for r in rows])
    elapsed = time.time() - start
    ok = slope >= 0.3 and elapsed < 600.0
    _verdict("A09", ok, f"slope={slope:.3f} t={elapsed:.1f}s")


def test_a10_twisted_error_tracks_its_bound():
    fn = PoincareTestFn(level=1, freq=((1, 0),))
    element = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
    params = MajorantParams(1, 3.0, 20, None)
    errors, ratios = [], []
    for y in (1e-1, 1e-2, 1e-3):
        res = equidist_error(fn, element, y, window, params)
        errors.append(res.error)
        ratios.append(res.ratio)
    decreasing = errors[1] < errors[0] and errors[2] < errors[1]
    spread = max(ratios) / min(ratios)
    ok = decreasing and spread < 20.0
    _verdict(
        "A10",
        ok,
        f"errors={['%.3e' % e for e in errors]} ratio_spread={spread:.2f}",
    )


def test_a11_rectangle_gap_matches_exhaustive_scan(rng):
    start = time.time()
    radius = 64
    ms = np.arange(-radius, radius + 1)
    m_grid, n_grid = np.meshgrid(ms, ms, indexing="ij")
    mismatches = 0
    for _ in range(200):
        g = GroupElement(random_sl2(rng), rng.random((1, 2)) * 2 - 1)
        zero_q = rng.random() < 0.4
        q = [0] if zero_q else [int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)]
        T = float(np.exp(rng.random() * math.log(64)))
        grid = grid_of(g, q)
        x1 = m_grid * grid.basis[0, 0] + n_grid * grid.basis[1, 0] + grid.offset[0]
        x2 = m_grid * grid.basis[0, 1] + n_grid * grid.basis[1, 1] + grid.offset[1]
        vals = np.maximum(T * np.abs(x1), np.abs(x2))
        if zero_q:
            vals[radius, radius] = np.inf
        if grid_gap(g, q, T).value != float(vals.min()):
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0
    _verdict("A11", ok, f"mismatches={mismatches}/200 t={elapsed:.1f}s")


def test_a12_orbit_splitting_identities(rng):
    worst_partition = 0.0
    for _ in range(50):
        c, d = rng.uniform(-1.0, 1.0, 2)
        s = rng.uniform(-1.0, 1.0)
        if abs(c * s + d) < 0.05:
            d += 0.5
        val = partition_identity(bump6_normalized, float(c), float(d), float(s))
        worst_partition = max(worst_partition, abs(val - 1.0))

    checked = 0
    conditioned = 0
    worst_norm = 0.0
    for _ in range(200):
        height = rng.uniform(110.0, 250.0)
        T = rng.uniform(height / 8.5, height / 4.0)
        m = cusp_base(height, T, rng.uniform(-0.4, 0.4), rng.uniform(0.0, math.pi))
        z = rng.uniform(-1.02, 1.02)
        try:
            sp = orbit_split(m, T, z)
        except DomainError:
            continue
        checked += 1
        assert abs(abs(sp.core.d) - 1.0) <= 1e-9
        w = m @ Sl2Matrix.dilation(T)
        ch = cuspidal_height(w)
        if sp.scale * T > (4.0 / 9.0) * ch and ch > 100.0:
            conditioned += 1
            worst_norm = max(worst_norm, sp.core.frobenius_norm())

    cases = (
        (((1, 0),), XI_GOLD, cusp_base(150.0, 20.0, 0.2), 20.0),
        (((1, 0),), XI_GOLD, cusp_base(110.0, 25.0, -0.1, 1.0), 25.0),
        (((0, 0),), np.array([[0.25, 0.75]]), cusp_base(130.0, 16.0, 0.3, 2.0), 16.0),
        (((1, 0),), XI_GOLD, cusp_base(200.0, 24.0, 0.0, 0.35), 24.0),
        (
            ((1, 0), (0, 1)),
            np.array([[0.5, 0.0], [0.0, 0.5]]),
            cusp_base(120.0, 20.0, 0.15, 1.2),
            20.0,
        ),
    )
    worst_diff = 0.0
    for freq, xi, matrix, T in cases:
        fn = PoincareTestFn(level=1, freq=freq)
        element = GroupElement.from_torus_point(matrix, xi)
        direct = long_orbit_average(fn, element, T, window)
        viasplit = split_orbit_average(fn, element, T, window)
        assert abs(direct) > 1e-4, "degenerate comparison case"
        worst_diff = max(worst_diff, abs(direct - viasplit))

    ok = (
        worst_partition <= 1e-8
        and conditioned > 50
        and worst_norm <= 3.0
        and worst_diff <= 1e-4
    )
    _verdict(
        "A12",
        ok,
        f"partition_err={worst_partition:.2e} norm_max={worst_norm:.3f} "
        f"(on {conditioned}/{checked}) split_vs_long={worst_diff:.2e}",
    )


def test_a13_shifted_line_sums_against_gauge_pair():
    worst = 0.0
    for w1 in (0.0, 0.1, 0.25, 0.5):
        for w2 in (0.0, 0.1, 0.25, 0.5):
            for alpha in (0.1, 1.0, 10.0, 100.0):
                for beta in (0.1, 1.0, 10.0, 1000.0):
                    worst = max(worst, shifted_line_sum(w1, w2, alpha, beta).ratio)
    anchor = shifted_line_sum(0.0, 0.0, 1.0, 2.0, j_max=4_000_000)
    target = 2.0 * (math.pi**2 / 6.0) - 1.0
    anchor_err = abs(anchor.lhs - target)
    ok = worst <= 50.0 and anchor_err <= 1e-6
    _verdict("A13", ok, f"worst_ratio={worst:.2f} anchor_err={anchor_err:.2e}")


def test_a14_chart_roundtrips_and_height_bounds(rng):
    worst_iwasawa = 0.0
    worst_uvs = 0.0
    for _ in range(100):
        m = random_sl2(rng)
        back = iwasawa_compose(iwasawa_decompose(m))
        worst_iwasawa = max(worst_iwasawa, np.abs(back.as_array() - m.as_array()).max())
        back2 = uvs_compose(uvs_decompose(m))
        worst_uvs = max(worst_uvs, np.abs(back2.as_array() - m.as_array()).max())

    floor = math.sqrt(3.0) / 2.0
    height_ok = True
    for _ in range(10**4):
        m = random_sl2(rng)
        ch = cuspidal_height(m)
        if not (floor - 1e-9 <= ch <= m.frobenius_norm() ** 2 * (1.0 + 1e-9)):
            height_ok = False
    comparable = True
    for _ in range(20):
        g = GroupElement(random_sl2(rng), np.zeros((1, 2)))
        T = float(np.exp(rng.uniform(math.log(2.0), math.log(200.0))))
        s = grid_gap(g, [0], T).value
        y = cuspidal_height(g.matrix @ Sl2Matrix.dilation(T)) / T
        if not 1.0 / 16.0 <= y * s * s <= 16.0:
            comparable = False
    ok = worst_iwasawa <= 1e-12 and worst_uvs <= 1e-12 and height_ok and comparable
    _verdict(
        "A14",
        ok,
        f"iwasawa={worst_iwasawa:.2e} uvs={worst_uvs:.2e} "
        f"height_ok={height_ok} gap_height_ok={comparable}",
    )


def test_a15_generic_orbit_bound_decay(rng):
    start = time.time()
    params = MajorantParams(1, 3.0, 10, 10)
    Ts = [1e2, 1e3, 1e4]
    slopes = []
    for _ in range(50):
        m = random_sl2(rng)
        element = GroupElement.from_torus_point(m, rng.uniform(0.0, 1.0, (1, 2)))
        vals = [orbit_gap_bound(element, T, params).total for T in Ts]
        slopes.append(loglog_slope(Ts, vals))
    median = float(np.median(slopes))
    elapsed = time.time() - start
    ok = -0.35 <= median <= -0.15
    _verdict("A15", ok, f"median_slope={median:.4f} want=[-0.35,-0.15] t={elapsed:.1f}s")
