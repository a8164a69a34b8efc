"""Periodized bump functions: values, spectra, orbits, averages."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from conftest import (
    haar_sample_level_one, random_integer_gamma, random_sl2, reduce_fundamental_reference,
    reduction_corpus,
)
from horolab import autofns
from horolab.autofns import (
    PoincareTestFn,
    coefficient_support,
    covolume,
    evaluate_f,
    fourier_coefficient,
    fourier_coefficient_exact,
    kernel_haar_mass,
    kernel_value,
    mean_value,
    sl2_count_mod,
)
from horolab.affine import GroupElement
from horolab.arith import CosetSpec
from horolab.expsum import enumerate_coset_ball
from horolab.errors import DomainError, ResourceGuardError
from horolab.sl2core import Sl2Matrix, iwasawa_decompose
from horolab.smoothfns import bump6

TWO_PI_I = 2j * np.pi


def brute_value(fn, matrix, xi):
    """Direct scan over an integer box, bypassing reduction and coset code."""
    bound = int(math.floor(fn.support_radius * matrix.frobenius_norm())) + 1
    line = np.arange(-bound, bound + 1)
    aa, bb, cc, dd = np.meshgrid(line, line, line, line, indexing="ij")
    flat = np.stack([aa, bb, cc, dd], axis=-1).reshape(-1, 4)
    flat = flat[flat[:, 0] * flat[:, 3] - flat[:, 1] * flat[:, 2] == 1]
    if fn.level > 1:
        n = fn.level
        keep = (
            (flat[:, 0] % n == 1 % n)
            & (flat[:, 1] % n == 0)
            & (flat[:, 2] % n == 0)
            & (flat[:, 3] % n == 1 % n)
        )
        flat = flat[keep]
    mats = flat.reshape(-1, 2, 2)
    prods = mats.astype(float) @ matrix.as_array()
    norm_sq = np.sum(prods * prods, axis=(1, 2))
    rho_sq = fn.support_radius**2
    t = (norm_sq - 2.0) / (rho_sq - 2.0)
    w = np.where(t <= 1.0, bump6(np.minimum(t, 1.0)), 0.0)
    inv = np.empty_like(mats)
    inv[:, 0, 0] = mats[:, 1, 1]
    inv[:, 0, 1] = -mats[:, 0, 1]
    inv[:, 1, 0] = -mats[:, 1, 0]
    inv[:, 1, 1] = mats[:, 0, 0]
    m0 = fn.freq_array.astype(float)
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    phases = np.einsum("il,njl,ij->n", m0, inv.astype(float), xi)
    return complex(np.sum(w * np.exp(TWO_PI_I * phases)))


def random_congruence_gamma(rng, level, size=5):
    """Word in the two elementary shears of the given level, so the result
    is congruent to the identity mod level."""
    up = Sl2Matrix(1.0, float(level), 0.0, 1.0)
    low = Sl2Matrix(1.0, 0.0, float(level), 1.0)
    g = Sl2Matrix.identity()
    for _ in range(int(rng.integers(1, size + 1))):
        n = int(rng.integers(-2, 3))
        base = up if rng.random() < 0.5 else low
        for _ in range(abs(n)):
            g = g @ (base if n > 0 else base.inverse())
    return g


class TestConstruction:
    def test_rejects_tight_support(self):
        for radius in (math.sqrt(2.0), math.inf, math.nan):
            with pytest.raises(DomainError):
                PoincareTestFn(level=1, freq=((1, 0),), support_radius=radius)

    def test_rejects_bad_level_and_freq(self):
        with pytest.raises(DomainError):
            PoincareTestFn(level=0, freq=((1, 0),))
        with pytest.raises(DomainError):
            PoincareTestFn(level=1, freq=((1.5, 0),))
        with pytest.raises(DomainError):
            PoincareTestFn(level=1, freq=(1, 0))
        with pytest.raises(DomainError):
            PoincareTestFn(level=1, freq=((math.inf, 0),))

    @pytest.mark.parametrize("level, freq", [
        (2**63, ((1, 0),)), (1, ((2**63, 0),)), (1, ((0, -(2**63) - 1),)), (1, ((10**21, 0),)),
        (1, ((1e30, 0),)),
    ])
    def test_rejects_values_past_int64(self, level, freq):
        # The kernels compute with the level and the frequencies in int64.
        with pytest.raises(DomainError):
            PoincareTestFn(level=level, freq=freq)

    def test_accepts_int64_extremes(self):
        fn = PoincareTestFn(level=2**63 - 1, freq=((2**63 - 1, -(2**63)),))
        assert fn.freq_array.tolist() == [[2**63 - 1, -(2**63)]]

    def test_freq_is_coerced_and_k_derived(self):
        fn = PoincareTestFn(level=2, freq=np.array([[1, 2], [3, 4]]))
        assert fn.k == 2
        assert fn.freq == ((1, 2), (3, 4))


class TestKernel:
    def test_peaks_at_rotations(self):
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        rots = np.stack(
            [Sl2Matrix.rotation(t).as_array() for t in (0.0, 0.7, 2.4)]
        )
        assert np.allclose(kernel_value(fn, rots), 1.0)

    def test_vanishes_outside_radius(self):
        fn = PoincareTestFn(level=1, freq=((0, 0),), support_radius=2.5)
        far = Sl2Matrix.dilation(9.0).as_array()
        assert kernel_value(fn, far) == 0.0

    def test_matches_profile_formula(self):
        fn = PoincareTestFn(level=1, freq=((0, 0),), support_radius=3.0)
        m = Sl2Matrix.dilation(2.0)
        t = (m.frobenius_norm() ** 2 - 2.0) / (9.0 - 2.0)
        assert kernel_value(fn, m.as_array()) == float(bump6(t))


class TestEvaluate:
    def test_identity_point_sees_unit_ball(self):
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        val = evaluate_f(fn, Sl2Matrix.identity(), np.zeros((1, 2)))
        assert val.imag == 0.0
        assert val.real > 4.0

    def test_matches_direct_integer_scan(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        for _ in range(5):
            m = random_sl2(rng, scale=0.8)
            xi = rng.uniform(-1.0, 1.0, size=(1, 2))
            got = evaluate_f(fn, m, xi)
            want = brute_value(fn, m, xi)
            assert got == pytest.approx(want, abs=1e-11)

    def test_matches_direct_scan_level_two(self, rng):
        fn = PoincareTestFn(level=2, freq=((2, 1),), support_radius=3.5)
        for _ in range(3):
            m = random_sl2(rng, scale=0.6)
            xi = rng.uniform(0.0, 1.0, size=(1, 2))
            assert evaluate_f(fn, m, xi) == pytest.approx(brute_value(fn, m, xi), abs=1e-11)

    def test_far_matrix_sums_to_zero(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),), support_radius=3.0)
        tall = Sl2Matrix.dilation(100.0)
        assert evaluate_f(fn, tall, np.array([[0.3, 0.4]])) == 0.0

    def test_left_invariance_level_one(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        g = GroupElement.from_torus_point(random_sl2(rng, scale=0.7), rng.uniform(0, 1, (1, 2)))
        base = evaluate_f(fn, g.matrix, g.torus_point())
        for _ in range(100):
            gamma = random_integer_gamma(rng, size=4)
            shift = rng.integers(-3, 4, size=(1, 2)).astype(float)
            moved = GroupElement(gamma, shift) * g
            moved_value = evaluate_f(fn, moved.matrix, moved.torus_point())
            assert moved_value == pytest.approx(base, abs=1e-9)

    def test_left_invariance_level_three(self, rng):
        fn = PoincareTestFn(level=3, freq=((0, 1),), support_radius=4.0)
        g = GroupElement.from_torus_point(random_sl2(rng, scale=0.7), rng.uniform(0, 1, (1, 2)))
        base = evaluate_f(fn, g.matrix, g.torus_point())
        for _ in range(30):
            gamma = random_congruence_gamma(rng, level=3)
            shift = rng.integers(-2, 3, size=(1, 2)).astype(float)
            moved = GroupElement(gamma, shift) * g
            moved_value = evaluate_f(fn, moved.matrix, moved.torus_point())
            assert moved_value == pytest.approx(base, abs=1e-9)

    def test_torus_shift_bit_identical(self, rng):
        fn = PoincareTestFn(level=1, freq=((3, 1),))
        m = random_sl2(rng, scale=0.5)
        for _ in range(10):
            xi = rng.integers(0, 2**20, size=(1, 2)) / 2.0**20
            shift = rng.integers(-40, 41, size=(1, 2)).astype(float)
            assert evaluate_f(fn, m, xi) == evaluate_f(fn, m, xi + shift)

    def test_conjugate_mirrors_torus_sign(self, rng):
        fn = PoincareTestFn(level=1, freq=((2, 1),))
        m = random_sl2(rng, scale=0.6)
        xi = rng.uniform(0, 1, (1, 2))
        assert np.conj(evaluate_f(fn, m, xi)) == pytest.approx(
            evaluate_f(fn, m, -xi), rel=1e-12
        )

    def test_huge_radius_trips_guard(self):
        # Radius 700 gives a ball of radius 990 at the identity, under the
        # coset-ball cap of 1024: the guard here must refuse it before any
        # enumeration allocates.
        for radius in (700.0, 1000.0):
            fn = PoincareTestFn(level=1, freq=((1, 0),), support_radius=radius)
            tracemalloc.start()
            try:
                with pytest.raises(ResourceGuardError):
                    evaluate_f(fn, Sl2Matrix.identity(), np.zeros((1, 2)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


def reference_value(fn, matrix, xi, blas=False):
    """The translate series one matrix at a time, with the float formulas of
    the stack form: reduce step by step, enumerate the ball, kernel-weight it
    with products formed entry by entry (x_i0 y_0j + x_i1 y_1j), pull the kept
    translates back through gamma, add each phase's products left to right
    and the weighted characters left to right in enumeration order.

    With ``blas`` the kernel arguments, the phases and the sum are instead
    one matrix product, one matrix-vector product and one dot, as the
    series was formed before it was written as entry formulas; their bits
    depend on the BLAS kernel."""
    gamma, reduced = reduce_fundamental_reference(matrix)
    if iwasawa_decompose(reduced).v > fn.support_radius**2:
        return 0.0 + 0.0j
    radius = math.ceil(fn.support_radius * reduced.frobenius_norm() * (1.0 + 1e-12) * 4.0) / 4.0
    g = [int(round(x)) for x in (gamma.a, gamma.b, gamma.c, gamma.d)]
    cands = enumerate_coset_ball(CosetSpec(fn.level, tuple(g)), radius)
    x, y = cands.astype(float), reduced.as_array()
    if blas:
        prods = x @ y
    else:
        prods = np.stack([x[:, i, 0] * y[0, j] + x[:, i, 1] * y[1, j] for i in (0, 1) for j in (0, 1)], -1)
    weights = kernel_value(fn, prods.reshape(-1, 2, 2))
    keep = weights != 0.0
    if not keep.any():
        return 0.0 + 0.0j
    translates = cands[keep] @ np.array([[g[3], -g[1]], [-g[2], g[0]]], dtype=np.int64)
    inv_t = np.stack([translates[:, 1, 1], -translates[:, 0, 1], -translates[:, 1, 0], translates[:, 0, 0]], -1)
    rows = np.einsum("kj,nij->nki", fn.freq_array, inv_t.reshape(-1, 2, 2)).reshape(-1, 2 * fn.k)
    xi = np.asarray(xi, dtype=float)
    flat = (xi - np.floor(xi)).ravel()
    if blas:
        phases = rows.astype(float) @ flat
        return complex(np.dot(np.ascontiguousarray(weights[keep]), np.exp(2j * np.pi * phases)))
    phases = rows[:, 0].astype(float) * flat[0]
    for j in range(1, flat.size):
        phases = phases + rows[:, j].astype(float) * flat[j]
    total = 0.0 + 0.0j
    for term in (weights[keep] * np.exp(2j * np.pi * phases)).tolist():
        total += term
    return total


class TestStackEvaluate:
    """The stack form of evaluate_f against the one-matrix reference and the
    scalar form, value for value."""

    @pytest.mark.parametrize("level, radius", [(1, 3.0), (2, 3.5)])
    def test_values_equal_the_one_matrix_reference(self, rng, level, radius):
        fn = PoincareTestFn(level=level, freq=((1, 2),), support_radius=radius)
        mats = reduction_corpus(rng, count=8)
        xi = rng.uniform(-1.0, 1.0, size=(1, 2))
        got = evaluate_f(fn, np.array([m.as_array() for m in mats]), xi)
        for m, value in zip(mats, got):
            assert value == reference_value(fn, m, xi)

    FNS = [
        PoincareTestFn(level=1, freq=((1, 0),)),
        PoincareTestFn(level=2, freq=((2, 1),), support_radius=3.5),
        PoincareTestFn(level=3, freq=((0, 1),), support_radius=4.0),
        PoincareTestFn(level=1, freq=((1, 2), (0, -1))),
        PoincareTestFn(level=2, freq=((0, 0), (1, 1)), support_radius=2.5),
    ]

    @staticmethod
    def _check(fn, mats, xi):
        got = evaluate_f(fn, np.array([m.as_array() for m in mats]), xi)
        assert got.shape == (len(mats),) and got.dtype == complex
        for m, value in zip(mats, got):
            assert value == evaluate_f(fn, m, xi)

    @pytest.mark.parametrize("fn", FNS, ids=["l1k1", "l2k1", "l3k1", "l1k2", "l2k2"])
    def test_haar_samples_equal_scalar_values(self, rng, fn):
        xi = rng.uniform(-2.0, 2.0, size=(fn.k, 2))
        self._check(fn, haar_sample_level_one(rng, 40), xi)

    @pytest.mark.parametrize("fn", FNS[:3], ids=["l1", "l2", "l3"])
    def test_tie_lines_and_long_orbits_equal_scalar_values(self, rng, fn):
        self._check(fn, reduction_corpus(rng, count=8), rng.uniform(0.0, 1.0, size=(1, 2)))

    def test_empty_ball_gives_zero(self, rng):
        fn = self.FNS[0]
        # v_red = 100 > rho^2 = 9 at the tall points: no translate reaches the ball.
        tall = [Sl2Matrix.dilation(100.0), Sl2Matrix.translation(0.2) @ Sl2Matrix.dilation(50.0)]
        mats = tall + haar_sample_level_one(rng, 3)
        got = evaluate_f(fn, np.array([m.as_array() for m in mats]), np.array([[0.3, 0.4]]))
        assert got[0] == got[1] == 0.0
        self._check(fn, mats, np.array([[0.3, 0.4]]))

    def test_blocks_do_not_change_values(self, rng, monkeypatch):
        fn = self.FNS[1]
        mats = np.array([m.as_array() for m in reduction_corpus(rng, count=8)])
        xi = np.array([[0.1, 0.7]])
        whole = evaluate_f(fn, mats, xi)
        monkeypatch.setattr(autofns, "_BLOCK_POINTS", 3)
        monkeypatch.setattr(autofns, "_BLOCK_CANDIDATES", 7)
        monkeypatch.setattr(autofns, "_BLOCK_TERMS", 5)
        assert evaluate_f(fn, mats, xi).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("fn", FNS, ids=["l1k1", "l2k1", "l3k1", "l1k2", "l2k2"])
    def test_values_stay_within_rounding_of_the_blas_formulation(self, rng, fn):
        xi = rng.uniform(-1.0, 1.0, size=(fn.k, 2))
        flat = (xi - np.floor(xi)).ravel()
        haar, corpus = haar_sample_level_one(rng, 40), reduction_corpus(rng, count=8)
        got = evaluate_f(fn, np.array([m.as_array() for m in haar + corpus]), xi)
        for m, value in zip(haar, got):
            assert abs(value - reference_value(fn, m, xi, blas=True)) <= 1e-12 * abs(value)
        # Reduced far out, a translate's phase reaches 10^7, and any order of
        # its sum rounds it by up to its size times eps: each term moves by
        # about 2 pi eps times its phase, so the bound scales with them.
        for m, value in zip(corpus, got[len(haar):]):
            weights, rows = autofns._series_data(fn, m)
            scale = np.sum(weights * (1.0 + np.sum(np.abs(rows * flat), axis=1)))
            assert abs(value - reference_value(fn, m, xi, blas=True)) <= 1e-12 * scale

    def test_empty_and_malformed_stacks(self):
        fn = self.FNS[0]
        assert evaluate_f(fn, np.zeros((0, 2, 2)), np.zeros((1, 2))).shape == (0,)
        with pytest.raises(DomainError):
            evaluate_f(fn, np.eye(2), np.zeros((1, 2)))
        with pytest.raises(DomainError):
            evaluate_f(fn, np.diag([2.0, 1.0])[None], np.zeros((1, 2)))


class TestHostIndependence:
    """Values come from entry formulas and fixed-order sums, not from BLAS
    kernels, so the BLAS build a process picks does not move their bits."""

    SCRIPT = (
        "import hashlib, numpy as np\n"
        "from horolab.autofns import PoincareTestFn, evaluate_f\n"
        "from horolab.sl2core import Sl2Matrix\n"
        "rng = np.random.default_rng(np.random.Philox(4242))\n"
        "a = rng.normal(size=(400, 2, 2))\n"
        "det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]\n"
        "a[det < 0] = a[det < 0][:, :, ::-1]\n"
        "mats = a / np.sqrt(np.abs(det))[:, None, None]\n"
        "xi = np.array([[0.3141592653589793, 0.2718281828459045], [0.7071067811865476, 0.5772156649015329]])\n"
        "out = hashlib.sha256()\n"
        "for level, radius in ((1, 3.0), (2, 3.5), (3, 4.0)):\n"
        "    fn = PoincareTestFn(level=level, freq=((1, 2), (3, -1)), support_radius=radius)\n"
        "    out.update(evaluate_f(fn, mats, xi).tobytes())\n"
        "one = complex(evaluate_f(fn, Sl2Matrix(*mats[7].ravel().tolist()), xi))\n"
        "out.update(np.array([one]).tobytes())\n"
        "print(out.hexdigest())\n"
    )

    @staticmethod
    def _digest(**env):
        import horolab

        src = str(pathlib.Path(horolab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", TestHostIndependence.SCRIPT], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=path, **env),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_blas_kernel_choice_leaves_the_bits(self):
        # Sandybridge is an OpenBLAS kernel without fused multiply-adds; the
        # variable is set in the child process only.
        default = self._digest()
        assert len(default) == 64
        assert self._digest(OPENBLAS_CORETYPE="Sandybridge") == default


class TestFourier:
    def test_quadrature_matches_selection(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        m = random_sl2(rng, scale=0.4)
        support = coefficient_support(fn, m)
        assert len(support) > 0
        for freq in support[:6]:
            want = fourier_coefficient_exact(fn, m, freq)
            got = fourier_coefficient(fn, m, freq, panels=8, points=12)
            assert abs(got - want) < 1e-9

    def test_vanishes_off_support(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        m = random_sl2(rng, scale=0.4)
        support = {tuple(map(tuple, row)) for row in coefficient_support(fn, m)}
        candidates = [((a, b),) for a in range(-3, 4) for b in range(-3, 4)]
        absent = [c for c in candidates if c not in support][:4]
        assert absent
        for freq in absent:
            val = fourier_coefficient(fn, m, np.asarray(freq), panels=8, points=12)
            assert abs(val) < 1e-6

    def test_automorphy_exact_route(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        m = random_sl2(rng, scale=0.5)
        support = coefficient_support(fn, m)
        for i in range(20):
            gamma = random_integer_gamma(rng, size=4)
            freq = support[int(rng.integers(0, len(support)))]
            pulled = freq @ gamma.inverse().as_array().T
            lhs = fourier_coefficient_exact(fn, gamma @ m, freq)
            rhs = fourier_coefficient_exact(fn, m, pulled)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_automorphy_quadrature_route(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 1),))
        m = random_sl2(rng, scale=0.5)
        support = coefficient_support(fn, m)
        small = [f for f in support if np.max(np.abs(f)) <= 2]
        for gamma in [Sl2Matrix.translation(1.0), Sl2Matrix.inversion()]:
            for freq in small[:3]:
                pulled = freq @ gamma.inverse().as_array().T
                lhs = fourier_coefficient(fn, gamma @ m, freq, panels=8, points=12)
                rhs = fourier_coefficient(fn, m, pulled, panels=8, points=12)
                assert abs(lhs - rhs) < 1e-6

    def test_reconstruction_from_coefficients(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        m = random_sl2(rng, scale=0.4)
        support = coefficient_support(fn, m)
        coeffs = [fourier_coefficient(fn, m, f, panels=8, points=12) for f in support]
        for _ in range(3):
            xi = rng.uniform(0, 1, (1, 2))
            series = sum(
                c * np.exp(TWO_PI_I * float(np.sum(f * xi)))
                for c, f in zip(coeffs, support)
            )
            assert abs(series - evaluate_f(fn, m, xi)) < 1e-5

    def test_requires_enough_panels(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        with pytest.raises(DomainError):
            fourier_coefficient(fn, Sl2Matrix.identity(), np.array([[1, 0]]), panels=2)

    def test_two_block_coefficients(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 0), (0, 1)), support_radius=2.2)
        m = random_sl2(rng, scale=0.3)
        support = coefficient_support(fn, m)
        freq = support[0]
        want = fourier_coefficient_exact(fn, m, freq)
        got = fourier_coefficient(fn, m, freq, panels=4, points=4)
        assert abs(got - want) < 1e-5


class TestMeanValue:
    def test_twisted_mean_vanishes(self):
        fn = PoincareTestFn(level=1, freq=((0, 1),))
        assert mean_value(fn) == 0.0

    @pytest.mark.parametrize("rho", [2.2, 3.0, 4.0])
    def test_kernel_mass_against_scipy(self, rho):
        fn = PoincareTestFn(level=1, freq=((0, 0),), support_radius=rho)
        rho_sq = rho * rho
        disc = math.sqrt(rho_sq * rho_sq - 4.0)
        v_lo, v_hi = (rho_sq - disc) / 2.0, (rho_sq + disc) / 2.0

        def integrand(u, v):
            return float(bump6((u * u + v * v + 1.0 - 2.0 * v) / (v * (rho_sq - 2.0)))) / (v * v)

        def lo(v):
            return -math.sqrt(max(rho_sq * v - v * v - 1.0, 0.0))

        oracle, err = scipy.integrate.dblquad(
            integrand, v_lo, v_hi, lo, lambda v: -lo(v), epsabs=1e-11
        )
        assert err < 1e-8
        assert kernel_haar_mass(fn) == pytest.approx(2.0 * math.pi * oracle, rel=1e-8)

    def test_covolume_anchors(self):
        assert covolume(1) == pytest.approx(math.pi**2 / 3.0, rel=1e-15)
        assert covolume(2) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_matrix_counts_by_brute_force(self):
        for n in range(2, 7):
            line = np.arange(n)
            a, b, c, d = np.meshgrid(line, line, line, line, indexing="ij")
            count = int(np.sum((a * d - b * c) % n == 1))
            assert sl2_count_mod(n) == count

    def test_untwisted_mean_scales_with_level(self):
        base = PoincareTestFn(level=1, freq=((0, 0),))
        lifted = PoincareTestFn(level=2, freq=((0, 0),))
        assert mean_value(lifted) == pytest.approx(mean_value(base) / 6.0, rel=1e-9)


class TestHaarSampling:
    def test_samples_live_in_the_reduced_domain(self, rng):
        for m in haar_sample_level_one(rng, 200):
            coords = iwasawa_decompose(m)
            assert abs(coords.u) <= 0.5 + 1e-12
            assert coords.u**2 + coords.v**2 >= 1.0 - 1e-12

    def test_tail_mass_matches_measure(self, rng):
        vs = np.array([iwasawa_decompose(m).v for m in haar_sample_level_one(rng, 3000)])
        p = 3.0 / (2.0 * math.pi)
        se = math.sqrt(p * (1.0 - p) / len(vs))
        assert abs(np.mean(vs > 2.0) - p) < 5.0 * se

    def test_monte_carlo_agrees_with_mean_value(self, rng):
        fn = PoincareTestFn(level=1, freq=((0, 0),), support_radius=2.5)
        vals = np.array(
            [evaluate_f(fn, m, np.zeros((1, 2))).real for m in haar_sample_level_one(rng, 2000)]
        )
        se = float(np.std(vals) / math.sqrt(len(vals)))
        assert abs(float(np.mean(vals)) - mean_value(fn)) < 3.0 * se

    def test_twisted_monte_carlo_centers_at_zero(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 1),), support_radius=2.5)
        mats = haar_sample_level_one(rng, 1500)
        xis = rng.uniform(0.0, 1.0, size=(len(mats), 1, 2))
        vals = np.array([evaluate_f(fn, m, xi) for m, xi in zip(mats, xis)])
        se = float(np.std(vals.real) / math.sqrt(len(vals))) + float(
            np.std(vals.imag) / math.sqrt(len(vals))
        )
        assert abs(np.mean(vals)) < 3.0 * se + 1e-12
