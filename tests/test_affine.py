import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import affine
from horolab.affine import (
    GAP_CAP,
    GroupElement,
    PlanarGrid,
    RectangleRT,
    grid_gap,
    grid_gap_many,
    grid_of,
    log_gauge,
)
from horolab.arith import xgcd
from horolab.errors import ConvergenceError, DomainError
from horolab.sl2core import Sl2Matrix, cuspidal_height

from conftest import random_sl2


def random_element(rng, k=1, scale=1.0):
    return GroupElement(random_sl2(rng, scale), rng.random((k, 2)) * 2 - 1)


def scan_gap(basis, offset, T, exclude_origin, radius=64):
    """Reference minimum over a big explicit window of lattice coefficients.

    Mirrors the production evaluation formula exactly so that agreement can
    be asserted without any tolerance.
    """
    ms = np.arange(-radius, radius + 1)
    m_grid, n_grid = np.meshgrid(ms, ms, indexing="ij")
    x1 = m_grid * basis[0, 0] + n_grid * basis[1, 0] + offset[0]
    x2 = m_grid * basis[0, 1] + n_grid * basis[1, 1] + offset[1]
    vals = np.maximum(T * np.abs(x1), np.abs(x2))
    if exclude_origin:
        vals[radius, radius] = np.inf
    return float(vals.min())


class TestGroupElement:
    def test_block_shape_validation(self):
        with pytest.raises(DomainError):
            GroupElement(Sl2Matrix.identity(), np.zeros(2))
        with pytest.raises(DomainError):
            GroupElement(Sl2Matrix.identity(), np.zeros((1, 3)))

    def test_identity_and_inverse(self, rng):
        for k in (1, 2, 3):
            for _ in range(20):
                g = random_element(rng, k=k)
                p = g * g.inverse()
                assert np.allclose(p.matrix.as_array(), np.eye(2), atol=1e-10)
                assert np.allclose(p.translation, 0.0, atol=1e-10)

    def test_non_finite_translation_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                GroupElement(Sl2Matrix.identity(), [[bad, 0.0]])
            with pytest.raises(DomainError):
                GroupElement(Sl2Matrix.identity(), [[0.0, 1.0], [0.0, bad]])

    def test_mismatched_k_rejected(self, rng):
        with pytest.raises(DomainError):
            random_element(rng, k=1) * random_element(rng, k=2)

    def test_associativity(self, rng):
        for _ in range(50):
            g1, g2, g3 = (random_element(rng, k=2) for _ in range(3))
            left = (g1 * g2) * g3
            right = g1 * (g2 * g3)
            assert np.allclose(left.matrix.as_array(), right.matrix.as_array(), atol=1e-10)
            assert np.allclose(left.translation, right.translation, atol=1e-10)

    def test_torus_point_roundtrip(self, rng):
        xi = rng.random((3, 2))
        m = random_sl2(rng)
        g = GroupElement.from_torus_point(m, xi)
        assert np.allclose(g.torus_point(), xi, atol=1e-12)

    def test_projection_is_homomorphism(self, rng):
        q = [2, -1, 3]
        for _ in range(30):
            g, h = random_element(rng, k=3), random_element(rng, k=3)
            lhs = (g * h).project(q)
            rhs = g.project(q) * h.project(q)
            assert np.allclose(lhs.matrix.as_array(), rhs.matrix.as_array(), atol=1e-12)
            assert np.allclose(lhs.translation, rhs.translation, atol=1e-10)

    def test_projection_validates_input(self, rng):
        g = random_element(rng, k=2)
        with pytest.raises(DomainError):
            g.project([1])
        with pytest.raises(DomainError):
            g.project([0.5, 1.0])


class TestPlanarGrid:
    def test_membership(self):
        grid = PlanarGrid(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([0.5, 0.5]))
        assert grid.contains([2.5, 3.5])
        assert grid.contains([0.5, 0.5])
        assert not grid.contains([1.5, 0.5])
        assert grid.contains([2.5 + 1e-10, 3.5])
        assert not grid.contains([2.5 + 1e-6, 3.5])

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DomainError):
            PlanarGrid(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))

    def test_grid_of_projected_element(self, rng):
        g = random_element(rng, k=2)
        q = [1, -2]
        grid = grid_of(g, q)
        proj = g.project(q)
        assert np.allclose(grid.basis, proj.matrix.as_array())
        assert np.allclose(grid.offset, proj.translation[0])
        # Every grid point n B + offset must test as a member.
        for n in ([0, 0], [3, -2], [-5, 1]):
            point = np.asarray(n, dtype=float) @ grid.basis + grid.offset
            assert grid.contains(point)


class TestCoefficients:
    """``affine._coefficients`` solves c B = p by Cramer's rule.  np.linalg.solve
    is its oracle here: the two must agree within a few ulps of the forward
    error bound eps (|c| |B|) |B^-1| that any backward-stable 2 x 2 solve
    meets, which for the well-conditioned reduced bases is a few ulps of
    |c| itself."""

    @staticmethod
    def assert_agrees_with_lapack(basis, points):
        got = affine._coefficients(basis, points)
        want = np.linalg.solve(basis.T, points.T).T
        scale = (np.abs(want) @ np.abs(basis)) @ np.abs(np.linalg.inv(basis))
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
        return scale / np.maximum(np.abs(want), np.finfo(float).tiny)

    @pytest.mark.parametrize("T", [1e2, 1e4, 1e6, 1e8, 1e10])
    def test_matches_lapack_on_reduced_bases(self, rng, T):
        for _ in range(40):
            reduced, _ = affine._gauss_reduce(random_sl2(rng).as_array() * np.array([T, 1.0]))
            points = rng.uniform(-1.0, 1.0, (16, 2)) * np.array([T, 1.0]) * 10.0
            amplification = self.assert_agrees_with_lapack(reduced, points)
            assert np.median(amplification) < 4.0

    def test_matches_lapack_on_near_singular_grid_bases(self, rng):
        for gap in 10.0 ** -np.arange(6, 14):
            for _ in range(10):
                # Rows (1, 1) and (1, 1 + gap), rotated and scaled: det ~ gap.
                theta, size = rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 2.0)
                rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
                basis = np.array([[1.0, 1.0], [1.0, 1.0 + gap]]) @ rot * size
                grid = PlanarGrid(basis, rng.uniform(-1, 1, 2))
                self.assert_agrees_with_lapack(grid.basis, rng.uniform(-3.0, 3.0, (16, 2)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_grid_membership_is_the_kernel_origin_test(self, rng, k):
        # Torus points in (1/4) Z x (1/5) Z put the origin on some grids.
        hits = 0
        for m in (Sl2Matrix.identity(), Sl2Matrix(2.0, 1.0, 1.0, 1.0), random_sl2(rng)):
            g = GroupElement.from_torus_point(m, rng.integers(0, 8, (k, 2)) / np.array([4, 5]))
            ns = rng.integers(-20, 21, size=(200, k))
            ns = ns[ns.any(axis=1)]
            values, _ = grid_gap_many(g, ns, 37.0)
            contains = [grid_of(g, list(n)).contains([0.0, 0.0]) for n in ns]
            assert np.array_equal(values == 0.0, contains)
            hits += sum(contains)
        assert hits > 0


class TestRectangle:
    def test_validation(self):
        with pytest.raises(DomainError):
            RectangleRT(0.5)
        with pytest.raises(DomainError):
            RectangleRT(math.inf)

    def test_entry_scale(self):
        rect = RectangleRT(4.0)
        assert rect.entry_scale([0.25, 0.5]) == 1.0
        assert rect.entry_scale([0.0, -3.0]) == 3.0
        assert rect.entry_scale([1.0, 0.0]) == 4.0


class TestGridGap:
    def test_identity_element(self):
        g = GroupElement.identity()
        for T in (1.0, 2.0, 10.0, 1e4):
            assert grid_gap(g, [0], T).value == 1.0

    def test_origin_in_grid_gives_zero(self, rng):
        m = random_sl2(rng)
        g = GroupElement.from_torus_point(m, np.array([[0.5, 0.5]]))
        assert grid_gap(g, [2], 7.0).value == 0.0
        assert grid_gap(g, [1], 7.0).value > 0.0

    def test_witness_lies_on_grid(self, rng):
        for _ in range(50):
            g = random_element(rng, k=2)
            q = [int(rng.integers(-3, 4)), int(rng.integers(-3, 4))]
            T = float(np.exp(rng.random() * math.log(100)))
            res = grid_gap(g, q, T)
            if res.value == 0.0:
                continue
            assert grid_of(g, q).contains(res.witness)
            assert RectangleRT(T).entry_scale(res.witness) == res.value

    def test_matches_big_scan(self, rng):
        for _ in range(200):
            g = random_element(rng, k=1)
            zero_q = rng.random() < 0.4
            q = [0] if zero_q else [int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)]
            T = float(np.exp(rng.random() * math.log(64)))
            grid = grid_of(g, q)
            expected = scan_gap(grid.basis, grid.offset, T, exclude_origin=zero_q)
            got = grid_gap(g, q, T).value
            assert got == expected

    def test_tracks_cuspidal_height(self, rng):
        # The squared reciprocal of the gap stays within an absolute factor
        # of the renormalized cusp height along the diagonal flow.
        for _ in range(20):
            g = GroupElement(random_sl2(rng), np.zeros((1, 2)))
            for T in (2.0, 10.0, 100.0, 1000.0):
                s = grid_gap(g, [0], T).value
                y = cuspidal_height(g.matrix @ Sl2Matrix.dilation(T)) / T
                ratio = (s ** -2) / y
                assert 1 / 16 <= ratio <= 16, (T, ratio)

    def test_non_integral_q_is_refused(self, rng):
        g = GroupElement(random_sl2(rng), np.array([[0.3, 0.7]]))
        for bad in (1.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="projection vectors must be integral"):
                grid_gap(g, [bad], 10.0)
        with pytest.raises(DomainError, match="64-bit integers"):
            grid_gap(g, np.array([1e20]), 10.0)
        # An integral float is its integer.
        res, want = grid_gap(g, [2.0], 10.0), grid_gap(g, [2], 10.0)
        assert res.value == want.value
        assert np.array_equal(res.witness, want.witness)


class TestGridGapMany:
    def test_matches_big_scan(self, rng):
        for k in (1, 2):
            for _ in range(15):
                g = random_element(rng, k=k)
                ns = rng.integers(-3, 4, size=(10, k))
                ns[0] = 0
                T = float(np.exp(rng.random() * math.log(64)))
                values, _ = grid_gap_many(g, ns, T)
                for n, value in zip(ns, values):
                    grid = grid_of(g, list(n))
                    assert value == scan_gap(grid.basis, grid.offset, T, exclude_origin=not n.any())

    def test_origin_row_gives_zero(self, rng):
        g = GroupElement.from_torus_point(random_sl2(rng), np.array([[0.5, 0.5]]))
        values, witnesses = grid_gap_many(g, np.array([[0], [1], [2], [-2], [3]]), 7.0)
        assert values[2] == values[3] == 0.0
        assert np.all(witnesses[2:4] == 0.0)
        for i, n in ((0, 0), (1, 1), (4, 3)):
            grid = grid_of(g, [n])
            assert values[i] == scan_gap(grid.basis, grid.offset, 7.0, exclude_origin=n == 0) > 0

    def test_row_is_the_same_alone_and_in_any_batch(self, rng):
        # 2,500 rows span many array blocks.
        for k in (1, 2):
            g = random_element(rng, k=k)
            ns = rng.integers(-40, 41, size=(2500, k))
            ns[::97] = 0
            values, witnesses = grid_gap_many(g, ns, 300.0)
            for lo in range(0, len(ns), 700):
                v, w = grid_gap_many(g, ns[lo:lo + 700][::-1], 300.0)
                assert np.array_equal(v[::-1], values[lo:lo + 700])
                assert np.array_equal(w[::-1], witnesses[lo:lo + 700])
            for i in rng.integers(0, len(ns), 25):
                res = grid_gap(g, list(ns[i]), 300.0)
                assert res.value == values[i]
                assert np.array_equal(res.witness, witnesses[i])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_value_is_even_in_the_offset(self, rng, k):
        # orbit_gap_bound scores one row of each pair n, -n and counts it
        # twice, so both must give the same float.  Integer matrices at
        # rational torus points put breakpoints on integers, where the c0
        # windows of n and -n differ.
        matrices = [Sl2Matrix.identity(), Sl2Matrix(2.0, 1.0, 1.0, 1.0)]
        matrices += [random_sl2(rng) for _ in range(3)]
        for m in matrices:
            for den in (4, 5, 7, None):
                xi = rng.random((k, 2)) if den is None else rng.integers(0, 2 * den, (k, 2)) / den
                g = GroupElement.from_torus_point(m, xi)
                ns = rng.integers(-12, 13, size=(200, k))
                ns[0] = 0
                for T in (1.0, 2.0, 37.0, 1e2, 1e4, 1e6):
                    values, _ = grid_gap_many(g, ns, T)
                    assert np.array_equal(grid_gap_many(g, -ns, T)[0], values)

    def test_tie_rule_is_pinned(self):
        # q = 0 always ties p with -p; the first minimizer in candidate order
        # is the one below the axis here.
        g = GroupElement.identity()
        assert list(grid_gap(g, [0], 2.0).witness) == [0.0, -1.0]
        # The integer lattice shifted by (1.3, 1.0): every point with
        # x1 = 0.3 and |x2| <= 3 attains 10 * 0.3.
        g = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), [[0.3, 0.7]])
        res = grid_gap(g, [1], 10.0)
        assert res.value == pytest.approx(3.0, rel=1e-15)
        assert res.witness[0] == pytest.approx(0.3, rel=1e-15)
        assert res.witness[1] == 1.0

    def test_validation(self, rng):
        g = random_element(rng, k=2)
        with pytest.raises(DomainError):
            grid_gap_many(g, np.array([1, 2]), 10.0)
        with pytest.raises(DomainError):
            grid_gap_many(g, np.array([[1, 2, 3]]), 10.0)
        with pytest.raises(DomainError):
            grid_gap_many(g, np.array([[0.5, 1.0]]), 10.0)
        with pytest.raises(DomainError):
            grid_gap_many(g, np.array([[1, 0]]), 0.5)
        with pytest.raises(DomainError):
            grid_gap_many(g, np.array([[1, 0]]), 1e160)
        values, witnesses = grid_gap_many(g, np.zeros((0, 2), dtype=int), 10.0)
        assert values.shape == (0,) and witnesses.shape == (0, 2)


def gauss_reduce_reference(rows):
    """The numpy form of ``affine._gauss_reduce`` (row dot products, row
    updates as array expressions), kept as its oracle."""
    r = rows.astype(float).copy()
    u = [[1, 0], [0, 1]]
    for _ in range(200):
        n0 = r[0] @ r[0]
        n1 = r[1] @ r[1]
        if n0 > n1:
            r = r[::-1].copy()
            u = [u[1], u[0]]
            n0, n1 = n1, n0
        mu = round(float(r[0] @ r[1]) / float(n0))
        if mu == 0:
            break
        r[1] = r[1] - mu * r[0]
        u = [u[0], [u[1][0] - mu * u[0][0], u[1][1] - mu * u[0][1]]]
    return r, u


def random_integer_basis(rng, bound=10**6):
    """An integer unimodular matrix with entries up to ``bound``."""
    while True:
        a, b = (int(x) for x in rng.integers(-bound, bound + 1, 2))
        g, s, t = xgcd(a, b)
        if abs(g) != 1:
            continue
        # a s + b t = g = +-1, so the bottom row g (-t, s) completes (a, b);
        # a multiple of (a, b) spreads it up to the bound.
        c, d = -g * t, g * s
        j = int(rng.integers(-bound, bound + 1)) // max(abs(a), abs(b), 1)
        c, d = c + j * a, d + j * b
        if max(abs(c), abs(d)) <= bound:
            return np.array([[a, b], [c, d]], dtype=float)


class TestGaussReduce:
    def test_matches_the_numpy_loop(self, rng):
        # Integer bases at T = 1 and 2, and the drivers' Gaussian ensemble
        # out to T = 1e12: 2,000 bases in all.
        bases = [random_integer_basis(rng) * np.array([T, 1.0]) for _ in range(500) for T in (1.0, 2.0)]
        for _ in range(200):
            m = random_sl2(rng).as_array()
            bases += [m * np.array([T, 1.0]) for T in (1.0, 2.0, 1e3, 1e6, 1e12)]
        for rows in bases:
            reduced, u = affine._gauss_reduce(rows)
            ref, ref_u = gauss_reduce_reference(rows)
            assert np.array_equal(reduced, ref) and reduced.dtype == ref.dtype
            assert u == ref_u

    def test_integer_bases_are_reduced_exactly(self, rng):
        # Entries up to 2 10^6 keep every product and sum exact in floats, so
        # the float loop is the exact Gauss reduction.
        for _ in range(500):
            for T in (1.0, 2.0):
                rows = random_integer_basis(rng) * np.array([T, 1.0])
                reduced, u = affine._gauss_reduce(rows)
                r = [[Fraction(x) for x in row] for row in reduced.tolist()]
                exact = [[sum(Fraction(u[i][j]) * Fraction(float(rows[j][col])) for j in (0, 1))
                          for col in (0, 1)] for i in (0, 1)]
                assert r == exact
                n0, n1 = (row[0] ** 2 + row[1] ** 2 for row in r)
                assert n0 <= n1
                assert 2 * abs(r[0][0] * r[1][0] + r[0][1] * r[1][1]) <= n0

    def test_unreduced_basis_is_refused(self, monkeypatch):
        # (2, 1; 1, 1) needs three sweeps at these T; a basis left unreduced
        # would make the candidate window, and so the gap, silently wrong.
        g = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), [[0.3, 0.7]])
        monkeypatch.setattr(affine, "_MAX_REDUCTION_SWEEPS", 1)
        for T in (2.0, 10.0, 1e3):
            with pytest.raises(ConvergenceError, match="^lattice reduction did not converge within 1 sweeps$"):
                grid_gap_many(g, np.array([[0], [1]]), T)
        # The identity at T = 1 is reduced as given: one sweep answers.
        assert grid_gap(GroupElement.identity(), [0], 1.0).value == 1.0


class TestGapBlocks:
    @pytest.mark.parametrize("block_rows", [1, 7, 64, 128, 129, 4096])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values_do_not_depend_on_the_block_size(self, rng, monkeypatch, block_rows, k):
        # Integer matrices at torus points in (1/4) Z x (1/5) Z put the origin
        # on some grids; zero rows sit at both ends and inside of blocks.
        cases = [
            (Sl2Matrix.identity(), rng.integers(0, 8, (k, 2)) / np.array([4, 5])),
            (Sl2Matrix(2.0, 1.0, 1.0, 1.0), rng.integers(0, 8, (k, 2)) / np.array([4, 5])),
            (Sl2Matrix(2.0, 1.0, 1.0, 1.0), rng.random((k, 2))),
            (random_sl2(rng), rng.random((k, 2))),
        ]
        ns = rng.integers(-20, 21, size=(140, k))
        ns[[0, 6, 63, 64, 127, 128, 129, 139]] = 0
        in_grid = 0
        for m, xi in cases:
            g = GroupElement.from_torus_point(m, xi)
            for T in (1.0, 2.0, 37.0, 1e3, 1e6):
                values, witnesses = grid_gap_many(g, ns, T)
                in_grid += int(np.sum((values == 0.0) & ns.any(axis=1)))
                with monkeypatch.context() as patch:
                    patch.setattr(affine, "_BLOCK_ROWS", block_rows)
                    v, w = grid_gap_many(g, ns, T)
                assert np.array_equal(v, values) and np.array_equal(w, witnesses)
                assert np.all(values[~ns.any(axis=1)] > 0.0)
        assert in_grid > 0

    @pytest.mark.parametrize("block_rows", [1, 7, 128, 129, 160, 4096])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_times_together_match_one_time_calls(self, rng, monkeypatch, block_rows, k):
        # Rows go into blocks time-major: with 43 offsets the zero rows 0, 7,
        # 31 and 42 sit at rows 7, 128, 129 and 160 of the five times, on the
        # edges of the blocks above, and many blocks straddle two times.
        cases = [
            (Sl2Matrix.identity(), rng.integers(0, 8, (k, 2)) / np.array([4, 5])),
            (Sl2Matrix(2.0, 1.0, 1.0, 1.0), rng.integers(0, 8, (k, 2)) / np.array([4, 5])),
            (Sl2Matrix(2.0, 1.0, 1.0, 1.0), rng.random((k, 2))),
            (random_sl2(rng), rng.random((k, 2))),
        ]
        ns = rng.integers(-20, 21, size=(43, k))
        ns[[0, 7, 31, 42]] = 0
        Ts = (1.0, 2.0, 37.0, 1e3, 1e6)
        in_grid = 0
        for m, xi in cases:
            g = GroupElement.from_torus_point(m, xi)
            with monkeypatch.context() as patch:
                patch.setattr(affine, "_BLOCK_ROWS", block_rows)
                values, witnesses = grid_gap_many(g, ns, Ts)
            assert values.shape == (5, 43) and witnesses.shape == (5, 43, 2)
            for t, T in enumerate(Ts):
                v, w = grid_gap_many(g, ns, T)
                assert np.array_equal(values[t], v) and np.array_equal(witnesses[t], w)
            in_grid += int(np.sum((values == 0.0) & ns.any(axis=1)))
            with pytest.raises(DomainError):
                grid_gap_many(g, ns, [2.0, 0.5])
        assert in_grid > 0


class TestLogGauge:
    def test_anchor_values(self):
        assert log_gauge(1.0, 1) == pytest.approx(math.log(3.0), rel=1e-15)
        assert log_gauge(0.5, 0) == 0.5
        assert log_gauge(2.0, 2) == pytest.approx(2.0 * math.log(2.5) ** 2, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gauge(0.0, 1)
        with pytest.raises(DomainError):
            log_gauge(-1.0, 1)
        with pytest.raises(DomainError):
            log_gauge(1.0, -2)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(1e-8, 1e3), j=st.integers(0, 4))
    def test_positive(self, x, j):
        assert log_gauge(x, j) > 0.0

    def test_first_order_gauge_is_monotone(self):
        # Higher orders dip slightly near x ~ 0.1, so only j = 1 is tested.
        xs = np.logspace(-6, 2, 50)
        vals = [log_gauge(float(x), 1) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_higher_order_gauge_vanishes_at_zero(self):
        assert log_gauge(1e-12, 3) < 1e-6
        assert log_gauge(100.0, 3) > log_gauge(1.0, 3)
