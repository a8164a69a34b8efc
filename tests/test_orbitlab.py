"""Averaging routes along horocycles, the cusp splitting, and decay fits."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_integer_gamma, random_sl2
from horolab import orbitlab
from horolab.affine import GroupElement, grid_gap
from horolab.arith import ExactSum
from horolab.autofns import PoincareTestFn, evaluate_f, mean_value
from horolab.errors import DomainError, ResourceGuardError
from horolab.majorant import MajorantParams, orbit_gap_bound
from horolab.orbitlab import (
    OrbitExperiment,
    equidist_error,
    horocycle_main_term,
    lattice_window_average,
    long_orbit_average,
    orbit_split,
    partition_identity,
    split_orbit_average,
    translate_integral,
    window_limit,
)
from horolab.sl2core import Sl2Matrix, cuspidal_height, reduce_fundamental
from horolab.smoothfns import BUMP6_MASS, bump6, bump6_normalized

GOLD = (math.sqrt(5.0) - 1.0) / 2.0
XI_GOLD = np.array([[GOLD, GOLD * GOLD]])


def window(x):
    return bump6(np.asarray(x, dtype=float))


def cusp_base(height, T, slide, angle=None):
    """Matrix whose time-T orbit matrix is already reduced at the given
    cusp height; the slide stays inside the strip so reduction is a no-op."""
    w = Sl2Matrix.translation(slide) @ Sl2Matrix.dilation(height)
    if angle is not None:
        w = w @ Sl2Matrix.rotation(angle)
    return w @ Sl2Matrix.dilation(1.0 / T)


class TestOrbitSplit:
    def test_dilation_anchor(self):
        sp = orbit_split(Sl2Matrix.identity(), 400.0, 0.01)
        assert np.allclose(sp.reduced.as_array(), [[20.0, 0.0], [0.0, 0.05]])
        assert sp.scale == pytest.approx(400.0, rel=1e-12)
        assert sp.shift == 4
        assert np.allclose(sp.core.as_array(), np.eye(2), atol=1e-12)

    def test_reconstruction_identity(self, rng):
        for _ in range(200):
            m = random_sl2(rng, scale=1.2)
            T = float(rng.uniform(1.0, 50.0))
            z = float(rng.uniform(-1.02, 1.02))
            try:
                sp = orbit_split(m, T, z)
            except DomainError:
                continue
            left = sp.reduced @ Sl2Matrix.translation(z)
            right = (
                Sl2Matrix.translation(float(sp.shift))
                @ sp.core
                @ Sl2Matrix.dilation(sp.scale)
            )
            assert np.allclose(left.as_array(), right.as_array(), atol=1e-9)
            assert abs(abs(sp.core.d) - 1.0) <= 1e-9

    def test_core_bounded_in_cusp_regime(self, rng):
        checked = 0
        for _ in range(200):
            height = float(rng.uniform(110.0, 300.0))
            T = float(rng.uniform(10.0, 25.0))
            slide = float(rng.uniform(-0.4, 0.4))
            angle = float(rng.uniform(0.0, math.pi))
            m = cusp_base(height, T, slide, angle)
            z = float(rng.uniform(-1.02, 1.02))
            try:
                sp = orbit_split(m, T, z)
            except DomainError:
                continue
            if sp.scale > (4.0 / 9.0) * height:
                checked += 1
                assert sp.core.frobenius_norm() <= 3.0
        assert checked > 50

    def test_shift_monotone_between_poles(self):
        m = cusp_base(110.0, 25.0, -0.1, 1.0)
        sp0 = orbit_split(m, 25.0, 0.0)
        c, d = sp0.reduced.c, sp0.reduced.d
        pole = -d / c
        zs = np.linspace(pole + 0.03, 1.02, 60)
        shifts = [orbit_split(m, 25.0, float(z)).shift for z in zs]
        assert all(b >= a for a, b in zip(shifts, shifts[1:]))

    def test_shift_rounds_up_near_integer_ratio(self):
        # reduced row of the 400-dilation maps z to the ratio 400 z
        z_up = (3.0 - 1e-10) / 400.0
        z_down = (3.0 - 1e-8) / 400.0
        assert orbit_split(Sl2Matrix.identity(), 400.0, z_up).shift == 3
        assert orbit_split(Sl2Matrix.identity(), 400.0, z_down).shift == 2

    def test_integer_class_invariance(self, rng):
        m = random_sl2(rng, scale=0.9)
        for _ in range(10):
            gamma = random_integer_gamma(rng, size=4)
            a = orbit_split(m, 7.0, 0.33)
            b = orbit_split(gamma @ m, 7.0, 0.33)
            assert b.scale == pytest.approx(a.scale, rel=1e-9)
            assert b.shift == a.shift
            assert np.allclose(b.core.as_array(), a.core.as_array(), atol=1e-9)

    def test_pole_raises(self):
        m = cusp_base(110.0, 25.0, -0.1, 1.0)
        sp = orbit_split(m, 25.0, 0.0)
        pole = -sp.reduced.d / sp.reduced.c
        with pytest.raises(DomainError):
            orbit_split(m, 25.0, pole)

    def test_matches_array_form_at_each_node(self):
        m, T = cusp_base(110.0, 25.0, -0.1, 1.0), 25.0
        reduced = orbit_split(m, T, 0.0).reduced
        zs = np.linspace(-1.02, 1.02, 301)
        scale, shift, core = orbitlab._split_nodes(reduced, zs)
        for i, z in enumerate(zs):
            sp = orbit_split(m, T, float(z))
            assert (sp.scale, sp.shift) == (scale[i], shift[i])
            assert sp.core == Sl2Matrix(*core[i].ravel().tolist())
        pole = -reduced.d / reduced.c
        with pytest.raises(DomainError):
            orbitlab._split_nodes(reduced, np.array([0.0, pole]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            orbit_split(Sl2Matrix.identity(), 0.0, 0.1)
        with pytest.raises(DomainError):
            orbit_split(Sl2Matrix.identity(), 10.0, math.inf)


class TestPartitionIdentity:
    def test_trivial_triple_is_exact(self):
        assert partition_identity(bump6_normalized, 0.0, 1.0, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_small_skew_triple(self):
        val = partition_identity(bump6_normalized, 0.1, 0.2, 0.5)
        assert val == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(
        c=st.floats(-2.0, 2.0),
        d=st.floats(-2.0, 2.0),
        s=st.floats(-1.0, 1.0),
    )
    def test_unit_mass_for_admissible_triples(self, c, d, s):
        if abs(c * s + d) < 0.05:
            return
        assert partition_identity(bump6_normalized, c, d, s) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            partition_identity(bump6_normalized, 1.0, -0.5, 0.5)


class TestTranslateIntegral:
    def test_zero_window(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        val = translate_integral(fn, el, 0.5, lambda x: np.zeros_like(np.asarray(x)))
        assert val == 0.0

    def test_matches_fixed_step_riemann_sum(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        m = random_sl2(rng, scale=0.6)
        xi = rng.uniform(0.0, 1.0, (1, 2))
        el = GroupElement.from_torus_point(m, xi)
        y = 0.3
        got = translate_integral(fn, el, y, window)
        n = 8192
        xs = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
        hs = window(xs)
        scale = Sl2Matrix.dilation(y)
        live = hs != 0.0
        mats = [(m @ Sl2Matrix.translation(float(x)) @ scale).as_array() for x in xs[live]]
        total = 0.0 + 0.0j
        for hv, value in zip(hs[live], evaluate_f(fn, np.array(mats), xi)):
            total += hv * value
        total *= 2.0 / n
        assert abs(got - total) < 1e-5

    def test_zero_above_kernel_support(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        assert translate_integral(fn, el, 20.0, window) == 0.0

    def test_coset_factorization_invariance(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        m = random_sl2(rng, scale=0.7)
        xi = rng.uniform(0.0, 1.0, (1, 2))
        el = GroupElement.from_torus_point(m, xi)
        base = translate_integral(fn, el, 0.4, window)
        gamma = random_integer_gamma(rng, size=4)
        w = rng.integers(-3, 4, size=(1, 2)).astype(float)
        moved = GroupElement(gamma @ m, (xi + w) @ m.as_array())
        again = translate_integral(fn, moved, 0.4, window)
        assert abs(again - base) < 1e-8

    def test_rejects_bad_height_and_blocks(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        two = GroupElement.from_torus_point(Sl2Matrix.identity(), np.zeros((2, 2)))
        with pytest.raises(DomainError):
            translate_integral(fn, el, 0.0, window)
        with pytest.raises(DomainError):
            translate_integral(fn, two, 0.5, window)


class TestLatticeRoute:
    def test_agrees_with_pointwise_route(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        m = Sl2Matrix.translation(0.3) @ Sl2Matrix.dilation(1.7)
        el = GroupElement.from_torus_point(m, XI_GOLD)
        for y in (0.5, 0.1):
            slow = translate_integral(fn, el, y, window)
            fast = lattice_window_average(fn, el, y, window, (-1.0, 1.0))
            assert abs(slow - fast) < 1e-6 * max(1.0, abs(slow))

    def test_agrees_at_level_two(self, rng):
        # Levels 3 and 4 also check the completion anchor, as -1 is not 1 mod the level.
        for level, radius in ((2, 3.0), (3, 4.0), (4, 4.0)):
            fn = PoincareTestFn(level=level, freq=((1, 1),), support_radius=radius)
            m = random_sl2(rng, scale=0.7)
            el = GroupElement.from_torus_point(m, np.array([[0.25, 0.125]]))
            slow = translate_integral(fn, el, 0.2, window)
            fast = lattice_window_average(fn, el, 0.2, window, (-1.0, 1.0))
            assert abs(slow - fast) < 1e-6

    def test_agrees_with_two_blocks(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 0), (0, 2)))
        m = random_sl2(rng, scale=0.6)
        xi = rng.uniform(0.0, 1.0, (2, 2))
        el = GroupElement.from_torus_point(m, xi)
        slow = translate_integral(fn, el, 0.25, window)
        fast = lattice_window_average(fn, el, 0.25, window, (-1.0, 1.0))
        assert abs(slow - fast) < 1e-6

    def test_coset_factorization_invariance(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 2),))
        m = random_sl2(rng, scale=0.7)
        xi = rng.uniform(0.0, 1.0, (1, 2))
        base = lattice_window_average(
            fn, GroupElement.from_torus_point(m, xi), 0.1, window, (-1.0, 1.0)
        )
        for _ in range(10):
            gamma = random_integer_gamma(rng, size=4)
            w = rng.integers(-3, 4, size=(1, 2)).astype(float)
            moved = GroupElement(gamma @ m, (xi + w) @ m.as_array())
            again = lattice_window_average(fn, moved, 0.1, window, (-1.0, 1.0))
            assert abs(again - base) < 1e-9

    def test_empty_above_kernel_support(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        assert lattice_window_average(fn, el, 20.0, window, (-1.0, 1.0)) == 0.0

    def test_rule_is_exact_at_small_height(self, monkeypatch):
        # With the bump6 window each translate's integrand is a polynomial of
        # degree 36 in x, which the 24-point rule integrates exactly, so a
        # 32-point rule on the same intervals changes the A09 values at
        # y = 1e-3 only by rounding.
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
        fns = [PoincareTestFn(level=1, freq=(freq,)) for freq in ((0, 0), (1, 0))]
        ones = [lattice_window_average(fn, el, 1e-3, window, (-1.0, 1.0)) for fn in fns]
        rule, sizes = orbitlab._rule, []

        def finer_rule(n):
            sizes.append(n)
            return rule(32)

        monkeypatch.setattr(orbitlab, "_rule", finer_rule)
        for fn, one in zip(fns, ones):
            finer = lattice_window_average(fn, el, 1e-3, window, (-1.0, 1.0))
            assert abs(finer - one) < 1e-13 * abs(one)
        assert sizes == [24, 24]


class TestLatticeKernel:
    """The batched kernel behind every lattice average: a window's value and
    its guards do not depend on the batch, on the candidate blocks or on the
    integration block size."""

    def test_block_size_does_not_change_values(self, monkeypatch):
        twisted = PoincareTestFn(level=2, freq=((1, 1),), support_radius=3.0)
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), np.array([[0.3, 0.7]]))
        untwisted = PoincareTestFn(level=1, freq=((0, 0),))
        split_el = GroupElement.from_torus_point(cusp_base(150.0, 20.0, 0.2), XI_GOLD)

        def values():
            return [
                lattice_window_average(untwisted, el, 0.01, window, (-1.0, 1.0)),
                lattice_window_average(twisted, el, 0.05, window, (-1.0, 1.0)),
                lattice_window_average(
                    PoincareTestFn(level=1, freq=((1, 0),)), el, 0.05,
                    lambda x: window(x / 3.0) / 3.0, (-3.0, 3.0),
                ),
            ]

        def batches():
            # Many windows per integration chunk, and chunks that cut windows.
            return [
                split_orbit_average(PoincareTestFn(level=1, freq=((1, 0),)), split_el, 20.0, window),
                horocycle_main_term(OrbitExperiment(untwisted, el, (0.1, 0.01, 0.001), window)),
            ]

        whole, whole_batches = values(), batches()
        monkeypatch.setattr(orbitlab, "_BLOCK_ROWS", 7)
        assert values() == whole
        assert batches() == whole_batches
        monkeypatch.setattr(orbitlab, "_BLOCK_CANDIDATES", 5)
        assert values() == whole

    def test_translate_chunks_hold_at_most_a_block(self, monkeypatch):
        # With blocks of 5 bottom rows a block completes to more than 5
        # translates, which go in chunks of at most 5 (cutting some row's t
        # range); each window keeps its value.
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
        values = lambda: [lattice_window_average(fn, el, y, window, (-1.0, 1.0))
                          for y in (0.05, 0.01)]
        whole, added, translates = values(), [], []
        guard = orbitlab._guard

        class Recording(ExactSum):
            def add(self, terms, groups=None):
                added.append(len(terms))
                super().add(terms, groups)

        def recording(tally, win, counts, what):
            if what == "translate candidates":
                translates.append(counts.sum() / 2.0)  # paired: each kept row counts twice
            guard(tally, win, counts, what)

        monkeypatch.setattr(orbitlab, "ExactSum", Recording)
        monkeypatch.setattr(orbitlab, "_guard", recording)
        monkeypatch.setattr(orbitlab, "_BLOCK_CANDIDATES", 5)
        assert values() == whole
        assert max(translates) > 5 and 0 < max(added) <= 5

    def test_window_groups_do_not_change_values(self, monkeypatch):
        # 69 to 93 candidates per window: with blocks of 64 every window
        # straddles a block boundary and the columns come in many chunks.
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(cusp_base(150.0, 20.0, 0.2), XI_GOLD)
        whole = split_orbit_average(fn, el, 20.0, window)
        monkeypatch.setattr(orbitlab, "_BLOCK_CANDIDATES", 64)
        assert split_orbit_average(fn, el, 20.0, window) == whole

    def test_main_term_rows_match_single_heights(self):
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
        ys = (0.2, 0.05, 0.01)
        rows = horocycle_main_term(OrbitExperiment(fn, el, ys, window))
        for y, row in zip(ys, rows):
            alone = lattice_window_average(fn, el, y, window, (-1.0, 1.0))
            assert row.average == alone.real
            assert row.error == abs(alone - row.limit)

    def test_split_windows_match_alone(self, monkeypatch):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(cusp_base(150.0, 20.0, 0.2), XI_GOLD)
        kernel, calls = orbitlab._lattice_batch, []

        def recording(*args, **kwargs):
            calls.append((args, kernel(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(orbitlab, "_lattice_batch", recording)
        monkeypatch.setattr(orbitlab, "_BLOCK_CANDIDATES", 50)  # windows straddle blocks
        split_orbit_average(fn, el, 20.0, window)
        assert len(calls) == 1
        (fn_, mats, xis, ys, los, his, win_fn), batched = calls[0]
        assert batched.size > 1000
        for w in range(batched.size):
            alone = kernel(
                fn_, mats[w : w + 1], xis[w : w + 1], ys[w : w + 1], los[w : w + 1],
                his[w : w + 1], lambda xs, win, w=w: win_fn(xs, win + w),
            )
            assert alone[0] == batched[w]

    def test_guards_count_each_window(self, monkeypatch):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        m = (Sl2Matrix.translation(0.3) @ Sl2Matrix.dilation(1.7)).as_array()

        def batch(n):
            tile = lambda v: np.repeat(np.asarray(v, dtype=float)[None], n, axis=0)
            return orbitlab._lattice_batch(fn, tile(m), tile(XI_GOLD), tile(0.05), tile(-1.0),
                                           tile(1.0), lambda xs, _: window(xs))

        # Smallest cap under which one window passes alone, by bisection.
        lo, hi = 1, orbitlab.CANDIDATE_CAP
        alone = batch(1)
        while lo < hi:
            monkeypatch.setattr(orbitlab, "CANDIDATE_CAP", (lo + hi) // 2)
            try:
                batch(1)
                hi = (lo + hi) // 2
            except ResourceGuardError:
                lo = (lo + hi) // 2 + 1
        # Counts add up over blocks, so tiny blocks trip at the same cap.
        for block in (orbitlab._BLOCK_CANDIDATES, 5):
            monkeypatch.setattr(orbitlab, "_BLOCK_CANDIDATES", block)
            monkeypatch.setattr(orbitlab, "CANDIDATE_CAP", lo)
            assert np.all(batch(30) == alone[0])
            monkeypatch.setattr(orbitlab, "CANDIDATE_CAP", lo - 1)
            with pytest.raises(ResourceGuardError):
                batch(30)

    # The identity window at y = 0.5 counts 17 bottom-row columns, 153
    # bottom-row candidates and 196 translate candidates; a cap one below a
    # count trips that guard.
    @pytest.mark.parametrize("count, what", [
        (17, "bottom-row columns"),
        (153, "bottom-row candidates"),
        (196, "translate candidates"),
    ])
    def test_each_count_guard_trips_at_its_count(self, monkeypatch, count, what):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        run = lambda: lattice_window_average(fn, el, 0.5, window, (-1.0, 1.0))
        monkeypatch.setattr(orbitlab, "CANDIDATE_CAP", count - 1)
        with pytest.raises(ResourceGuardError, match=f"^{count} {what} exceed the"):
            run()
        monkeypatch.setattr(orbitlab, "CANDIDATE_CAP", count)
        try:
            run()
        except ResourceGuardError as err:
            assert what not in str(err)

    @staticmethod
    def candidate_rows(level, bounds, tally):
        """The rows (win, n1, n2) that ``_candidate_blocks`` yields."""
        rows = []
        for win, n1, n2 in orbitlab._candidate_blocks(level, *bounds, tally):
            rows += zip(win.tolist(), n1.tolist(), n2.tolist())
        assert len(rows) == len(set(rows))
        return set(rows)

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("block", [1 << 14, 5])
    def test_mirror_rows_are_enumerated_once(self, monkeypatch, rng, level, block):
        # Bounds of five windows, and the full candidate set by brute force:
        # n2 = 1 mod the level, n1 a multiple of it between the float edges.
        n_win = 5
        bound1, bound2 = np.floor(rng.uniform(2.0, 12.0, (2, n_win))) + 1.0
        a_star = rng.uniform(0.5, 2.0, n_win) * rng.choice([-1.0, 1.0], n_win)
        b_star, cap_star = rng.uniform(-2.0, 2.0, n_win), rng.uniform(1.0, 6.0, n_win)
        full = set()
        for w in range(n_win):
            for n2 in range(-int(bound2[w]), int(bound2[w]) + 1):
                edges = (np.array([-1.0, 1.0]) * cap_star[w] - n2 * b_star[w]) / a_star[w]
                lo, hi = max(edges.min(), -bound1[w] - 0.5), min(edges.max(), bound1[w] + 0.5)
                full |= {(w, n1, n2) for n1 in range(-40, 41)
                         if n2 % level == 1 % level and n1 % level == 0 and lo <= n1 <= hi}
        counts = np.bincount([w for w, _, _ in full], minlength=n_win)
        monkeypatch.setattr(orbitlab, "_BLOCK_CANDIDATES", block)
        tally = np.zeros(n_win)
        rows = self.candidate_rows(level, (bound1, bound2, a_star, b_star, cap_star), tally)
        assert np.array_equal(tally, counts)  # the guard counts the full set
        if level == 3:
            assert rows == full
        else:
            # One row of each mirror pair; the zero row, its own mirror, is dropped
            # (no gcd is 1 there).
            mirrors = {(w, -n1, -n2) for w, n1, n2 in rows}
            assert not rows & mirrors
            assert rows | mirrors == full - {(w, 0, 0) for w in range(n_win)}
            assert all(n2 > 0 or (n2 == 0 and n1 > 0) for _, n1, n2 in rows)

    @pytest.mark.parametrize("level, radius", [(1, 2.0), (2, 3.0)])
    def test_pairs_give_the_full_sum(self, monkeypatch, level, radius):
        # The values and the guard tallies of the paired kernel equal those of
        # the walk over every row, and the conjugate terms cancel exactly.
        fn = PoincareTestFn(level=level, freq=((1, 1),), support_radius=radius)
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), np.array([[0.3, 0.7]]))
        guard, tallies = orbitlab._guard, {}

        def recording(tally, win, counts, what):
            guard(tally, win, counts, what)
            tallies[what] = tally.copy()

        def run():
            values, seen = [], []
            for y in (0.2, 0.02, 0.05):
                tallies.clear()
                values.append(lattice_window_average(fn, el, y, window, (-1.0, 1.0)))
                seen.append({what: tally.tolist() for what, tally in tallies.items()})
            return values, seen

        monkeypatch.setattr(orbitlab, "_guard", recording)
        paired, paired_tallies = run()
        assert [v.imag for v in paired] == [0.0, 0.0, 0.0]
        monkeypatch.setattr(orbitlab, "_paired", lambda level: False)
        full, full_tallies = run()
        assert [v.real for v in full] == [v.real for v in paired]
        assert [v.imag for v in full] == [0.0, 0.0, 0.0]
        assert [len(t) for t in full_tallies] == [3, 3, 3]
        assert paired_tallies == full_tallies

    def test_degenerate_rows_guard(self):
        # diag(1e5, 1e-5) sends the primitive bottom row (0, 1) to (0, 1e-5),
        # within the rounding slack of zero in both entries, so its completion
        # range is unbounded.
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.dilation(1e10), XI_GOLD)
        with pytest.raises(ResourceGuardError, match="degenerate base rows"):
            lattice_window_average(fn, el, 1.0, window, (-1.0, 1.0))

    def test_one_window_memory_is_bounded(self):
        # A09's y = 1e-3 window: 24.5 MB traced when all its candidates were
        # expanded at once, about 9 MB in blocks.
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
        lattice_window_average(fn, el, 0.1, window, (-1.0, 1.0))  # warm caches and imports
        tracemalloc.start()
        try:
            lattice_window_average(fn, el, 1e-3, window, (-1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_one_window_memory_does_not_grow_with_depth(self):
        # Translates go in chunks as large as a candidate block, so A09's
        # window peaks alike at y = 1e-4 and 3e-5 (about 7 MB traced), where
        # the whole expansion of a block once grew with depth.
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
        lattice_window_average(fn, el, 0.1, window, (-1.0, 1.0))  # warm caches and imports
        peaks = []
        for y in (1e-4, 3e-5):
            tracemalloc.start()
            try:
                lattice_window_average(fn, el, y, window, (-1.0, 1.0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_window_takes_node_major_blocks(self):
        # The kernel calls window(xs, win) on (24, rows) blocks of nodes, rows
        # at most _BLOCK_ROWS; an elementwise window gives the public value.
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
        sizes = []

        def recording(xs, win):
            assert xs.shape == (24, win.size)
            sizes.append(win.size)
            return bump6(xs)

        value = orbitlab._lattice_batch(
            fn, el.matrix.as_array()[None], el.torus_point()[None], np.array([1e-3]),
            np.array([-1.0]), np.array([1.0]), recording,
        )
        assert max(sizes) == orbitlab._BLOCK_ROWS and min(sizes) < orbitlab._BLOCK_ROWS
        assert value[0] == lattice_window_average(fn, el, 1e-3, window, (-1.0, 1.0))

    @pytest.mark.parametrize("rows", [1, 7, 513])
    def test_node_sum_adds_like_numpy_row_sums(self, rows):
        # Every node count up to numpy's pairwise block of 128, with signs and
        # magnitudes mixed over 60 decades; a plain running sum differs from
        # np.sum on most of these blocks.  NaN and infinities propagate the
        # same way, and a row of -0.0 sums to numpy's 0.0.
        rng = np.random.default_rng(rows)
        for n in range(1, 129):
            block = rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-30.0, 30.0, (rows, n))
            special = block.copy()
            for _ in range(2):
                special[np.arange(rows), rng.integers(n, size=rows)] = rng.choice(
                    [np.nan, np.inf, -np.inf], size=rows
                )
            for b in (block, special, np.full((rows, n), -0.0)):
                with np.errstate(invalid="ignore"):  # inf - inf
                    got = orbitlab._node_sum(np.ascontiguousarray(b.T))
                    want = np.sum(b, axis=1)
                assert np.array_equal(got, want, equal_nan=True), n
                assert np.array_equal(np.signbit(got), np.signbit(want)), n


class TestGoldenBits:
    """Lattice values pinned to their ``float.hex`` (recorded on x86-64 Linux,
    numpy 2.4): the integration's floats and the order they are added in are
    fixed.  Only k = 1 frequencies, so the phase coefficients come from BLAS
    products of one term."""

    def test_a09_main_term_rows(self):
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), XI_GOLD)
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        rows = horocycle_main_term(OrbitExperiment(fn, el, (1e-1, 1e-2, 1e-3, 1e-4), window))
        assert [(r.average.hex(), r.error.hex()) for r in rows] == [
            ("0x1.09a0b28780babp+3", "0x1.775f5ca1ec340p+0"),
            ("0x1.350c80ae47510p+3", "0x1.c00eb6bb78180p-4"),
            ("0x1.386138e1e792ep+3", "0x1.5b29ceb572800p-8"),
            ("0x1.388ca7cba6336p+3", "0x1.35fcfe4600000p-18"),
        ]

    def test_a12_first_split_case(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(cusp_base(150.0, 20.0, 0.2), XI_GOLD)
        value = split_orbit_average(fn, el, 20.0, window)
        assert (value.real.hex(), value.imag.hex()) == ("-0x1.1ff158f530cd2p-8", "0x0.0p+0")

    def test_level_three_twisted_windows(self):
        # Level 3 leaves -I out of the group: every translate is summed.  At
        # y = 0.2 a few translates make the value, so a one-ulp change in a
        # term's kernel argument (Horner order) shows in its last bits.
        fn = PoincareTestFn(level=3, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix(2.0, 1.0, 1.0, 1.0), np.array([[0.3, 0.7]]))
        values = [lattice_window_average(fn, el, y, window, (-1.0, 1.0)) for y in (0.01, 0.2)]
        assert [(v.real.hex(), v.imag.hex()) for v in values] == [
            ("-0x1.59d73447ee201p-3", "0x1.439023dd9550ap-2"),
            ("-0x1.fdd83f1ac7b2ep-5", "0x1.7ad72836defe9p-3"),
        ]


class TestLongOrbit:
    def test_zero_window(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        assert long_orbit_average(fn, el, 5.0, zero) == 0.0

    def test_routes_agree(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        m = Sl2Matrix.translation(0.23) @ Sl2Matrix.dilation(1.3)
        el = GroupElement.from_torus_point(m, XI_GOLD)
        fast = long_orbit_average(fn, el, 10.0, window, route="lattice")
        slow = long_orbit_average(fn, el, 10.0, window, route="pointwise")
        assert abs(fast - slow) < 1e-6

    def test_scale_coherence_with_translate_form(self, rng):
        # pushing the dilation into the base point turns the time average
        # into a height-1/T translate integral of the same window
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        m = random_sl2(rng, scale=0.7)
        xi = rng.uniform(0.0, 1.0, (1, 2))
        T = 8.0
        translated = translate_integral(
            fn, GroupElement.from_torus_point(m, xi), 1.0 / T, window
        )
        orbital = long_orbit_average(
            fn,
            GroupElement.from_torus_point(m @ Sl2Matrix.dilation(1.0 / T), xi),
            T,
            window,
        )
        assert abs(orbital - translated) < 1e-6

    def test_error_ratio_stays_bounded(self, rng):
        # frozen sweep: largest observed ratio 0.061 across two seeds
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        limit = mean_value(fn) * BUMP6_MASS
        params = MajorantParams(k=1, m=3.0, q_max=10, d_max=10)
        el = GroupElement.from_torus_point(random_sl2(rng), rng.uniform(0, 1, (1, 2)))
        for T in (100.0, 1000.0, 10000.0):
            avg = long_orbit_average(fn, el, T, window, route="lattice")
            bound = orbit_gap_bound(el, T, params).total
            assert abs(avg - limit) / bound < 1.0

    def test_rejects_unknown_route(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        with pytest.raises(DomainError):
            long_orbit_average(fn, el, 5.0, window, route="secant")


class TestSplitOrbit:
    def test_matches_direct_route_triangular_base(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(cusp_base(150.0, 20.0, 0.2), XI_GOLD)
        direct = long_orbit_average(fn, el, 20.0, window, route="lattice")
        split = split_orbit_average(fn, el, 20.0, window)
        assert abs(direct) > 1e-3
        assert abs(direct - split) < 1e-4

    def test_matches_direct_route_rotated_base(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(cusp_base(110.0, 25.0, -0.1, 1.0), XI_GOLD)
        direct = long_orbit_average(fn, el, 25.0, window, route="lattice")
        split = split_orbit_average(fn, el, 25.0, window)
        assert abs(direct) > 1e-2
        assert abs(direct - split) < 1e-4

    def test_matches_direct_route_downward_bottom_row(self):
        # Turned by pi, the reduced orbit matrix has a bottom row pointing
        # down, so every core of the split carries a negative sign.
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        base = cusp_base(110.0, 25.0, -0.1, 1.0) @ Sl2Matrix.rotation(math.pi)
        assert reduce_fundamental(base @ Sl2Matrix.dilation(25.0))[1].c < 0.0
        el = GroupElement.from_torus_point(base, XI_GOLD)
        direct = long_orbit_average(fn, el, 25.0, window, route="lattice")
        split = split_orbit_average(fn, el, 25.0, window)
        assert abs(direct) > 1e-2
        assert abs(direct - split) < 1e-4

    @pytest.mark.parametrize("args, T", [((150.0, 20.0, 0.2), 20.0), ((110.0, 25.0, -0.1, 1.0), 25.0)])
    def test_negated_base_gives_the_same_bits(self, args, T):
        # -I lies in the level-one group and negation is exact, so the split
        # sees the same point whichever sign the reduction leaves on the row.
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        base = cusp_base(*args)
        up = GroupElement.from_torus_point(base, XI_GOLD)
        down = GroupElement.from_torus_point(-base, XI_GOLD)
        assert split_orbit_average(fn, down, T, window) == split_orbit_average(fn, up, T, window)

    def test_zero_when_orbit_stays_above_support(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(cusp_base(150.0, 10.0, 0.2), XI_GOLD)
        assert split_orbit_average(fn, el, 10.0, window) == 0.0
        assert long_orbit_average(fn, el, 10.0, window, route="lattice") == 0.0

    def test_low_orbit_raises(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        with pytest.raises(DomainError):
            split_orbit_average(fn, el, 10.0, window)


class TestEquidistError:
    def test_routes_agree_on_overlap(self, rng):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        params = MajorantParams(k=1, m=3.0, q_max=10)
        m = random_sl2(rng, scale=0.6)
        el = GroupElement.from_torus_point(m, rng.uniform(0, 1, (1, 2)))
        fast = equidist_error(fn, el, 0.2, window, params)
        slow = translate_integral(fn, el, 0.2, window)
        assert abs(fast.average - slow) < 1e-6
        assert 0.0 < fast.ratio < math.inf

    def test_auto_route_switches_by_height(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        params = MajorantParams(k=1, m=3.0, q_max=10)
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        for y in (0.2, 0.02):
            assert equidist_error(fn, el, y, window, params).average == lattice_window_average(
                fn, el, y, window, (-1.0, 1.0)
            )

    def test_resonant_torus_point_keeps_finite_ratio(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        params = MajorantParams(k=1, m=3.0, q_max=10)
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), np.zeros((1, 2)))
        for y in (0.1, 0.01):
            out = equidist_error(fn, el, y, window, params)
            assert math.isfinite(out.ratio)
            assert out.bound > 0.0

    def test_rejects_mismatched_params(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        with pytest.raises(DomainError):
            equidist_error(fn, el, 0.2, window, MajorantParams(k=2, m=3.0))

    def test_twisted_limit_is_zero_without_quadrature(self, monkeypatch):
        monkeypatch.setattr(orbitlab, "adaptive_quad", None)  # a call would raise
        assert window_limit(PoincareTestFn(level=1, freq=((1, 0),)), window) == 0.0


class TestMainTerm:
    def test_rejects_twisted_function(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        exp = OrbitExperiment(fn, el, (0.5, 0.1), window)
        with pytest.raises(DomainError):
            horocycle_main_term(exp)

    def test_error_table_is_positive_and_converging(self):
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), np.zeros((1, 2)))
        exp = OrbitExperiment(fn, el, (0.5, 0.05, 0.005), window)
        rows = horocycle_main_term(exp)
        assert [r.y for r in rows] == [0.5, 0.05, 0.005]
        assert all(math.isfinite(r.error) and r.error >= 0.0 for r in rows)
        assert rows[0].limit == pytest.approx(mean_value(fn) * BUMP6_MASS, rel=1e-9)
        assert rows[-1].error < rows[0].error

    def test_zero_window_gives_zero_errors(self):
        fn = PoincareTestFn(level=1, freq=((0, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), np.zeros((1, 2)))
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        rows = horocycle_main_term(OrbitExperiment(fn, el, (0.5, 0.1), zero))
        assert all(r.error == 0.0 for r in rows)


class TestOrbitHeight:
    def test_pure_dilation_orbit(self):
        for T in (1.0, 5.0, 400.0):
            assert cuspidal_height(Sl2Matrix.dilation(T)) / T == pytest.approx(1.0)

    def test_floor_bound(self, rng):
        for _ in range(50):
            m = random_sl2(rng, scale=1.5)
            T = float(rng.uniform(1.0, 200.0))
            height = cuspidal_height(m @ Sl2Matrix.dilation(T)) / T
            assert height >= math.sqrt(3.0) / (2.0 * T) * (1.0 - 1e-12)

    def test_comparable_to_inverse_gap_square(self, rng):
        for _ in range(20):
            m = random_sl2(rng)
            el = GroupElement.from_torus_point(m, rng.uniform(0, 1, (1, 2)))
            for T in (2.0, 10.0, 100.0):
                s0 = grid_gap(el, [0], T).value
                prod = cuspidal_height(m @ Sl2Matrix.dilation(T)) / T * s0 * s0
                assert 1.0 / 16.0 <= prod <= 16.0


class TestExperimentConfig:
    def test_rejects_empty_schedule(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        with pytest.raises(DomainError):
            OrbitExperiment(fn, el, (), window)

    def test_rejects_non_monotone_schedule(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        with pytest.raises(DomainError):
            OrbitExperiment(fn, el, (1.0, 2.0, 1.5), window)

    def test_accepts_decreasing_schedule(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), XI_GOLD)
        exp = OrbitExperiment(fn, el, [0.5, 0.1, 0.02], window)
        assert exp.schedule == (0.5, 0.1, 0.02)

    def test_rejects_block_mismatch(self):
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        two = GroupElement.from_torus_point(Sl2Matrix.identity(), np.zeros((2, 2)))
        with pytest.raises(DomainError):
            OrbitExperiment(fn, two, (1.0,), window)


class TestClosedHorocycle:
    """The one-period average is the constant term at height y.

    Cusp forms have no constant term, so the error of the untwisted
    level-one average comes from the Eisenstein spectrum and carries terms
    y^{1 - rho/2} at the zeros rho = 1/2 + i gamma of zeta (Zagier 1981,
    Sarnak 1981): err / y^{3/4} oscillates in ln y at frequency gamma_1 / 2.
    The window is 1 on (0, 1) and the kernel has degree 24 in x, so the
    24-point rule is exact and the limit is ``mean_value``.  The tolerances
    were fixed before the run.
    """

    def test_error_oscillates_at_the_first_zeta_zero(self):
        import mpmath

        fn = PoincareTestFn(level=1, freq=((0, 0),))
        el = GroupElement.from_torus_point(Sl2Matrix.identity(), np.zeros((1, 2)))
        ys = np.logspace(-1.0, -4.0, 40)
        limit = mean_value(fn)
        err = np.array(
            [lattice_window_average(fn, el, y, np.ones_like, (0.0, 1.0)).real - limit for y in ys]
        )
        scaled, log_y = err / ys**0.75, np.log(ys)

        def residual(omega):
            basis = np.stack([np.cos(omega * log_y), np.sin(omega * log_y)], axis=1)
            coef = np.linalg.lstsq(basis, scaled, rcond=None)[0]
            return float(np.sum((basis @ coef - scaled) ** 2))

        # One-frequency least squares: a coarse scan, then a fine one.
        coarse = np.arange(4.0, 10.0, 1e-2)
        omega = coarse[np.argmin([residual(w) for w in coarse])]
        fine = np.arange(omega - 1e-2, omega + 1e-2, 1e-5)
        omega = fine[np.argmin([residual(w) for w in fine])]
        half_gamma1 = float(mpmath.zetazero(1).imag) / 2.0
        assert abs(omega - half_gamma1) <= 1e-3 * half_gamma1

        decades = [(ys <= 10.0**-k * (1 + 1e-9)) & (ys >= 10.0 ** -(k + 1) * (1 - 1e-9)) for k in (1, 2, 3)]
        rms_34 = [math.sqrt(np.mean(scaled[d] ** 2)) for d in decades]
        assert max(rms_34) <= 1.5 * min(rms_34)
        rms_12 = [math.sqrt(np.mean((err / ys**0.5)[d] ** 2)) for d in decades]
        assert all(prev >= 1.5 * nxt for prev, nxt in zip(rms_12, rms_12[1:]))
