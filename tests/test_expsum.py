import itertools
import math

import numpy as np
import pytest

from horolab.errors import DomainError
from horolab.expsum import (
    CosetSpec,
    WeightFn,
    cancellation_report,
    enumerate_coset_ball,
    expsum_rhs,
    weighted_expsum_lhs,
)
from horolab.smoothfns import bump6

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def brute_ball(spec, rho):
    r = int(rho) + 1
    hits = set()
    for a, b, c, d in itertools.product(range(-r, r + 1), repeat=4):
        if a * d - b * c != 1:
            continue
        if a * a + b * b + c * c + d * d > rho * rho:
            continue
        rr = spec.rep
        if spec.N > 1 and any(
            (x - y) % spec.N for x, y in zip((a, b, c, d), rr)
        ):
            continue
        hits.add((a, b, c, d))
    return hits


class TestCosetSpec:
    def test_reduction_and_validation(self):
        spec = CosetSpec(3, (4, 0, 0, 4))
        assert spec.rep == (1, 0, 0, 1)
        with pytest.raises(DomainError):
            CosetSpec(3, (1, 2, 0, 2))
        with pytest.raises(DomainError):
            CosetSpec(0, (1, 0, 0, 1))
        assert CosetSpec.principal(5).rep == (1, 0, 0, 1)


class TestWeightFn:
    def test_halfwidth_floor(self):
        with pytest.raises(DomainError):
            WeightFn(0.5)

    def test_product_structure(self):
        w = WeightFn(2.0)
        pt = np.array([1.0, 0.0, 0.0, 0.0])
        assert w(pt) == pytest.approx(bump6(0.5))
        assert w(np.zeros(4)) == 1.0

    def test_support_box(self):
        w = WeightFn(1.5)
        assert w(np.array([1.5, 0, 0, 0])) == 0.0
        assert w(np.array([0.2, -0.3, 1.49, 0.0])) > 0.0

    def test_batch_shape(self):
        w = WeightFn(1.0)
        pts = np.zeros((10, 4))
        assert w(pts).shape == (10,)


class TestEnumeration:
    def test_below_norm_floor_is_empty(self):
        assert len(enumerate_coset_ball(CosetSpec.principal(1), 1.2)) == 0
        assert len(enumerate_coset_ball(CosetSpec.principal(1), 0.0)) == 0

    def test_smallest_ball(self):
        mats = enumerate_coset_ball(CosetSpec.principal(1), 1.5)
        got = sorted(tuple(int(v) for v in m.ravel()) for m in mats)
        assert got == [
            (-1, 0, 0, -1),
            (0, -1, 1, 0),
            (0, 1, -1, 0),
            (1, 0, 0, 1),
        ]

    def test_level_two_ball_count(self):
        assert len(enumerate_coset_ball(CosetSpec.principal(2), 3.0)) == 10

    @pytest.mark.parametrize(
        "spec,rho",
        [
            (CosetSpec.principal(1), 5.0),
            (CosetSpec(2, (1, 1, 0, 1)), 8.0),
            (CosetSpec(3, (1, 2, 0, 1)), 8.0),
        ],
    )
    def test_matches_bruteforce(self, spec, rho):
        got = set(tuple(int(v) for v in m.ravel()) for m in enumerate_coset_ball(spec, rho))
        assert got == brute_ball(spec, rho)

    def test_all_outputs_satisfy_constraints(self):
        spec = CosetSpec(2, (1, 1, 0, 1))
        mats = enumerate_coset_ball(spec, 20.0)
        dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        assert np.all(dets == 1)
        flat = mats.reshape(-1, 4)
        assert np.all((flat - np.array(spec.rep)) % 2 == 0)
        norms2 = (flat * flat).sum(axis=1)
        assert np.all(norms2 <= 400)

    def test_count_grows_quadratically(self):
        counts = [
            len(enumerate_coset_ball(CosetSpec.principal(1), float(Y)))
            for Y in (10, 20, 40, 80)
        ]
        for small, big in zip(counts, counts[1:]):
            expo = math.log2(big / small)
            assert 1.9 <= expo <= 2.1


class TestWeightedSum:
    def test_validation(self):
        spec, w = CosetSpec.principal(1), WeightFn(1.0)
        with pytest.raises(DomainError):
            weighted_expsum_lhs(spec, w, 0.5, np.zeros(4))
        with pytest.raises(DomainError):
            weighted_expsum_lhs(spec, w, 10.0, np.zeros(3))

    def test_conjugate_symmetry(self, rng):
        spec, w = CosetSpec.principal(1), WeightFn(1.0)
        for _ in range(5):
            alpha = rng.random(4) - 0.5
            plus = weighted_expsum_lhs(spec, w, 20.0, alpha)
            minus = weighted_expsum_lhs(spec, w, 20.0, -alpha)
            assert minus == pytest.approx(plus.conjugate(), abs=1e-9)

    def test_trivial_twist_is_positive_count(self):
        spec, w = CosetSpec.principal(1), WeightFn(1.0)
        val = weighted_expsum_lhs(spec, w, 15.0, np.zeros(4))
        assert val.imag == 0.0
        assert 0 < val.real
        # Bounded by the number of matrices in the box times the sup of w.
        mats = enumerate_coset_ball(spec, 30.0)
        assert val.real <= len(mats)

    def test_deterministic(self):
        spec, w = CosetSpec.principal(1), WeightFn(1.0)
        alpha = np.array([GOLDEN, GOLDEN ** 2, GOLDEN ** 3, GOLDEN ** 4]) / 4
        a = weighted_expsum_lhs(spec, w, 25.0, alpha)
        b = weighted_expsum_lhs(spec, w, 25.0, alpha)
        assert a == b


class TestRhs:
    def test_untwisted_anchor(self):
        expected = 16.0 * (1.0 + 2.0 / 2 ** 1.5 + 2.0 / 3 ** 1.5 + 3.0 / 8.0)
        assert expsum_rhs(4.0, np.zeros(4)) == pytest.approx(expected, rel=1e-13)

    def test_growth_floor(self):
        alpha = np.array([GOLDEN, GOLDEN ** 2, GOLDEN ** 3, GOLDEN ** 4]) / 4
        ratios = []
        for X in (10.0, 30.0, 100.0, 300.0):
            ratios.append(expsum_rhs(X, alpha) / (X ** 1.5 * math.log(X + 1.0)))
        assert min(ratios) > 0.05

    def test_validation(self):
        with pytest.raises(DomainError):
            expsum_rhs(0.5, np.zeros(4))


class TestCancellationReport:
    def test_rows_sorted_with_ratios(self):
        spec, w = CosetSpec.principal(1), WeightFn(1.0)
        rows = cancellation_report(spec, w, np.zeros(4), [20.0, 10.0])
        assert [r.X for r in rows] == [10.0, 20.0]
        for r in rows:
            assert r.ratio == abs(r.lhs) / r.rhs

