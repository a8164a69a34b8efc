import itertools
import math
import sys
import threading

import numpy as np
import pytest

from horolab import expsum
from horolab.arith import xgcd
from horolab.errors import DomainError, ResourceGuardError
from horolab.expsum import (
    BALL_RADIUS_CAP,
    CosetSpec,
    WeightFn,
    cancellation_report,
    _BLOCK_ROWS,
    _BallCache,
    _coset_ball_cached,
    _coset_set,
    enumerate_coset_ball,
    expsum_rhs,
    weighted_expsum_lhs,
)
from horolab.smoothfns import bump6

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: The classes closed under A -> -A: level 1 and the six classes of SL(2, Z/2).
PAIRED_SPECS = [CosetSpec.principal(1)] + [
    CosetSpec(2, rep)
    for rep in ((1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 1, 0), (0, 1, 1, 1))
]


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


def scalar_ball(spec, rho):
    """The coset ball by a double loop over first rows, one row at a time.

    Reference for the array enumeration: same masks, same completion, same
    t interval, and the same output order.
    """
    if rho < math.sqrt(2.0):
        return np.zeros((0, 2, 2), dtype=np.int64)
    r2 = rho * rho
    amax = int(math.floor(rho))
    N = spec.N
    r11, r12, r21, r22 = spec.rep
    chunks = [np.zeros((0, 2, 2), dtype=np.int64)]
    for a in range(-amax, amax + 1):
        for b in range(-amax, amax + 1):
            r1sq = a * a + b * b
            if r1sq == 0 or r1sq + 1.0 / r1sq > r2:
                continue
            if math.gcd(a, b) != 1:
                continue
            if N > 1 and ((a - r11) % N or (b - r12) % N):
                continue
            g, x_co, y_co = xgcd(a, b)
            if g < 0:
                x_co, y_co = -x_co, -y_co
            d0, c0 = x_co, -y_co
            budget = r2 - r1sq
            bb = a * c0 + b * d0
            cc = c0 * c0 + d0 * d0 - budget
            disc = bb * bb - r1sq * cc
            if disc < 0:
                continue
            root = math.sqrt(disc)
            t_lo = int(math.floor((-bb - root) / r1sq)) - 1
            t_hi = int(math.ceil((-bb + root) / r1sq)) + 1
            ts = np.arange(t_lo, t_hi + 1, dtype=np.int64)
            cs = c0 + ts * a
            ds = d0 + ts * b
            keep = (cs * cs + ds * ds) <= budget
            if N > 1:
                keep &= ((cs - r21) % N == 0) & ((ds - r22) % N == 0)
            block = np.empty((int(keep.sum()), 2, 2), dtype=np.int64)
            block[:, 0, 0] = a
            block[:, 0, 1] = b
            block[:, 1, 0] = cs[keep]
            block[:, 1, 1] = ds[keep]
            chunks.append(block)
    return np.concatenate(chunks, axis=0)


class TestCosetSpec:
    def test_reduction_and_validation(self):
        spec = CosetSpec(3, (4, 0, 0, 4))
        assert spec.rep == (1, 0, 0, 1)
        with pytest.raises(DomainError):
            CosetSpec(3, (1, 2, 0, 2))
        with pytest.raises(DomainError):
            CosetSpec(0, (1, 0, 0, 1))
        assert CosetSpec.principal(5).rep == (1, 0, 0, 1)
        for N in (2.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                CosetSpec(N, (1, 0, 0, 1))
        for bad in (1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                CosetSpec(2, (bad, 0, 0, 1))

    def test_residue_reduction(self):
        assert CosetSpec(2, (3, 0, 0, 3)).rep == (1, 0, 0, 1)

    def test_antidiagonal_unit(self):
        # Determinant -1 is 1 mod 2, so this class is admissible at level 2.
        assert CosetSpec(2, (0, 1, 1, 0)).rep == (0, 1, 1, 0)

    def test_rejects_singular_residue(self):
        with pytest.raises(DomainError):
            CosetSpec(2, (0, 0, 0, 0))
        with pytest.raises(DomainError):
            CosetSpec(3, (1, 0, 0, 2))

    def test_level_one_always_admissible(self):
        assert CosetSpec(1, (5, 7, 11, 13)).rep == (0, 0, 0, 0)


class TestWeightFn:
    def test_halfwidth_floor(self):
        for B in (0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                WeightFn(B)

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

    def test_column_product_equals_axis_product(self, rng):
        w = WeightFn(1.7)
        pts = rng.uniform(-1.8, 1.8, (5000, 4))
        assert np.array_equal(w(pts), np.prod(bump6(pts / 1.7), axis=-1))


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
            # A level above 2 * 5 + 1, where a class holds only its signed residue.
            (CosetSpec(13, (1, 12, 0, 1)), 5.0),
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

    @pytest.mark.parametrize(
        "spec,rho",
        [(CosetSpec.principal(1), r) for r in (1.5, 5.0, 37.25, 100.0)]
        + [(CosetSpec(2, (1, 1, 0, 1)), 20.0), (CosetSpec(3, (1, 2, 0, 1)), 20.0)]
        # The quarter-step radii of the Poincare series' balls.
        + [(CosetSpec.principal(1), r) for r in (4.25, 4.5, 4.75, 9.25)]
        # Radii on which boundary matrices sit, |A|^2 = k, and one just inside sqrt(2).
        + [(CosetSpec.principal(1), math.sqrt(k)) for k in (2, 3, 27, 50, 65)]
        + [(CosetSpec.principal(1), math.nextafter(math.sqrt(2.0), 0.0))]
        # A level above 2 * 5 + 1, where a class holds only its signed residue.
        + [(CosetSpec(13, (1, 12, 0, 1)), 5.0)],
    )
    def test_matches_scalar_loop_in_order(self, spec, rho):
        got = enumerate_coset_ball(spec, rho)
        assert got.dtype == np.int32
        assert np.array_equal(got, scalar_ball(spec, rho))

    @pytest.mark.parametrize(
        "spec", [CosetSpec.principal(1), CosetSpec(2, (1, 1, 0, 1)), CosetSpec(3, (1, 2, 0, 1))],
        ids=lambda spec: f"N{spec.N}",
    )
    def test_boxes_are_the_scalar_ball_cut_in_order(self, spec):
        # The scalar loop completes each first row with the scalar xgcd, so the
        # boxes are checked against a ball that does not share their table.
        for side in range(21):
            ball = scalar_ball(spec, 2.0 * side).reshape(-1, 4)
            in_box = np.max(np.abs(ball), axis=1) <= side
            upper = (ball[:, 0] > 0) | ((ball[:, 0] == 0) & (ball[:, 1] > 0))
            for half, keep in ((False, in_box), (True, in_box & upper)):
                got = _coset_set(spec, 2.0 * side, side, half).reshape(-1, 4)
                assert np.array_equal(got, ball[keep]), (side, half)

    @pytest.mark.parametrize(
        "spec,side",
        [(CosetSpec.principal(1), s) for s in (1.0, 1.5, 7.25, 20.0, 100.0)]
        + [(CosetSpec(2, (1, 1, 0, 1)), 20.0), (CosetSpec(3, (1, 2, 0, 1)), 20.0)],
    )
    def test_box_cut_is_the_filtered_ball(self, spec, side):
        # The box max|entry| <= side, enumerated directly, against the
        # circumscribed ball of radius 2 side filtered by the box test.
        ball = enumerate_coset_ball(spec, 2.0 * side)
        expect = ball[np.max(np.abs(ball.reshape(-1, 4)), axis=1) <= side]
        got = _coset_set(spec, 2.0 * side, side, False)
        assert got.dtype == np.int32
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize("stretch", [2.0, 1.9], ids=["inside", "trimmed"])
    @pytest.mark.parametrize(
        "spec,side",
        [(CosetSpec.principal(1), s) for s in (1.0, 7.25, 20.0)]
        + [(CosetSpec(2, (1, 1, 0, 1)), 20.0), (CosetSpec(3, (1, 2, 0, 1)), 20.0)],
    )
    def test_both_branches_are_the_filtered_ball(self, spec, side, stretch, half):
        # At stretch 2 the box lies in the ball, which it touches (4 amax^2 =
        # rho^2) at sides 1 and 20, and the ball's tests are skipped.  At 1.9
        # the ball trims the box's corners, and they stay.
        rho = stretch * side
        ball = enumerate_coset_ball(spec, rho).reshape(-1, 4)
        keep = np.max(np.abs(ball), axis=1) <= side
        if half:
            keep &= (ball[:, 0] > 0) | ((ball[:, 0] == 0) & (ball[:, 1] > 0))
        got = _coset_set(spec, rho, side, half)
        assert got.dtype == np.int32
        assert np.array_equal(got.reshape(-1, 4), ball[keep])
        if stretch < 2.0 and side == 20.0 and spec.N == 1:
            assert len(got) < len(_coset_set(spec, 2.0 * side, side, half))

    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize(
        "spec", [CosetSpec.principal(1), CosetSpec(2, (1, 1, 0, 1)), CosetSpec(3, (1, 2, 0, 1))],
        ids=lambda spec: f"N{spec.N}",
    )
    def test_blocks_of_seven_keep_the_set_in_order(self, monkeypatch, spec, half):
        # Seven rows per block and per t slice: slices cut t intervals in two.
        cases = ((20.0, 20), (30.0, 12))
        expect = [expsum._coset_ball(spec, rho, cut, half) for rho, cut in cases]
        monkeypatch.setattr(expsum, "_BLOCK_ROWS", 7)
        for (rho, cut), want in zip(cases, expect):
            assert len(want) > 7
            assert np.array_equal(expsum._coset_ball(spec, rho, cut, half), want)

    def test_levels_beyond_int64(self):
        big = 10**21
        for N in (2**63 - 1, big):
            minus = CosetSpec(N, (N - 1, 0, 0, N - 1))
            assert enumerate_coset_ball(minus, 3.0).reshape(-1, 4).tolist() == [[-1, 0, 0, -1]]
            assert len(_coset_set(CosetSpec(N, (1, 10**10, 0, 1)), 12.0, 6, False)) == 0
        shear = CosetSpec(big, (1, 5, 0, 1))
        assert len(enumerate_coset_ball(shear, 3.0)) == 0
        assert _coset_set(shear, 12.0, 6, False).reshape(-1, 4).tolist() == [[1, 5, 0, 1]]

    def test_radius_guard(self):
        spec = CosetSpec.principal(1)
        with pytest.raises(ResourceGuardError):
            enumerate_coset_ball(spec, BALL_RADIUS_CAP * 1.001)
        # The largest ball the scripts use (X = 400, B = 1) stays allowed.
        assert BALL_RADIUS_CAP >= 800.0

    def test_count_grows_quadratically(self):
        counts = [
            len(enumerate_coset_ball(CosetSpec.principal(1), float(Y)))
            for Y in (10, 20, 40, 80)
        ]
        for small, big in zip(counts, counts[1:]):
            expo = math.log2(big / small)
            assert 1.9 <= expo <= 2.1


class TestFirstRowTable:
    @pytest.mark.parametrize("n", [0, 1, 2, 13, 40])
    def test_primitive_rows_and_their_completions(self, n):
        axis = np.arange(-n, n + 1)
        a, b = (v.ravel() for v in np.meshgrid(axis, axis, indexing="ij"))
        primitive, c0, d0 = expsum._first_row_completions(n)(a, b)
        assert primitive.tolist() == [math.gcd(x, y) == 1 for x, y in zip(a.tolist(), b.tolist())]
        a, b, c0, d0 = a[primitive], b[primitive], c0[primitive], d0[primitive]
        assert np.all(a * d0 - b * c0 == 1)

    def test_completion_bounds_at_the_radius_cap(self):
        # The table alone, over every first row of the largest ball, in blocks.
        amax = int(BALL_RADIUS_CAP)
        complete = expsum._first_row_completions(amax)
        axis = np.arange(-amax, amax + 1)
        for lo in range(0, len(axis), 128):
            a = np.repeat(axis[lo : lo + 128], len(axis))
            b = np.tile(axis, len(a) // len(axis))
            primitive, c0, d0 = complete(a, b)
            a, b, c0, d0 = a[primitive], b[primitive], c0[primitive], d0[primitive]
            assert np.all(a * d0 - b * c0 == 1)
            assert np.abs(c0).max() <= max(1, amax / 2)
            assert np.abs(d0).max() <= amax / 2 + 1
            bb = a * c0 + b * d0
            assert np.abs(bb).max() <= amax * amax + amax
            # Products of these bounds stay far inside float64's exact integers.
            assert (bb * bb).max() < 2**41
            assert ((a * a + b * b) * (c0 * c0 + d0 * d0)).max() < 2**41


class TestHalfBox:
    @pytest.mark.parametrize("spec", PAIRED_SPECS, ids=lambda spec: f"N{spec.N}-{spec.rep}")
    def test_half_and_its_negation_make_the_box(self, spec):
        for side in (1.0, 2.5, 7.0, 20.0, 45.5):
            box = _coset_set(spec, 2.0 * side, side, False).reshape(-1, 4)
            half = _coset_set(spec, 2.0 * side, side, True).reshape(-1, 4)
            assert half.dtype == np.int32
            a, b = half[:, 0], half[:, 1]
            # One of each pair A, -A, and so no first row (0, 0).
            assert np.all((a > 0) | ((a == 0) & (b > 0)))
            union = np.concatenate([half, -half]).tolist()
            assert len(set(map(tuple, union))) == len(union)
            assert set(map(tuple, union)) == set(map(tuple, box.tolist()))
            # In box order: the box filtered by the half-plane test.
            upper = (box[:, 0] > 0) | ((box[:, 0] == 0) & (box[:, 1] > 0))
            assert np.array_equal(half, box[upper])


class TestEntryWeights:
    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize("spec", [CosetSpec.principal(1), CosetSpec(3, (1, 2, 0, 1))],
                             ids=["N1", "N3"])
    @pytest.mark.parametrize("B", [1.0, 1.5, 2.25])
    def test_table_weights_equal_the_weight(self, B, spec, half):
        # Per matrix, not only in the sum, on every matrix of each box.  The
        # sets are built uncached: the largest holds 2.0 million matrices.
        w = WeightFn(B)
        for X in (1.0, 23.0, 60.5, 200.0):
            n = math.floor(B * X)
            mats = expsum._coset_ball(spec, 2.0 * B * X, n, half).reshape(-1, 4)
            weigh = expsum._entry_weights(w, X, n)
            for i in range(0, len(mats), 1 << 16):
                rows = mats[i : i + (1 << 16)]
                assert np.array_equal(weigh(rows), w(rows / X))


class TestGoldenBits:
    """Bits of the weighted sums and the comparison expression, recorded with
    the enumeration that ran the ball's norm tests on every box and weighed
    each matrix by ``WeightFn`` itself."""

    TWIST = np.array([GOLDEN, -0.3, 0.25, 0.07])
    SCALES = (25.0, 50.0, 100.0, 200.0)
    #: (X, lhs.real, lhs.imag, rhs) of each row, as ``float.hex``.
    REPORTS = {
        "untwisted": [
            (25.0, "0x1.1ca125ffe1891p+9", "0x0.0p+0", "0x1.4f808708a2426p+11"),
            (50.0, "0x1.1d577802fde4fp+11", "0x0.0p+0", "0x1.79c50cdb4433fp+13"),
            (100.0, "0x1.1d6f8fa5f8458p+13", "0x0.0p+0", "0x1.9c5ee06a4bd4ep+15"),
            (200.0, "0x1.1d72ae5a4fb3ap+15", "0x0.0p+0", "0x1.b7f8ebf2fa343p+17"),
        ],
        "twisted": [
            (25.0, "-0x1.95facaecc98adp+1", "0x0.0p+0", "0x1.4f4632e88b83bp+9"),
            (50.0, "-0x1.d57164142805bp+4", "0x0.0p+0", "0x1.30a4d495461f4p+11"),
            (100.0, "-0x1.b098ec248601dp+5", "0x0.0p+0", "0x1.0bae88b28ddb9p+13"),
            (200.0, "-0x1.bcc7b5818120cp+4", "0x0.0p+0", "0x1.c656b7f04157fp+14"),
        ],
    }

    @pytest.mark.parametrize("twist", ["untwisted", "twisted"])
    def test_level_one_report(self, twist):
        alpha = self.TWIST if twist == "twisted" else np.zeros(4)
        rows = cancellation_report(CosetSpec.principal(1), WeightFn(1.0), alpha, self.SCALES)
        got = [(r.X, r.lhs.real.hex(), r.lhs.imag.hex(), r.rhs.hex()) for r in rows]
        assert got == self.REPORTS[twist]

    def test_level_three_sum(self):
        lhs = weighted_expsum_lhs(CosetSpec(3, (1, 2, 0, 1)), WeightFn(1.5), 23.0, self.TWIST)
        assert (lhs.real.hex(), lhs.imag.hex()) == ("0x1.599fdc7cb1ed6p+2", "0x1.62c84f8286f73p-2")


class TestBallCache:
    def test_bounded_by_bytes_least_recent_first(self):
        built = []

        def build(spec, rho):
            built.append(rho)
            return np.zeros((int(rho), 2, 2), dtype=np.int64)

        cache = _BallCache(build, max_bytes=3 * 32 * 10)
        spec = CosetSpec.principal(1)
        for rho in (10.0, 10.0, 20.0):
            cache(spec, rho)
        assert cache.cache_info()[:2] == (1, 2)
        assert cache.cache_info().nbytes == 32 * 30
        cache(spec, 10.0)  # refresh 10, so 20 is the least recent
        cache(spec, 5.0)  # 35 rows > bound: evicts 20
        cache(spec, 10.0)
        cache(spec, 20.0)
        assert built == [10.0, 20.0, 5.0, 20.0]
        cache(spec, 40.0)  # larger than the bound: returned, not kept
        assert len(cache(spec, 40.0)) == 40
        assert built[-2:] == [40.0, 40.0]
        assert cache.cache_info() == (3, 6, 32 * 30)

    def test_threads_lose_no_update(self):
        # More threads than cores and a short switch interval, so a race in
        # the bookkeeping would show as a lost count or an eviction error.
        cache = _BallCache(lambda spec, rho: np.zeros((int(rho), 2, 2), dtype=np.int64), 32 * 50)
        spec, calls, errors = CosetSpec.principal(1), 400, []

        def worker(seed):
            try:
                for i in range(calls):
                    cache(spec, float(1 + (seed * 7 + i) % 12))
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        info = cache.cache_info()
        assert info.hits + info.misses == 8 * calls
        assert info.nbytes <= 32 * 50

    def test_report_balls_stay_cached(self):
        # A cancellation report up to X = 200 needs the half boxes of sides
        # 25..200 (balls of radius 50..400 cut to the box); all four must
        # stay so the report's second pass reuses them.
        spec, w, alpha = CosetSpec.principal(1), WeightFn(1.0), np.zeros(4)
        scales = (25.0, 50.0, 100.0, 200.0)
        cancellation_report(spec, w, alpha, scales)
        before = _coset_ball_cached.cache_info()
        cancellation_report(spec, w, alpha, scales)
        after = _coset_ball_cached.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)


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


    def test_twist_is_read_mod_one(self):
        # Integer shifts of alpha change neither side, even where alpha . A
        # itself would overflow (1e308).
        spec, w = CosetSpec.principal(1), WeightFn(1.0)
        shifted = np.array([3.25, 1e308, -0.625, 5.5])
        reduced = np.array([0.25, 0.0, -0.625, 0.5])
        assert weighted_expsum_lhs(spec, w, 12.0, shifted) == weighted_expsum_lhs(spec, w, 12.0, reduced)
        assert expsum_rhs(12.0, shifted) == expsum_rhs(12.0, reduced)
        assert weighted_expsum_lhs(spec, w, 12.0, reduced) == pytest.approx(
            weighted_expsum_lhs(spec, w, 12.0, reduced % 1.0), rel=1e-12)
        with pytest.raises(DomainError):
            weighted_expsum_lhs(spec, w, 12.0, [0.1, math.inf, 0.0, 0.0])

    def test_weight_blocks_match_one_pass(self):
        # The box at X = 100 spans several ball blocks; the reference
        # weighs all its rows at once, as a single pass would.
        spec, w = CosetSpec.principal(1), WeightFn(1.0)
        alpha = np.array([GOLDEN, -0.3, 0.25, 0.07])
        flat = enumerate_coset_ball(spec, 200.0).reshape(-1, 4).astype(float)
        flat = flat[np.max(np.abs(flat), axis=1) <= 100.0]
        assert len(flat) > _BLOCK_ROWS
        vals = w(flat / 100.0) * np.exp(2j * np.pi * (flat @ alpha))
        expect = complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
        assert weighted_expsum_lhs(spec, w, 100.0, alpha) == expect


    @pytest.mark.parametrize("alpha", [np.zeros(4), np.array([GOLDEN, -0.3, 0.25, 0.07])],
                             ids=["untwisted", "twisted"])
    @pytest.mark.parametrize("spec", [CosetSpec(2, (0, 1, 1, 0)), CosetSpec(3, (1, 2, 0, 1))],
                             ids=["paired-N2", "unpaired-N3"])
    def test_equals_full_box_fsum(self, spec, alpha):
        # Paired or not, the value is the correctly rounded sum over the full box.
        w, X = WeightFn(1.5), 23.0
        flat = _coset_set(spec, 3.0 * X, 1.5 * X, False).reshape(-1, 4).astype(float)
        vals = w(flat / X) * np.exp(2j * np.pi * (flat @ alpha))
        expect = complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
        assert weighted_expsum_lhs(spec, w, X, alpha) == expect


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

