import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from horolab import affine, majorant
from horolab.affine import GroupElement, grid_gap, log_gauge
from horolab.errors import DomainError, ResourceGuardError
from horolab.majorant import (
    LfdWitness,
    MajorantParams,
    MajorantValue,
    Q_GRID_CAP,
    SERIES_WORK_CAP,
    ZETA_THREE_HALVES,
    _half_set,
    _q_vectors,
    _series,
    _weights,
    d_tail_bound,
    delta_lower_check,
    lfd_test,
    majorant_column,
    majorant_column_many,
    majorant_full,
    orbit_gap_bound,
    orbit_gap_bounds,
    q_tail_bound,
    shifted_line_sum,
)
from horolab.sl2core import Sl2Matrix

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def term_by_term(params, xi, y):
    """The series summed one (q, d) term at a time over the full q set.

    ``xi`` is a k x c block; c = 1 is a column, c = 2 a planar block.  Both
    signs of q are visited, tau(d) is counted by trial division, and the
    terms are combined by math.fsum.
    """
    xi = np.asarray(xi, dtype=float)
    k, c = xi.shape
    d_max = params.effective_d_max(y)
    terms = []
    for q in itertools.product(range(-params.q_max, params.q_max + 1), repeat=k):
        norm2 = sum(v * v for v in q)
        if not 0 < norm2 <= params.q_max**2:
            continue
        for d in range(1, d_max + 1):
            tau = sum(1 for t in range(1, d + 1) if d % t == 0)
            coords = [d * sum(q[i] * float(xi[i, j]) for i in range(k)) for j in range(c)]
            dist = math.sqrt(sum((x - round(x)) ** 2 for x in coords))
            weight = tau * math.sqrt(norm2) ** -params.m * d**-1.5
            terms.append(weight / (1.0 + dist / (d * math.sqrt(y))))
    return math.fsum(terms)


def two_division_series(params, xis, y):
    """The block loop that preceded the single-division kernel, kept as a reference.

    Each term is coef / (1 + dist / scale), with the projections from one
    matrix product per block of rows and d-blocks of 1 << 15 // |q| values.
    """
    d_max = params.effective_d_max(y)
    weights = _weights(params, d_max)
    half = _half_set(weights.qs)
    qs = weights.qs[half].astype(float)
    coef_q = 2.0 * weights.coef_q[half]
    ds = np.arange(1, d_max + 1, dtype=float)
    scale = ds * math.sqrt(y)
    d_step = max(1, min(d_max, (1 << 15) // len(qs)))
    row_step = max(1, (1 << 15) // (len(qs) * d_step))
    column = xis.shape[2] == 1
    blocks = np.empty((len(xis), -(-d_max // d_step)))
    for j, d0 in enumerate(range(0, d_max, d_step)):
        d_block = slice(d0, d0 + d_step)
        coef = coef_q[:, None] * weights.coef_d[d_block]
        for r0 in range(0, len(xis), row_step):
            frac = (qs @ xis[r0 : r0 + row_step])[..., None] * ds[d_block]
            frac -= np.round(frac)
            if column:
                denom = np.abs(frac, out=frac)[:, :, 0]
            else:
                frac *= frac
                denom = np.sqrt(frac.sum(axis=2))
            denom /= scale[d_block]
            denom += 1.0
            terms = np.divide(coef, denom, out=denom)
            blocks[r0 : r0 + row_step, j] = terms.reshape(len(terms), -1).sum(axis=1)
    return np.array([math.fsum(row) for row in blocks])


class TestParams:
    def test_exponent_must_beat_block_height(self):
        with pytest.raises(DomainError):
            MajorantParams(k=2, m=2)
        with pytest.raises(DomainError):
            MajorantParams(k=1, m=0.5)
        MajorantParams(k=2, m=2.5)

    def test_truncation_validation(self):
        with pytest.raises(DomainError):
            MajorantParams(k=1, m=3, q_max=0)
        with pytest.raises(DomainError):
            MajorantParams(k=1, m=3, d_max=0)

    @pytest.mark.parametrize("field", ["k", "q_max", "d_max"])
    @pytest.mark.parametrize("bad", [3.5, math.nan, math.inf])
    def test_cuts_must_be_integers(self, field, bad):
        # 3.5 used to answer tail_bound = inf (q_max) or a bare TypeError (d_max).
        with pytest.raises(DomainError):
            MajorantParams(**{"k": 1, "m": 5.0, field: bad})

    def test_integral_cuts_become_python_ints(self):
        p = MajorantParams(k=np.int64(1), m=3, q_max=4.0, d_max=np.int32(6))
        assert (p.k, p.q_max, p.d_max) == (1, 4, 6)
        assert all(type(v) is int for v in (p.k, p.q_max, p.d_max))
        assert MajorantParams(k=1, m=3).d_max is None

    def test_default_depth_follows_scale(self):
        p = MajorantParams(k=1, m=3)
        assert p.effective_d_max(1e-4) == 100
        assert p.effective_d_max(0.5) == 2
        assert MajorantParams(k=1, m=3, d_max=7).effective_d_max(1e-6) == 7


class TestQVectors:
    def test_norm_then_lex_order_k1(self):
        qs = _q_vectors(1, 2)
        assert qs.tolist() == [[-1], [1], [-2], [2]]

    def test_norm_then_lex_order_k2(self):
        qs = _q_vectors(2, 1)
        assert qs.tolist() == [[-1, 0], [0, -1], [0, 1], [1, 0]]

    def test_ball_is_complete(self):
        qs = _q_vectors(2, 5)
        expected = sum(
            1
            for a in range(-5, 6)
            for b in range(-5, 6)
            if 0 < a * a + b * b <= 25
        )
        assert len(qs) == expected

    @pytest.mark.parametrize("k, q_max", [(1, 30), (2, 12), (3, 6)])
    def test_order_matches_tuple_sort(self, k, q_max):
        ball = [
            q
            for q in itertools.product(range(-q_max, q_max + 1), repeat=k)
            if 0 < sum(v * v for v in q) <= q_max * q_max
        ]
        ball.sort(key=lambda q: (sum(v * v for v in q), q))
        assert _q_vectors(k, q_max).tolist() == [list(q) for q in ball]

    def test_oversized_grid_is_refused_before_allocating(self):
        # 41^5 grid points: several GB if built.
        assert 41**5 > Q_GRID_CAP
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="q-grid points"):
                _q_vectors(5, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ResourceGuardError):
            lfd_test([0.1, 0.2, 0.3, 0.4, 0.5], 2.0, 1.5, 0.1, q_max=20, d_max=20)

    def test_cache_keeps_at_most_eight_grids(self):
        # A caller sweeping q_max must not keep every grid it built.
        for q_max in range(10, 20):
            lfd_test([0.1, 0.2], 2.0, 1.5, 0.1, q_max=q_max, d_max=2)
            assert _q_vectors.cache_info().currsize <= 8
        assert _q_vectors.cache_info().currsize == 8


class TestMajorantValues:
    def test_scale_domain(self):
        p = MajorantParams(k=1, m=3)
        with pytest.raises(DomainError):
            majorant_full(p, np.zeros((1, 2)), 0.0)
        with pytest.raises(DomainError):
            majorant_full(p, np.zeros((1, 2)), 1.5)
        with pytest.raises(DomainError):
            majorant_column(p, [0.0], -0.1)

    def test_shape_validation(self):
        p = MajorantParams(k=2, m=3)
        with pytest.raises(DomainError):
            majorant_full(p, np.zeros((1, 2)), 0.5)
        with pytest.raises(DomainError):
            majorant_column(p, [0.0], 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_block_rejected(self, bad):
        p = MajorantParams(k=1, m=3)
        with pytest.raises(DomainError):
            majorant_full(p, [[bad, 0.0]], 0.5)
        with pytest.raises(DomainError):
            majorant_column(p, [bad], 0.5)
        with pytest.raises(DomainError):
            majorant_column_many(p, [[0.5], [bad]], 0.5)
        with pytest.raises(DomainError):
            lfd_test([bad], 1.0, 1.0, 0.1, q_max=3, d_max=3)
        # Every dist < bound comparison is False against NaN, so a NaN
        # exponent or constant would otherwise report "no violation".
        for args in ((bad, 1.0, 0.1), (1.0, bad, 0.1), (1.0, 1.0, bad)):
            with pytest.raises(DomainError):
                lfd_test([0.5], *args, q_max=3, d_max=3)

    @pytest.mark.parametrize("y", [1e-2, 1e-4, 1e-6])
    def test_column_rows_equal_full_block_k1(self, rng, y):
        # A column takes |frac| where [psi | 0] takes sqrt(frac^2 + 0^2); for
        # k = 1 both see the same product q * psi, so the values are the same
        # float, also where frac^2 underflows (the 1e-200 row).
        p = MajorantParams(k=1, m=3.0)
        psis = np.concatenate([rng.random((4, 1)) * 3, [[0.0], [1e-200]]])
        rows = majorant_column_many(p, psis, y)
        for psi, row in zip(psis, rows):
            assert row == majorant_full(p, np.column_stack([psi, [0.0]]), y).value

    def test_column_equals_full_with_zero_right_column(self, rng):
        # The projection q . psi is summed over the entries of q in a fixed
        # order, so a column and the block [psi | 0] see the same float for
        # every k, and the two values are the same float.
        cases = [(MajorantParams(k=2, m=3, d_max=30), 0.3)]
        cases += [(MajorantParams(k=2, m=5.0), y) for y in (1e-2, 1e-5)]
        cases += [(MajorantParams(k=3, m=5.0, q_max=6), y) for y in (1e-2, 1e-4)]
        for p, y in cases:
            k = p.k
            psis = np.concatenate([rng.random((4, k)) * 3, [[0.0] * k, [1e-200] * k]])
            rows = majorant_column_many(p, psis, y)
            for psi, row in zip(psis, rows):
                a = majorant_column(p, psi, y)
                b = majorant_full(p, np.column_stack([psi, np.zeros(k)]), y)
                assert a.value == row
                assert a.value == b.value
                assert a.tail_bound == b.tail_bound

    def test_series_work_is_refused_before_the_weights(self):
        # 15,708 half-set vectors x d_max = 10^6 x 2 columns; the benchmark's
        # largest batch (10^4 rows x 20 x 1000) and A06 stay below the cap.
        assert 10**4 * 20 * 1000 <= SERIES_WORK_CAP
        p = MajorantParams(k=2, m=3.0, q_max=100)
        misses = _weights.cache_info().misses
        with pytest.raises(ResourceGuardError, match="series work units exceed the cap"):
            majorant_full(p, np.zeros((2, 2)), 1e-12)
        with pytest.raises(ResourceGuardError, match="series work units exceed the cap"):
            majorant_column_many(MajorantParams(k=1, m=3.0), np.zeros((10**6, 1)), 1e-6)
        assert _weights.cache_info().misses == misses

    def test_tail_certificate(self, rng):
        # Doubling both truncation cuts must move the value by less than
        # the certified tail, and can only move it up.
        base = MajorantParams(k=1, m=3, q_max=15, d_max=40)
        wide = MajorantParams(k=1, m=3, q_max=30, d_max=80)
        for _ in range(5):
            xi = rng.random((1, 2))
            y = float(rng.random() * 0.9 + 0.05)
            v1 = majorant_full(base, xi, y)
            v2 = majorant_full(wide, xi, y)
            assert v2.value >= v1.value
            assert v2.value - v1.value <= v1.tail_bound

    def test_monotone_in_y_exactly(self, rng):
        p = MajorantParams(k=2, m=3, d_max=40)
        xi = rng.random((2, 2))
        ys = np.logspace(-3, 0, 8)
        vals = [majorant_full(p, xi, float(y)).value for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_scaling_inequality_exactly(self, rng):
        p = MajorantParams(k=1, m=3, d_max=40)
        xi = rng.random((1, 2))
        ys = sorted(float(y) for y in rng.random(6) * 0.99 + 0.01)
        vals = [majorant_full(p, xi, y).value for y in ys]
        for i, (yi, vi) in enumerate(zip(ys, vals)):
            for yj, vj in zip(ys[:i], vals[:i]):
                # growing the scale from yj to yi gains at most sqrt(yi/yj)
                assert vi <= math.sqrt(yi / yj) * vj

    def test_upper_property(self):
        mv = MajorantValue(2.0, 0.5)
        assert mv.upper == 2.5

    def test_batch_matches_scalar(self, rng):
        p = MajorantParams(k=2, m=3)
        psis = rng.random((20, 2)) * 2
        batch = majorant_column_many(p, psis, 0.01)
        for row, expect in zip(psis, batch):
            assert majorant_column(p, row, 0.01).value == expect

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize(
        "k, q_max, y, block_terms",
        [(1, 20, 1e-4, 1 << 15), (2, 20, 1e-2, 1 << 15), (2, 4, 5e-4, 256), (1, 12, 5e-4, 256)],
    )
    def test_row_alone_equals_row_in_batch(self, rng, monkeypatch, c, k, q_max, y, block_terms):
        # Blocks of several rows (k = 2, y = 1e-2: five rows of 628 x 10
        # terms) and tiles over q (256 terms) leave each row's sums alone.
        monkeypatch.setattr(majorant, "_BLOCK_TERMS", block_terms)
        p = MajorantParams(k=k, m=k + 2.0, q_max=q_max)
        xis = rng.uniform(-1.0, 2.0, (12, k, c))
        batch, _ = _series(p, xis, y)
        for i, row in enumerate(batch):
            assert _series(p, xis[i : i + 1], y)[0][0] == row

    def test_zero_point_hits_coefficient_sum(self):
        # At psi = 0 every closeness factor is 1, so the value is the plain
        # product of coefficient sums over the truncation window.
        p = MajorantParams(k=1, m=3, q_max=10, d_max=10)
        mv = majorant_column(p, [0.0], 0.5)
        coef_q = 2 * sum(q ** -3.0 for q in range(1, 11))
        coef_d = sum(
            len([x for x in range(1, d + 1) if d % x == 0]) * d ** -1.5
            for d in range(1, 11)
        )
        assert mv.value == pytest.approx(coef_q * coef_d, rel=1e-12)


def record_ranges(monkeypatch):
    """Wrap ``_split_rows`` so that each call records its row step and the row
    ranges it filled, each with the name of its thread (idents are reused once a
    thread ends, names are not)."""
    real, calls = majorant._split_rows, []

    def split(fill, n_rows, row_step):
        ranges = []
        calls.append((row_step, ranges))

        def recorded(lo, hi):
            fill(lo, hi)
            ranges.append((lo, hi, threading.current_thread().name))

        real(recorded, n_rows, row_step)

    monkeypatch.setattr(majorant, "_split_rows", split)
    return calls


class TestRowSplit:
    """The rows of one call split into contiguous ranges, one per worker thread."""

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("n_rows", [1, 2, 5, 37])
    @pytest.mark.parametrize("row_block", ["one row", "one tile"])
    @pytest.mark.parametrize(
        "k, q_max, y, block_terms", [(1, 20, 1e-4, 1 << 15), (2, 4, 5e-4, 256), (1, 12, 5e-4, 256)]
    )
    def test_values_do_not_depend_on_workers(
        self, rng, monkeypatch, c, n_rows, row_block, k, q_max, y, block_terms
    ):
        # Row blocks of one tile hold 16 rows at k = 1, y = 1e-4 (20 x 100
        # terms per tile, 1 << 15 per block), so 37 rows feed only two of
        # three workers; blocks of one row split n rows across min(n, workers).
        monkeypatch.setattr(majorant, "_BLOCK_TERMS", block_terms)
        monkeypatch.setattr(majorant, "_ROW_BLOCK_TERMS", 1 if row_block == "one row" else block_terms)
        p = MajorantParams(k=k, m=k + 2.0, q_max=q_max)
        xis = rng.uniform(-1.0, 2.0, (n_rows, k, c))
        monkeypatch.setattr(majorant, "_WORKERS", 1)
        expect, _ = _series(p, xis, y)
        calls = record_ranges(monkeypatch)
        for workers in (1, 2, 3):
            monkeypatch.setattr(majorant, "_WORKERS", workers)
            calls.clear()
            before = threading.active_count()
            values, _ = _series(p, xis, y)
            assert threading.active_count() == before
            np.testing.assert_array_equal(values, expect)
            [(row_step, ranges)] = calls
            spans = sorted(ranges)
            assert [lo for lo, _, _ in spans] == [0] + [hi for _, hi, _ in spans[:-1]]
            assert spans[-1][1] == n_rows
            # Only as many workers as there are full row blocks, each on its own thread.
            assert len(spans) == max(1, min(workers, n_rows // row_step))
            assert len({name for _, _, name in spans}) == len(spans)
            if len(spans) == 1:
                assert spans[0][2] == threading.current_thread().name

    def test_more_workers_than_cores_under_fast_switching(self, rng, monkeypatch):
        # Four threads on one-row blocks, switching every microsecond: a row
        # written twice, or never (``blocks`` starts uninitialised), would
        # change a value.
        monkeypatch.setattr(majorant, "_ROW_BLOCK_TERMS", 1)
        p = MajorantParams(k=2, m=4.0, q_max=6)
        xis = rng.uniform(-1.0, 2.0, (203, 2, 2))
        monkeypatch.setattr(majorant, "_WORKERS", 1)
        expect, _ = _series(p, xis, 1e-3)
        monkeypatch.setattr(majorant, "_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                np.testing.assert_array_equal(_series(p, xis, 1e-3)[0], expect)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_failing_range_raises_in_the_caller(self, rng, monkeypatch, failing):
        # Three ranges of 4 rows each; the failing one fills a row and raises.
        monkeypatch.setattr(majorant, "_WORKERS", 3)
        monkeypatch.setattr(majorant, "_ROW_BLOCK_TERMS", 1)
        real, done = majorant._split_rows, []

        def split(fill, n_rows, row_step):
            def fill_or_fail(lo, hi):
                if lo == 4 * failing:
                    fill(lo, lo + 1)
                    raise RuntimeError(f"rows {lo}..{hi} failed")
                fill(lo, hi)
                done.append(lo)

            real(fill_or_fail, n_rows, row_step)

        monkeypatch.setattr(majorant, "_split_rows", split)
        p = MajorantParams(k=1, m=3.0, q_max=5)
        xis = rng.uniform(-1.0, 2.0, (12, 1, 1))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"rows {4 * failing}..{4 * failing + 4} failed"):
            _series(p, xis, 1e-2)
        # The other ranges ran to their end before the caller raised.
        assert sorted(done) == [lo for lo in (0, 4, 8) if lo != 4 * failing]
        assert threading.active_count() == before


class TestTermByTermOracle:
    @pytest.mark.parametrize(
        "k, m, q_max, d_max, y",
        [
            (1, 3.0, 4, 12, 0.05),
            (1, 1.5, 3, None, 0.01),
            (2, 3.0, 4, 9, 0.2),
            (2, 2.5, 3, None, 0.03),
        ],
    )
    def test_every_evaluator_matches(self, rng, k, m, q_max, d_max, y):
        p = MajorantParams(k=k, m=m, q_max=q_max, d_max=d_max)
        for _ in range(3):
            xi = rng.uniform(-1.0, 2.0, (k, 2))
            expect = term_by_term(p, xi, y)
            assert majorant_full(p, xi, y).value == pytest.approx(expect, rel=1e-13, abs=0.0)
        psis = rng.uniform(-1.0, 2.0, (5, k))
        batch = majorant_column_many(p, psis, y)
        for psi, row in zip(psis, batch):
            expect = term_by_term(p, psi[:, None], y)
            assert majorant_column(p, psi, y).value == pytest.approx(expect, rel=1e-13, abs=0.0)
            assert row == pytest.approx(expect, rel=1e-13, abs=0.0)


    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("k, m, q_max, y", [(1, 3.0, 12, 5e-4), (2, 2.5, 4, 5e-4)])
    def test_tiles_over_q_match(self, rng, monkeypatch, c, k, m, q_max, y):
        # With 256 terms per block a tile spans 32 values of d and 8 q
        # vectors, so the half set (12 vectors at k = 1, 24 at k = 2) is cut
        # into 2 or 3 q tiles and d_max = 45 into 2 d tiles.
        monkeypatch.setattr(majorant, "_BLOCK_TERMS", 256)
        p = MajorantParams(k=k, m=m, q_max=q_max)
        d_max = p.effective_d_max(y)
        n_half = len(_q_vectors(k, q_max)) // 2
        assert n_half > 256 // min(d_max, majorant._MIN_D_SPAN)
        xis = rng.uniform(-1.0, 2.0, (3, k, c))
        values, _ = _series(p, xis, y)
        for xi, value in zip(xis, values):
            assert value == pytest.approx(term_by_term(p, xi, y), rel=1e-13, abs=0.0)


class TestKernelReference:
    """The single-division kernel against the two-division block loop."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("y", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("k", [1, 2])
    def test_values_agree_to_rounding(self, rng, k, y, c):
        # One division in place of two moves each term by a few ulps, so a
        # sum of positive terms moves by less than 8 eps relative.  For
        # k = 2 the reference's projections also round differently (one
        # matrix product), and the closeness factor amplifies a projection's
        # last bit: 32 eps allows for that at random points, while at a
        # rational point and y = 1e-6 it reaches about 34 eps.
        p = MajorantParams(k=k, m=k + 2.0, q_max=20)
        xis = rng.uniform(-1.0, 2.0, (40 if k == 1 else 6, k, c))
        values, _ = _series(p, xis, y)
        expect = two_division_series(p, xis, y)
        tol = (8 if k == 1 else 32) * self.EPS
        np.testing.assert_array_less(np.abs(values - expect), tol * expect)


class TestGoldenBits:
    """Series values pinned to their ``float.hex`` (recorded on x86-64 Linux,
    numpy 2.4): the kernel's floats and the order they are added in are fixed."""

    def test_seeded_columns(self):
        psis = np.random.default_rng(20240817).uniform(0.0, 1.0, (16, 1))
        params = MajorantParams(1, 3.0, 20, None)
        assert [v.hex() for v in majorant_column_many(params, psis, 1e-4)] == [
            "0x1.d8a7123baaf9ap+1", "0x1.1998afa32808dp+2", "0x1.d3d931fe2a9d9p+1",
            "0x1.d2f2bb8f81a1dp+1", "0x1.e656e6d302114p+1", "0x1.d94e3cfe4c349p+1",
            "0x1.8fe75d0c383bfp+3", "0x1.009fa8361b649p+2", "0x1.d8eab1a7a4600p+1",
            "0x1.d6a73a75c39eep+1", "0x1.d58910995fc8cp+1", "0x1.04f6499cbfd14p+2",
            "0x1.4e573c0b90cc2p+2", "0x1.f28ad5529e25ep+1", "0x1.dbd931b1d0df8p+1",
            "0x1.dc862dc7c5b6fp+1",
        ]
        assert [v.hex() for v in majorant_column_many(params, psis, 1e-6)] == [
            "0x1.16dea4d0f61f2p+1", "0x1.339697b630774p+1", "0x1.158d23a04ac7dp+1",
            "0x1.1c0d3bae1f1b2p+1", "0x1.1ae0bdaf93bfcp+1", "0x1.1854f0eaedc7ap+1",
            "0x1.a22cb498d2130p+3", "0x1.1a6a0f703eefep+1", "0x1.187bfd9729f07p+1",
            "0x1.176cfd254f0bfp+1", "0x1.1480261e7f02cp+1", "0x1.562194535f6abp+1",
            "0x1.387b1cbe99741p+1", "0x1.1cc22ffb7fb8ap+1", "0x1.138aeef34eb47p+1",
            "0x1.14e8be6c751f8p+1",
        ]

    def test_planar_block(self):
        xi = np.array([[0.3, 0.7], [(math.sqrt(5.0) - 1.0) / 2.0, 0.1]])
        value = majorant_full(MajorantParams(2, 3.0, 20, None), xi, 1e-4)
        assert (value.value.hex(), value.tail_bound.hex()) == (
            "0x1.563fd2c0fbfaep+3", "0x1.9c46cf20c3fe8p+5"
        )


class TestLowerEnvelope:
    def test_report_rows(self):
        p = MajorantParams(k=2, m=5)
        ys = [1e-1, 1e-2, 1e-3]
        rep = delta_lower_check(p, (SQRT2, SQRT3), ys)
        assert len(rep.rows) == 3
        assert rep.min_ratio == min(r[2] for r in rep.rows)
        assert rep.min_ratio > 0.0


class TestLfd:
    def test_rational_point_witness(self):
        w = lfd_test([0.5], kappa=1.0, alpha=1.0, c=0.2, q_max=1, d_max=10)
        assert w == LfdWitness(2, (1,))

    def test_zero_distance_is_flagged_where_the_bound_underflows(self):
        # 2000 ** -2000 rounds to 0, so the bound 0.1 * d^-alpha reads 0 at
        # d = 2, where the distance is exactly 0 and the true bound positive.
        assert lfd_test([0.5], 1.0, 2000.0, 0.1, 1, 3) == LfdWitness(d=2, q=(1,))
        assert lfd_test([0.5], 1.0, 2.0, 0.1, 1, 3) == LfdWitness(d=2, q=(1,))

    def test_golden_mean_passes(self):
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert lfd_test([golden], 1.0, 1.0, 0.2, q_max=100, d_max=100) is None

    def test_sqrt2_passes(self):
        assert lfd_test([SQRT2], 1.0, 1.0, 0.25, q_max=100, d_max=100) is None

    def test_requires_positive_constant(self):
        with pytest.raises(DomainError):
            lfd_test([0.5], 1.0, 1.0, 0.0, 10, 10)

    def test_vector_point(self):
        # A rational relation in the second coordinate is found even when
        # the first coordinate is irrational.
        w = lfd_test([SQRT2, 0.25], 1.0, 1.0, 0.05, q_max=4, d_max=8)
        assert w is not None
        d, q = w.d, np.array(w.q)
        x = d * (q[0] * SQRT2 + q[1] * 0.25)
        assert abs(x - round(x)) < 0.05 * d ** -1.0 * np.linalg.norm(q) ** -1.0


class TestOrbitGapBound:
    def test_validation(self):
        p = MajorantParams(k=1, m=3, q_max=10, d_max=10)
        g = GroupElement.identity()
        with pytest.raises(DomainError):
            orbit_gap_bound(g, 1.5, p)
        with pytest.raises(DomainError):
            orbit_gap_bound(g, 10.0, MajorantParams(k=1, m=3))
        with pytest.raises(DomainError):
            orbit_gap_bound(GroupElement.identity(k=2), 10.0, p)

    def test_identity_element_is_explicit(self):
        # For the identity all projected grids are the integer lattice: the
        # q = 0 gap is 1 and every (q, d) grid contains the origin, so each
        # series term degenerates to the gauge at 1.
        p = MajorantParams(k=1, m=3, q_max=10, d_max=10)
        ln3 = math.log(3.0)
        res = orbit_gap_bound(GroupElement.identity(), 100.0, p)
        assert res.term0 == pytest.approx(ln3 ** 3, rel=1e-12)
        coef_q = 2 * sum(q ** -3.0 for q in range(1, 11))
        coef_d = sum(
            len([x for x in range(1, d + 1) if d % x == 0]) * d ** -1.5
            for d in range(1, 11)
        )
        assert res.series == pytest.approx(ln3 * coef_q * coef_d, rel=1e-10)
        assert res.total == res.term0 + res.series
        assert res.upper == res.total + res.tail_bound

    def test_non_finite_gap_is_refused_like_log_gauge(self, monkeypatch):
        # The series applies the gauge as array code; a gap it cannot gauge
        # must still end in log_gauge's DomainError.
        real = majorant.grid_gap_many

        def with_nan(element, ns, T):
            values, witnesses = real(element, ns, T)
            values[-1] = math.nan
            return values, witnesses

        monkeypatch.setattr(majorant, "grid_gap_many", with_nan)
        p = MajorantParams(k=1, m=3, q_max=2, d_max=3)
        with pytest.raises(DomainError, match="^gauge argument must be a positive finite number$"):
            orbit_gap_bound(GroupElement.identity(), 10.0, p)

    def test_default_bound_scores_one_gap_block(self, rng, monkeypatch):
        # At q_max = d_max = 10 the 101 offsets hold 43 distinct ones, and the
        # three default times fit one affine block, whose fixed numpy cost
        # dominates an orbit bound.
        from conftest import random_sl2

        rows = []
        block = affine._gap_block

        def counted(basis, reduced, u, offsets, exempt, T):
            rows.append(len(offsets))
            return block(basis, reduced, u, offsets, exempt, T)

        monkeypatch.setattr(affine, "_gap_block", counted)
        g = GroupElement.from_torus_point(random_sl2(rng), rng.uniform(0.0, 1.0, (1, 2)))
        orbit_gap_bound(g, 100.0, MajorantParams(1, 3.0, 10, 10))
        assert rows == [43]
        rows.clear()
        orbit_gap_bounds(g, [1e2, 1e3, 1e4], MajorantParams(1, 3.0, 10, 10))
        assert rows == [129]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_times_together_match_one_time_calls(self, rng, k):
        # The identity's reduced basis has zero entries, so its skipped
        # breakpoints take the nan-candidate path; integer matrices at points
        # of (1/4) Z x (1/5) Z put the origin on some grids.
        from conftest import random_sl2

        p = MajorantParams(k, k + 2.0, {1: 10, 2: 4, 3: 2}[k], {1: 10, 2: 5, 3: 4}[k])
        Ts = [2.0, 37.0, 1e2, 1e3, 1e4, 1e6]
        lattice_xi = rng.integers(0, 8, (k, 2)) / np.array([4, 5])
        cases = [
            (Sl2Matrix.identity(), lattice_xi),
            (Sl2Matrix.identity(), rng.random((k, 2))),
            (Sl2Matrix(2.0, 1.0, 1.0, 1.0), lattice_xi),
            (Sl2Matrix(2.0, 1.0, 1.0, 1.0), rng.random((k, 2))),
            (random_sl2(rng), rng.random((k, 2))),
        ]
        for m, xi in cases:
            g = GroupElement.from_torus_point(m, xi)
            assert orbit_gap_bounds(g, Ts, p) == [orbit_gap_bound(g, T, p) for T in Ts]

    def test_times_are_grouped_under_the_work_cap(self, rng, monkeypatch):
        # A group holds at most ORBIT_GAP_WORK_CAP full-set offsets over its
        # times: at 200 offsets per time a cap of 400 scores the times in pairs.
        from conftest import random_sl2

        p = MajorantParams(1, 3.0, 10, 10)
        g = GroupElement.from_torus_point(random_sl2(rng), rng.uniform(0.0, 1.0, (1, 2)))
        Ts = [2.0, 1e2, 1e3, 1e4, 1e6]
        batches = []
        real = majorant.grid_gap_many

        def counted(element, ns, T):
            batches.append(len(T))
            return real(element, ns, T)

        monkeypatch.setattr(majorant, "grid_gap_many", counted)
        monkeypatch.setattr(majorant, "ORBIT_GAP_WORK_CAP", 400)
        grouped = orbit_gap_bounds(g, Ts, p)
        assert batches == [2, 2, 1]
        monkeypatch.undo()
        assert grouped == orbit_gap_bounds(g, Ts, p)

    def test_a_short_time_refuses_the_list_before_any_gap(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("gap scored before the times were checked")

        monkeypatch.setattr(majorant, "grid_gap_many", unreachable)
        p = MajorantParams(k=1, m=3, q_max=10, d_max=10)
        with pytest.raises(DomainError, match="^time parameter must be at least 2$"):
            orbit_gap_bounds(GroupElement.identity(), [1e2, 1.5, 1e3], p)

    def test_tail_positive(self, rng):
        from conftest import random_sl2

        p = MajorantParams(k=1, m=3, q_max=6, d_max=6)
        g = GroupElement(random_sl2(rng), rng.random((1, 2)))
        res = orbit_gap_bound(g, 50.0, p)
        assert res.tail_bound > 0
        assert res.term0 >= 0 and res.series >= 0

    @pytest.mark.parametrize("k, q_max, d_max", [(1, 6, 7), (2, 3, 5)])
    def test_matches_one_gap_per_term(self, rng, k, q_max, d_max):
        # The reference evaluates one scalar grid_gap per (q, d) in the
        # documented order and sums like orbit_gap_bound.
        from conftest import random_sl2

        p = MajorantParams(k=k, m=k + 2.0, q_max=q_max, d_max=d_max)
        qs, coef_q, coef_d, tail = _weights(p, d_max)
        for _ in range(4):
            g = GroupElement.from_torus_point(random_sl2(rng), rng.uniform(0.0, 1.0, (k, 2)))
            for T in (2.0, 90.0, 4e4):
                s0 = grid_gap(g, [0] * k, T).value
                terms = [
                    coef_q[i] * coef_d[d - 1]
                    * log_gauge(1.0 / (1.0 + grid_gap(g, list(d * q), T).value / d), 1)
                    for i, q in enumerate(qs)
                    for d in range(1, d_max + 1)
                ]
                res = orbit_gap_bound(g, T, p)
                assert res.term0 == log_gauge(s0**-0.5, 3)
                assert res.series == math.fsum(terms)
                assert res.tail_bound == math.log(3.0) * tail


class TestShiftedLineSum:
    def test_validation(self):
        with pytest.raises(DomainError):
            shifted_line_sum(0.6, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            shifted_line_sum(0.0, -0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            shifted_line_sum(0.0, 0.0, 0.05, 1.0)
        with pytest.raises(DomainError):
            shifted_line_sum(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            shifted_line_sum(0.0, 0.0, 1.0, 1.0, j_max=100)

    def test_zero_offset_brackets_basel_value(self):
        # With both offsets zero the damping disappears and the sum is
        # 2 zeta(2) - 1, which must land inside [lhs, lhs + slack].
        target = math.pi ** 2 / 3.0 - 1.0
        res = shifted_line_sum(0.0, 0.0, 1.0, 5.0)
        assert res.lhs <= target <= res.lhs + res.lhs_slack

    def test_slack_certificate(self):
        small = shifted_line_sum(0.25, 0.1, 2.0, 3.0, j_max=10_000)
        large = shifted_line_sum(0.25, 0.1, 2.0, 3.0, j_max=200_000)
        assert large.lhs >= small.lhs
        assert large.lhs - small.lhs <= small.lhs_slack

    def test_ratio_modest_on_spot_checks(self):
        for args in [(0.0, 0.0, 0.1, 1e3), (0.5, 0.25, 100.0, 0.1), (0.1, 0.5, 1.0, 10.0)]:
            assert shifted_line_sum(*args).ratio <= 50.0


class TestTailBounds:
    def test_q_tail_dominates_true_tail(self):
        # Compare against a directly summed stretch beyond the cut.
        for k, m, cut in [(1, 3.0, 10), (2, 3.0, 12)]:
            qs = _q_vectors(k, cut * 6)
            norms = np.sqrt((qs * qs).sum(axis=1))
            outside = norms > cut
            direct = float((norms[outside] ** -m).sum())
            assert direct <= q_tail_bound(k, m, cut)

    def test_d_tail_dominates_true_tail(self):
        from horolab.arith import divisor_counts

        taus = divisor_counts(200_000).tolist()
        for cut in (5, 20, 100):
            direct = sum(taus[d - 1] * d ** -1.5 for d in range(cut + 1, 200_000))
            assert direct <= d_tail_bound(cut)

    def test_zeta_constant_against_mpmath(self):
        import mpmath

        assert ZETA_THREE_HALVES == pytest.approx(float(mpmath.zeta(1.5)), abs=1e-14)
