import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import arith
from horolab.arith import (
    SIEVE_CAP,
    CosetSpec,
    ExactSum,
    divisor_count,
    divisor_counts,
    exact_sum,
    expand,
    factorize,
    kloosterman,
    kloosterman_weil_bound,
    mod_inverse,
    quad_expsum_bruteforce,
    quad_expsum_closed,
    quadsum_weil_bound,
    xgcd,
    xgcd_array,
)
from horolab.errors import DomainError, ResourceGuardError


def random_congruence(rng, N):
    while True:
        r = rng.integers(0, max(N, 2), size=4)
        if (r[0] * r[3] - r[1] * r[2]) % N == 1 % N:
            return CosetSpec(N, tuple(int(x) for x in r))


def same_float(a, b):
    """Bit-for-bit equality, the sign of zero and NaN included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


normal_terms = st.floats(-1e6, 1e6, allow_nan=False)
# Mantissas spread over 35 decades, 1e-17 to 1e18.
spread_terms = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-17, 18))
huge_terms = st.one_of(normal_terms, st.sampled_from([1e300, -1e300, 3e299, -7e299]))
subnormal_terms = st.floats(-1e-300, 1e-300, allow_nan=False)
term_lists = st.one_of(*(st.lists(t, max_size=300) for t in (normal_terms, spread_terms, huge_terms, subnormal_terms)))


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(terms=term_lists)
    def test_equals_fsum(self, terms):
        assert same_float(exact_sum(np.array(terms, dtype=float)).real, math.fsum(terms))

    @settings(max_examples=200, deadline=None)
    @given(terms=term_lists, data=st.data())
    def test_pieces_and_groups_equal_fsum_per_group(self, terms, data):
        n = data.draw(st.integers(1, 4))
        groups = data.draw(st.lists(st.integers(0, n - 1), min_size=len(terms), max_size=len(terms)))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=6)))
        values = np.array(terms, dtype=float) * (1.0 - 0.5j)
        acc = ExactSum(n)
        for lo, hi in zip([0] + cuts, cuts + [len(terms)]):
            acc.add(values[lo:hi], np.array(groups[lo:hi], dtype=np.int64))
        totals = acc.totals()
        for g in range(n):
            mine = [v for v, h in zip(values.tolist(), groups) if h == g]
            assert same_float(totals[g].real, math.fsum(v.real for v in mine))
            assert same_float(totals[g].imag, math.fsum(v.imag for v in mine))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1001, 1600), size=st.integers(0, 4000), complex_terms=st.booleans(),
           special=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_many_groups_in_random_adds_equal_fsum(self, n, size, complex_terms, special, seed,
                                                   data):
        # Unsorted groups over more than a thousand parts and exponents from
        # 1e-300 to 1e300, so a chunk's bins are folded in many pieces.
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, n, size)
        terms = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
        terms[rng.random(size) < 0.1] = 0.0
        if complex_terms:
            terms = terms + 1j * rng.permutation(terms)
        if size:  # an exact cancellation, and a few non-finite terms
            terms[rng.integers(0, size, size // 4)] *= -1.0
            at = rng.integers(0, size, special)
            terms[at] = rng.choice([math.nan, math.inf, -math.inf], special)
        cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=8)))
        acc = ExactSum(n)
        for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [size])):
            acc.add(terms[lo:hi], groups[lo:hi])
            if i == 0:  # a refused add leaves the sums as they were
                for bad in (n, -1):
                    with pytest.raises(IndexError):
                        acc.add(np.ones(2, dtype=terms.dtype), np.array([0, bad]))
        parts = [[] for _ in range(2 * n)]
        for value, g in zip(terms.astype(complex).tolist(), groups.tolist()):
            parts[2 * g].append(value.real)
            parts[2 * g + 1].append(value.imag)
        if any(math.inf in part and -math.inf in part for part in parts):
            with pytest.raises(ValueError):
                acc.totals()
            return
        for got, part in zip(acc.totals().view(float).tolist(), parts):
            want = math.fsum(part)
            assert (math.isnan(got) and math.isnan(want)) or same_float(got, want)

    def test_full_bins(self):
        # Equal extreme mantissas fill one bin, or bring the bins of 64 adjacent
        # exponents to just below 2^43, so packed int64 words come near 2^62.
        top = 1.0 - 2.0 ** -53
        for terms in (
            np.r_[np.full(100_000, top), np.full(30_001, -top * 2.0 ** -1000)],
            np.repeat(top * 2.0 ** np.arange(64.0), 43_690),
        ):
            assert same_float(exact_sum(terms).real, math.fsum(terms.tolist()))

    def test_chunk_cuts(self, monkeypatch, rng):
        terms = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, 1000)
        monkeypatch.setattr(arith, "_EXACT_CHUNK", 7)
        assert same_float(exact_sum(terms).real, math.fsum(terms.tolist()))

    def test_empty_and_zeros_give_positive_zero(self):
        for terms in ([], [0.0], [-0.0], [-0.0, -0.0, 0.0]):
            total = exact_sum(np.array(terms, dtype=float))
            assert same_float(total.real, math.fsum(terms)) and same_float(total.imag, 0.0)
        assert same_float(math.fsum([-0.0]), 0.0)
        acc = ExactSum(3)
        acc.add(np.array([-0.0 - 0.0j]), np.array([1]))
        assert all(same_float(v, 0.0) for v in acc.totals().view(float))

    def test_non_finite_terms_act_as_in_fsum(self):
        nan, inf = math.nan, math.inf
        for terms in ([1.0, nan], [inf, 2.0, inf], [-inf, 5.0], [inf, nan]):
            assert same_float(exact_sum(np.array(terms)).real, math.fsum(terms))
        for terms in ([inf, -inf], [1.0, -inf, nan, inf]):
            with pytest.raises(ValueError):
                math.fsum(terms)
            with pytest.raises(ValueError):
                exact_sum(np.array(terms))
        for terms in ([1e308, 1e308], [-1e308, -1e308, 1.0]):
            with pytest.raises(OverflowError):
                math.fsum(terms)
            with pytest.raises(OverflowError):
                exact_sum(np.array(terms))
        # A non-finite term stays in its own group and part.
        acc = ExactSum(2)
        acc.add(np.array([complex(nan, 1.0), 2.0 + 3.0j, complex(4.0, inf)]), np.array([0, 1, 1]))
        totals = acc.totals()
        assert math.isnan(totals[0].real) and totals[0].imag == 1.0
        assert totals[1].real == 6.0 and totals[1].imag == inf

    def test_without_groups_equals_group_zero(self, monkeypatch, rng):
        # add(terms) skips the group array; its totals keep the bits of the
        # grouped path, across chunk cuts and non-finite terms.
        monkeypatch.setattr(arith, "_EXACT_CHUNK", 7)
        nan, inf = math.nan, math.inf
        spread = rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)
        specials = spread.copy()
        specials[[3, 17, 30]] = [nan, inf, 2.5]
        cases = {
            "spread": spread, "complex": spread * (1.0 - 2.0j), "negative zero": [-0.0, -0.0],
            "nan": specials, "inf": [inf, 2.0, inf], "-inf": [-inf, 5.0],
            # A non-finite term in one part leaves the other part's sum finite.
            "complex nan": [complex(nan, 1.0), 3.0 + 4.0j],
            "complex inf": [complex(2.0, -inf), 1j],
            "both infs": [1.0, -inf, nan, inf],
            "complex both infs": [complex(0.0, inf), complex(1.0, -inf)],
            "overflow": [1e308, 1e308], "negative overflow": [-1e308, -1e308, 1.0],
        }
        errors = {"both infs": ValueError, "complex both infs": ValueError,
                  "overflow": OverflowError, "negative overflow": OverflowError}
        for name, terms in cases.items():
            terms = np.asarray(terms)
            one, grouped = ExactSum(), ExactSum()
            one.add(terms)
            grouped.add(terms, np.zeros(len(terms), dtype=np.int64))
            if name in errors:
                for acc in (one, grouped):
                    with pytest.raises(errors[name]):
                        acc.totals()
            else:
                assert one.totals().tobytes() == grouped.totals().tobytes(), name

    def test_group_out_of_range(self):
        with pytest.raises(IndexError):
            ExactSum(2).add(np.ones(3), np.array([0, 1, 2]))


class TestDivisorCount:
    def test_small_values(self):
        assert [divisor_count(n) for n in range(1, 13)] == [
            1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6,
        ]

    def test_highly_composite(self):
        assert divisor_count(360) == 24
        assert divisor_count(999983) == 2  # prime

    def test_beyond_sieve_cap(self):
        # 1048576 = 2^20 and a large semiprime, both past the table.
        assert divisor_count(2 ** 20) == 21
        assert divisor_count(1_000_003) == sympy.divisor_count(1_000_003)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            divisor_count(0)
        with pytest.raises(DomainError):
            divisor_count(-4)

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_rejects_non_integers(self, bad):
        # nan and inf used to escape as a bare ValueError and OverflowError.
        with pytest.raises(DomainError):
            divisor_count(bad)

    def test_against_sympy(self, rng):
        for n in rng.integers(1, 10 ** 6, size=100):
            assert divisor_count(int(n)) == sympy.divisor_count(int(n))

    def test_table_matches_trial_division(self):
        def by_trial_division(n):
            return sum(1 if j * j == n else 2 for j in range(1, math.isqrt(n) + 1) if n % j == 0)

        expected = [by_trial_division(n) for n in range(1, 10_001)]
        assert divisor_counts(10_000).tolist() == expected
        table = divisor_counts(SIEVE_CAP)
        # 720720 = 2^4 3^2 5 7 11 13; 999999 = 3^3 7 11 13 37; 1000000 = 2^6 5^6.
        for n in (720_720, 999_983, 999_999, SIEVE_CAP):
            assert table[n - 1] == divisor_count(n) == sympy.divisor_count(n)

    def test_table_guards(self):
        assert divisor_counts(0).size == 0
        assert not divisor_counts(10).flags.writeable
        with pytest.raises(ResourceGuardError):
            divisor_counts(SIEVE_CAP + 1)

    @pytest.mark.parametrize("x", [100, 1000, 10000])
    def test_partial_sum_window(self, x):
        total = sum(divisor_count(n) for n in range(1, x + 1))
        assert x * math.log(x) - x <= total <= x * math.log(x) + 2 * x


class TestFactorize:
    def test_against_sympy(self, rng):
        # 1999993 is the largest prime below the last trial divisor, 2 * 10^6.
        fixed = [1, 2, 360, 2**62, 999_983 * 1_000_003, 3 * 1_999_993**2]
        for n in fixed + rng.integers(1, 10**10, size=20).tolist():
            assert factorize(n) == sorted(sympy.factorint(n).items())

    def test_refuses_a_cofactor_past_the_trial_cap(self):
        # 2^63 - 25 is prime, so it needs every divisor up to its square root.
        for count in (factorize, divisor_count):
            with pytest.raises(ResourceGuardError, match="trial divisors exceed the cap 1000000"):
                count(2**63 - 25)


class TestXgcd:
    def test_bezout_identity(self):
        for a, b in [(240, 46), (-7, 3), (5, -15), (0, 4), (4, 0), (0, 0), (-1, 0)]:
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            assert abs(g) == math.gcd(a, b)

    def test_array_matches_scalar(self, rng):
        a = rng.integers(-10**6, 10**6, size=2000)
        b = rng.integers(-10**6, 10**6, size=2000)
        a[:50], b[50:100] = 0, 0
        a[100:150], b[100:150] = rng.integers(-3, 4, size=50), rng.integers(-3, 4, size=50)
        got = np.stack(xgcd_array(a, b), axis=1)
        expected = [xgcd(int(x), int(y)) for x, y in zip(a, b)]
        assert got.tolist() == [list(e) for e in expected]
        assert xgcd_array(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))[0].size == 0


class TestExpand:
    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.just(0) | st.integers(0, 9), max_size=12), floats=st.booleans(),
           chunk=st.sampled_from([1, 2, 7, None]))
    def test_slices_join_to_the_repeat_expansion(self, counts, floats, chunk):
        # The lattice kernel passes float counts.  Chunks of 1, 2 and 7 cut rows
        # in two; None stands for one chunk larger than the total.
        counts = np.array(counts, dtype=float if floats else np.int64)
        n = counts.astype(np.int64)
        chunk = chunk or int(n.sum()) + 1
        owner = np.repeat(np.arange(n.size), n)
        offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        col = 10 * np.arange(n.size) - 3
        slices = list(expand(counts, col, np.arange(n.size), chunk=chunk))
        sizes = [len(piece[-1]) for piece in slices]
        assert sizes == [chunk] * (n.sum() // chunk) + ([n.sum() % chunk] if n.sum() % chunk else [])
        joined = [np.concatenate(cols) for cols in zip(*slices)] or [np.zeros(0, np.int64)] * 3
        assert np.array_equal(joined[0], col[owner])
        assert np.array_equal(joined[1], owner)
        assert np.array_equal(joined[2], offset)

    def test_all_zero_counts_yield_nothing(self):
        for counts in (np.zeros(0), np.zeros(5), np.zeros(3, dtype=np.int64)):
            assert list(expand(counts, np.arange(counts.size), chunk=2)) == []


class TestModInverse:
    def test_anchor(self):
        assert mod_inverse(7, 26) == 15

    def test_range_convention(self):
        # The trivial modulus maps everything to 1, inside [1, q].
        assert mod_inverse(5, 1) == 1
        for a in range(1, 11):
            if math.gcd(a, 11) == 1:
                inv = mod_inverse(a, 11)
                assert 1 <= inv <= 11
                assert (a * inv) % 11 == 1

    def test_rejects_non_units(self):
        with pytest.raises(DomainError):
            mod_inverse(6, 26)
        with pytest.raises(DomainError):
            mod_inverse(3, 0)


class TestKloosterman:
    def test_anchors(self):
        assert kloosterman(0, 0, 6) == pytest.approx(2.0, abs=1e-12)
        assert kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
        assert kloosterman(1, 1, 3) == pytest.approx(-1.0, abs=1e-12)
        assert kloosterman(0, 0, 1) == 1.0

    def test_unit_count(self):
        # With both arguments zero the sum just counts units.
        for q in (2, 5, 12, 30):
            assert kloosterman(0, 0, q) == pytest.approx(sympy.totient(q), abs=1e-9)

    def test_degenerate_case_is_moebius(self):
        # One argument zero gives a Ramanujan sum; at 1 that is the Moebius value.
        for q in range(1, 40):
            assert kloosterman(1, 0, q) == pytest.approx(int(sympy.mobius(q)), abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(200):
            q = int(rng.integers(1, 400))
            m = int(rng.integers(-50, 51))
            n = int(rng.integers(-50, 51))
            assert kloosterman(m, n, q) == pytest.approx(kloosterman(n, m, q), abs=1e-9)

    def test_weil_bound(self, rng):
        for q in range(1, 501):
            m = int(rng.integers(-100, 101))
            n = int(rng.integers(-100, 101))
            assert abs(kloosterman(m, n, q)) <= kloosterman_weil_bound(m, n, q) + 1e-9

    @pytest.mark.parametrize("qs", [range(1, 501), [65536, 99991, 100000]])
    def test_unit_tables_match_python(self, qs):
        for q in qs:
            units = [a for a in range(1, q) if math.gcd(a, q) == 1] if q > 1 else [0]
            inverses = [pow(a, -1, q) if q > 1 else 0 for a in units]
            got = arith._unit_tables(q)
            assert all(v.dtype == np.int64 for v in got)
            assert got[0].tolist() == units and got[1].tolist() == inverses

    def test_twists_beyond_int64_reduce_mod_q(self):
        # 4611686018427387907 = 2^62 + 3 is 0 mod 7; m * units would wrap int64.
        assert kloosterman(4611686018427387907, 1, 7) == kloosterman(0, 1, 7)
        assert kloosterman(1, 10**20, 7) == kloosterman(1, 10**20 % 7, 7)
        assert kloosterman(-11 * 10**30 - 3, 5, 11) == kloosterman(-3, 5, 11)


class TestQuadExpsum:
    def test_modulus_one_is_pure_phase(self, rng):
        for N in (1, 2, 3):
            spec = random_congruence(rng, N)
            v = tuple(int(x) for x in rng.integers(-4, 5, size=4))
            expected = np.exp(2j * np.pi * (np.dot(v, spec.rep) % N) / N)
            assert quad_expsum_closed(1, spec, v) == pytest.approx(expected, abs=1e-12)

    def test_level_one_anchor(self):
        spec = CosetSpec(1, (0, 0, 0, 0))
        val = quad_expsum_closed(2, spec, (0, 0, 0, 0))
        assert val == pytest.approx(-4.0 + 0j, abs=1e-12)
        brute = quad_expsum_bruteforce(2, spec, (0, 0, 0, 0))
        assert brute == pytest.approx(val, abs=1e-9)

    def test_unsolvable_twist_vanishes(self):
        spec = CosetSpec(2, (1, 0, 0, 1))
        assert quad_expsum_closed(2, spec, (1, 0, 0, 0)) == 0j
        brute = quad_expsum_bruteforce(2, spec, (1, 0, 0, 0))
        assert abs(brute) < 1e-9

    def test_closed_matches_bruteforce(self, rng):
        for q in (1, 2, 3, 4, 5):
            for N in (1, 2, 3):
                spec = random_congruence(rng, N)
                v = tuple(int(x) for x in rng.integers(-5, 6, size=4))
                b = quad_expsum_bruteforce(q, spec, v)
                c = quad_expsum_closed(q, spec, v)
                assert c == pytest.approx(b, abs=1e-6 * max(1.0, abs(b)))

    def test_brute_force_guard(self):
        spec = CosetSpec(10, (1, 0, 0, 1))
        with pytest.raises(ResourceGuardError, match="100000000"):
            quad_expsum_bruteforce(7, spec, (0, 0, 0, 0))

    def test_weil_bound_on_closed_form(self, rng):
        for _ in range(50):
            q = int(rng.integers(1, 60))
            N = int(rng.integers(1, 4))
            spec = random_congruence(rng, N)
            v = tuple(int(x) for x in rng.integers(-10, 11, size=4))
            val = quad_expsum_closed(q, spec, v)
            assert abs(val) <= quadsum_weil_bound(q, N) + 1e-6

    def test_validates_inputs(self):
        spec = CosetSpec(1, (0, 0, 0, 0))
        with pytest.raises(DomainError):
            quad_expsum_closed(0, spec, (0, 0, 0, 0))
        with pytest.raises(DomainError):
            quad_expsum_closed(2, spec, (0, 0, 0))
