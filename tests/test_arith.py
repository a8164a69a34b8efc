import math

import numpy as np
import pytest
import sympy

from horolab.arith import (
    SIEVE_CAP,
    CosetSpec,
    divisor_count,
    divisor_counts,
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
