import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import sl2core
from horolab.errors import DomainError
from horolab.sl2core import (
    IwasawaCoords,
    Sl2Matrix,
    UvsCoords,
    cuspidal_height,
    iwasawa_compose,
    iwasawa_decompose,
    reduce_fundamental,
    _tau_at_i,
    reduce_stack,
    stack_product,
    uvs_compose,
    uvs_decompose,
)

from conftest import random_integer_gamma, random_sl2, reduce_fundamental_reference, reduction_corpus

TWO_PI = 2.0 * math.pi


def angle_gap(t1, t2):
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


class TestSl2Matrix:
    def test_identity_and_generators(self):
        assert Sl2Matrix.identity().as_array().tolist() == [[1, 0], [0, 1]]
        assert Sl2Matrix.translation(3.0).b == 3.0
        a = Sl2Matrix.dilation(4.0)
        assert a.a == 2.0 and a.d == 0.5
        s = Sl2Matrix.inversion()
        assert (s.a, s.b, s.c, s.d) == (0.0, -1.0, 1.0, 0.0)

    def test_determinant_renormalization(self):
        drift = 1.0 + 3e-9
        m = Sl2Matrix(drift, 0.0, 0.0, 1.0)
        assert abs(m.det - 1.0) <= 1e-10

    def test_bad_determinant_rejected(self):
        with pytest.raises(DomainError):
            Sl2Matrix(2.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            Sl2Matrix(1.0, 0.0, 0.0, -1.0)

    def test_inverse_multiplication(self, rng):
        for _ in range(50):
            m = random_sl2(rng)
            p = m @ m.inverse()
            assert np.allclose(p.as_array(), np.eye(2), atol=1e-10)

    def test_norm_floor(self, rng):
        # No unimodular matrix gets closer to zero than the rotations do.
        assert Sl2Matrix.identity().frobenius_norm() == pytest.approx(math.sqrt(2))
        for _ in range(200):
            assert random_sl2(rng).frobenius_norm() >= math.sqrt(2) - 1e-12

    def test_mobius_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            Sl2Matrix.identity().mobius(1 - 2j)

    def test_mobius_imaginary_part_identity(self, rng):
        for _ in range(100):
            m = random_sl2(rng)
            tau = complex(rng.normal() * 3, float(rng.random()) * 10 + 1e-3)
            lhs = m.mobius(tau).imag
            rhs = tau.imag / abs(m.c * tau + m.d) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


class TestIwasawaChart:
    def test_known_decomposition(self):
        m = Sl2Matrix.translation(1.5) @ Sl2Matrix.dilation(0.25) @ Sl2Matrix.rotation(2.0)
        co = iwasawa_decompose(m)
        assert co.u == pytest.approx(1.5, abs=1e-12)
        assert co.v == pytest.approx(0.25, abs=1e-12)
        assert co.theta == pytest.approx(2.0, abs=1e-12)

    def test_norm_formula(self, rng):
        # |M|_F = sqrt((u^2 + v^2 + 1) / v), whatever the angle.
        co = IwasawaCoords(1.0, 2.0, 0.7)
        assert iwasawa_compose(co).frobenius_norm() == pytest.approx(math.sqrt(3.0), abs=1e-12)
        for _ in range(50):
            m = random_sl2(rng)
            co = iwasawa_decompose(m)
            closed = math.sqrt((co.u * co.u + co.v * co.v + 1.0) / co.v)
            assert closed == pytest.approx(m.frobenius_norm(), rel=1e-12)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(DomainError):
            IwasawaCoords(0.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            IwasawaCoords(0.0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(-5, 5),
        v=st.floats(0.05, 20),
        theta=st.floats(0, TWO_PI - 1e-9),
    )
    def test_roundtrip_from_coords(self, u, v, theta):
        co = iwasawa_decompose(iwasawa_compose(IwasawaCoords(u, v, theta)))
        assert co.u == pytest.approx(u, abs=1e-12, rel=1e-12)
        assert co.v == pytest.approx(v, abs=1e-12, rel=1e-12)
        assert angle_gap(co.theta, theta) <= 1e-12

    def test_roundtrip_from_matrix(self, rng):
        for _ in range(200):
            m = random_sl2(rng)
            back = iwasawa_compose(iwasawa_decompose(m))
            assert np.allclose(back.as_array(), m.as_array(), atol=1e-12)

    def test_theta_covers_full_circle(self):
        co = iwasawa_decompose(-Sl2Matrix.identity())
        assert co.theta == pytest.approx(math.pi, abs=1e-12)
        co = iwasawa_decompose(Sl2Matrix.rotation(5.5))
        assert co.theta == pytest.approx(5.5, abs=1e-12)


class TestUvsChart:
    def test_matches_first_column(self, rng):
        for _ in range(50):
            m = random_sl2(rng)
            co = uvs_decompose(m)
            assert co.u == m.a and co.v == m.c

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            UvsCoords(0.0, 0.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(0.1, 10),
        phi=st.floats(0, TWO_PI),
        s=st.floats(-10, 10),
    )
    def test_roundtrip(self, r, phi, s):
        u, v = r * math.cos(phi), r * math.sin(phi)
        co = uvs_decompose(uvs_compose(UvsCoords(u, v, s)))
        assert co.u == pytest.approx(u, abs=1e-12, rel=1e-12)
        assert co.v == pytest.approx(v, abs=1e-12, rel=1e-12)
        assert co.s == pytest.approx(s, abs=1e-12, rel=1e-12)

    def test_norm_formula(self, rng):
        # |M|_F = sqrt((u^2 + v^2)(1 + s^2) + 1 / (u^2 + v^2)).
        for _ in range(50):
            m = random_sl2(rng)
            co = uvs_decompose(m)
            r2 = co.u * co.u + co.v * co.v
            closed = math.sqrt(r2 * (1.0 + co.s * co.s) + 1.0 / r2)
            assert closed == pytest.approx(m.frobenius_norm(), rel=1e-12)


class TestReduction:
    def test_pure_dilation(self):
        gamma, red = reduce_fundamental(Sl2Matrix.dilation(0.25))
        assert (gamma.a, gamma.b, gamma.c, gamma.d) == (0.0, 1.0, -1.0, 0.0)
        assert red.mobius(1j).imag == pytest.approx(4.0, abs=1e-12)

    def test_pure_translation(self):
        gamma, red = reduce_fundamental(Sl2Matrix.translation(3.5))
        assert (gamma.a, gamma.b, gamma.c, gamma.d) == (1.0, 4.0, 0.0, 1.0)
        tau = red.mobius(1j)
        assert tau.real == pytest.approx(-0.5, abs=1e-12)
        assert tau.imag == pytest.approx(1.0, abs=1e-12)

    def test_strip_edge_tie_prefers_left(self):
        gamma, red = reduce_fundamental(Sl2Matrix.translation(0.5))
        assert (gamma.a, gamma.b, gamma.c, gamma.d) == (1.0, 1.0, 0.0, 1.0)
        assert red.mobius(1j).real == pytest.approx(-0.5, abs=1e-12)

    def test_circle_boundary_tie_flips_to_left(self):
        phi = 5 * math.pi / 12
        m = Sl2Matrix.translation(math.cos(phi)) @ Sl2Matrix.dilation(math.sin(phi))
        gamma, red = reduce_fundamental(m)
        tau = red.mobius(1j)
        assert abs(tau) == pytest.approx(1.0, abs=1e-12)
        assert tau.real == pytest.approx(-math.cos(phi), abs=1e-11)

    def test_gamma_is_integral_and_recovers_m(self, rng):
        for _ in range(100):
            m = random_sl2(rng, scale=3.0)
            gamma, red = reduce_fundamental(m)
            assert gamma.is_integral()
            assert np.allclose((gamma @ red).as_array(), m.as_array(), atol=1e-8)
            tau = red.mobius(1j)
            assert abs(tau.real) <= 0.5 + 1e-12
            assert abs(tau) >= 1.0 - 1e-12


class TestCuspidalHeight:
    def test_invariance_under_integer_left_action(self, rng):
        for _ in range(100):
            m = random_sl2(rng)
            gamma = random_integer_gamma(rng)
            h0 = cuspidal_height(m)
            h1 = cuspidal_height(gamma @ m)
            assert h1 == pytest.approx(h0, rel=1e-9, abs=1e-9)

    def test_two_sided_bounds(self, rng):
        lo = math.sqrt(3) / 2
        for _ in range(200):
            m = random_sl2(rng, scale=2.0)
            h = cuspidal_height(m)
            assert lo - 1e-12 <= h <= m.frobenius_norm() ** 2 + 1e-9

    def test_dilation_heights(self):
        assert cuspidal_height(Sl2Matrix.dilation(4.0)) == pytest.approx(4.0)
        assert cuspidal_height(Sl2Matrix.dilation(0.25)) == pytest.approx(4.0)


class TestReduceStack:
    """The masked loop against the step-by-step reference, bit for bit."""

    @staticmethod
    def _bits(m):
        return np.asarray(m.as_array() if isinstance(m, Sl2Matrix) else m).tobytes()

    def test_matches_reference_on_corpus(self, rng):
        corpus = reduction_corpus(rng)
        gammas, reduced = reduce_stack(np.array([m.as_array() for m in corpus]))
        for m, g, red in zip(corpus, gammas, reduced):
            want_g, want_red = reduce_fundamental_reference(m)
            assert self._bits(g) == self._bits(want_g)
            assert self._bits(red) == self._bits(want_red)
            got_g, got_red = reduce_fundamental(m)
            assert self._bits(got_g) == self._bits(want_g)
            assert self._bits(got_red) == self._bits(want_red)

    def test_tau_is_the_complex_division_bit_for_bit(self, rng):
        # Ties sit within an ulp of the thresholds, so the reduction's
        # decisions need Re tau and |tau| exactly as Python's complex
        # division has them (Sl2Matrix.mobius on float entries).
        spread = [random_sl2(rng) @ Sl2Matrix.dilation(y) for y in (1e-6, 1.0, 1e6) for _ in range(20)]
        corpus = reduction_corpus(rng) + [Sl2Matrix(*m.as_array().ravel().tolist()) for m in spread]
        re, norm = _tau_at_i(*np.array([m.as_array().ravel() for m in corpus]).T)
        for m, r, n in zip(corpus, re, norm):
            tau = m.mobius(1j)
            assert (r, n) == (tau.real, abs(tau))

    def test_rows_are_independent_of_the_stack(self, rng):
        corpus = reduction_corpus(rng, count=8)
        stack = np.array([m.as_array() for m in corpus])
        gammas, reduced = reduce_stack(stack)
        for i in range(0, len(corpus), 7):
            g, red = reduce_stack(stack[i : i + 1])
            assert g.tobytes() == gammas[i : i + 1].tobytes()
            assert red.tobytes() == reduced[i : i + 1].tobytes()

    def test_empty_and_malformed_stacks(self):
        gammas, reduced = reduce_stack(np.zeros((0, 2, 2)))
        assert gammas.shape == reduced.shape == (0, 2, 2)
        with pytest.raises(DomainError):
            reduce_stack(np.eye(2))

    def test_huge_word_is_refused_as_before(self):
        # The word of u_t for t near 1e9 times a generic matrix has products
        # past 2^53, so gamma's determinant rounds away from one.
        m = Sl2Matrix(1.256382792777376, 1256382792.765656, -0.13043831793601063, -130438317.13885805)
        with pytest.raises(DomainError) as ref:
            reduce_fundamental_reference(m)
        with pytest.raises(DomainError) as got:
            reduce_fundamental(m)
        assert str(got.value) == str(ref.value)


class TestStackProduct:
    def test_equals_sl2matrix_products(self, rng):
        corpus = reduction_corpus(rng, count=8)
        right = Sl2Matrix.translation(0.37) @ Sl2Matrix.dilation(1e-3)
        got = stack_product(np.array([m.as_array() for m in corpus]), right.as_array())
        for m, g in zip(corpus, got):
            assert g.tobytes() == (m @ right).as_array().tobytes()

    def test_renormalizes_and_refuses_like_the_constructor(self):
        drift = np.array([[1.0 + 1e-9, 0.0], [0.0, 1.0]])
        assert stack_product(drift, np.eye(2)).tobytes() == Sl2Matrix.from_array(drift).as_array().tobytes()
        with pytest.raises(DomainError, match="too far from 1"):
            stack_product(np.diag([2.0, 1.0]), np.eye(2))
        with pytest.raises(DomainError, match="not a positive real"):
            stack_product(np.diag([-1.0, 1.0]), np.eye(2))
        # Within DET_RENORM_TOL the entries are kept as given, type and all.
        for det in (1.0 + 5e-13, 1.0 - 5e-13, np.float64(1.0 + 5e-13)):
            m = Sl2Matrix(det, 0.0, 0.0, 1.0)
            assert type(m.a) is type(det) and (m.a, m.b, m.c, m.d) == (det, 0.0, 0.0, 1.0)
        # Past it the constructor's entries are _unimodular's, as stack_product's.
        for det in (1.0 + 5e-9, 1.0 - 5e-9):
            entries = np.array([[det], [0.25], [0.0], [1.0]])
            m = Sl2Matrix(*entries[:, 0].tolist())
            assert [m.a, m.b, m.c, m.d] == sl2core._unimodular(entries)[:, 0].tolist() != entries[:, 0].tolist()
            assert stack_product(m.as_array(), np.eye(2)).tobytes() == m.as_array().tobytes()
        refusals = [
            (1.0 + 2e-6, f"determinant {1.0 + 2e-6} too far from 1 to renormalize"),
            (1.0 - 2e-6, f"determinant {1.0 - 2e-6} too far from 1 to renormalize"),
            (0.0, "matrix determinant 0.0 is not a positive real"),
            (-1.0, "matrix determinant -1.0 is not a positive real"),
            (math.nan, "matrix determinant nan is not a positive real"),
        ]
        for det, message in refusals:
            for make in (lambda: Sl2Matrix(det, 0.0, 0.0, 1.0),
                         lambda: stack_product(np.diag([det, 1.0]), np.eye(2))):
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    make()
