import math

import numpy as np
import pytest
import scipy.integrate

from horolab.errors import ConvergenceError, DomainError, ResourceGuardError
from horolab.quadrature import BOX_GRID_NODE_CAP, adaptive_quad, box_grid, fixed_quad


class TestFixedRule:
    def test_polynomial_exactness(self):
        # A 15-point rule is exact through degree 29.
        val = fixed_quad(lambda x: x ** 29, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 30.0, rel=1e-14)

    def test_interval_mapping(self):
        val = fixed_quad(np.sin, 0.0, math.pi)
        assert val == pytest.approx(2.0, rel=1e-13)


class TestAdaptive:
    def test_smooth_reference_values(self):
        assert adaptive_quad(lambda x: 4.0 / (1.0 + x * x), 0, 1) == pytest.approx(
            math.pi, rel=1e-10
        )
        assert adaptive_quad(np.exp, 0, 2) == pytest.approx(math.e ** 2 - 1, rel=1e-10)

    def test_against_scipy_on_awkward_integrand(self):
        f = lambda x: np.sin(40.0 * x) * np.exp(-3.0 * x)
        ours = adaptive_quad(f, 0.0, 5.0, rel_tol=1e-10)
        ref, _ = scipy.integrate.quad(lambda x: math.sin(40 * x) * math.exp(-3 * x), 0, 5, limit=200)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_complex_integrand(self):
        val = adaptive_quad(lambda x: np.exp(2j * np.pi * x), 0.0, 1.0)
        assert abs(val) < 1e-10

    def test_degenerate_and_reversed(self):
        assert adaptive_quad(np.cos, 1.0, 1.0) == 0.0
        fwd = adaptive_quad(np.cos, 0.0, 1.0)
        assert adaptive_quad(np.cos, 1.0, 0.0) == pytest.approx(-fwd, rel=1e-12)

    def test_rejects_infinite_endpoint(self):
        with pytest.raises(DomainError):
            adaptive_quad(np.exp, 0.0, math.inf)

    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(ConvergenceError) as exc:
            adaptive_quad(lambda x: np.abs(x) ** -0.9, 0.0, 1.0, max_depth=12)
        est = exc.value.estimate
        # True value is 10; the attached estimate should at least be in
        # the right region despite the endpoint singularity.
        assert est is not None and 5.0 < est < 15.0


class TestBox:
    def test_separable_product(self):
        pts, wts = box_grid([0.0, 0.0], [1.0, 1.0])
        val = wts @ (np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]))
        assert val == pytest.approx((2.0 / math.pi) ** 2, rel=1e-10)

    def test_oscillatory_complex(self):
        pts, wts = box_grid([0, 0], [1, 1])
        assert abs(wts @ np.exp(2j * np.pi * pts.sum(axis=1))) < 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            box_grid([0.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            box_grid([0.0], [1.0], panels=0)

    def test_node_guard(self):
        # Two torus blocks at 8 panels of 12 points would be 96^4 nodes, about 11 GB.
        with pytest.raises(ResourceGuardError, match="84934656 grid nodes exceed the cap"):
            box_grid([0.0] * 4, [1.0] * 4, panels=8, points=12)
        pts, wts = box_grid([0.0] * 4, [1.0] * 4, panels=4, points=4)
        assert pts.shape == (65_536, 4) and 65_536 <= BOX_GRID_NODE_CAP
        assert wts.sum() == pytest.approx(1.0, rel=1e-13)
