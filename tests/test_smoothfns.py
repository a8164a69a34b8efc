import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from horolab.smoothfns import BUMP6_MASS, bump6, bump6_normalized


class TestBump:
    def test_peak_and_support(self):
        assert bump6(0.0) == 1.0
        assert bump6(1.0) == 0.0
        assert bump6(-1.0) == 0.0
        assert bump6(1.7) == 0.0
        assert bump6(0.5) == pytest.approx(0.75 ** 6)

    def test_mass_constant(self):
        est, err = scipy.integrate.quad(bump6, -1, 1)
        assert est == pytest.approx(BUMP6_MASS, abs=1e-12)
        assert BUMP6_MASS == pytest.approx(2048.0 / 3003.0, rel=1e-15)

    def test_normalized_has_unit_mass(self):
        est, _ = scipy.integrate.quad(bump6_normalized, -1, 1)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self):
        ts = np.linspace(-2, 2, 101)
        vals = bump6(ts)
        assert vals.shape == ts.shape
        assert np.all(vals >= 0)
        assert np.all(vals[np.abs(ts) >= 1] == 0)

    def test_edges_and_non_finite_inputs(self):
        bad = np.array([np.nan, np.inf, -np.inf, 1.0, -1.0, 1.0 + 2**-52, -1.5, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e300 squares to inf without a warning
            out = bump6(bad)
        assert np.all(out == 0.0) and not np.any(np.signbit(out))
        assert bump6(float("nan")) == 0.0
        assert bump6(1.0 - 2**-53) > 0.0
        assert bump6(-(1.0 - 2**-53)) > 0.0

    def test_scalar_input_gives_python_float(self):
        for t in (0.3, np.float64(0.3), np.array(0.3), 2.0):
            assert type(bump6(t)) is float
        assert bump6([0.3]).shape == (1,)

    def test_products_match_sixth_power(self):
        # c^2 * c^2 * c^2 rounds five times (2.5 eps relative) and the power
        # about half an ulp more; the largest gap measured is 2.96 eps.
        ts = np.linspace(-1.0, 1.0, 400_001)[1:-1]
        ref = (1.0 - ts * ts) ** 6
        assert np.all(np.abs(bump6(ts) - ref) <= 3.1 * np.finfo(float).eps * ref)

    def test_flat_to_fifth_order_at_edge(self):
        # All derivatives through order five vanish at the support edge, so
        # values just inside grow like the sixth power of the distance.
        for eps in (1e-1, 1e-2, 1e-3):
            inside = bump6(1.0 - eps)
            assert inside == pytest.approx((eps * (2 - eps)) ** 6, rel=1e-12)
            assert inside <= (2 * eps) ** 6
