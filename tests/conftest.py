import numpy as np
import pytest


@pytest.fixture
def rng():
    """Deterministic generator so failures reproduce across runs."""
    return np.random.default_rng(np.random.Philox(20240817))


def inverse_power_window(x):
    """A smooth even window (1 + x^2)^{-22} decaying far faster than cubically."""
    x = np.asarray(x, dtype=float)
    out = (1.0 + x * x) ** -22.0
    if out.ndim == 0:
        return float(out)
    return out


def random_sl2(rng, scale=1.0):
    """Draw a well-conditioned unimodular matrix from a Gaussian ensemble."""
    from horolab.sl2core import Sl2Matrix

    while True:
        a = rng.normal(size=(2, 2)) * scale
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) < 1e-3:
            continue
        if det < 0:
            a[:, [0, 1]] = a[:, [1, 0]]
            det = -det
        return Sl2Matrix.from_array(a / np.sqrt(det))


def random_integer_gamma(rng, size=6):
    """Random integer unimodular matrix built from elementary shears."""
    from horolab.sl2core import Sl2Matrix

    g = Sl2Matrix.identity()
    lower = Sl2Matrix.inversion()
    for _ in range(int(rng.integers(1, size + 1))):
        n = int(rng.integers(-5, 6))
        g = g @ Sl2Matrix.translation(n)
        if rng.random() < 0.5:
            g = g @ lower
    return g
