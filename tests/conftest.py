import numpy as np
import pytest
from hypothesis import strategies as st

#: Edge texts tried on every flag: signs, extremes, subnormals and broken lists.
EDGE_TEXTS = ("0", "1", "-1", "2", "3", "-3", "0.5", "1e308", "-1e308", "1e-308", "5e-324",
              "1e-30", "1e30", "1e5", "", ",", "1,")
#: Integers at and past the int64 range, and 2^63 - 25, a prime too large to factor.
INT64_EDGES = (str(2**63 - 1), str(-(2**63)), str(2**63), str(10**21), str(2**63 - 25))


def listed(element, size):
    """Comma-joined lists of ``element`` texts, of size[0] to size[1] entries."""
    return st.lists(element, min_size=size[0], max_size=size[1]).map(",".join)


def flag_cases(values):
    """(flag, text) pairs: one flag of ``values``, with an edge text or an in-range one."""
    return st.sampled_from(sorted(values)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(EDGE_TEXTS) | values[flag]))


@pytest.fixture
def rng():
    """Deterministic generator so failures reproduce across runs."""
    return np.random.default_rng(np.random.Philox(20240817))


def haar_sample_level_one(rng, count):
    """Draw matrices uniformly, for the v^{-2} du dv dtheta measure, from
    the classical level-one domain crossed with a full angular turn.

    Proposals fall on the strip |u| <= 1/2, v >= sqrt(3)/2 with the exact
    target density in v (its normalized tail is 1/v up to a constant, so
    inverse transform sampling applies), then rejection keeps the points
    with |u + iv| >= 1.
    """
    import math

    from horolab.sl2core import IwasawaCoords, iwasawa_compose

    out = []
    while len(out) < count:
        u = rng.uniform(-0.5, 0.5)
        v = (math.sqrt(3.0) / 2.0) / (1.0 - rng.random())
        if u * u + v * v < 1.0:
            continue
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append(iwasawa_compose(IwasawaCoords(u, v, theta)))
    return out


def random_sl2(rng, scale=1.0):
    """Draw a well-conditioned unimodular matrix from a Gaussian ensemble.  At
    scale 1 it is the drivers' ensemble, ``cli._draw_matrix``; a scale only
    moves the rejection threshold on the determinant (and the rounding)."""
    from horolab.cli import _draw_matrix
    from horolab.sl2core import Sl2Matrix

    if scale == 1.0:
        return _draw_matrix(rng)
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


def reduce_fundamental_reference(m):
    """Step-by-step domain reduction, one Python step at a time.

    The reference for the masked loop of ``sl2core.reduce_stack``: the same
    tie rules, the same ``FUNDAMENTAL_TOL``, and an ``Sl2Matrix`` (so the
    determinant rule) after every step.  Returns (gamma, m_red).
    """
    import math

    from horolab.sl2core import FUNDAMENTAL_TOL, Sl2Matrix

    # Accumulate w = gamma^{-1} as exact integer entries alongside cur = w m.
    wa, wb, wc, wd = 1, 0, 0, 1
    cur = m
    for _ in range(4000):
        tau = cur.mobius(1j)
        re, norm = tau.real, abs(tau)
        if abs(re) <= 0.5 + FUNDAMENTAL_TOL and norm >= 1.0 - FUNDAMENTAL_TOL:
            if re > 0.5 - FUNDAMENTAL_TOL:
                n = 1  # right edge of the strip: prefer Re tau <= 0
            elif abs(norm - 1.0) <= FUNDAMENTAL_TOL and re > FUNDAMENTAL_TOL:
                n = 0  # unit-circle boundary with Re tau > 0: flip across
            else:
                break
        else:
            n = math.floor(re + 0.5)
        if n != 0:
            wa, wb = wa - n * wc, wb - n * wd
            cur = Sl2Matrix(cur.a - n * cur.c, cur.b - n * cur.d, cur.c, cur.d)
        else:
            wa, wb, wc, wd = -wc, -wd, wa, wb
            cur = Sl2Matrix(-cur.c, -cur.d, cur.a, cur.b)
    else:
        raise RuntimeError("fundamental-domain reduction did not terminate")
    return Sl2Matrix(float(wd), float(-wb), float(-wc), float(wa)), cur


def reduction_corpus(rng, count=24):
    """Matrices that exercise every branch of domain reduction.

    Haar samples from the level-one domain and their integer translates,
    points on the tie lines (Re tau = +-1/2, and |tau| = 1 with Re tau > 0)
    under a rotation, and orbit matrices m a_T out to T = 1e10.
    """
    import math

    from horolab.sl2core import Sl2Matrix

    haar = haar_sample_level_one(rng, count)
    out = list(haar)
    out += [random_integer_gamma(rng) @ m for m in haar[:8]]
    for theta in (0.0, 1.1, 4.0):
        rot = Sl2Matrix.rotation(theta)
        for v in (0.9, 1.5, 3.0):
            out += [Sl2Matrix.translation(x) @ Sl2Matrix.dilation(v) @ rot for x in (0.5, -0.5)]
        for phi in (5 * math.pi / 12, 0.45 * math.pi, math.pi / 3):
            out.append(Sl2Matrix.translation(math.cos(phi)) @ Sl2Matrix.dilation(math.sin(phi)) @ rot)
    out += [m @ Sl2Matrix.dilation(T) for m in haar[:8] for T in (4.0, 1e3, 1e6, 1e10)]
    return out
