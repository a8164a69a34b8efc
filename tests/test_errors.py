"""The one resource guard and the one integer check: every cap of the package
is checked by ``errors.guard``, and every integer vector a caller passes in is
read by ``errors.integers``."""

import math
import pathlib
import re
from dataclasses import astuple

import numpy as np
import pytest

import horolab
from horolab import arith, autofns, expsum, majorant, orbitlab
from horolab.affine import GroupElement, grid_gap, grid_gap_many, grid_of
from horolab.arith import CosetSpec
from horolab.autofns import PoincareTestFn, evaluate_f, fourier_coefficient, fourier_coefficient_exact
from horolab.errors import DomainError, ResourceGuardError, guard
from horolab.majorant import MajorantParams
from horolab.sl2core import Sl2Matrix
from horolab.smoothfns import bump6

XI = np.array([[0.618, 0.382]])
FN = PoincareTestFn(level=1, freq=((1, 0),))
ELEMENT = GroupElement.from_torus_point(Sl2Matrix.identity(), XI)
SMALL = MajorantParams(1, 3.0, 2, 3)  # 4 q vectors, 2 in the half set, d_max = 3

# (module, cap, a small request, its work under that cap, the guard's noun).
CAPS = [
    (arith, "SIEVE_CAP", lambda: arith.divisor_counts(100), 100, "sieve entries"),
    (arith, "KLOOSTERMAN_Q_CAP", lambda: arith.kloosterman(1, 1, 7), 7, "Kloosterman residues"),
    # (q N)^4 q = 2^4 2
    (arith, "BRUTE_FORCE_LIMIT",
     lambda: arith.quad_expsum_bruteforce(2, CosetSpec.principal(1), (0, 0, 0, 0)), 32,
     "brute-force character evaluations"),
    # g^4 (q + 600) with g = 1
    (arith, "QUADSUM_WORK_CAP",
     lambda: arith.quad_expsum_closed(2, CosetSpec.principal(1), (0, 0, 0, 0)), 602,
     "closed-form work units"),
    # the identity's ball radius 3 sqrt(2) rounded up to a quarter (4.25), squared
    (autofns, "BALL_RADIUS_SQ_GUARD", lambda: evaluate_f(FN, Sl2Matrix.identity(), XI), 18.0625,
     "squared ball-radius units"),
    (expsum, "BALL_RADIUS_CAP", lambda: expsum.enumerate_coset_ball(CosetSpec.principal(1), 3.0),
     3.0, "ball-radius units"),
    # (2 q_max + 1)^k
    (majorant, "Q_GRID_CAP", lambda: majorant._q_vectors(1, 2), 5, "q-grid points"),
    # 1 row x 2 half-set vectors x d_max 3 x 2 columns
    (majorant, "SERIES_WORK_CAP", lambda: majorant.majorant_full(SMALL, XI, 0.25), 12,
     "series work units"),
    # d_max (2 + 450)
    (majorant, "LFD_WORK_CAP", lambda: majorant.lfd_test([0.3], 2.0, 1.5, 0.1, 2, 3), 1356,
     "Diophantine scan work units"),
    # 4 q vectors x d_max 3
    (majorant, "ORBIT_GAP_WORK_CAP", lambda: majorant.orbit_gap_bound(ELEMENT, 4.0, SMALL), 12,
     "gap offsets"),
    # The largest of its stage counts (17 columns, 153 bottom-row candidates).
    (orbitlab, "CANDIDATE_CAP",
     lambda: orbitlab.lattice_window_average(FN, ELEMENT, 0.5, bump6, (-1.0, 1.0)), 196,
     "translate candidates"),
    (orbitlab, "POINTWISE_PANEL_CAP",
     lambda: orbitlab.long_orbit_average(FN, ELEMENT, 1.0, bump6, route="pointwise"), 48,
     "pointwise panels"),
]


def _fresh():
    # Cached results would answer without reaching the guard.
    for cached in (majorant._q_vectors, majorant._weights, autofns._series_data):
        cached.cache_clear()


@pytest.mark.parametrize("module, cap, call, work, what", CAPS, ids=[c[1] for c in CAPS])
def test_each_cap_trips_one_below_its_work(monkeypatch, module, cap, call, work, what):
    monkeypatch.setattr(arith, "_sieve_table", None)
    monkeypatch.setattr(module, cap, work)
    _fresh()
    call()
    monkeypatch.setattr(module, cap, work - 1)
    _fresh()
    message = f"{work:g} {what} exceed the cap {work - 1:g}"
    with pytest.raises(ResourceGuardError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("work", [math.nan, math.inf])
def test_non_finite_work_is_refused(work):
    with pytest.raises(ResourceGuardError, match=f"^{work} units exceed the cap 10$"):
        guard(work, 10, "units")


def test_integral_values_print_as_integers():
    guard(10, 10, "units")
    with pytest.raises(ResourceGuardError, match="^17 units exceed the cap 16$"):
        guard(np.float64(17.0), 16.0, "units")
    with pytest.raises(ResourceGuardError, match=f"^{10**30} units exceed the cap 10$"):
        guard(10**30, 10, "units")
    with pytest.raises(ResourceGuardError, match=r"^1\.5e\+300 units exceed the cap 2\.5$"):
        guard(1.5e300, 2.5, "units")


def test_stack_form_trips_the_ball_radius_guard(monkeypatch):
    # A point above the kernel support has an empty sum and is never
    # guarded; the identity's squared ball radius is 18.0625, as above.
    stack = np.stack([Sl2Matrix.dilation(100.0).as_array(), Sl2Matrix.identity().as_array()])
    monkeypatch.setattr(autofns, "BALL_RADIUS_SQ_GUARD", 18.0625)
    evaluate_f(FN, stack, XI)
    monkeypatch.setattr(autofns, "BALL_RADIUS_SQ_GUARD", 17.0625)
    message = "18.0625 squared ball-radius units exceed the cap 17.0625"
    with pytest.raises(ResourceGuardError, match=f"^{re.escape(message)}$"):
        evaluate_f(FN, stack, XI)


# Each entry point that takes an integer vector, called with the vector v: a
# projection vector q for the k = 1 element, or one frequency row for FN.
INTEGER_ENTRY_POINTS = {
    "grid_gap": lambda v: astuple(grid_gap(ELEMENT, v[:1], 10.0)),
    "grid_gap_many": lambda v: grid_gap_many(ELEMENT, np.asarray(v[:1])[None], 10.0),
    "project": lambda v: ELEMENT.project(v[:1]).translation,
    "grid_of": lambda v: grid_of(ELEMENT, v[:1]).offset,
    "PoincareTestFn": lambda v: PoincareTestFn(level=1, freq=(tuple(v),)).freq,
    "fourier_coefficient": lambda v: fourier_coefficient(FN, Sl2Matrix.identity(), np.asarray(v)[None]),
    "fourier_coefficient_exact":
        lambda v: fourier_coefficient_exact(FN, Sl2Matrix.identity(), np.asarray(v)[None]),
}
# 2**63 is one past the int64 range; the object array holds a Python int past 64 bits.
NOT_INT64 = [1000000.5, math.nan, math.inf, 1e20, 2**63, "object"]


@pytest.mark.parametrize("bad", NOT_INT64, ids=str)
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_every_integer_entry_point_refuses_what_is_not_int64(entry, bad):
    v = np.array([2**64 + 1, 0], dtype=object) if bad == "object" else [bad, 0]
    with pytest.raises(DomainError):
        INTEGER_ENTRY_POINTS[entry](v)


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_an_integral_float_is_its_integer(entry):
    got, want = INTEGER_ENTRY_POINTS[entry]([2.0, 0.0]), INTEGER_ENTRY_POINTS[entry]([2, 0])
    parts = (lambda x: x if isinstance(x, tuple) else (x,))
    assert all(np.array_equal(g, w) for g, w in zip(parts(got), parts(want), strict=True))
    if entry == "PoincareTestFn":
        assert all(type(x) is int for row in got for x in row)


def test_empty_offset_arrays_keep_their_shape():
    two = GroupElement.from_torus_point(Sl2Matrix.identity(), np.array([[0.3, 0.7], [0.1, 0.2]]))
    for empty in (np.zeros((0, 2)), np.zeros((0, 2), dtype=int), np.empty((0, 2), dtype=object)):
        values, witnesses = grid_gap_many(two, empty, 10.0)
        assert values.shape == (0,) and witnesses.shape == (0, 2)
        values, witnesses = grid_gap_many(two, empty, [10.0, 100.0])
        assert values.shape == (2, 0) and witnesses.shape == (2, 0, 2)


def test_each_rule_is_written_once():
    """``affine`` solves its 2 x 2 systems by its one Cramer formula, not by
    LAPACK, and no module but ``errors`` tests integrality by hand."""
    package = pathlib.Path(horolab.__file__).resolve().parent
    assert "linalg" not in (package / "affine.py").read_text()
    by_hand = re.compile(r"allclose\([^)]*round|array_equal\([^)]*round|==\s*np\.round\(")
    found = [f"{path.name}:{i}" for path in sorted(package.glob("*.py")) if path.name != "errors.py"
             for i, line in enumerate(path.read_text().splitlines(), 1) if by_hand.search(line)]
    assert found == []
