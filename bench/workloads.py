"""The four benchmark workloads: seeded inputs, timed operations, checks.

Every workload is a set of operations built from the seed alone.  A pass
runs them once, one at a time, in a fresh interpreter.  An operation
returns an :class:`Output`: the bytes that go into the pass digest and the
parsed values the checks read.  Checks run after the timed region and
compare the outputs with the package's own slow oracles (at any seed) and
with values recorded in ``reference.json`` (seed-independent values at any
seed, seeded values at the default seed).

Library functions are always looked up through their module at call time
(``majorant.majorant_full``, never a bare imported name), so the traced
run sees them through its wrappers.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from horolab import affine, cli, expsum, majorant, orbitlab
from horolab.affine import GroupElement
from horolab.autofns import PoincareTestFn
from horolab.majorant import MajorantParams
from horolab.sl2core import IwasawaCoords, Sl2Matrix, iwasawa_compose
from horolab.smoothfns import bump6

#: Seed of the repository's scripts and tests; seeded references hold here.
DEFAULT_SEED = 20240817
#: relative drift allowed against every recorded reference
REF_RTOL = 1e-9

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


class OperationFailed(RuntimeError):
    """An operation exited nonzero or produced a malformed table."""


@dataclass
class Output:
    blob: bytes
    data: object


@dataclass
class Check:
    op: int
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)


@dataclass
class Workload:
    """One named workload.

    ``ref_atol`` is the absolute drift allowed against recorded
    references, on top of ``REF_RTOL``.
    """

    name: str
    inputs: object
    operations: object
    checks: object
    fixed_reference: object = None
    seed_reference: object = None
    ref_atol: float = 0.0


def compare_reference(values, recorded, atol) -> list[Check]:
    """Checks of ``{key: (op, value)}`` against the recorded ``{key: value}``."""
    checks = []
    for key, (op, value) in values.items():
        if key not in recorded:
            checks.append(Check(op, f"reference:{key}", False, "no recorded value"))
            continue
        want = recorded[key]
        ok = abs(value - want) <= REF_RTOL * abs(want) + atol
        checks.append(Check(op, f"reference:{key}", ok, f"got={value!r} want={want!r}"))
    return checks


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    if stream == 0:
        return np.random.default_rng(np.random.Philox(seed))
    return np.random.default_rng([seed, stream])


def _floats_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_csv(path: str, columns: list[str]) -> tuple[bytes, list[list[float]]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = csv.reader(blob.decode("utf-8").splitlines())
    header = next(reader, None)
    if header != columns:
        raise OperationFailed(f"unexpected CSV header {header}")
    rows = [[float(x) for x in row] for row in reader]
    return blob, rows


def _run_cli(argv: list[str], path: str, columns: list[str]) -> Output:
    rc = cli.run(argv + ["--out", path])
    if rc != 0:
        raise OperationFailed(f"horolab {argv[0]} exited with code {rc}")
    blob, rows = _read_csv(path, columns)
    os.remove(path)
    return Output(blob, rows)


def _float_blob(values) -> bytes:
    return json.dumps([repr(float(v)) for v in values]).encode()


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _window(x):
    return bump6(np.asarray(x, dtype=float))


# ---------------------------------------------------------------- orbit_bound

ORBIT_TIMES = (1e2, 1e3, 1e4)
ORBIT_PASS_ELEMENTS = 12
#: A15's ensemble size; its median slope is the default-seed reference.
ORBIT_ENSEMBLE = 50
ORBIT_PARAMS = MajorantParams(1, 3.0, 10, 10)
THEOREM4_COLUMNS = ["T", "term0", "series", "tail"]
GAP_SAMPLES = 6
GAP_SCAN_RADIUS_CAP = 4000
GAP_SCAN_BLOCK = 256


def _draw_matrix(rng) -> Sl2Matrix:
    # Same Gaussian ensemble as scripts/run_orbit_decay.py and the A15 check.
    while True:
        a = rng.normal(size=(2, 2))
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) < 1e-3:
            continue
        if det < 0:
            a[:, [0, 1]] = a[:, [1, 0]]
            det = -det
        return Sl2Matrix.from_array(a / np.sqrt(det))


def _orbit_inputs(seed):
    rng = _rng(seed)
    ensemble = []
    for _ in range(ORBIT_ENSEMBLE):
        m = _draw_matrix(rng)
        ensemble.append((m, rng.uniform(0.0, 1.0, (1, 2))))
    picks = _rng(seed, 1)
    samples = []
    for _ in range(GAP_SAMPLES):
        op = int(picks.integers(0, ORBIT_PASS_ELEMENTS))
        T = ORBIT_TIMES[int(picks.integers(0, len(ORBIT_TIMES)))]
        q = int(picks.integers(-ORBIT_PARAMS.q_max, ORBIT_PARAMS.q_max + 1))
        d = int(picks.integers(1, ORBIT_PARAMS.d_max + 1))
        samples.append((op, T, q * d))
    return {"ensemble": ensemble, "gap_samples": samples}


def _orbit_operations(inp, workdir):
    ops = []
    for i, (m, xi) in enumerate(inp["ensemble"][:ORBIT_PASS_ELEMENTS]):
        argv = [
            "theorem4",
            f"--matrix={_floats_arg((m.a, m.b, m.c, m.d))}",
            f"--xi={_floats_arg(xi.ravel())}",
            "--m=3",
            "--qmax=10",
            "--dmax=10",
            f"--T={_floats_arg(ORBIT_TIMES)}",
        ]
        path = os.path.join(workdir, f"theorem4-{i}.csv")
        ops.append((f"theorem4[{i}]", lambda argv=argv, path=path: _run_cli(argv, path, THEOREM4_COLUMNS)))
    return ops


def gap_by_scan(element: GroupElement, q: int, T: float) -> tuple[float, float]:
    """grid_gap's value next to an exhaustive scan of the projected grid.

    This is the A11 oracle, with the scan box centred on the lattice point
    nearest the origin and grown until it holds every point whose
    rectangle value could reach the claimed minimum.
    """
    claimed = affine.grid_gap(element, [q], T).value
    grid = affine.grid_of(element, [q])
    basis, offset = grid.basis, grid.offset
    inv = np.linalg.inv(basis)
    centre = np.round(-offset @ inv).astype(np.int64)
    reach = claimed * math.sqrt(1.0 + 1.0 / (T * T))
    radius = int(math.ceil(np.linalg.norm(inv, 2) * reach)) + 1
    if radius > GAP_SCAN_RADIUS_CAP:
        return claimed, math.nan
    ns = centre[1] + np.arange(-radius, radius + 1)
    best = math.inf
    for m0 in range(centre[0] - radius, centre[0] + radius + 1, GAP_SCAN_BLOCK):
        ms = np.arange(m0, min(m0 + GAP_SCAN_BLOCK, centre[0] + radius + 1))
        m_grid, n_grid = np.meshgrid(ms, ns, indexing="ij")
        # Same operation order as affine._point_value, so the two agree bitwise.
        x1 = m_grid * basis[0, 0] + n_grid * basis[1, 0] + offset[0]
        x2 = m_grid * basis[0, 1] + n_grid * basis[1, 1] + offset[1]
        vals = np.maximum(T * np.abs(x1), np.abs(x2))
        if q == 0:
            vals[(m_grid == 0) & (n_grid == 0)] = np.inf
        best = min(best, float(vals.min()))
    return claimed, best


def _orbit_checks(inp, outs):
    checks = []
    for i, out in enumerate(outs):
        rows = out.data
        ok = [r[0] for r in rows] == list(ORBIT_TIMES) and all(
            math.isfinite(v) and v > 0.0 for r in rows for v in r[1:]
        )
        checks.append(Check(i, "theorem4-table", ok, f"{len(rows)} rows"))
    element = GroupElement.from_torus_point(*inp["ensemble"][0])
    direct = [majorant.orbit_gap_bound(element, T, ORBIT_PARAMS) for T in ORBIT_TIMES]
    same = all(
        (b.term0, b.series, b.tail_bound) == tuple(r[1:]) for b, r in zip(direct, outs[0].data)
    )
    checks.append(Check(0, "cli-matches-library", same))
    for op, T, q in inp["gap_samples"]:
        claimed, scanned = gap_by_scan(GroupElement.from_torus_point(*inp["ensemble"][op]), q, T)
        checks.append(
            Check(op, "grid-gap-exhaustive-scan", claimed == scanned,
                  f"q={q} T={T:g} gap={float(claimed)!r} scan={scanned!r}")
        )
    return checks


def _orbit_seed_reference(inp, outs):
    ref = {}
    slopes = []
    for i, out in enumerate(outs):
        totals = [r[1] + r[2] for r in out.data]
        slopes.append(_slope(ORBIT_TIMES, totals))
        for r in out.data:
            ref[f"op{i}.T{r[0]:g}.term0"] = (i, r[1])
            ref[f"op{i}.T{r[0]:g}.series"] = (i, r[2])
    # The A15 ensemble: the remaining elements go straight to the library.
    for m, xi in inp["ensemble"][len(outs):]:
        element = GroupElement.from_torus_point(m, xi)
        totals = [majorant.orbit_gap_bound(element, T, ORBIT_PARAMS).total for T in ORBIT_TIMES]
        slopes.append(_slope(ORBIT_TIMES, totals))
    ref["median_slope_50"] = (0, float(np.median(slopes)))
    return ref


# --------------------------------------------------------- coset_cancellation

COSET_SCALES = (25.0, 50.0, 100.0, 200.0)
COSET_SPEC = expsum.CosetSpec.principal(1)
COSET_WEIGHT = expsum.WeightFn(1.0)
#: Matrices of SL(2, Z) with Frobenius norm at most 400 (X = 200, B = 1).
BALL_SIZE_R400 = 959_348


def _coset_inputs(seed):
    alpha = _rng(seed).uniform(0.05, 0.45, 4)
    return {"alpha": alpha}


def _report_output(rows) -> Output:
    flat = []
    for r in rows:
        flat.extend((r.X, r.lhs.real, r.lhs.imag, r.rhs))
    return Output(_float_blob(flat), rows)


def _coset_operations(inp, workdir):
    def report(alpha):
        return _report_output(expsum.cancellation_report(COSET_SPEC, COSET_WEIGHT, alpha, COSET_SCALES))

    return [
        ("cancellation_report[twisted]", lambda: report(inp["alpha"])),
        ("cancellation_report[untwisted]", lambda: report(np.zeros(4))),
    ]


def coset_box_sum(X: float, alpha) -> complex:
    """The weighted twisted count by brute force over the box of side 2X.

    Independent of the coset-ball enumeration: every (a, b, c) in the box
    is completed to a determinant-one matrix by solving for d.
    """
    n = int(math.floor(COSET_WEIGHT.B * X))
    r = np.arange(-n, n + 1, dtype=np.int64)
    a, b, c = (g.ravel() for g in np.meshgrid(r, r, r, indexing="ij"))
    num = 1 + b * c
    nz = a != 0
    a_nz, num_nz = a[nz], num[nz]
    ok = num_nz % a_nz == 0
    d = num_nz[ok] // a_nz[ok]
    keep = np.abs(d) <= n
    mats = [np.stack([a_nz[ok][keep], b[nz][ok][keep], c[nz][ok][keep], d[keep]], axis=1)]
    for sb in (1, -1):
        mats.append(np.stack([np.zeros_like(r), np.full_like(r, sb), np.full_like(r, -sb), r], axis=1))
    flat = np.concatenate(mats).astype(float)
    vals = COSET_WEIGHT(flat / X) * np.exp(2j * np.pi * (flat @ np.asarray(alpha, dtype=float)))
    return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


def _divisors(n: int) -> int:
    return sum(2 if j * j != n else 1 for j in range(1, math.isqrt(n) + 1) if n % j == 0)


def rhs_by_trial_division(X: float, alpha) -> float:
    """expsum_rhs with the divisor sieve replaced by trial division."""
    alpha = np.asarray(alpha, dtype=float)
    terms = []
    for q in range(1, int(math.floor(X)) + 1):
        frac = q * alpha - np.round(q * alpha)
        dist = math.sqrt(float(frac @ frac))
        terms.append(_divisors(q) * q ** -1.5 / (1.0 + X * dist / q))
    return X * X * math.fsum(terms)


def _coset_checks(inp, outs):
    twisted, flat = outs[0].data, outs[1].data
    checks = []
    ball = len(expsum.enumerate_coset_ball(COSET_SPEC, 2.0 * COSET_WEIGHT.B * COSET_SCALES[-1]))
    checks.append(Check(0, "ball-size-r400", ball == BALL_SIZE_R400, f"{ball}"))
    for t, f in zip(twisted, flat):
        checks.append(Check(0, f"triangle-bound-X{t.X:g}", abs(t.lhs) <= abs(f.lhs) * (1.0 + 1e-12)))
    for op, alpha, rows in ((0, inp["alpha"], twisted), (1, np.zeros(4), flat)):
        brute = coset_box_sum(COSET_SCALES[0], alpha)
        err = abs(brute - rows[0].lhs)
        checks.append(Check(op, "box-enumeration-oracle", err <= 1e-9 * abs(flat[0].lhs), f"err={err:.3e}"))
        for r in rows:
            slow = rhs_by_trial_division(r.X, alpha)
            checks.append(
                Check(op, f"rhs-trial-division-X{r.X:g}", abs(slow - r.rhs) <= 1e-12 * slow)
            )
    return checks


def _coset_fixed_reference(outs):
    flat = outs[1].data
    ref = {f"untwisted.X{r.X:g}.lhs": (1, r.lhs.real) for r in flat}
    ref["untwisted_exponent"] = (1, _slope(COSET_SCALES, [abs(r.lhs) for r in flat]))
    return ref


def _coset_seed_reference(inp, outs):
    ref = {}
    for r in outs[0].data:
        ref[f"twisted.X{r.X:g}.lhs_re"] = (0, r.lhs.real)
        ref[f"twisted.X{r.X:g}.lhs_im"] = (0, r.lhs.imag)
        ref[f"twisted.X{r.X:g}.rhs"] = (0, r.rhs)
    return ref


# ------------------------------------------------------------ majorant_batch

BATCH_ROWS = 10**4
BATCH_YS = (1e-2, 1e-4, 1e-6)
BATCH_PARAMS = MajorantParams(1, 3.0, 20, None)
BATCH_SAMPLES = 8
SWEEP_YS = tuple(float(y) for y in np.logspace(-1.0, -6.0, 11))
#: The named torus points of scripts/run_delta_sweep.py.
SWEEP_POINTS = {
    "origin": np.zeros((1, 2)),
    "golden": np.array([[GOLD, (3.0 - math.sqrt(5.0)) / 2.0]]),
    "quadratic": np.array([[math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]]),
    "rational": np.array([[0.25, 0.4]]),
}
#: A06's column scan.
COLUMN_PARAMS = MajorantParams(2, 5.0, 20, None)
COLUMN_PSI = (math.sqrt(2.0), math.sqrt(3.0))
COLUMN_YS = tuple(10.0 ** (-e) for e in range(2, 9))


def _majorant_inputs(seed):
    psis = _rng(seed).uniform(0.0, 1.0, (BATCH_ROWS, 1))
    picks = _rng(seed, 1).integers(0, BATCH_ROWS, (len(BATCH_YS), BATCH_SAMPLES))
    return {"psis": psis, "samples": picks}


def _majorant_operations(inp, workdir):
    def batch(y):
        vals = majorant.majorant_column_many(BATCH_PARAMS, inp["psis"], y)
        return Output(vals.tobytes(), vals)

    def sweep(xi):
        outs = [majorant.majorant_full(BATCH_PARAMS, xi, y) for y in SWEEP_YS]
        flat = [v for o in outs for v in (o.value, o.tail_bound)]
        return Output(_float_blob(flat), outs)

    def column_scan():
        outs = [majorant.majorant_column(COLUMN_PARAMS, COLUMN_PSI, y) for y in COLUMN_YS]
        flat = [v for o in outs for v in (o.value, o.tail_bound)]
        return Output(_float_blob(flat), outs)

    ops = [(f"majorant_column_many[y={y:g}]", lambda y=y: batch(y)) for y in BATCH_YS]
    ops += [(f"majorant_full[{name}]", lambda xi=xi: sweep(xi)) for name, xi in SWEEP_POINTS.items()]
    ops.append(("majorant_column[A06]", column_scan))
    return ops


def _majorant_checks(inp, outs):
    checks = []
    for op, (y, rows) in enumerate(zip(BATCH_YS, inp["samples"])):
        vals = outs[op].data
        checks.append(Check(op, "batch-finite", bool(np.all(np.isfinite(vals)) and np.all(vals > 0.0))))
        for row in rows:
            single = majorant.majorant_column(BATCH_PARAMS, inp["psis"][row], y).value
            err = abs(single - vals[row])
            checks.append(Check(op, "batch-row-vs-majorant_column", err <= 1e-10 * single,
                                f"y={y:g} row={row} rel={err / single:.2e}"))
    for op in range(len(BATCH_YS), len(outs)):
        ok = all(math.isfinite(o.value) and 0.0 < o.value and 0.0 < o.tail_bound for o in outs[op].data)
        checks.append(Check(op, "bracket-finite", ok))
    return checks


def _majorant_fixed_reference(outs):
    ref = {}
    first = len(BATCH_YS)
    for (name, _), out in zip(SWEEP_POINTS.items(), outs[first:first + len(SWEEP_POINTS)]):
        for y, o in zip(SWEEP_YS, out.data):
            ref[f"sweep.{name}.y{y:.3g}"] = (first, o.value)
        first += 1
    col = outs[-1].data
    for y, o in zip(COLUMN_YS, col):
        ref[f"a06.y{y:g}"] = (len(outs) - 1, o.value)
    ref["a06_slope"] = (len(outs) - 1, _slope(COLUMN_YS, [o.value for o in col]))
    return ref


def _majorant_seed_reference(inp, outs):
    return {f"batch_mean.y{y:g}": (i, float(np.mean(outs[i].data))) for i, y in enumerate(BATCH_YS)}


# ----------------------------------------------------------- horocycle_routes

MAIN_YS = (1e-1, 1e-2, 1e-3, 1e-4)
EQUIDIST_YS = (1e-2, 1e-3)
EQUIDIST_PARAMS = MajorantParams(1, 3.0, 20, None)
ORBIT_CLI_TIMES = (4.0, 8.0)
ORBIT_CLI_COLUMNS = ["T", "avg_re", "avg_im", "limit", "error"]
#: Pointwise against lattice quadrature of the same integral (verify's bound).
ROUTE_TOL = 1e-6
#: A12's agreement bound between the split and the direct orbit average.
SPLIT_TOL = 1e-4


def _bounded_point(rng) -> tuple[Sl2Matrix, np.ndarray]:
    # Near the maximal compact, so the pointwise route's coset balls (and
    # its run time) vary little from seed to seed.
    coords = IwasawaCoords(
        float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 1.25)), float(rng.uniform(0.0, 2.0 * math.pi))
    )
    return iwasawa_compose(coords), rng.uniform(0.0, 1.0, (1, 2))


def _cusp_base(height, T, slide, angle) -> Sl2Matrix:
    w = Sl2Matrix.translation(slide) @ Sl2Matrix.dilation(height) @ Sl2Matrix.rotation(angle)
    return w @ Sl2Matrix.dilation(1.0 / T)


# The route costs depend on the matrices, not on the torus points, so the
# matrices below are fixed and the seed draws torus points.  A09's element
# for the main term, A10's for the twisted error, A12's first case (an
# orbit of length 20 through a point of height 150) for the split route.
MAIN_MATRIX = Sl2Matrix(2.0, 1.0, 1.0, 1.0)
SPLIT_T = 20.0
SPLIT_MATRIX = _cusp_base(150.0, SPLIT_T, 0.2, 0.0)


def _horocycle_inputs(seed):
    rng = _rng(seed)

    def torus():
        return rng.uniform(0.0, 1.0, (1, 2))

    return {
        "main": GroupElement.from_torus_point(MAIN_MATRIX, torus()),
        "twisted": GroupElement.from_torus_point(Sl2Matrix.identity(), torus()),
        "split": GroupElement.from_torus_point(SPLIT_MATRIX, torus()),
        "orbit": _bounded_point(rng),
    }


UNTWISTED = PoincareTestFn(level=1, freq=((0, 0),))
TWISTED = PoincareTestFn(level=1, freq=((1, 0),))


def _horocycle_operations(inp, workdir):
    def main_term():
        exp = orbitlab.OrbitExperiment(UNTWISTED, inp["main"], MAIN_YS, _window)
        rows = orbitlab.horocycle_main_term(exp)
        return Output(_float_blob([v for r in rows for v in (r.average, r.limit, r.error)]), rows)

    def equidist():
        res = [orbitlab.equidist_error(TWISTED, inp["twisted"], y, _window, EQUIDIST_PARAMS) for y in EQUIDIST_YS]
        flat = [v for r in res for v in (r.average.real, r.average.imag, r.error, r.bound)]
        return Output(_float_blob(flat), res)

    def split():
        direct = orbitlab.long_orbit_average(TWISTED, inp["split"], SPLIT_T, _window)
        via = orbitlab.split_orbit_average(TWISTED, inp["split"], SPLIT_T, _window)
        return Output(_float_blob([direct.real, direct.imag, via.real, via.imag]), (direct, via))

    m, xi = inp["orbit"]
    argv = [
        "orbit",
        f"--matrix={_floats_arg((m.a, m.b, m.c, m.d))}",
        f"--xi={_floats_arg(xi.ravel())}",
        "--freq=1,0",
        "--route=pointwise",
        f"--T={_floats_arg(ORBIT_CLI_TIMES)}",
    ]
    path = os.path.join(workdir, "orbit.csv")
    return [
        ("horocycle_main_term", main_term),
        ("equidist_error", equidist),
        ("split_orbit_average", split),
        ("orbit[pointwise]", lambda: _run_cli(argv, path, ORBIT_CLI_COLUMNS)),
    ]


def _horocycle_checks(inp, outs):
    checks = []
    rows = outs[0].data
    ok = all(
        math.isfinite(r.average) and abs(abs(r.average - r.limit) - r.error) <= 1e-12 * max(1.0, r.error)
        for r in rows
    )
    checks.append(Check(0, "main-term-rows", ok))
    slow = orbitlab.translate_integral(UNTWISTED, inp["main"], MAIN_YS[0], _window)
    err = abs(slow - rows[0].average)
    checks.append(Check(0, "lattice-vs-translate_integral", err < ROUTE_TOL, f"err={err:.2e}"))

    res = outs[1].data
    checks.append(Check(1, "equidist-finite", all(math.isfinite(r.error) and r.bound > 0.0 for r in res)))
    element = inp["twisted"]
    fast = orbitlab.lattice_window_average(TWISTED, element, 0.5, _window, (-1.0, 1.0))
    slow = orbitlab.translate_integral(TWISTED, element, 0.5, _window)
    checks.append(Check(1, "lattice-vs-translate_integral", abs(fast - slow) < ROUTE_TOL,
                        f"err={abs(fast - slow):.2e}"))

    direct, via = outs[2].data
    checks.append(Check(2, "split-vs-long", abs(direct - via) <= SPLIT_TOL, f"diff={abs(direct - via):.2e}"))

    op = 3
    cli_rows = outs[op].data
    element = GroupElement.from_torus_point(*inp["orbit"])
    ok = [r[0] for r in cli_rows] == list(ORBIT_CLI_TIMES)
    for r in cli_rows:
        lattice = orbitlab.long_orbit_average(TWISTED, element, r[0], _window)
        ok = ok and abs(complex(r[1], r[2]) - lattice) < ROUTE_TOL
    checks.append(Check(op, "pointwise-vs-lattice-route", ok))
    return checks


def _horocycle_seed_reference(inp, outs):
    ref = {}
    for r in outs[0].data:
        ref[f"main.y{r.y:g}.average"] = (0, r.average)
    for y, r in zip(EQUIDIST_YS, outs[1].data):
        ref[f"equidist.y{y:g}.average_re"] = (1, r.average.real)
        ref[f"equidist.y{y:g}.bound"] = (1, r.bound)
    direct, via = outs[2].data
    ref["split.direct_re"] = (2, direct.real)
    ref["split.via_re"] = (2, via.real)
    for r in outs[3].data:
        ref[f"orbit.T{r[0]:g}.avg_re"] = (3, r[1])
    return ref


WORKLOADS = {
    w.name: w
    for w in (
        Workload("orbit_bound", _orbit_inputs, _orbit_operations, _orbit_checks,
                 seed_reference=_orbit_seed_reference),
        Workload("coset_cancellation", _coset_inputs, _coset_operations, _coset_checks,
                 fixed_reference=_coset_fixed_reference, seed_reference=_coset_seed_reference,
                 ref_atol=1e-6),
        Workload("majorant_batch", _majorant_inputs, _majorant_operations, _majorant_checks,
                 fixed_reference=_majorant_fixed_reference, seed_reference=_majorant_seed_reference),
        Workload("horocycle_routes", _horocycle_inputs, _horocycle_operations, _horocycle_checks,
                 seed_reference=_horocycle_seed_reference, ref_atol=1e-12),
    )
}
