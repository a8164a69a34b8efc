"""Command line driver: one subcommand per experiment family.

Each run parses flags (optionally seeded from a ``key = value`` config
file), validates every parameter by constructing the domain objects up
front, then evaluates a table of rows and emits it as CSV or JSON.  Rows
are pure functions of the run configuration, so identical invocations
produce byte-identical files.

Every subcommand is one entry of ``_COMMANDS``: its one-line description,
its CSV columns, its flags as ``(default text, converter)`` pairs, its
planner and an optional report.  A planner validates the converted flags
and returns its rows.  Usage and ``--help`` text are built from the
description and the columns, so they name exactly the header the command
writes.  A command with a report (``delta-sweep``, ``cancellation`` and
``orbit-decay``, the tables of the ``scripts/`` drivers, which are shims
over them) prints the report and writes its table only to ``--out``, so it
refuses ``--format json`` without ``--out``.

Every table goes through one front end: the :class:`Parser`, the ``_flag``
converters, :func:`_render` and the ``--out`` rule of :func:`_out_file`.
The exit codes are 0 success, 2 validation failure (unknown flags,
unreadable or non-finite flag text, an ``--out`` path that cannot be
written), 3 numerical non-convergence, 4 resource guard tripped.  Each
refusal is one ``horolab: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .affine import GroupElement, grid_gap
from .arith import (
    CosetSpec, kloosterman, kloosterman_weil_bound, quad_expsum_bruteforce, quad_expsum_closed,
    quadsum_weil_bound,
)
from .autofns import PoincareTestFn, evaluate_f
from .errors import ConvergenceError, DomainError, ResourceGuardError, guard
from .expsum import WeightFn, cancellation_report, expsum_rhs, weighted_expsum_lhs
from .majorant import (
    SERIES_WORK_CAP, MajorantParams, lfd_test, majorant_full, orbit_gap_bounds,
)
from .orbitlab import (
    horocycle_main_term, lattice_window_average, long_orbit_average, orbit_split,
    OrbitExperiment, partition_identity, translate_integral, window_limit,
)
from .sl2core import (
    IwasawaCoords, Sl2Matrix, iwasawa_compose, iwasawa_decompose, reduce_fundamental,
)
from .smoothfns import bump6, bump6_normalized


def _number(text: str) -> float:
    """``float``, refusing NaN and inf with the same ValueError as bad text."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _natural(text: str) -> int:
    """``int``, refusing negative values with the same ValueError as bad text."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _flag(expected: str, parse: Callable[[str], object]) -> Callable[[str], object]:
    """A flag's argparse ``type``: ``parse`` the text, or refuse it naming what was expected."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from exc

    return convert


def _one_of(*names: str) -> Callable[[str], str]:
    """A converter taking exactly one of ``names`` (``index`` raises ValueError)."""
    return _flag(" or ".join(names), lambda text: names[names.index(text)])


_int = _flag("an integer", int)
_float = _flag("a number", _number)
_ints = _flag("comma-separated integers", lambda text: tuple(map(int, text.split(","))))
_floats = _flag("comma-separated numbers", lambda text: tuple(map(_number, text.split(","))))
_maybe_int = _flag("an integer", lambda text: None if text == "auto" else int(text))
#: Generator keys: numpy's seed sequences take non-negative integers only.
_seed = _flag("a non-negative integer", _natural)
_format = _one_of("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed and converted invocation."""

    command: str
    params: tuple[tuple[str, object], ...]
    seed: int
    out: str | None
    fmt: str


def _torus_point(xi: Sequence[float]) -> np.ndarray:
    """The k x 2 torus point, read mod 1.  Every command depends on it only mod 1:
    f and the majorant are periodic in it, and an integer shift moves the gap
    statistic's grid by a lattice vector."""
    xi = np.asarray(xi, dtype=float).reshape(-1, 2)
    return xi - np.floor(xi)


def _as_element(matrix: Sequence[float], xi: Sequence[float]) -> GroupElement:
    if len(matrix) != 4:
        raise DomainError("matrix needs exactly four entries a,b,c,d")
    if len(xi) == 0 or len(xi) % 2:
        raise DomainError("xi needs an even, positive number of entries")
    return GroupElement.from_torus_point(Sl2Matrix(*matrix), _torus_point(xi))


def _plan_delta(p):
    params = MajorantParams(p["k"], p["m"], p["qmax"], p["dmax"])
    if len(p["xi"]) != 2 * p["k"]:
        raise DomainError(f"xi needs {2 * p['k']} entries for k={p['k']}")
    xi = _torus_point(p["xi"])

    def row(y):
        out = majorant_full(params, xi, y)
        return (y, out.value, out.tail_bound, p["qmax"], params.effective_d_max(y))

    return [row(y) for y in p["y"]]


def _plan_lfd(p):
    witness = lfd_test(p["psi"], p["kappa"], p["alpha"], p["c"], p["qmax"], p["dmax"])
    if witness is None:
        return [(1, 0, "")]
    return [(0, witness.d, ";".join(str(v) for v in witness.q))]


def _plan_sgq(p):
    element = _as_element(p["matrix"], p["xi"])
    if len(p["q"]) != element.k:
        raise DomainError(f"q needs {element.k} entries to match xi")

    def row(T):
        gap = grid_gap(element, list(p["q"]), T)
        return (T, gap.value, gap.witness[0], gap.witness[1])

    return [row(T) for T in p["T"]]


def _plan_expsum(p):
    spec = CosetSpec(p["N"], tuple(p["rep"]))
    weight = WeightFn(p["B"])
    if len(p["alpha"]) != 4:
        raise DomainError("alpha needs exactly four entries")

    def row(X):
        lhs = weighted_expsum_lhs(spec, weight, X, p["alpha"])
        rhs = expsum_rhs(X, p["alpha"])
        return (X, lhs.real, lhs.imag, rhs, abs(lhs) / rhs)

    return [row(X) for X in p["X"]]


def _plan_kloosterman(p):
    def row(q):
        value = kloosterman(p["m"], p["n"], q)
        bound = kloosterman_weil_bound(p["m"], p["n"], q)
        return (q, value, bound, abs(value) / bound)

    return [row(q) for q in p["q"]]


def _plan_quadsum(p):
    spec = CosetSpec(p["N"], tuple(p["rep"]))
    if len(p["v"]) != 4:
        raise DomainError("twist v needs exactly four entries")

    def row(q):
        value = quad_expsum_closed(q, spec, p["v"])
        bound = quadsum_weil_bound(q, p["N"])
        return (q, value.real, value.imag, bound, abs(value) / bound)

    return [row(q) for q in p["q"]]


def _plan_orbit(p):
    element = _as_element(p["matrix"], p["xi"])
    if len(p["freq"]) != 2 * element.k:
        raise DomainError(f"freq needs {2 * element.k} entries to match xi")
    fn = PoincareTestFn(level=p["level"], freq=tuple(zip(p["freq"][::2], p["freq"][1::2])))
    limit = window_limit(fn, bump6)

    def row(T):
        avg = long_orbit_average(fn, element, T, bump6, route=p["route"])
        return (T, avg.real, avg.imag, limit, abs(avg - limit))

    return [row(T) for T in p["T"]]


def _plan_horocycle(p):
    element = _as_element(p["matrix"], p["xi"])
    fn = PoincareTestFn(level=p["level"], freq=((0, 0),) * element.k)

    def row(y):
        (entry,) = horocycle_main_term(OrbitExperiment(fn, element, (y,), bump6))
        return (y, entry.average, entry.limit, entry.error)

    return [row(y) for y in p["y"]]


def _plan_theorem4(p):
    element = _as_element(p["matrix"], p["xi"])
    params = MajorantParams(element.k, p["m"], p["qmax"], p["dmax"])
    bounds = orbit_gap_bounds(element, p["T"], params)
    return [(T, b.term0, b.series, b.tail_bound) for T, b in zip(p["T"], bounds)]


def _log_slope(xs, values, what: str) -> float:
    """The least-squares slope of log ``values`` against log ``xs``, the float
    ``np.polyfit`` gives.  Abscissae whose logs it cannot fit are refused:
    fewer than two distinct finite logs (polyfit fails inside LAPACK), or logs
    so close that polyfit's rank test fails (it warns and fits noise).  Both
    depend on ``xs`` alone, so a planner checks its schedule before any work
    by fitting unit values."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(np.asarray(xs, dtype=float))
    refusal = DomainError(f"cannot fit a log-log slope over {what}: it needs two finite logs "
                          "far enough apart")
    if not np.isfinite(lx).all() or len(set(lx.tolist())) < 2:
        raise refusal
    ly = np.log(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # polyfit's RankWarning, whatever module numpy keeps it in
        try:
            return float(np.polyfit(lx, ly, 1)[0])
        except Warning:
            raise refusal from None


#: The torus points of the delta sweep, one per Diophantine regime: the origin
#: (resonant, no decay), the golden-ratio point (badly approximable), a
#: quadratic irrational point and a rational point (eventual resonance).
_SWEEP_POINTS = {
    "origin": np.zeros((1, 2)),
    "golden": np.array([[(math.sqrt(5.0) - 1.0) / 2.0, (3.0 - math.sqrt(5.0)) / 2.0]]),
    "quadratic": np.array([[math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]]),
    "rational": np.array([[0.25, 0.4]]),
}
#: Heights one sweep visits.  At the default flags a height at y = 1e-6, the
#: deepest default one, took 2.4-2.8 ms for the four points (2 cores), so at
#: 3.3 ms this is ~20 s.  The default sweep visits 11.
POINT_CAP = 6_000


def _plan_delta_sweep(p):
    if p["points"] < 2:
        raise DomainError("a slope needs --points of at least 2")
    if min(p["min-exp"], p["max-exp"]) < 0.0:
        raise DomainError("--min-exp and --max-exp must be at least 0 for y = 10^-e in (0, 1]")
    guard(p["points"], POINT_CAP, "sweep heights")
    ys = np.logspace(-p["min-exp"], -p["max-exp"], p["points"])
    params = MajorantParams(1, p["m"], p["qmax"], None)
    # Series work of the whole sweep: per point and height, q_max half-set q
    # vectors (k = 1) times d_max(y) times two columns.  A height that
    # underflows to 0 would take unbounded work.
    d_total = sum(params.effective_d_max(y) if y > 0 else math.inf for y in ys.tolist())
    guard(len(_SWEEP_POINTS) * p["qmax"] * d_total * 2, SERIES_WORK_CAP, "sweep series work units")
    _log_slope(ys, np.ones(len(ys)), "the heights 10^-e")
    rows = []
    for name, xi in _SWEEP_POINTS.items():
        for y in ys.tolist():
            out = majorant_full(params, xi, y)
            rows.append((name, y, out.value, out.tail_bound))
    return rows


def _report_delta_sweep(p, rows) -> str:
    """Per torus point, the end values and the fitted log-log slope."""
    lines = []
    for name in _SWEEP_POINTS:
        ys, vals = zip(*((y, value) for point, y, value, _ in rows if point == name))
        slope = _log_slope(ys, vals, "the heights 10^-e")
        lines.append(f"{name:10s} delta({ys[0]:.2g})={vals[0]:.5g}  "
                     f"delta({ys[-1]:.2g})={vals[-1]:.5g}  slope={slope:+.4f}\n")
    return "".join(lines)


def _plan_cancellation(p):
    Xs = sorted(p["scales"])  # the order of cancellation_report's rows
    _log_slope(Xs, np.ones(len(Xs)), "--scales")
    spec = CosetSpec.principal(p["N"])
    weight = WeightFn(p["B"])
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    alpha = np.array([gold, gold**2, gold**3, gold**4]) / 4.0
    twisted = cancellation_report(spec, weight, alpha, Xs)
    flat = cancellation_report(spec, weight, np.zeros(4), Xs)
    zero = [t.X for t, f in zip(twisted, flat) if t.lhs == 0 or f.lhs == 0]
    if zero:
        raise DomainError(f"the weighted sum at X={zero[0]:g} is zero and has no growth exponent")
    return [(t.X, abs(t.lhs), abs(f.lhs), t.rhs, t.ratio) for t, f in zip(twisted, flat)]


def _report_cancellation(p, rows) -> str:
    """The table in fixed columns and both fitted growth exponents."""
    lines = [f"{'X':>8} {'|twisted|':>12} {'|flat|':>12} {'rhs':>12} {'ratio':>8}\n"]
    lines += [f"{X:8.0f} {twisted:12.4f} {flat:12.1f} {rhs:12.1f} {ratio:8.4f}\n"
              for X, twisted, flat, rhs, ratio in rows]
    Xs, twisted, flat, _, _ = zip(*rows)
    lines.append(f"growth exponents: twisted {_log_slope(Xs, twisted, '--scales'):.3f}, "
                 f"untwisted {_log_slope(Xs, flat, '--scales'):.3f}\n")
    return "".join(lines)


#: Orbit bounds one run evaluates, --count times the number of --times.  At the
#: default flags a bound took 1.5-2.4 ms (2 cores, T = 1e2 to 1e8), so at 2.5 ms
#: this is ~20 s.  The default run evaluates 150.
BOUND_CAP = 8_000


def _draw_matrix(rng) -> Sl2Matrix:
    """A Gaussian matrix scaled to determinant one (columns swapped if negative)."""
    while True:
        a = rng.normal(size=(2, 2))
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) < 1e-3:
            continue
        if det < 0:
            a[:, [0, 1]] = a[:, [1, 0]]
            det = -det
        return Sl2Matrix.from_array(a / np.sqrt(det))


def _plan_orbit_decay(p):
    if p["count"] < 1:
        raise DomainError("--count must be at least 1")
    Ts = list(p["times"])
    _log_slope(Ts, np.ones(len(Ts)), "--times")
    guard(p["count"] * len(Ts), BOUND_CAP, "orbit bounds")
    rng = np.random.default_rng(np.random.Philox(p["seed"]))
    params = MajorantParams(1, p["m"], p["qmax"], p["dmax"])
    rows = []
    for index in range(p["count"]):
        element = GroupElement.from_torus_point(_draw_matrix(rng), rng.uniform(0.0, 1.0, (1, 2)))
        bounds = orbit_gap_bounds(element, Ts, params)
        slope = _log_slope(Ts, [b.total for b in bounds], "--times")
        rows.extend((index, T, b.term0, b.series, b.tail_bound, slope) for T, b in zip(Ts, bounds))
    return rows


def _report_orbit_decay(p, rows) -> str:
    """The quartiles and extremes of the per-element slopes."""
    slopes = np.array([row[-1] for row in rows[:: len(p["times"])]])
    return (f"ensemble of {p['count']}, times {list(p['times'])}\n"
            f"slope quartiles: {np.percentile(slopes, 25):+.4f}  "
            f"{np.median(slopes):+.4f}  {np.percentile(slopes, 75):+.4f}\n"
            f"steepest {slopes.min():+.4f}, shallowest {slopes.max():+.4f}\n")


class _Command(NamedTuple):
    """One subcommand: what it does, the CSV header it writes, its planner, its
    flags and, for a command that prints a summary instead of its table, the
    ``report(params, rows)`` text."""

    about: str
    columns: str
    plan: Callable | None
    flags: dict[str, tuple[str, Callable[[str], object]]]
    report: Callable | None = None

    @property
    def help(self) -> str:
        return f"{self.about}; columns {self.columns}" if self.columns else self.about


_ELEMENT = {"matrix": ("1,0,0,1", _floats), "xi": ("0,0", _floats)}

_COMMANDS = {
    "delta": _Command("majorant series values", "y,value,tail,Qmax,Dmax", _plan_delta, {
        "k": ("1", _int), "m": ("3", _float), "qmax": ("20", _int), "dmax": ("auto", _maybe_int),
        "xi": ("0,0", _floats), "y": ("0.25", _floats)}),
    "lfd": _Command("scan for Diophantine lower-bound violations", "ok,d,q", _plan_lfd, {
        "psi": ("0.6180339887498949", _floats), "kappa": ("2", _float), "alpha": ("1.5", _float),
        "c": ("0.1", _float), "qmax": ("20", _int), "dmax": ("20", _int)}),
    "sgq": _Command("anchored rectangle gap statistic", "T,value,witness1,witness2", _plan_sgq, {
        **_ELEMENT, "q": ("0", _ints), "T": ("2", _floats)}),
    "expsum": _Command("twisted weighted coset count", "X,lhs_re,lhs_im,rhs,ratio", _plan_expsum, {
        "N": ("1", _int), "rep": ("1,0,0,1", _ints), "B": ("1", _float),
        "alpha": ("0,0,0,0", _floats), "X": ("4", _floats)}),
    "kloosterman": _Command(
        "complete sums against the square-root bound", "q,value,bound,ratio", _plan_kloosterman,
        {"m": ("1", _int), "n": ("1", _int), "q": ("5", _ints)}),
    "quadsum": _Command(
        "closed-form quadratic sums", "q,value_re,value_im,bound,ratio", _plan_quadsum,
        {"q": ("2", _ints), "N": ("1", _int), "rep": ("1,0,0,1", _ints), "v": ("0,0,0,0", _ints)}),
    "orbit": _Command("long orbit averages", "T,avg_re,avg_im,limit,error", _plan_orbit, {
        **_ELEMENT, "level": ("1", _int), "freq": ("0,0", _ints), "T": ("10", _floats),
        "route": ("lattice", _one_of("lattice", "pointwise"))}),
    "horocycle": _Command("untwisted window averages", "y,average,limit,error", _plan_horocycle, {
        **_ELEMENT, "level": ("1", _int), "y": ("0.1,0.01,0.001", _floats)}),
    "theorem4": _Command("orbit comparison bound", "T,term0,series,tail", _plan_theorem4, {
        **_ELEMENT, "m": ("3", _float), "qmax": ("10", _int), "dmax": ("10", _int),
        "T": ("100,1000,10000", _floats)}),
    "delta-sweep": _Command(
        "majorant decay slopes at four torus points", "point,y,value,tail", _plan_delta_sweep, {
            "m": ("3.0", _float), "qmax": ("20", _int), "min-exp": ("1.0", _float),
            "max-exp": ("6.0", _float), "points": ("11", _int)}, _report_delta_sweep),
    "cancellation": _Command(
        "twisted against untwisted coset growth", "X,twisted_abs,flat_abs,rhs,ratio",
        _plan_cancellation,
        {"scales": ("25,50,100,200", _floats), "N": ("1", _int), "B": ("1.0", _float)},
        _report_cancellation),
    # The seed of A15's ensemble; the command declares it, so the generic --seed is not added.
    "orbit-decay": _Command(
        "orbit bound decay over a random ensemble", "index,T,term0,series,tail,slope",
        _plan_orbit_decay, {
            "count": ("50", _int), "seed": ("20240817", _seed), "times": ("1e2,1e3,1e4", _floats),
            "m": ("3.0", _float), "qmax": ("10", _int), "dmax": ("10", _int)}, _report_orbit_decay),
    "verify": _Command("run the invariant battery; nonzero exit on first failure", "", None, {}),
}


class Parser(argparse.ArgumentParser):
    """The flag parser of a subcommand.  Text it cannot read (an unknown flag,
    a missing value, a value its ``type`` refuses) raises ``DomainError``, so
    it is refused like every other input; ``--help`` still prints its text and
    exits 0."""

    def error(self, message: str):
        raise DomainError(message)


@functools.lru_cache(maxsize=None)
def _build_parser(command: str) -> Parser:
    """The command's parser, built once; ``parse_args`` leaves it unchanged."""
    spec = _COMMANDS[command]
    parser = Parser(prog=f"horolab {command}", description=spec.help)
    for key, (default, convert) in spec.flags.items():
        # dest=key: --min-exp is read, and named in --config files, as min-exp.
        parser.add_argument(f"--{key}", dest=key, default=default, type=convert)
    if spec.plan is None:  # verify prints its checks and writes no table
        parser.set_defaults(out=None, format="csv")
    else:
        where = ("table path (without it only the report is printed)" if spec.report
                 else "output path (default stdout)")
        parser.add_argument("--out", help=where)
        parser.add_argument("--format", default="csv", type=_format, help="csv or json")
    if "seed" not in spec.flags:
        parser.add_argument("--seed", default="0", type=_seed, help="64-bit generator key")
    parser.add_argument("--config", help="key = value defaults file")
    return parser


def _read_config(path: str, allowed: set[str]) -> list[str]:
    """The file's ``key = value`` lines as ``--key=value`` tokens."""
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        tokens.append(f"--{key}={value}")
    return tokens


def _parse_command(command: str, argv: Sequence[str]) -> RunConfig:
    """Flags override the ``--config`` file (its tokens go first), which overrides the defaults."""
    parser = _build_parser(command)
    args = parser.parse_args(argv)
    if args.config is not None:
        keys = {action.dest for action in parser._actions} - {"config", "help"}
        args = parser.parse_args([*_read_config(args.config, keys), *argv])
    params = tuple((key, getattr(args, key)) for key in _COMMANDS[command].flags)
    return RunConfig(command, params, args.seed, args.out, args.format)


def _require(ok: bool, failure: str) -> None:
    """Fail a verify check with a message naming what was measured."""
    if not ok:
        raise AssertionError(failure)


def _verify_checks(rng):
    """The invariant battery, cheapest first; each check raises on failure."""

    def random_matrix():
        u = float(rng.uniform(-2.0, 2.0))
        v = float(rng.uniform(0.1, 5.0))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        return iwasawa_compose(IwasawaCoords(u, v, theta))

    def random_element():
        return GroupElement.from_torus_point(random_matrix(), rng.uniform(0.0, 1.0, (1, 2)))

    def chart_roundtrip():
        for _ in range(50):
            m = random_matrix()
            a, back = m.as_array(), iwasawa_compose(iwasawa_decompose(m)).as_array()
            _require(np.allclose(back, a, atol=1e-10), f"moved by {np.abs(back - a).max():.3g}")

    def domain_reduction():
        for _ in range(30):
            gamma, red = reduce_fundamental(random_matrix())
            _require(gamma.is_integral(), f"reducing matrix {gamma} is not integral")
            coords = iwasawa_decompose(red)
            _require(abs(coords.u) <= 0.5 + 1e-9, f"reduced |u| = {abs(coords.u):.17g} > 1/2")
            radius2 = coords.u**2 + coords.v**2
            _require(radius2 >= 1.0 - 1e-9, f"reduced |z|^2 = {radius2:.17g} is below 1")

    def quadsum_dual_route():
        for q, N in ((2, 1), (3, 1), (2, 2)):
            spec = CosetSpec.principal(N)
            v = tuple(int(x) for x in rng.integers(-2, 3, size=4))
            closed = quad_expsum_closed(q, spec, v)
            brute = quad_expsum_bruteforce(q, spec, v)
            _require(abs(closed - brute) <= 1e-9 * max(1.0, abs(brute)),
                     f"q={q} N={N} v={v}: closed {closed} against brute force {brute}")

    def kloosterman_weil():
        for _ in range(30):
            q = int(rng.integers(1, 60))
            m = int(rng.integers(-8, 9))
            n = int(rng.integers(-8, 9))
            value, bound = abs(kloosterman(m, n, q)), kloosterman_weil_bound(m, n, q)
            _require(value <= bound + 1e-9, f"|K({m},{n};{q})| = {value:.17g} > {bound:.17g}")

    def gap_witness():
        for _ in range(10):
            element = random_element()
            T = float(rng.uniform(1.0, 8.0))
            gap = grid_gap(element, [0], T)
            size = max(T * abs(gap.witness[0]), abs(gap.witness[1]))
            _require(size <= gap.value * (1.0 + 1e-9) + 1e-12,
                     f"T={T:.17g}: witness size {size:.17g} exceeds the gap {gap.value:.17g}")

    def partition_unit_mass():
        for c, d, s in ((0.0, 1.0, 0.0), (0.1, 0.2, 0.5), (-0.4, 0.9, -0.3)):
            mass = partition_identity(bump6_normalized, c, d, s)
            _require(abs(mass - 1.0) < 1e-8, f"c={c} d={d} s={s}: mass {mass:.17g}, not 1")

    def translate_dual_route():
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        element = random_element()
        slow = translate_integral(fn, element, 0.5, bump6)
        fast = lattice_window_average(fn, element, 0.5, bump6, (-1.0, 1.0))
        _require(abs(slow - fast) < 1e-6, f"translate {slow} against lattice {fast} (tol 1e-6)")

    def split_reconstruction():
        for _ in range(20):
            m = random_matrix()
            T = float(rng.uniform(1.0, 40.0))
            z = float(rng.uniform(-1.0, 1.0))
            try:
                sp = orbit_split(m, T, z)
            except DomainError:
                continue
            left = sp.reduced @ Sl2Matrix.translation(z)
            right = Sl2Matrix.translation(float(sp.shift)) @ sp.core
            left, right = left.as_array(), (right @ Sl2Matrix.dilation(sp.scale)).as_array()
            _require(np.allclose(left, right, atol=1e-9),
                     f"T={T:.17g} z={z:.17g}: sides differ by {np.abs(left - right).max():.3g}")

    def value_gamma_invariance():
        fn = PoincareTestFn(level=1, freq=((1, 1),))
        m = random_matrix()
        xi = rng.uniform(0.0, 1.0, (1, 2))
        base = evaluate_f(fn, m, xi)
        shear_up = Sl2Matrix(1.0, 1.0, 0.0, 1.0)
        shear_low = Sl2Matrix(1.0, 0.0, 1.0, 1.0)
        for _ in range(5):
            gamma = Sl2Matrix.identity()
            for _ in range(4):
                gamma = gamma @ (shear_up if rng.random() < 0.5 else shear_low)
            moved = evaluate_f(fn, gamma @ m, xi @ gamma.inverse().as_array())
            _require(abs(moved - base) < 1e-9, f"value moved by {abs(moved - base):.3g}")

    def majorant_truncation_coherence():
        xi = rng.uniform(0.0, 1.0, (1, 2))
        short = majorant_full(MajorantParams(1, 3.0, 6, 8), xi, 0.2)
        long_ = majorant_full(MajorantParams(1, 3.0, 12, 8), xi, 0.2)
        _require(long_.value >= short.value - 1e-12,
                 f"q_max=12 value {long_.value:.17g} is below q_max=6's {short.value:.17g}")
        _require(long_.value <= short.value + short.tail_bound + 1e-12,
                 f"q_max=12 value {long_.value:.17g} is above the bracket {short.upper:.17g}")

    return [
        ("chart-roundtrip", chart_roundtrip),
        ("domain-reduction", domain_reduction),
        ("quadsum-dual-route", quadsum_dual_route),
        ("kloosterman-weil", kloosterman_weil),
        ("grid-gap-witness", gap_witness),
        ("partition-unit-mass", partition_unit_mass),
        ("translate-dual-route", translate_dual_route),
        ("split-reconstruction", split_reconstruction),
        ("value-gamma-invariance", value_gamma_invariance),
        ("majorant-truncation-coherence", majorant_truncation_coherence),
    ]


def _run_verify(config: RunConfig, stream) -> int:
    rng = np.random.default_rng(np.random.Philox(config.seed))
    for name, check in _verify_checks(rng):
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}", file=stream)
            return 1
        except Exception as exc:
            print(f"FAIL {name}: {exc!r}", file=stream)
            return 1
        print(f"ok {name}", file=stream)
    return 0


def _cell(value):
    """A table cell as the str, int or float that both formats write."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _render(config: RunConfig, columns: Sequence[str], rows: list[tuple]) -> str:
    cells = [[_cell(v) for v in row] for row in rows]
    if config.fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(
            ",".join(format(c, ".17g") if isinstance(c, float) else str(c) for c in row)
            for row in cells
        )
        return "\n".join(lines) + "\n"
    meta = {
        "command": config.command,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in config.params},
        "seed": config.seed,
        "format": config.fmt,
        "version": __version__,
    }
    out_rows = [dict(zip(columns, row)) for row in cells]
    return json.dumps({"metadata": meta, "rows": out_rows}, indent=2) + "\n"


def _execute(config: RunConfig) -> int:
    """Plan the table and write it to stdout or ``--out``.  A command with a
    report prints the report instead, and then ``wrote N rows to PATH`` if
    ``--out`` took the table."""
    spec = _COMMANDS[config.command]
    params = dict(config.params)
    if config.out is None and spec.report is not None and config.fmt == "json":
        raise DomainError(f"--format json needs --out: without it {config.command} prints "
                          "only its report")
    if config.out is None:
        rows = spec.plan(params)
        sys.stdout.write(_render(config, spec.columns.split(","), rows)
                         if spec.report is None else spec.report(params, rows))
        return 0
    with _out_file(config.out) as fh:
        rows = spec.plan(params)
        report = None if spec.report is None else spec.report(params, rows)
        fh.write(_render(config, spec.columns.split(","), rows))
    if report is not None:
        sys.stdout.write(f"{report}wrote {len(rows)} rows to {config.out}\n")
    return 0


@contextlib.contextmanager
def _out_file(path: str):
    """A buffer for the ``--out`` table, written to ``path`` once the block
    succeeds.  ``path`` is opened for appending first, which truncates nothing:
    an unwritable path is refused before any work, and a refused run leaves an
    existing file byte-identical (a new path, empty)."""
    try:
        fh = open(path, "a", encoding="utf-8", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    with fh:
        buffer = io.StringIO()
        yield buffer
        try:
            if fh.tell():  # only a file with bytes needs emptying; appends go to its start
                fh.truncate(0)
            fh.write(buffer.getvalue())
            fh.flush()
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc}") from exc


def _usage() -> None:
    print("usage: horolab <subcommand> [--flags]")
    print("subcommands:")
    for name, spec in _COMMANDS.items():
        print(f"  {name:<14}{spec.help}")


_EXIT_CODES = {DomainError: 2, ConvergenceError: 3, ResourceGuardError: 4}


def _run_command(command: str | None, argv: Sequence[str]) -> int:
    if command not in _COMMANDS:
        given = "missing subcommand" if command is None else f"unknown subcommand {command!r}"
        raise DomainError(f"{given} (one of {', '.join(_COMMANDS)}; see horolab --help)")
    config = _parse_command(command, argv)
    if command == "verify":
        return _run_verify(config, sys.stdout)
    return _execute(config)


def run(argv: Sequence[str]) -> int:
    """Entry point returning the process exit code; a refusal prints one
    ``horolab: ...`` line and exits 2, 3 or 4."""
    argv = list(argv)
    if argv[:1] in (["-h"], ["--help"]):
        _usage()
        return 0
    try:
        return _run_command(argv[0] if argv else None, argv[1:])
    except SystemExit:  # --help printed its text; Parser.error raises instead
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"horolab: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
