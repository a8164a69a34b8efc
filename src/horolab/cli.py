"""Command line driver: one subcommand per experiment family.

Each run parses flags (optionally seeded from a ``key = value`` config
file), validates every parameter by constructing the domain objects up
front, then evaluates a table of rows and emits it as CSV or JSON.  Rows
are pure functions of the run configuration, so identical invocations
produce byte-identical files; sweeps may fan rows out across threads and
still write them in schedule order.

Exit codes: 0 success, 2 validation failure (including unknown flags and
NaN/inf in any numeric flag), 3 numerical non-convergence, 4 resource
guard tripped.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .affine import GroupElement, grid_gap
from .arith import (
    CosetSpec,
    kloosterman,
    kloosterman_weil_bound,
    quad_expsum_bruteforce,
    quad_expsum_closed,
    quadsum_weil_bound,
)
from .autofns import PoincareTestFn, evaluate_f, mean_value
from .errors import ConvergenceError, DomainError, ResourceGuardError
from .expsum import WeightFn, expsum_rhs, weighted_expsum_lhs
from .majorant import MajorantParams, lfd_test, majorant_full, orbit_gap_bound
from .orbitlab import (
    _h_mass,
    horocycle_main_term,
    lattice_window_average,
    long_orbit_average,
    orbit_split,
    OrbitExperiment,
    partition_identity,
    translate_integral,
)
from .sl2core import (
    IwasawaCoords,
    Sl2Matrix,
    iwasawa_compose,
    iwasawa_decompose,
    reduce_fundamental,
)
from .smoothfns import bump6, bump6_normalized

COMMANDS = (
    "delta",
    "lfd",
    "sgq",
    "expsum",
    "kloosterman",
    "quadsum",
    "orbit",
    "horocycle",
    "theorem4",
    "verify",
    "sweep",
)

_COMMON_DEFAULTS = {"format": "csv", "seed": "0"}

_DEFAULTS: dict[str, dict[str, str]] = {
    "delta": {
        "k": "1", "m": "3", "qmax": "20", "dmax": "auto", "xi": "0,0", "y": "0.25",
    },
    "lfd": {
        "psi": "0.6180339887498949", "kappa": "2", "alpha": "1.5", "c": "0.1",
        "qmax": "20", "dmax": "20",
    },
    "sgq": {"matrix": "1,0,0,1", "xi": "0,0", "q": "0", "T": "2"},
    "expsum": {"N": "1", "rep": "1,0,0,1", "B": "1", "alpha": "0,0,0,0", "X": "4"},
    "kloosterman": {"m": "1", "n": "1", "q": "5"},
    "quadsum": {"q": "2", "N": "1", "rep": "1,0,0,1", "v": "0,0,0,0"},
    "orbit": {
        "matrix": "1,0,0,1", "xi": "0,0", "level": "1", "freq": "0,0",
        "T": "10", "route": "lattice",
    },
    "horocycle": {"matrix": "1,0,0,1", "xi": "0,0", "level": "1", "y": "0.1,0.01,0.001"},
    "theorem4": {
        "matrix": "1,0,0,1", "xi": "0,0", "m": "3", "qmax": "10", "dmax": "10",
        "T": "100,1000,10000",
    },
    "verify": {},
}

_HELP = {
    "delta": "majorant series values; columns y,value,tail,Qmax,Dmax",
    "lfd": "scan for Diophantine lower-bound violations; columns ok,d,q",
    "sgq": "anchored rectangle gap statistic; columns T,value,witness1,witness2",
    "expsum": "twisted weighted coset count; columns X,lhs_re,lhs_im,rhs,ratio",
    "kloosterman": "complete sums against the square-root bound; columns q,value,bound,ratio",
    "quadsum": "closed-form quadratic sums; columns q,value_re,value_im,bound,ratio",
    "orbit": "long orbit averages; columns T,avg_re,avg_im,limit,error",
    "horocycle": "untwisted window averages; columns y,average,limit,error",
    "theorem4": "orbit comparison bound; columns T,term0,series,tail",
    "verify": "run the invariant battery; nonzero exit on first failure",
    "sweep": "run another subcommand with --jobs worker threads",
}


def _finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise DomainError(f"expected finite numbers, got {text!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(_finite(float(p), text) for p in str(text).split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from exc


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in str(text).split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _int(text: str) -> int:
    try:
        return int(str(text))
    except ValueError as exc:
        raise DomainError(f"expected an integer, got {text!r}") from exc


def _float(text: str) -> float:
    try:
        return _finite(float(str(text)), text)
    except ValueError as exc:
        raise DomainError(f"expected a number, got {text!r}") from exc


def _maybe_int(text: str) -> int | None:
    return None if str(text) == "auto" else _int(text)


_CONVERT: dict[str, Callable[[str], object]] = {
    "k": _int, "m": _float, "qmax": _int, "dmax": _maybe_int, "xi": _floats,
    "y": _floats, "psi": _floats, "kappa": _float, "alpha": _floats, "c": _float,
    "matrix": _floats, "q": _ints, "T": _floats, "N": _int, "rep": _ints,
    "B": _float, "X": _floats, "n": _int, "v": _ints, "level": _int,
    "freq": _ints, "route": str, "seed": _int, "format": str,
}
# per-flag conversion quirks: kloosterman's m is an integer twist, and lfd's
# alpha is a single number
_CONVERT_BY_COMMAND = {
    ("kloosterman", "m"): _int,
    ("lfd", "alpha"): _float,
}


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed and converted invocation."""

    command: str
    params: tuple[tuple[str, object], ...]
    seed: int
    out: str | None
    fmt: str
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, not {self.fmt!r}")
        if self.jobs < 1:
            raise DomainError("jobs must be at least 1")

    def param_dict(self) -> dict[str, object]:
        return dict(self.params)


def _build_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"horolab {command}", description=_HELP[command]
    )
    for key in _DEFAULTS[command]:
        parser.add_argument(f"--{key}", default=argparse.SUPPRESS)
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output path (default stdout)")
    parser.add_argument("--format", default=argparse.SUPPRESS, help="csv or json")
    parser.add_argument("--seed", default=argparse.SUPPRESS, help="64-bit generator key")
    parser.add_argument("--config", default=argparse.SUPPRESS, help="key = value defaults file")
    return parser


def _read_config(path: str, allowed: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
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
        out[key] = value
    return out


def _parse_command(command: str, argv: Sequence[str], jobs: int) -> RunConfig:
    parser = _build_parser(command)
    provided = vars(parser.parse_args(list(argv)))
    allowed = set(_DEFAULTS[command]) | {"out", "format", "seed"}
    merged = dict(_DEFAULTS[command])
    merged.update(_COMMON_DEFAULTS)
    if "config" in provided:
        merged.update(_read_config(provided.pop("config"), allowed))
    merged.update(provided)
    out = merged.pop("out", None)
    fmt = str(merged.pop("format"))
    seed = _int(merged.pop("seed"))
    params = []
    for key in _DEFAULTS[command]:
        conv = _CONVERT_BY_COMMAND.get((command, key), _CONVERT[key])
        params.append((key, conv(merged[key])))
    return RunConfig(command, tuple(params), seed, out, fmt, jobs)


def _as_element(matrix: Sequence[float], xi: Sequence[float]) -> GroupElement:
    if len(matrix) != 4:
        raise DomainError("matrix needs exactly four entries a,b,c,d")
    if len(xi) == 0 or len(xi) % 2:
        raise DomainError("xi needs an even, positive number of entries")
    m = Sl2Matrix(*matrix)
    return GroupElement.from_torus_point(m, np.asarray(xi, dtype=float).reshape(-1, 2))


def _window(x):
    return bump6(np.asarray(x, dtype=float))


def _plan_delta(p):
    params = MajorantParams(p["k"], p["m"], p["qmax"], p["dmax"])
    if len(p["xi"]) != 2 * p["k"]:
        raise DomainError(f"xi needs {2 * p['k']} entries for k={p['k']}")
    xi = np.asarray(p["xi"], dtype=float).reshape(-1, 2)

    def row(y):
        out = majorant_full(params, xi, y)
        return (y, out.value, out.tail_bound, p["qmax"], params.effective_d_max(y))

    return ["y", "value", "tail", "Qmax", "Dmax"], [lambda y=y: row(y) for y in p["y"]]


def _plan_lfd(p):
    def row():
        witness = lfd_test(p["psi"], p["kappa"], p["alpha"], p["c"], p["qmax"], p["dmax"])
        if witness is None:
            return (1, 0, "")
        return (0, witness.d, ";".join(str(v) for v in witness.q))

    return ["ok", "d", "q"], [row]


def _plan_sgq(p):
    element = _as_element(p["matrix"], p["xi"])
    if len(p["q"]) != element.k:
        raise DomainError(f"q needs {element.k} entries to match xi")

    def row(T):
        gap = grid_gap(element, list(p["q"]), T)
        return (T, gap.value, gap.witness[0], gap.witness[1])

    return ["T", "value", "witness1", "witness2"], [lambda T=T: row(T) for T in p["T"]]


def _plan_expsum(p):
    spec = CosetSpec(p["N"], tuple(p["rep"]))
    weight = WeightFn(p["B"])
    if len(p["alpha"]) != 4:
        raise DomainError("alpha needs exactly four entries")

    def row(X):
        lhs = weighted_expsum_lhs(spec, weight, X, p["alpha"])
        rhs = expsum_rhs(X, p["alpha"])
        return (X, lhs.real, lhs.imag, rhs, abs(lhs) / rhs)

    return ["X", "lhs_re", "lhs_im", "rhs", "ratio"], [lambda X=X: row(X) for X in p["X"]]


def _plan_kloosterman(p):
    def row(q):
        value = kloosterman(p["m"], p["n"], q)
        bound = kloosterman_weil_bound(p["m"], p["n"], q)
        return (q, value, bound, abs(value) / bound)

    return ["q", "value", "bound", "ratio"], [lambda q=q: row(q) for q in p["q"]]


def _plan_quadsum(p):
    spec = CosetSpec(p["N"], tuple(p["rep"]))
    if len(p["v"]) != 4:
        raise DomainError("twist v needs exactly four entries")

    def row(q):
        value = quad_expsum_closed(q, spec, p["v"])
        bound = quadsum_weil_bound(q, p["N"])
        return (q, value.real, value.imag, bound, abs(value) / bound)

    return ["q", "value_re", "value_im", "bound", "ratio"], [
        lambda q=q: row(q) for q in p["q"]
    ]


def _plan_orbit(p):
    element = _as_element(p["matrix"], p["xi"])
    if len(p["freq"]) != 2 * element.k:
        raise DomainError(f"freq needs {2 * element.k} entries to match xi")
    freq = tuple(
        (p["freq"][2 * i], p["freq"][2 * i + 1]) for i in range(element.k)
    )
    fn = PoincareTestFn(level=p["level"], freq=freq)
    if p["route"] not in ("lattice", "pointwise"):
        raise DomainError(f"unknown route {p['route']!r}")
    limit = mean_value(fn) * _h_mass(_window, -1.0, 1.0)

    def row(T):
        avg = long_orbit_average(fn, element, T, _window, route=p["route"])
        return (T, avg.real, avg.imag, limit, abs(avg - limit))

    return ["T", "avg_re", "avg_im", "limit", "error"], [lambda T=T: row(T) for T in p["T"]]


def _plan_horocycle(p):
    element = _as_element(p["matrix"], p["xi"])
    fn = PoincareTestFn(level=p["level"], freq=((0, 0),) * element.k)

    def row(y):
        table = horocycle_main_term(OrbitExperiment(fn, element, (y,), _window))
        entry = table[0]
        return (y, entry.average, entry.limit, entry.error)

    return ["y", "average", "limit", "error"], [lambda y=y: row(y) for y in p["y"]]


def _plan_theorem4(p):
    element = _as_element(p["matrix"], p["xi"])
    params = MajorantParams(element.k, p["m"], p["qmax"], p["dmax"])

    def row(T):
        bound = orbit_gap_bound(element, T, params)
        return (T, bound.term0, bound.series, bound.tail_bound)

    return ["T", "term0", "series", "tail"], [lambda T=T: row(T) for T in p["T"]]


_PLANNERS = {
    "delta": _plan_delta,
    "lfd": _plan_lfd,
    "sgq": _plan_sgq,
    "expsum": _plan_expsum,
    "kloosterman": _plan_kloosterman,
    "quadsum": _plan_quadsum,
    "orbit": _plan_orbit,
    "horocycle": _plan_horocycle,
    "theorem4": _plan_theorem4,
}


def _verify_checks(rng):
    """The invariant battery, cheapest first; each check raises on failure."""

    def random_matrix():
        u = float(rng.uniform(-2.0, 2.0))
        v = float(rng.uniform(0.1, 5.0))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        return iwasawa_compose(IwasawaCoords(u, v, theta))

    def chart_roundtrip():
        for _ in range(50):
            m = random_matrix()
            back = iwasawa_compose(iwasawa_decompose(m))
            assert np.allclose(back.as_array(), m.as_array(), atol=1e-10)

    def domain_reduction():
        for _ in range(30):
            gamma, red = reduce_fundamental(random_matrix())
            assert gamma.is_integral()
            coords = iwasawa_decompose(red)
            assert abs(coords.u) <= 0.5 + 1e-9
            assert coords.u**2 + coords.v**2 >= 1.0 - 1e-9

    def quadsum_dual_route():
        for q, N in ((2, 1), (3, 1), (2, 2)):
            spec = CosetSpec.principal(N)
            v = tuple(int(x) for x in rng.integers(-2, 3, size=4))
            closed = quad_expsum_closed(q, spec, v)
            brute = quad_expsum_bruteforce(q, spec, v)
            assert abs(closed - brute) <= 1e-9 * max(1.0, abs(brute))

    def kloosterman_weil():
        for _ in range(30):
            q = int(rng.integers(1, 60))
            m = int(rng.integers(-8, 9))
            n = int(rng.integers(-8, 9))
            assert abs(kloosterman(m, n, q)) <= kloosterman_weil_bound(m, n, q) + 1e-9

    def gap_witness():
        for _ in range(10):
            element = GroupElement.from_torus_point(
                random_matrix(), rng.uniform(0.0, 1.0, (1, 2))
            )
            T = float(rng.uniform(1.0, 8.0))
            gap = grid_gap(element, [0], T)
            w = gap.witness
            assert max(T * abs(w[0]), abs(w[1])) <= gap.value * (1.0 + 1e-9) + 1e-12

    def partition_unit_mass():
        for c, d, s in ((0.0, 1.0, 0.0), (0.1, 0.2, 0.5), (-0.4, 0.9, -0.3)):
            assert abs(partition_identity(bump6_normalized, c, d, s) - 1.0) < 1e-8

    def translate_dual_route():
        fn = PoincareTestFn(level=1, freq=((1, 0),))
        element = GroupElement.from_torus_point(
            random_matrix(), rng.uniform(0.0, 1.0, (1, 2))
        )
        slow = translate_integral(fn, element, 0.5, _window)
        fast = lattice_window_average(fn, element, 0.5, _window, (-1.0, 1.0))
        assert abs(slow - fast) < 1e-6

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
            right = (
                Sl2Matrix.translation(float(sp.shift))
                @ sp.core
                @ Sl2Matrix.dilation(sp.scale)
            )
            assert np.allclose(left.as_array(), right.as_array(), atol=1e-9)

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
            assert abs(moved - base) < 1e-9

    def majorant_truncation_coherence():
        xi = rng.uniform(0.0, 1.0, (1, 2))
        short = majorant_full(MajorantParams(1, 3.0, 6, 8), xi, 0.2)
        long_ = majorant_full(MajorantParams(1, 3.0, 12, 8), xi, 0.2)
        assert long_.value >= short.value - 1e-12
        assert long_.value <= short.value + short.tail_bound + 1e-12

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
        except Exception as exc:
            print(f"FAIL {name}: {exc!r}", file=stream)
            return 1
        print(f"ok {name}", file=stream)
    return 0


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _render(config: RunConfig, columns: list[str], rows: list[tuple]) -> str:
    if config.fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    meta = {
        "command": config.command,
        "params": {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in config.params
        },
        "seed": config.seed,
        "format": config.fmt,
        "jobs": config.jobs,
        "version": __version__,
    }
    out_rows = []
    for row in rows:
        entry = {}
        for key, value in zip(columns, row):
            if isinstance(value, (int, np.integer)):
                entry[key] = int(value)
            elif isinstance(value, str):
                entry[key] = value
            else:
                entry[key] = float(value)
        out_rows.append(entry)
    return json.dumps({"metadata": meta, "rows": out_rows}, indent=2) + "\n"


def _execute(config: RunConfig) -> str:
    columns, thunks = _PLANNERS[config.command](config.param_dict())
    if config.jobs > 1 and len(thunks) > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(thunk) for thunk in thunks]
            rows = [f.result() for f in futures]
    else:
        rows = [thunk() for thunk in thunks]
    return _render(config, columns, rows)


def _usage(stream) -> None:
    print("usage: horolab <subcommand> [--flags]", file=stream)
    print("subcommands:", file=stream)
    for name in COMMANDS:
        pad = " " * (14 - len(name))
        print(f"  {name}{pad}{_HELP[name]}", file=stream)


def run(argv: Sequence[str]) -> int:
    """Entry point returning the process exit code."""
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        _usage(sys.stdout if argv else sys.stderr)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    jobs = 1
    if command == "sweep":
        sweep_parser = argparse.ArgumentParser(prog="horolab sweep", description=_HELP["sweep"])
        sweep_parser.add_argument("target", choices=[c for c in COMMANDS if c not in ("sweep", "verify")])
        sweep_parser.add_argument("--jobs", type=int, default=1)
        try:
            ns, rest = sweep_parser.parse_known_args(rest)
        except SystemExit as exc:
            return 2 if exc.code else 0
        command, jobs = ns.target, ns.jobs
    if command not in COMMANDS:
        print(f"horolab: unknown subcommand {command!r}", file=sys.stderr)
        _usage(sys.stderr)
        return 2
    try:
        config = _parse_command(command, rest, jobs)
        if command == "verify":
            return _run_verify(config, sys.stdout)
        text = _execute(config)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except DomainError as exc:
        print(f"horolab: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"horolab: {exc}", file=sys.stderr)
        return 3
    except ResourceGuardError as exc:
        print(f"horolab: {exc}", file=sys.stderr)
        return 4
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
