"""The ``scripts/`` drivers: shims over ``horolab delta-sweep``, ``cancellation``
and ``orbit-decay``.  Their refusals, ``--out`` and ``--help`` are checked
through ``cli.run``, and each shim's ``__main__`` path in a fresh interpreter.
The exit-contract draws of the three commands are in ``test_cli.py``."""

import contextlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import horolab
from horolab import cli
from horolab.cli import run

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
#: The command each driver runs.
COMMANDS = {"run_delta_sweep": "delta-sweep", "run_cancellation": "cancellation",
            "run_orbit_decay": "orbit-decay"}


def run_driver(name, argv):
    """Exit code, stdout, stderr and warning messages of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run([COMMANDS[name], *argv])
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("name", ["run_delta_sweep", "run_cancellation", "run_orbit_decay"])
def test_unwritable_out_exits_two_before_any_work(tmp_path, name):
    target = tmp_path / "missing" / "table.csv"
    start = time.perf_counter()
    code, out, err, _ = run_driver(name, ["--out", str(target)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert elapsed < 1.0
    assert out == ""
    assert err.startswith(f"horolab: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("run_delta_sweep", ["--qmax", "0"], 2),
        ("run_orbit_decay", ["--count", "1", "--dmax", "1000000"], 4),
        ("run_delta_sweep", ["--points", "0"], 2),
        ("run_cancellation", ["--scales", "25,abc"], 2),
        ("run_orbit_decay", ["--count", "0"], 2),
        # A slope needs two distinct abscissae.
        ("run_delta_sweep", ["--min-exp", "2", "--max-exp", "2"], 2),
        ("run_cancellation", ["--scales", "25,25"], 2),
        ("run_orbit_decay", ["--times", "100"], 2),
    ],
)
def test_library_errors_map_to_exit_codes(name, argv, code):
    got, _, err, _ = run_driver(name, argv)
    assert got == code
    assert err.startswith("horolab: ") and err.count("\n") == 1


def test_out_holds_the_printed_rows(tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, _, _ = run_driver("run_delta_sweep", ["--points", "3", "--max-exp", "3", "--out", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "point,y,value,tail"
    assert len(lines) == 1 + 4 * 3
    assert out.endswith(f"wrote 12 rows to {target}\n")


@pytest.mark.parametrize("name", ["run_delta_sweep", "run_cancellation", "run_orbit_decay"])
def test_help_prints_usage_and_exits_zero(name):
    code, out, err, caught = run_driver(name, ["--help"])
    assert (code, err, caught) == (0, "", [])
    assert out.startswith(f"usage: horolab {COMMANDS[name]} ") and "--out OUT" in out


def test_refused_run_leaves_an_existing_out_file_as_it_was(tmp_path):
    target = tmp_path / "table.csv"
    target.write_bytes(b"X,twisted_abs\r\n25,1\n")
    code, _, err, _ = run_driver("run_cancellation", ["--scales", "1,2", "--out", str(target)])
    assert code == 2 and err.startswith("horolab: ")
    assert target.read_bytes() == b"X,twisted_abs\r\n25,1\n"


#: The refusal of abscissae whose logs cannot be fitted.
NO_FIT = "cannot fit a log-log slope over "


@pytest.mark.parametrize("name, flags, code, says", [
    pytest.param("run_orbit_decay", "--seed=-1", 2, "--seed", id="orbit-decay-negative-seed"),
    pytest.param("run_orbit_decay", f"--count={2**63 - 1}", 4, "orbit bounds exceed the cap",
                 id="orbit-decay-int64-count"),
    pytest.param("run_delta_sweep", "--min-exp=-1e308", 2, "must be at least 0",
                 id="delta-sweep-min-exp-overflow"),
    pytest.param("run_delta_sweep", "--min-exp=-400", 2, "must be at least 0",
                 id="delta-sweep-min-exp-negative"),
    pytest.param("run_delta_sweep", "--max-exp=inf", 2, "--max-exp", id="delta-sweep-max-exp-inf"),
    pytest.param("run_delta_sweep", "--max-exp=-inf", 2, "--max-exp",
                 id="delta-sweep-max-exp-minus-inf"),
    pytest.param("run_delta_sweep", "--points=100000000000", 4, "sweep heights exceed the cap",
                 id="delta-sweep-points-745-gib"),
    pytest.param("run_delta_sweep", "--points=1000000", 4, "sweep heights exceed the cap",
                 id="delta-sweep-points-million"),
    # Few enough heights, but near y = 1e-12 each costs about a second.
    pytest.param("run_delta_sweep", "--max-exp=12 --points=6000", 4, "series work units",
                 id="delta-sweep-series-work"),
    # A flag whose type cannot read its text.
    pytest.param("run_orbit_decay", "--count=abc", 2, "--count", id="orbit-decay-count-not-int"),
    pytest.param("run_cancellation", "--bogus 1", 2, "unrecognized arguments",
                 id="cancellation-unknown-flag"),
    pytest.param("run_delta_sweep", "--points", 2, "expected one argument",
                 id="delta-sweep-missing-value"),
    # Below X = 1.5 the box holds no matrix of positive weight, and log 0 warned.
    pytest.param("run_cancellation", "--scales=1,2", 2, "is zero", id="cancellation-zero-sum"),
    # Distinct abscissae whose logs polyfit cannot fit.  10^-e rounds every
    # height to 1.0 (a LinAlgError traceback), or the logs are so close that
    # polyfit warned of its rank and printed a made-up slope.
    pytest.param("run_delta_sweep", "--points=2 --min-exp=0 --max-exp=1e-300", 2, NO_FIT,
                 id="delta-sweep-heights-round-to-one"),
    pytest.param("run_delta_sweep", "--min-exp=1e-300 --max-exp=0", 2, NO_FIT,
                 id="delta-sweep-heights-round-to-one-reversed"),
    pytest.param("run_delta_sweep", "--points=3 --min-exp=0 --max-exp=1e-17", 2, NO_FIT,
                 id="delta-sweep-three-heights-round-to-one"),
    pytest.param("run_delta_sweep", "--min-exp=5 --max-exp=5.000000000000001", 2, NO_FIT,
                 id="delta-sweep-heights-too-close"),
    pytest.param("run_orbit_decay", "--count=1 --times=100,100.00000000000001", 2, NO_FIT,
                 id="orbit-decay-times-too-close"),
    pytest.param("run_cancellation", "--scales=25,25.000000000000004", 2, NO_FIT,
                 id="cancellation-scales-too-close"),
    # log 0 and log -5 warned before the bound refused the time.
    pytest.param("run_orbit_decay", "--count=1 --times=0,100", 2, NO_FIT, id="orbit-decay-zero-time"),
    pytest.param("run_orbit_decay", "--count=1 --times=-5,100", 2, NO_FIT,
                 id="orbit-decay-negative-time"),
])
def test_refusals_are_prompt_single_lines(name, flags, code, says):
    start = time.perf_counter()
    got, out, err, caught = run_driver(name, flags.split())
    assert time.perf_counter() - start < 1.0
    assert (got, out, caught) == (code, "", [])
    assert err.startswith("horolab: ") and err.count("\n") == 1 and says in err


@pytest.mark.parametrize("name, flags, code", [
    ("run_delta_sweep", ["--points=2", "--max-exp=2"], 0),
    ("run_cancellation", ["--scales=10,20"], 0),
    ("run_orbit_decay", ["--count=2"], 0),
    ("run_orbit_decay", ["--times=100"], 2),
])
def test_main_path_matches_cli_run(tmp_path, name, flags, code):
    src = str(pathlib.Path(horolab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [*flags, f"--out={tmp_path / 'table.csv'}"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_driver(name, argv)[:3]
    assert proc.returncode == code


def test_benchmark_draws_the_drivers_ensemble_and_points(monkeypatch):
    # bench/workloads.py keeps its own copies of the orbit-decay ensemble and
    # the delta-sweep torus points; they must stay those of the CLI.
    path = SCRIPTS.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    draws = []
    for draw in (workloads._draw_matrix, cli._draw_matrix):
        rng = np.random.default_rng(np.random.Philox(20240817))
        draws.append([draw(rng) for _ in range(50)])
    assert draws[0] == draws[1]
    points = [{name: xi.tolist() for name, xi in table.items()}
              for table in (workloads.SWEEP_POINTS, cli._SWEEP_POINTS)]
    assert list(points[0].items()) == list(points[1].items())
