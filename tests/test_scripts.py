"""The ``scripts/`` drivers follow the command line's exit codes."""

import importlib.util
import pathlib
import time

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_delta_sweep", "run_cancellation", "run_orbit_decay"])
def test_unwritable_out_exits_two_before_any_work(tmp_path, capsys, name):
    target = tmp_path / "missing" / "table.csv"
    start = time.perf_counter()
    code = load(name).main(["--out", str(target)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert out == ""
    assert err.startswith(f"{name}: cannot write {target}: ") and err.count("\n") == 1


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
def test_library_errors_map_to_exit_codes(capsys, name, argv, code):
    assert load(name).main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{name}: ") and err.count("\n") == 1


def test_out_holds_the_printed_rows(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    assert load("run_delta_sweep").main(["--points", "3", "--max-exp", "3", "--out", str(target)]) == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "point,y,value,tail"
    assert len(lines) == 1 + 4 * 3
    assert capsys.readouterr().out.endswith(f"wrote 12 rows to {target}\n")
