"""The ``scripts/`` drivers follow the command line's exit codes."""

import contextlib
import csv
import functools
import importlib.util
import io
import math
import pathlib
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INT64_EDGES, flag_cases, listed

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@functools.cache
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


def run_driver(name, argv):
    """Exit code, stdout, stderr and warning messages of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = load(name).main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("name", ["run_delta_sweep", "run_cancellation", "run_orbit_decay"])
def test_help_prints_usage_and_exits_zero(name):
    code, out, err, caught = run_driver(name, ["--help"])
    assert (code, err, caught) == (0, "", [])
    assert out.startswith(f"usage: {name} ") and "--out OUT" in out


def test_refused_run_leaves_an_existing_out_file_as_it_was(tmp_path):
    target = tmp_path / "table.csv"
    target.write_bytes(b"X,twisted_abs\r\n25,1\n")
    code, _, err, _ = run_driver("run_cancellation", ["--scales", "1,2", "--out", str(target)])
    assert code == 2 and err.startswith("run_cancellation: ")
    assert target.read_bytes() == b"X,twisted_abs\r\n25,1\n"


@pytest.mark.parametrize("name, flags, code", [
    pytest.param("run_orbit_decay", "--seed=-1", 2, id="orbit-decay-negative-seed"),
    pytest.param("run_orbit_decay", f"--count={2**63 - 1}", 4, id="orbit-decay-int64-count"),
    pytest.param("run_delta_sweep", "--min-exp=-1e308", 2, id="delta-sweep-min-exp-overflow"),
    pytest.param("run_delta_sweep", "--min-exp=-400", 2, id="delta-sweep-min-exp-negative"),
    pytest.param("run_delta_sweep", "--max-exp=inf", 2, id="delta-sweep-max-exp-inf"),
    pytest.param("run_delta_sweep", "--max-exp=-inf", 2, id="delta-sweep-max-exp-minus-inf"),
    pytest.param("run_delta_sweep", "--points=100000000000", 4, id="delta-sweep-points-745-gib"),
    pytest.param("run_delta_sweep", "--points=1000000", 4, id="delta-sweep-points-million"),
    # Few enough heights, but near y = 1e-12 each costs about a second.
    pytest.param("run_delta_sweep", "--max-exp=12 --points=6000", 4, id="delta-sweep-series-work"),
    # A flag whose type cannot read its text.
    pytest.param("run_orbit_decay", "--count=abc", 2, id="orbit-decay-count-not-int"),
    pytest.param("run_cancellation", "--bogus 1", 2, id="cancellation-unknown-flag"),
    pytest.param("run_delta_sweep", "--points", 2, id="delta-sweep-missing-value"),
    # Below X = 1.5 the box holds no matrix of positive weight, and log 0 warned.
    pytest.param("run_cancellation", "--scales=1,2", 2, id="cancellation-zero-sum"),
])
def test_refusals_are_prompt_single_lines(name, flags, code):
    start = time.perf_counter()
    got, out, err, caught = run_driver(name, flags.split())
    assert time.perf_counter() - start < 1.0
    assert (got, out, caught) == (code, "", [])
    assert err.startswith(f"{name}: ") and err.count("\n") == 1


#: Flags that keep a run to milliseconds; the drawn flag comes after them and wins.
_SMALL_RUN = {
    "run_orbit_decay": ["--count=2"],
    "run_delta_sweep": [],
    "run_cancellation": ["--scales=10,20"],
}
#: In-range texts per driver flag.  ``--out`` is the file each case writes.
_ORBIT_DECAY_VALUES = {
    "--count": st.integers(1, 3).map(str) | st.sampled_from(INT64_EDGES),
    "--seed": st.integers(0, 2**64).map(str) | st.sampled_from(INT64_EDGES),
    "--times": listed(st.floats(10.0, 1e6).map(repr), (2, 3)),
    "--m": st.floats(0.5, 5.0).map(repr),
    "--qmax": st.integers(1, 12).map(str) | st.sampled_from(INT64_EDGES),
    "--dmax": st.integers(1, 12).map(str) | st.sampled_from(INT64_EDGES),
}
_DELTA_SWEEP_VALUES = {
    "--m": st.floats(0.5, 5.0).map(repr),
    "--qmax": st.integers(1, 30).map(str) | st.sampled_from(INT64_EDGES),
    "--min-exp": st.floats(0.0, 8.0).map(repr),
    "--max-exp": st.floats(0.0, 8.0).map(repr),
    "--points": st.integers(2, 40).map(str) | st.sampled_from(INT64_EDGES),
}
_CANCELLATION_VALUES = {
    "--scales": listed(st.floats(1.0, 40.0).map(repr), (2, 3)),
    "--N": st.integers(1, 6).map(str) | st.sampled_from(INT64_EDGES),
    "--B": st.floats(1.0, 3.0).map(repr),
}


class TestExitContract:
    """Every input ends in a table of finite numbers or in exit 2, 3 or 4, with
    no warning, as for the command line.  Each case sets one flag, as
    ``--flag=value``, on a small run that writes its table with ``--out``."""

    @staticmethod
    def check(name, flag, text):
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / "table.csv"
            argv = [*_SMALL_RUN[name], f"{flag}={text}", f"--out={target}"]
            code, _, err, caught = run_driver(name, argv)
            assert caught == []
            assert code in (0, 2, 3, 4), err
            if code == 0:
                with target.open(newline="") as fh:
                    _, *rows = csv.reader(fh)
                if name == "run_delta_sweep":
                    rows = [row[1:] for row in rows]  # the first cell names the torus point
                assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
            else:
                assert err.startswith(f"{name}: ") and err.count("\n") == 1

    @settings(max_examples=60, deadline=2000)
    @given(flag_cases(_ORBIT_DECAY_VALUES))
    def test_orbit_decay_flag(self, case):
        self.check("run_orbit_decay", *case)

    @settings(max_examples=60, deadline=2000)
    @given(flag_cases(_DELTA_SWEEP_VALUES))
    def test_delta_sweep_flag(self, case):
        self.check("run_delta_sweep", *case)

    @settings(max_examples=60, deadline=2000)
    @given(flag_cases(_CANCELLATION_VALUES))
    def test_cancellation_flag(self, case):
        self.check("run_cancellation", *case)
