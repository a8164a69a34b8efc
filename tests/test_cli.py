"""End-to-end checks of the command line driver.

Everything runs in-process through ``horolab.cli.run`` so exit codes and
output bytes are observable without spawning subprocesses; only the check
of ``verify`` under ``python -O`` needs a fresh interpreter.  The driver
shims under ``scripts/`` are checked in ``test_scripts.py``.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horolab
from conftest import INT64_EDGES, flag_cases, listed
from horolab import affine, orbitlab
from horolab.cli import _build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def rows_of(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


#: Flags that keep each driver command's run small.
DRIVER_FLAGS = {
    "delta-sweep": ("--points", "2", "--max-exp", "2"),
    "cancellation": ("--scales", "10,20"),
    "orbit-decay": ("--count", "1"),
}


class TestAnchors:
    def test_delta_example_brackets_constant(self, capsys):
        code, out = invoke(capsys, "delta", "--k", "1", "--m", "3", "--xi", "0,0", "--y", "0.25")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["y", "value", "tail", "Qmax", "Dmax"]
        (row,) = rows
        value, tail = float(row[1]), float(row[2])
        assert value == pytest.approx(4.100019272632206, rel=1e-12)
        assert tail == pytest.approx(36.64100505713753, rel=1e-12)
        # the y -> 0 limit for the zero torus point sits inside the bracket
        assert value < 16.42 < value + tail

    def test_quadsum_example(self, capsys):
        code, out = invoke(capsys, "quadsum", "--q", "2", "--N", "1", "--v", "0,0,0,0")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["q", "value_re", "value_im", "bound", "ratio"]
        assert float(rows[0][1]) == pytest.approx(-4.0, abs=1e-9)
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-9)

    def test_kloosterman_within_bound(self, capsys):
        code, out = invoke(capsys, "kloosterman", "--m", "1", "--n", "2", "--q", "3,5,7,11,13")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 5
        for row in rows:
            assert abs(float(row[1])) <= float(row[2]) + 1e-9
            assert float(row[3]) <= 1.0 + 1e-9

    def test_kloosterman_twist_beyond_int64(self, capsys):
        # 2^62 + 3 is 0 mod 7, so its row is the m = 0 row; 10^20 does not fit int64.
        _, zero = invoke(capsys, "kloosterman", "--m", "0", "--q", "7")
        code, big = invoke(capsys, "kloosterman", "--m", "4611686018427387907", "--q", "7")
        assert code == 0 and big == zero
        code, out = invoke(capsys, "kloosterman", "--m", str(10**20), "--q", "7")
        _, same = invoke(capsys, "kloosterman", "--m", str(10**20 % 7), "--q", "7")
        assert code == 0 and out == same

    def test_lfd_default_finds_no_witness(self, capsys):
        code, out = invoke(capsys, "lfd")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["ok", "d", "q"]
        assert rows[0][0] == "1"

    def test_lfd_witness_for_rational_direction(self, capsys):
        code, out = invoke(capsys, "lfd", "--psi", "0.5", "--c", "0.5", "--kappa", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0][0] == "0"
        assert int(rows[0][1]) >= 1

    @pytest.mark.parametrize(
        "matrix",
        [
            # u_{1e19} reduces by a word with an entry past 2^63, where the
            # coset arithmetic (int64) would overflow.
            "1,1e19,0,1",
            # Re M(i) of g u_t overflows to inf for every t != 0.
            "1e200,0,0,1e-200",
        ],
        ids=["word-beyond-int64", "tau-overflow"],
    )
    def test_unreducible_pointwise_orbit_maps_to_two(self, capsys, matrix):
        argv = ["orbit", "--route", "pointwise", "--matrix", matrix, "--freq", "1,0", "--T", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("horolab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["2", "2000"])
    def test_lfd_exact_hit_survives_an_underflowed_bound(self, capsys, alpha):
        code, out = invoke(capsys, "lfd", "--psi", "0.5", "--qmax", "1", "--alpha", alpha)
        assert code == 0
        assert rows_of(out)[1] == [["0", "2", "1"]]


class TestTables:
    def test_headers_match_documented_schemas(self, tmp_path, capsys):
        schemas = {
            "delta": ["y", "value", "tail", "Qmax", "Dmax"],
            "lfd": ["ok", "d", "q"],
            "sgq": ["T", "value", "witness1", "witness2"],
            "expsum": ["X", "lhs_re", "lhs_im", "rhs", "ratio"],
            "kloosterman": ["q", "value", "bound", "ratio"],
            "quadsum": ["q", "value_re", "value_im", "bound", "ratio"],
            "orbit": ["T", "avg_re", "avg_im", "limit", "error"],
            "horocycle": ["y", "average", "limit", "error"],
            "theorem4": ["T", "term0", "series", "tail"],
            "delta-sweep": ["point", "y", "value", "tail"],
            "cancellation": ["X", "twisted_abs", "flat_abs", "rhs", "ratio"],
            "orbit-decay": ["index", "T", "term0", "series", "tail", "slope"],
        }
        # The usage text lists each table command's columns; they must be its header.
        _, usage = invoke(capsys, "--help")
        listed = dict(re.findall(r"^  ([\w-]+) .*; columns (\S+)$", usage, re.MULTILINE))
        assert listed.keys() == schemas.keys()
        args = {"horocycle": ("--y", "0.3"), "theorem4": ("--T", "50"), **DRIVER_FLAGS}
        target = tmp_path / "table.csv"
        for command, expected in schemas.items():
            code, _ = invoke(capsys, command, *args.get(command, ()), "--out", str(target))
            assert code == 0, command
            header, rows = rows_of(target.read_text())
            assert header == expected == listed[command].split(","), command
            assert rows

    @pytest.mark.parametrize("command", DRIVER_FLAGS)
    def test_driver_tables_carry_seventeen_digits_and_newlines(self, tmp_path, capsys, command):
        # The drivers' --out tables follow the rule of every table: .17g floats, "\n" line ends.
        target = tmp_path / "table.csv"
        code, out = invoke(capsys, command, *DRIVER_FLAGS[command], "--out", str(target))
        assert code == 0
        raw = target.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        _, rows = rows_of(raw.decode())
        assert out.endswith(f"wrote {len(rows)} rows to {target}\n")
        cells = [cell for row in rows for cell in row if cell not in _SWEEP_POINT_NAMES]
        assert cells and all(cell == format(float(cell), ".17g") for cell in cells)
        # The report goes to stdout and the table only to --out.
        _, report = invoke(capsys, command, *DRIVER_FLAGS[command])
        assert out == f"{report}wrote {len(rows)} rows to {target}\n"

    @pytest.mark.parametrize("command", DRIVER_FLAGS)
    def test_driver_json_without_out_is_refused(self, capsys, command):
        # Without --out a driver prints only its report, so --format json would do nothing.
        assert "only the report is printed" in _build_parser(command).format_help()
        assert run([command, *DRIVER_FLAGS[command], "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"horolab: --format json needs --out: without it {command} prints only its report\n")
        assert run([command, *DRIVER_FLAGS[command], "--format", "csv"]) == 0

    def test_orbit_decay_keeps_its_ensemble_seed(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        for flags, seed in (((), 20240817), (("--seed", "5"), 5)):
            assert invoke(capsys, "orbit-decay", "--count", "1", *flags, "--format", "json",
                          "--out", str(target))[0] == 0
            meta = json.loads(target.read_text())["metadata"]
            assert meta["seed"] == meta["params"]["seed"] == seed

    def test_schedule_spans_rows_in_order(self, capsys):
        code, out = invoke(capsys, "theorem4", "--T", "300,100,200")
        assert code == 0
        _, rows = rows_of(out)
        assert [float(r[0]) for r in rows] == [300.0, 100.0, 200.0]

    def test_floats_carry_seventeen_significant_digits(self, capsys):
        _, out = invoke(capsys, "delta", "--y", "0.37")
        _, rows = rows_of(out)
        cell = rows[0][1]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) >= 16
        assert float(cell) == float(format(float(cell), ".17g"))

    def test_out_flag_writes_the_same_bytes(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out = invoke(capsys, "expsum", "--X", "4,6")
        code2, silent = invoke(capsys, "expsum", "--X", "4,6", "--out", str(target))
        assert code == code2 == 0
        assert silent == ""
        assert target.read_text() == out

    def test_json_document_shape(self, capsys):
        code, out = invoke(capsys, "delta", "--format", "json", "--y", "0.5,0.25", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"metadata", "rows"}
        meta = doc["metadata"]
        assert meta["command"] == "delta"
        assert meta["seed"] == 7
        assert meta["version"]
        assert meta["params"]["y"] == [0.5, 0.25]
        assert [r["y"] for r in doc["rows"]] == [0.5, 0.25]
        assert set(doc["rows"][0]) == {"y", "value", "tail", "Qmax", "Dmax"}

    def test_reruns_are_byte_identical(self, capsys):
        argv = ("expsum", "--X", "4,8", "--alpha", "0.1,0.2,0.3,0.4", "--format", "json")
        _, first = invoke(capsys, *argv)
        _, second = invoke(capsys, *argv)
        assert first == second

    def test_cached_parsers_give_the_same_bytes(self, capsys):
        # Each command's parser is built once and reused by every run.
        assert _build_parser("theorem4") is _build_parser("theorem4")
        for argv in (("theorem4", "--T", "100,1000"), ("expsum", "--help")):
            first, second = invoke(capsys, *argv), invoke(capsys, *argv)
            assert first == second and first[0] == 0 and first[1]


class TestConfigFile:
    def test_flags_override_config_which_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y = 0.125\nm = 4  # heavier decay\n")
        _, from_cfg = invoke(capsys, "delta", "--config", str(cfg))
        assert float(rows_of(from_cfg)[1][0][0]) == 0.125
        _, overridden = invoke(capsys, "delta", "--config", str(cfg), "--y", "0.5")
        assert float(rows_of(overridden)[1][0][0]) == 0.5
        # m = 4 from the file still applies alongside the overriding flag
        _, plain = invoke(capsys, "delta", "--y", "0.5")
        assert overridden != plain

    def test_hyphenated_key_reads_like_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-exp = 2\n")
        target = tmp_path / "sweep.json"

        def heights(*flags):
            argv = ("delta-sweep", "--max-exp", "3", "--points", "2", "--format", "json")
            assert invoke(capsys, *argv, *flags, "--out", str(target))[0] == 0
            doc = json.loads(target.read_text())
            return doc["metadata"]["params"]["min-exp"], [row["y"] for row in doc["rows"][:2]]

        assert heights("--config", str(cfg)) == (2.0, [1e-2, 1e-3])
        assert heights("--config", str(cfg), "--min-exp", "1") == (1.0, [1e-1, 1e-3])
        assert heights("--min-exp=2") == heights("--config", str(cfg))

    def test_unknown_config_key_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("zz = 1\n")
        code, _ = invoke(capsys, "delta", "--config", str(cfg))
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _ = invoke(capsys, "delta", "--config", "/nonexistent/path.cfg")
        assert code == 2


class TestExitCodes:
    SUBCOMMANDS = ("one of delta, lfd, sgq, expsum, kloosterman, quadsum, orbit, horocycle, theorem4, "
                   "delta-sweep, cancellation, orbit-decay, verify")

    def test_unknown_flag(self, capsys):
        assert run(["delta", "--bogus", "1"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["teleport"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"horolab: unknown subcommand 'teleport' ({self.SUBCOMMANDS}; see horolab --help)\n")

    def test_no_arguments_prints_usage(self, capsys):
        # One line naming the subcommands; --help prints the full list.
        assert run([]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"horolab: missing subcommand ({self.SUBCOMMANDS}; see horolab --help)\n"

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: horolab <subcommand>")
        assert len(captured.out.splitlines()) == 2 + len(self.SUBCOMMANDS.split(", "))
        assert run(["delta", "--help"]) == 0

    def test_domain_error_maps_to_two(self, capsys):
        assert run(["delta", "--y", "-0.5"]) == 2
        assert run(["orbit", "--route", "teleport"]) == 2
        assert run(["delta", "--y", "abc"]) == 2
        assert run(["delta", "--format", "xml"]) == 2
        assert run(["sgq", "--matrix", "1,0,0", "--xi", "0,0"]) == 2
        assert run(["lfd", "--dmax", "auto"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("delta", "--m"), ("delta", "--xi"), ("delta", "--y"),
            ("lfd", "--psi"), ("lfd", "--kappa"), ("lfd", "--alpha"), ("lfd", "--c"),
            ("sgq", "--matrix"), ("sgq", "--xi"), ("sgq", "--T"),
            ("expsum", "--B"), ("expsum", "--alpha"), ("expsum", "--X"),
            ("orbit", "--matrix"), ("orbit", "--xi"), ("orbit", "--T"),
            ("horocycle", "--matrix"), ("horocycle", "--xi"), ("horocycle", "--y"),
            ("theorem4", "--matrix"), ("theorem4", "--xi"), ("theorem4", "--m"),
            ("theorem4", "--T"),
        ],
    )
    def test_non_finite_number_maps_to_two(self, capsys, command, flag, bad):
        assert run([command, flag, bad]) == 2

    @pytest.mark.parametrize("flags", [("--X", "1e308"), ("--B", "1e308"), ("--X", "1e308", "--B", "1.5")])
    def test_non_finite_box_side_maps_to_two(self, capsys, flags):
        # Each flag is finite; the box side 2 B X they give is not.
        assert run(["expsum", *flags]) == 2
        assert capsys.readouterr().err == "horolab: box side 2 B X must be a finite number\n"

    @pytest.mark.parametrize("argv", [("theorem4", "--T", "100,1.5,1000"),
                                      ("orbit-decay", "--count", "2", "--times", "100,1.5")])
    def test_short_time_maps_to_two_before_any_gap(self, capsys, monkeypatch, argv):
        def unreachable(*args):
            raise AssertionError("gap scored before the times were checked")

        monkeypatch.setattr(affine, "_gap_block", unreachable)
        assert run(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "horolab: time parameter must be at least 2\n"

    def test_unreduced_gap_basis_maps_to_three(self, capsys, monkeypatch):
        # (2, 1; 1, 1) needs three reduction sweeps; one is not enough.
        monkeypatch.setattr(affine, "_MAX_REDUCTION_SWEEPS", 1)
        assert run(["theorem4", "--matrix", "2,1,1,1", "--xi", "0.3,0.7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "horolab: lattice reduction did not converge within 1 sweeps\n"

    def test_resource_guard_maps_to_four(self, capsys):
        assert run(["horocycle", "--y", "1e-9"]) == 4
        capsys.readouterr()
        # A work count of 152 digits prints in %g form.
        assert run(["delta", "--y", "1e-300"]) == 4
        assert capsys.readouterr().err == "horolab: 4e+151 series work units exceed the cap 2000000000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("expsum", "--X", "1e6"),
            ("delta", "--y", "1e-14"),
            ("horocycle", "--y", "1e300"),
            ("orbit", "--T", "1e300", "--freq", "1,0"),
            ("orbit", "--route", "pointwise", "--T", "1e13", "--freq", "1,0"),
            ("orbit", "--route", "pointwise", "--T", "1e5", "--freq", "1,0"),
            ("lfd", "--psi", "0.1,0.2,0.3,0.4,0.5"),
            ("kloosterman", "--q", "2000001"),
            ("quadsum", "--q", "1000", "--N", "1000"),
            ("lfd", "--dmax", "1000000000"),
            ("theorem4", "--dmax", "1000000"),
            ("delta", "--k", "2", "--qmax", "100", "--xi", "0.1,0.2,0.3,0.4", "--y", "1e-12"),
            # 2^63 - 25 is prime: factoring the level for its covolume needs 1.5e9 divisors.
            ("horocycle", "--level", "9223372036854775783", "--y", "0.1"),
            ("orbit", "--level", "9223372036854775783"),
        ],
        ids=["ball-radius", "sieve-cap", "lattice-height", "lattice-time", "pointwise-huge",
             "pointwise-long", "q-grid", "kloosterman-modulus", "quadsum-shift-classes",
             "lfd-scan", "theorem4-offsets", "series-work", "prime-level-horocycle",
             "prime-level-orbit"],
    )
    def test_oversized_request_is_refused_promptly(self, capsys, argv):
        start = time.perf_counter()
        code = run(list(argv))
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 4
        assert elapsed < 1.0
        assert err.startswith("horolab: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, answered",
        [
            (("theorem4", "--matrix", "2,1,1,1", "--xi", "0.3,0.7", "--m", "3", "--qmax", "3",
              "--dmax", "3"), "1e150"),
            (("sgq", "--matrix", "2,1,1,1", "--xi", "0.3,0.7", "--q", "0"), "1e150"),
            # A non-integer matrix is answered only while eps * T * |M|^2 <= 1e-3.
            (("sgq", "--matrix", "0.8,0.3,-0.2,1.175", "--xi", "0.3,0.7", "--q", "2"), "1e9"),
        ],
        ids=["theorem4", "sgq-q0", "sgq-q2"],
    )
    def test_huge_time_is_refused_without_warnings(self, capsys, argv, answered):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*argv, "--T", "1e160,1e300"])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("horolab: ") and err.count("\n") == 1
            # Below the cap the same flags give a finite table.
            code, out = invoke(capsys, *argv, "--T", answered)
        assert code == 0
        _, rows = rows_of(out)
        assert all(math.isfinite(float(x)) for x in rows[0])

    # Refused partway through the bottom rows.  Which stage's count crosses the
    # cap first depends on the enumeration order; the totals, and so the
    # refused inputs, do not.  Under the real cap these inputs answer (below),
    # and inputs refused midway would run for seconds first, so a small cap
    # stands in for it.
    @pytest.mark.parametrize("argv", [("orbit", "--T", "1e5"), ("horocycle", "--y", "1e-5")])
    def test_lattice_refusal_midway_maps_to_four(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(orbitlab, "CANDIDATE_CAP", 3_000_000)
        assert run(list(argv)) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"horolab: \d+ (bottom-row|translate) candidates exceed the cap 3000000\n", err)

    def test_deep_horocycle_answers_below_the_cap(self, capsys):
        # 5,093,445 bottom-row candidates, refused under the former cap of 3e6.
        code, out = invoke(capsys, "horocycle", "--y", "1e-5")
        assert code == 0
        _, rows = rows_of(out)
        assert abs(float(rows[0][3])) < 1e-4

    # Found by the flag draws of TestExitContract: a level, frequency or
    # projection vector past int64 ended in a traceback, and a subnormal
    # matrix entry or a torus point near the float limit warned of an
    # overflow.  The torus point is read mod 1, so those give tables.
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("horocycle", "--level=1000000000000000000000"), 2),
            (("orbit", "--route=pointwise", "--level=9223372036854775808"), 2),
            (("orbit", "--freq=9223372036854775808,0"), 2),
            (("orbit", "--freq=1000000000000000000000,0"), 2),
            (("orbit", "--matrix=5e-324,-1,1,0"), 0),
            (("orbit", "--xi=1e308,-1e308", "--freq=1,1"), 0),
            (("horocycle", "--matrix=2,1,1,1", "--xi=1e308,0"), 0),
            (("delta", "--xi=1e308,-1e308"), 0),
            (("sgq", "--matrix=5e-324,-1,1,0"), 0),
            (("theorem4", "--matrix=5e-324,-1,1,0"), 0),
            (("sgq", "--q=9223372036854775808"), 2),
        ],
        ids=["level", "pointwise-level", "freq-uint64", "freq-past-uint64", "subnormal-entry",
             "orbit-torus-point", "horocycle-torus-point", "delta-torus-point",
             "sgq-subnormal-entry", "theorem4-subnormal-entry", "sgq-projection-uint64"],
    )
    def test_extreme_orbit_flags_end_without_warnings(self, capsys, argv, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(list(argv)) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("horolab: ") and err.count("\n") == 1
        else:
            _, rows = rows_of(out)
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_routes_agree_at_a_huge_torus_point(self, capsys):
        argv = ("orbit", "--xi=1e308,-1e308", "--freq=1,1", "--T=10")
        _, lattice = rows_of(invoke(capsys, *argv)[1])
        _, pointwise = rows_of(invoke(capsys, *argv, "--route=pointwise")[1])
        assert abs(float(lattice[0][1]) - float(pointwise[0][1])) < 1e-6
        assert abs(float(lattice[0][2]) - float(pointwise[0][2])) < 1e-6
        assert abs(float(lattice[0][1])) > 1.0

    def test_overflowing_orbit_time_is_refused_without_warnings(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            assert run(["orbit", "--T=1e308"]) == 4
        assert caught == []
        assert capsys.readouterr().err == "horolab: inf bottom-row columns exceed the cap 50000000\n"

    # alpha and kappa at -1e308 make the bound infinite, at d = 2 and at |q| = 2;
    # d q psi overflows for psi = +-1e308.
    @pytest.mark.parametrize(
        "flag, code, out",
        [
            ("--alpha=-1e308", 0, "ok,d,q\n0,2,1\n"),
            ("--kappa=-1e308", 0, "ok,d,q\n0,1,2\n"),
            ("--psi=1e308", 2, ""),
            ("--psi=-1e308", 2, ""),
        ],
    )
    def test_extreme_lfd_flags_end_without_warnings(self, capsys, flag, code, out):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            assert invoke(capsys, "lfd", flag) == (code, out)
        assert caught == []

    def test_noisy_gap_is_refused(self, capsys):
        argv = ["sgq", "--matrix", "1.3,0.4,0.7,0.9846153846153846", "--xi", "0.3,0.7", "--q", "2"]
        assert run([*argv, "--T", "1e100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("horolab: ") and "Traceback" not in err
        # eps * T * |M|^2 is 7.3e-4 at T = 1e12, and integer matrices have no limit.
        assert run([*argv, "--T", "1e12"]) == 0
        integer = ["sgq", "--matrix", "2,1,1,1", "--xi", "0.3,0.7", "--q", "2", "--T", "1e100"]
        assert run(integer) == 0

    def test_unwritable_out_maps_to_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        assert run(["expsum", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"horolab: cannot write {target}: ") and "Traceback" not in err
        assert not target.parent.exists()

    def test_unwritable_out_is_refused_before_any_work(self, tmp_path, capsys):
        # The pointwise route takes seconds at T = 2000; the path is tried first.
        target = tmp_path / "missing" / "t.csv"
        start = time.perf_counter()
        code = run(["orbit", "--route", "pointwise", "--T", "2000", "--out", str(target)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"horolab: cannot write {target}: ") and err.count("\n") == 1

    def test_refused_run_leaves_an_existing_out_file_as_it_was(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        kept = b"X,lhs_re\r\n4,1\n" * 50
        target.write_bytes(kept)
        assert run(["expsum", "--X", "1e6", "--out", str(target)]) == 4
        assert target.read_bytes() == kept
        # A run that succeeds replaces the whole, longer file with its table.
        _, table = invoke(capsys, "expsum")
        assert run(["expsum", "--out", str(target)]) == 0
        assert target.read_text() == table and len(table) < len(kept)

    @pytest.mark.parametrize("flags", [("--dmax", "0"), ("--dmax", "-5"), ("--qmax", "0")])
    def test_empty_lfd_scan_is_refused(self, capsys, flags):
        assert run(["lfd", *flags]) == 2
        assert capsys.readouterr().out == ""

    def test_mismatched_block_counts(self, capsys):
        assert run(["delta", "--k", "2", "--xi", "0,0"]) == 2
        assert run(["orbit", "--freq", "1,0,0,1"]) == 2


#: In-range texts per expsum flag, kept small so each run takes milliseconds.
_EXPSUM_VALUES = {
    "--X": listed(st.floats(1.0, 40.0).map(repr), (1, 3)),
    "--B": st.floats(1.0, 3.0).map(repr),
    "--N": st.integers(1, 12).map(str) | st.sampled_from((str(2**63 - 1), str(10**21))),
    "--rep": listed(st.integers(-30, 30).map(str), (4, 4)) | st.just("1,0,0,1"),
    "--alpha": listed(st.floats(-3.0, 3.0).map(repr) | st.sampled_from(("1e308", "-1e300", "4.5e15")),
                      (4, 4)),
}


#: In-range texts for the flags of the base point, shared by orbit and horocycle.
_ELEMENT_VALUES = {
    "--matrix": listed(st.integers(-3, 3).map(str), (4, 4))
    | st.sampled_from(("2,1,1,1", "0,-1,1,0", "1,2,0,1", "5e-324,-1,1,0")),
    "--xi": listed(st.floats(-2.0, 2.0).map(repr) | st.sampled_from(("1e308", "-1e308", "5e-324")),
                   (1, 4)),
    "--level": st.integers(1, 6).map(str) | st.sampled_from(INT64_EDGES),
}
_HOROCYCLE_VALUES = {
    **_ELEMENT_VALUES,
    "--y": st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=3, unique=True).map(
        lambda ys: ",".join(map(repr, sorted(ys, reverse=True)))),
}
_ORBIT_VALUES = {
    **_ELEMENT_VALUES,
    "--freq": listed(st.integers(-3, 3).map(str) | st.sampled_from(INT64_EDGES), (1, 4)),
    "--T": listed(st.floats(1.0, 100.0).map(repr), (1, 3)),
    "--route": st.sampled_from(("lattice", "pointwise", "Lattice", "secant")),
}


_SMALL_INTS = st.integers(-3, 3).map(str) | st.sampled_from(INT64_EDGES)
_DEGREES = st.integers(1, 30).map(str) | st.sampled_from(INT64_EDGES)
_DELTA_VALUES = {
    "--k": st.integers(1, 2).map(str) | st.sampled_from(INT64_EDGES),
    "--m": st.floats(0.5, 5.0).map(repr),
    "--qmax": _DEGREES,
    "--dmax": _DEGREES | st.just("auto"),
    "--xi": _ELEMENT_VALUES["--xi"],
    "--y": listed(st.floats(1e-6, 10.0).map(repr), (1, 3)),
}
_LFD_VALUES = {
    "--psi": listed(st.floats(-2.0, 2.0).map(repr), (1, 3)),
    "--kappa": st.floats(0.0, 4.0).map(repr),
    "--alpha": st.floats(0.0, 3.0).map(repr),
    "--c": st.floats(0.0, 1.0).map(repr),
    "--qmax": _DEGREES,
    "--dmax": _DEGREES,
}
_SGQ_VALUES = {
    "--matrix": _ELEMENT_VALUES["--matrix"],
    "--xi": _ELEMENT_VALUES["--xi"],
    "--q": listed(_SMALL_INTS, (1, 2)),
    "--T": listed(st.floats(1.0, 1e4).map(repr), (1, 3)),
}
_KLOOSTERMAN_VALUES = {
    "--m": _SMALL_INTS,
    "--n": _SMALL_INTS,
    "--q": listed(st.integers(1, 60).map(str) | st.sampled_from(INT64_EDGES), (1, 3)),
}
_QUADSUM_VALUES = {
    "--q": listed(_DEGREES, (1, 3)),
    "--N": st.integers(1, 6).map(str) | st.sampled_from(INT64_EDGES),
    "--rep": listed(st.integers(-6, 6).map(str), (4, 4)) | st.just("1,0,0,1"),
    "--v": listed(_SMALL_INTS, (4, 4)),
}
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
#: The names in delta-sweep's point column.
_SWEEP_POINT_NAMES = ("origin", "golden", "quadratic", "rational")
_THEOREM4_VALUES = {
    "--matrix": _ELEMENT_VALUES["--matrix"],
    "--xi": _ELEMENT_VALUES["--xi"],
    "--m": st.floats(0.5, 5.0).map(repr),
    "--qmax": _DEGREES,
    "--dmax": _DEGREES | st.just("auto"),
    "--T": listed(st.floats(1.0, 1e4).map(repr), (1, 3)),
}


def _numbers(rows):
    """The numbers of a table's cells.  lfd's q cell lists a witness as
    ';'-joined integers or is empty, and delta-sweep's point cell is a name:
    parts that are not numbers are skipped."""
    for row in rows:
        for cell in row:
            for part in cell.split(";"):
                with contextlib.suppress(ValueError):
                    yield float(part)


class TestExitContract:
    """Every input ends in a finite table or in exit 2, 3 or 4, with no warning.

    Each case sets one flag, as ``--flag=value`` so that a leading minus
    reaches the converter.  ``orbit --T=1e5`` is refused by a lattice guard
    after about a second, hence the deadlines of the orbit and horocycle
    cases."""

    @staticmethod
    def check(command, *flags):
        """The exit code of one run, checked against the contract; returns it
        with the stderr text.  Every table goes to ``--out`` and is read back
        from there; stdout then holds only a driver's report."""
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / "table.csv"
            to_file = () if command == "verify" else (f"--out={target}",)
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = run([command, *to_file, *flags])
            assert code in (0, 2, 3, 4), err.getvalue()
            assert [str(w.message) for w in caught] == []
            if code == 0:
                _, rows = rows_of(target.read_text())
                assert rows and all(math.isfinite(x) for x in _numbers(rows))
                report = command in DRIVER_FLAGS
                assert out.getvalue().endswith(f"wrote {len(rows)} rows to {target}\n") == report
            else:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("horolab: ") and err.getvalue().count("\n") == 1
        return code, err.getvalue()

    @pytest.mark.parametrize("argv, err", [
        pytest.param(("expsum", "--bogus", "1"), "unrecognized arguments: --bogus 1",
                     id="unknown-flag"),
        pytest.param(("delta", "--y"), "argument --y: expected one argument", id="missing-value"),
        pytest.param(("delta", "--y", "abc"),
                     "argument --y: expected comma-separated numbers, got 'abc'",
                     id="unreadable-text"),
        pytest.param(("theorem4", "--format", "xml"),
                     "argument --format: expected csv or json, got 'xml'", id="unknown-format"),
        pytest.param(("orbit", "--route", "teleport"),
                     "argument --route: expected lattice or pointwise, got 'teleport'",
                     id="unknown-route"),
    ])
    def test_unreadable_input_is_one_line(self, argv, err):
        assert self.check(*argv) == (2, f"horolab: {err}\n")

    @pytest.mark.parametrize("flags", [("--out", "v.txt"), ("--format", "json"),
                                       ("--out", "v.txt", "--format", "json")])
    def test_verify_writes_no_table(self, tmp_path, monkeypatch, flags):
        # verify prints its checks only, so a table flag is refused, not ignored.
        monkeypatch.chdir(tmp_path)
        assert self.check("verify", *flags) == (
            2, f"horolab: unrecognized arguments: {' '.join(flags)}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flags[0][2:]} = {flags[1]}\n")
        assert self.check("verify", "--config", str(cfg)) == (
            2, f"horolab: {cfg}:1: unknown key {flags[0][2:]!r}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unreadable_config_value_is_one_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert self.check("delta", "--config", str(cfg)) == (
            2, "horolab: argument --format: expected csv or json, got 'xml'\n")

    def test_theorem4_dmax_takes_an_integer(self):
        # The orbit gap bound has no automatic d_max, so the parser refuses 'auto'.
        assert self.check("theorem4", "--dmax", "auto") == (
            2, "horolab: argument --dmax: expected an integer, got 'auto'\n")

    @settings(max_examples=150, deadline=1000)
    @given(flag_cases(_EXPSUM_VALUES))
    def test_expsum_flag(self, case):
        self.check("expsum", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_HOROCYCLE_VALUES))
    def test_horocycle_flag(self, case):
        self.check("horocycle", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_ORBIT_VALUES))
    def test_orbit_flag(self, case):
        self.check("orbit", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_DELTA_VALUES))
    def test_delta_flag(self, case):
        self.check("delta", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_LFD_VALUES))
    def test_lfd_flag(self, case):
        self.check("lfd", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_SGQ_VALUES))
    def test_sgq_flag(self, case):
        self.check("sgq", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_KLOOSTERMAN_VALUES))
    def test_kloosterman_flag(self, case):
        self.check("kloosterman", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_QUADSUM_VALUES))
    def test_quadsum_flag(self, case):
        self.check("quadsum", "=".join(case))

    @settings(max_examples=100, deadline=5000)
    @given(flag_cases(_THEOREM4_VALUES))
    def test_theorem4_flag(self, case):
        self.check("theorem4", "=".join(case))

    # The drivers' commands run small, as their shims would; the drawn flag comes last and wins.
    @settings(max_examples=60, deadline=2000)
    @given(flag_cases(_ORBIT_DECAY_VALUES))
    def test_orbit_decay_flag(self, case):
        self.check("orbit-decay", "--count=2", "=".join(case))

    @settings(max_examples=60, deadline=2000)
    @given(flag_cases(_DELTA_SWEEP_VALUES))
    def test_delta_sweep_flag(self, case):
        self.check("delta-sweep", "=".join(case))

    @settings(max_examples=60, deadline=2000)
    @given(flag_cases(_CANCELLATION_VALUES))
    def test_cancellation_flag(self, case):
        self.check("cancellation", "--scales=10,20", "=".join(case))


class TestVerify:
    def test_battery_passes(self, capsys):
        code, out = invoke(capsys, "verify")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) >= 8
        assert all(line.startswith("ok ") for line in lines)

    def test_battery_is_seedable(self, capsys):
        assert run(["verify", "--seed", "123"]) == 0

    @pytest.mark.parametrize("command", ["verify", "delta"])
    def test_negative_seed_is_refused(self, capsys, command):
        # The generator key is checked once, for every subcommand.
        assert run([command, "--seed=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "horolab: argument --seed: expected a non-negative integer, got '-1'\n"

    def test_failure_survives_optimize_and_names_the_value(self):
        script = (
            "import sys, horolab.cli as cli\n"
            "cli.kloosterman = lambda m, n, q: 1e9\n"
            "sys.exit(cli.run(['verify']))\n"
        )
        src = str(pathlib.Path(horolab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 1, proc.stderr
        last = proc.stdout.strip().split("\n")[-1]
        assert last.startswith("FAIL kloosterman-weil: |K(") and "= 1000000000 > " in last


class TestHorocycleTable:
    def test_error_shrinks_down_the_schedule(self, capsys):
        code, out = invoke(capsys, "horocycle", "--xi", "0.5,0.5", "--y", "0.2,0.02")
        assert code == 0
        _, rows = rows_of(out)
        errors = [float(r[3]) for r in rows]
        assert errors[1] < errors[0]
        limit = float(rows[0][2])
        assert math.isfinite(limit) and limit > 0
