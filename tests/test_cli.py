"""Command-line interface tests (in-process via main(argv))."""

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from yukawa_atom import ScreeningLaw, ScreeningModel, UnitSystem, cli, screening_delta
from yukawa_atom.cli import main
from yukawa_atom.perturbation import HARTREE_EV


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestLevel:
    def test_z3_ground_state(self, capsys):
        code, out, _ = run_cli(capsys, "level", "--z", "3", "--n", "0", "--l", "0",
                               "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["total_kev"]) == pytest.approx(-0.05405687, rel=1e-4)
        assert float(row["total_hartree"]) == pytest.approx(-1.98650850, rel=1e-8)

    def test_pure_coulomb_path(self, capsys):
        code, out, _ = run_cli(capsys, "level", "--z", "5", "--n", "0", "--l", "0",
                               "--order", "0", "--delta0", "0", "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["total_hartree"]) == -12.5
        assert float(row["delta"]) == 0.0

    def test_z9_2p_level(self, capsys):
        code, out, _ = run_cli(capsys, "level", "--z", "9", "--n", "0", "--l", "1",
                               "--format", "csv")
        assert code == 0
        assert float(parse_csv(out)[0]["total_kev"]) == pytest.approx(-0.012158, rel=1e-4)

    def test_invalid_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["level", "--z", "0", "--n", "0", "--l", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["level", "--z", "3", "--n", "0"])
        assert excinfo.value.code == 2

    def test_human_format_mentions_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "level", "--z", "3", "--n", "0", "--l", "0")
        assert code == 0
        for column in ("e0_hartree", "e1_hartree", "e3_hartree", "total_kev"):
            assert column in out


class TestTable:
    def test_paper_z_list_has_22_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--shell", "E00", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 22
        assert [int(r["z"]) for r in rows] == sorted(int(r["z"]) for r in rows)

    def test_range_restricted_to_paper(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--shell", "E00", "--z", "3..84:paper",
                               "--format", "csv")
        assert code == 0
        assert len(parse_csv(out)) == 22

    def test_e10_row_value(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--shell", "E10", "--z", "14",
                               "--format", "csv")
        assert code == 0
        assert float(parse_csv(out)[0]["total_kev"]) == pytest.approx(-0.130396, rel=1e-4)

    def test_e11_computable_without_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--shell", "E11", "--z", "9",
                               "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["shell"] == "E11"
        assert float(row["total_kev"]) < 0.0

    def test_explicit_range(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--shell", "E00", "--z", "3..6",
                               "--format", "csv")
        assert code == 0
        assert [int(r["z"]) for r in parse_csv(out)] == [3, 4, 5, 6]

    def test_unknown_shell_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--shell", "E22"])
        assert excinfo.value.code == 2

    def test_bad_z_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--shell", "E00", "--z", "abc"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("spec, message", [("3..x", "bad Z range '3..x'"),
                                               (",", "empty Z list"),
                                               ("abc", "bad Z value 'abc'")])
    def test_bad_range_and_empty_list_exit_2(self, capsys, spec, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--shell", "E00", "--z", spec])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_nonphysical_z_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--shell", "E00", "--z", "0"])
        assert excinfo.value.code == 2

    def test_zero_delta0_forces_coulomb(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--shell", "E10", "--z", "9,14",
                               "--delta0", "0", "--format", "csv")
        assert code == 0
        for row in parse_csv(out):
            z = float(row["z"])
            assert float(row["total_hartree"]) == -z * z / 8.0
            assert float(row["delta"]) == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_identical_invocations_identical_output(self, capsys, fmt):
        argv = ("table", "--shell", "E00", "--z", "3,9,84", "--format", fmt)
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_json_and_csv_carry_identical_numbers(self, capsys):
        argv = ("table", "--shell", "E01", "--z", "9,84")
        _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)["rows"]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key in ("delta", "e0_hartree", "total_hartree", "total_kev"):
                assert float(c[key]) == j[key]

    @pytest.mark.parametrize("rows, summary", [
        ([{"z": 3, "shell": "E00", "total": -1.98650850123, "note": None}] * 2, None),
        ([], None),
        ([], {"worst_z": 84, "max_rel_diff": 2.5e-05, "source": None}),
        ([{"z": 9, "shell": "Ångström µ \"q\"\n", "total": float("nan"), "note": "x"}],
         {"source": "ü", "max_abs_diff": 1e300}),
        ([{"z": 1, "shell": "E01", "total": 0.1, "note": ""}], {}),
    ])
    def test_json_layout_is_json_dumps_indent_2(self, capsys, rows, summary):
        # the rows are encoded flat and laid out by hand, byte for byte
        columns = ["z", "shell", "total", "note"]
        cli._render(rows, columns, "json", summary)
        payload = {"rows": [{k: cli._json_value(r.get(k)) for k in columns} for r in rows]}
        if summary is not None:
            payload["summary"] = {k: cli._json_value(v) for k, v in summary.items()}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_nine_significant_digit_formatting(self, capsys):
        _, out, _ = run_cli(capsys, "level", "--z", "3", "--n", "0", "--l", "0",
                            "--format", "csv")
        total = parse_csv(out)[0]["total_hartree"]
        assert total == f"{float(total):.9g}"
        assert total.startswith("-1.9865085")


class TestReusedParser:
    """``main`` parses every command with one parser per process."""

    def test_append_does_not_leak(self, capsys):
        run_cli(capsys, "verify", "--z", "1", "--state", "1,0", "--state", "0,1",
                "--format", "csv")
        code, out, _ = run_cli(capsys, "verify", "--z", "1", "--format", "csv")
        assert code == 0
        assert [(r["n"], r["l"]) for r in parse_csv(out)] == [("0", "0")]

    def test_option_falls_back_to_default(self, capsys):
        argv = ("level", "--z", "29", "--n", "0", "--l", "0", "--format", "csv")
        _, out, _ = run_cli(capsys, *argv, "--delta0", "0")
        assert float(parse_csv(out)[0]["delta"]) == 0.0
        _, out, _ = run_cli(capsys, *argv)
        delta = screening_delta(29, ScreeningModel(delta0=0.98))
        assert parse_csv(out)[0]["delta"] == f"{delta:.9g}"

    def test_usage_error_leaves_next_command_unchanged(self, capsys):
        argv = ("table", "--shell", "E00", "--z", "5..9", "--format", "csv")
        _, before, _ = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--shell", "E00", "--z", "5..x"])
        assert excinfo.value.code == 2
        assert "bad Z range '5..x'" in capsys.readouterr().err
        code, after, _ = run_cli(capsys, *argv)
        assert code == 0
        assert after == before

    def test_rebound_handler_runs(self, capsys, monkeypatch):
        argv = ["level", "--z", "3", "--n", "0", "--l", "0"]
        run_cli(capsys, *argv)
        calls = []

        def stub(args):
            calls.append(args)
            return 7

        monkeypatch.setattr(cli, "cmd_level", stub)
        assert main(argv) == 7
        args, = calls
        assert isinstance(args, argparse.Namespace)
        assert args.command == "level"
        # the parsed namespace, and so the cached parser, holds no handler
        assert not any(callable(value) for value in vars(args).values())

    def test_one_parser_for_many_commands(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(3):
            run_cli(capsys, "level", "--z", "3", "--n", "0", "--l", "0")
        assert len(built) <= 1


class TestVerify:
    def test_hydrogen_is_exact_coulomb(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z", "1", "--state", "0,0",
                               "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["rel_diff"]) < 1e-7
        assert 0.0 < float(row["estimated_error_hartree"]) <= 1e-9
        assert row["flag"] == ""

    def test_k_shell_z29(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z", "29", "--state", "0,0",
                               "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["rel_diff"]) < 1e-3
        assert int(row["nodes"]) == 0

    def test_z9_l_shell_flags_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z", "9", "--state", "1,0",
                               "--format", "csv")
        assert code == 0  # reporting, not asserting
        row = parse_csv(out)[0]
        assert float(row["rel_diff"]) > 0.3
        assert row["flag"] == "BREAKDOWN"

    def test_unbound_state_reported_not_fatal(self, capsys):
        # 3d channel at Z=29 lies above its critical screening
        code, out, _ = run_cli(capsys, "verify", "--z", "29", "--state", "0,2",
                               "--format", "csv")
        assert code == 0
        assert parse_csv(out)[0]["flag"] == "NO_BOUND_STATE"

    def test_multiple_states_ordered(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z", "14,29", "--state", "0,0",
                               "--state", "0,1", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert [(int(r["z"]), int(r["n"]), int(r["l"])) for r in rows] == [
            (14, 0, 0), (14, 0, 1), (29, 0, 0), (29, 0, 1)
        ]

    def test_rows_carry_sweeps(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z", "29", "--state", "0,0",
                               "--state", "0,2", "--format", "csv")
        assert code == 0
        bound, unbound = parse_csv(out)
        assert 0 < int(bound["sweeps"]) <= 16
        assert unbound["flag"] == "NO_BOUND_STATE" and unbound["sweeps"] == ""

    @pytest.mark.parametrize("state", ["x", "-1,0"])
    def test_bad_state_exit_2(self, capsys, state):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--z", "3", f"--state={state}"])
        assert excinfo.value.code == 2
        assert f"bad state '{state}'; expected 'n,l'" in capsys.readouterr().err

    def test_screening_past_critical_ratio_is_unbound(self, capsys):
        # delta / A far past 1.1907: no sweep, and no non-convergence
        code, out, _ = run_cli(capsys, "verify", "--z", "3", "--delta0", "1e7",
                               "--format", "csv")
        assert code == 0
        row, = parse_csv(out)
        assert row["flag"] == "NO_BOUND_STATE" and row["sweeps"] == ""

    def test_nonconvergence_row_carries_best_estimate(self, capsys, monkeypatch):
        # one halving and a zero tolerance stall Z=29 1s after two grids,
        # which give a single extrapolation and no second one to compare
        from yukawa_atom import oracle
        from yukawa_atom.perturbation import to_kev

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        monkeypatch.setattr(oracle, "MAX_REFINEMENTS", 1)
        monkeypatch.setattr(oracle, "GRID_TOL", 0.0)
        code, out, err = run_cli(capsys, "verify", "--z", "29", "--format", "json")
        assert code == 3
        assert "did not converge" in err
        row = json.loads(out, parse_constant=reject)["rows"][0]
        assert row["flag"] == "NON_CONVERGENCE"
        assert row["oracle_kev"] == pytest.approx(to_kev(row["oracle_hartree"]), rel=1e-8)
        assert row["nodes"] == 0
        assert row["grid_points"] > 0
        assert 0.0 < row["estimated_error_hartree"] < 1.0

    def test_zero_delta0_forces_coulomb(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z", "7", "--delta0", "0",
                               "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["perturbative_hartree"]) == -24.5
        assert float(row["rel_diff"]) < 1e-7


class TestCompare:
    @pytest.mark.parametrize("shell, expected_rows", [("E00", 22), ("E01", 16), ("E10", 16)])
    def test_bundled_tables_within_tolerance(self, capsys, shell, expected_rows):
        code, out, _ = run_cli(capsys, "compare", "--shell", shell, "--format", "csv")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        assert len(rows) - 1 == expected_rows  # header

    def test_tight_tolerance_fails(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--shell", "E00", "--tolerance", "1e-12")
        assert code == 1

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--shell", "E00",
                               "--reference", "/nonexistent/ref.csv")
        assert code == 2
        assert "error" in err

    def test_non_finite_reference_exit_2(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("z,shell,n,l,source,energy_kev\n3,E00,0,0,present_work,-inf\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--shell", "E00", "--reference", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 2: energy_kev must be finite, got -inf\n"

    def test_e11_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--shell", "E11")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--shell", "E00", "--z", "2"], "no reference row for z=2, shell=E00, source=present_work"),
        (["--shell", "E11"], "no reference table is bundled for shell 'E11'"),
    ])
    def test_missing_reference_message_unquoted(self, capsys, argv, message):
        code, _, err = run_cli(capsys, "compare", *argv)
        assert code == 2
        assert err == f"error: {message}\n"

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--shell", "E01", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["max_rel_diff"] < 1e-4
        assert payload["summary"]["source"] == "present_work"

    def test_restricted_z(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--shell", "E00", "--z", "3,84",
                               "--format", "json")
        assert code == 0
        assert [r["z"] for r in json.loads(out)["rows"]] == [3, 84]


LEVEL_ARGV = ("level", "--z", "3", "--n", "0", "--l", "0")


class TestSharedOptions:
    """The parser defines each shared option once, with the library's defaults;
    the library's classes check the values."""

    def test_level_defaults_match_library(self):
        args = cli.build_parser().parse_args(LEVEL_ARGV)
        assert ScreeningModel(ScreeningLaw(args.screening), args.delta0) == ScreeningModel()
        assert args.hartree_ev == HARTREE_EV
        assert UnitSystem(args.hartree_ev) == UnitSystem()
        assert (args.order, args.format) == (3, "table")

    @pytest.mark.parametrize("extra, message", [
        (("--delta0", "-0.1"), "error: delta0 must be finite and non-negative, got -0.1"),
        (("--hartree-ev", "0"), "error: hartree_to_ev must be finite and positive, got 0.0"),
        (("--order", "4"), "argument --order: invalid choice: 4"),
        (("--format", "xml"), "argument --format: invalid choice: 'xml'"),
        (("--screening", "bogus"), "argument --screening: invalid choice: 'bogus'"),
    ], ids=["delta0", "hartree-ev", "order", "format", "screening"])
    def test_bad_value_exits_2(self, capsys, extra, message):
        with pytest.raises(SystemExit) as excinfo:
            main([*LEVEL_ARGV, *extra])
        assert excinfo.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err

    @pytest.mark.parametrize("argv, message", [
        ((*LEVEL_ARGV, "--delta0", "nan"), "delta0 must be finite"),
        ((*LEVEL_ARGV, "--delta0", "inf"), "delta0 must be finite"),
        ((*LEVEL_ARGV, "--hartree-ev", "nan"), "hartree_to_ev must be finite"),
        ((*LEVEL_ARGV, "--hartree-ev", "inf"), "hartree_to_ev must be finite"),
        (("table", "--shell", "E00", "--delta0", "nan"), "delta0 must be finite"),
        (("compare", "--shell", "E00", "--hartree-ev", "inf"), "hartree_to_ev must be finite"),
        (("verify", "--z", "3", "--delta0", "inf"), "delta0 must be finite"),
        # delta**2 raises OverflowError; at 1.4e51 float products reach -inf
        ((*LEVEL_ARGV, "--delta0", "1e200"), "overflows the order-3 energy"),
        ((*LEVEL_ARGV, "--delta0", "1.4e51"), "overflows the order-3 energy"),
        (("verify", "--z", "3", "--delta0", "1e200"), "overflows the order-3 energy"),
        ((*LEVEL_ARGV, "--hartree-ev", "1e308", "--format", "csv"), "is not a finite keV value"),
        (("compare", "--shell", "E00", "--tolerance", "nan"), "tolerance must be finite"),
        (("compare", "--shell", "E00", "--tolerance", "-1"), "tolerance must be finite"),
    ], ids=["level-delta0-nan", "level-delta0-inf", "level-hartree-ev-nan",
            "level-hartree-ev-inf", "table-delta0-nan", "compare-hartree-ev-inf",
            "verify-delta0-inf", "level-delta0-1e200", "level-delta0-1.4e51",
            "verify-delta0-1e200", "level-hartree-ev-1e308", "compare-tolerance-nan",
            "compare-tolerance-negative"])
    def test_non_finite_value_exits_2(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as excinfo:
                main(list(argv))
        assert excinfo.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err


def child_env():
    """This environment with the repository's ``src`` first on PYTHONPATH, so
    a fresh interpreter imports the package under test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_level_json(command):
    proc = subprocess.run(
        [*command, "level", "--z", "3", "--n", "0", "--l", "0", "--format", "json"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["rows"][0]["total_kev"] == pytest.approx(-0.05405687, rel=1e-4)
    return proc


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("yukawa-atom")
        if exe is None:
            pytest.skip("console script not on PATH")
        run_level_json([exe])

    def test_python_dash_m(self):
        proc = run_level_json([sys.executable, "-m", "yukawa_atom"])
        assert "RuntimeWarning" not in proc.stderr


#: Run in a fresh process: the closed-form commands, then what they loaded.
IMPORT_FOOTPRINT = """
import contextlib, io, json, sys
import yukawa_atom
from yukawa_atom.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["level", "--z", "29", "--n", "0", "--l", "0"]),
             main(["table", "--shell", "E00", "--z", "3..84"]),
             main(["compare", "--shell", "E00"])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_closed_form_commands_load_no_scipy():
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    modules = set(result["modules"])
    assert not {"scipy.integrate", "scipy.optimize", "scipy.linalg"} & modules
    # every layer is imported eagerly, so a tracer finds it in sys.modules
    layers = {f"yukawa_atom.{name}" for name in
              ("cli", "oracle", "wavefunctions", "_numerov_py", "perturbation", "refdata")}
    assert layers <= modules
