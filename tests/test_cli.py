"""Command-line interface tests (in-process via main(argv))."""

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from yukawa_atom import (
    ScreeningLaw,
    ScreeningModel,
    UnitSystem,
    cli,
    refdata,
    screening_delta,
)
from yukawa_atom.cli import main
from yukawa_atom.perturbation import HARTREE_EV


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@contextmanager
def memory_cap(extra=1 << 30):
    """Cap this process's address space at its present size plus ``extra``
    bytes, where the platform tells that size, so that an input the CLI
    must refuse before allocating raises MemoryError instead of taking the
    machine's memory if the refusal is ever lost."""
    try:
        import resource

        with open("/proc/self/status") as status:
            size = next(int(line.split()[1]) * 1024 for line in status
                        if line.startswith("VmSize:"))
    except (ImportError, OSError, StopIteration):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra if hard == resource.RLIM_INFINITY else min(hard, size + extra)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


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
    @pytest.mark.parametrize("shell", ["E00", "E01", "E10"])
    def test_paper_z_list_matches_bundled_table(self, shell):
        # the Z lists of ``--z paper`` and the bundled tables' present-work
        # rows state one fact twice; E11 has no table and takes E01's list
        rows = refdata.load_reference(refdata.bundled_reference_path(shell)).rows
        bundled = {row.z for row in rows if row.shell_label == shell
                   and row.source is refdata.ReferenceSource.PRESENT_WORK}
        assert cli.BUNDLED_Z[shell] == tuple(sorted(bundled))
        assert cli.BUNDLED_Z["E11"] == cli.BUNDLED_Z["E01"]

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
                                               ("5..3,4", "bad Z range '5..3'"),
                                               ("9..3:paper", "bad Z range '9..3'"),
                                               (",", "empty Z list"),
                                               ("abc", "bad Z value 'abc'"),
                                               ("30:paper", "bad Z value '30:paper'")])
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
        ([{"z": True, "shell": False, "total": -12.0, "note": 5e-324},
          {"z": -7, "shell": None, "total": 999999999.5, "note": float("-inf")}],
         {"flag": True, "x": np.float64(1 / 3), "y": np.float64(-2.0), "big": 1e16}),
        ([{"z": 10**30, "total": np.float64(1.5e-7)}], {"tiny": -sys.float_info.min}),
    ])
    def test_json_layout_is_json_dumps_indent_2(self, capsys, rows, summary):
        # every literal is written directly and laid out by hand, byte for byte
        columns = ["z", "shell", "total", "note"]
        cli._render(rows, columns, "json", summary)
        payload = {"rows": [{k: cli._json_value(r.get(k)) for k in columns} for r in rows]}
        if summary is not None:
            payload["summary"] = {k: cli._json_value(v) for k, v in summary.items()}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", "x,y\n0.333333333,-2\n"),
        ("table", "x            y\n0.333333333  -2\n"),
    ])
    def test_numpy_float_prints_nine_digits(self, capsys, fmt, expected):
        cli._render([{"x": np.float64(1 / 3), "y": np.float64(-2.0)}], ["x", "y"], fmt)
        assert capsys.readouterr().out == expected

    def test_nine_significant_digit_formatting(self, capsys):
        _, out, _ = run_cli(capsys, "level", "--z", "3", "--n", "0", "--l", "0",
                            "--format", "csv")
        total = parse_csv(out)[0]["total_hartree"]
        assert total == f"{float(total):.9g}"
        assert total.startswith("-1.9865085")


#: Floats at each switch of the JSON literal: ``repr`` against the 9-digit
#: text, positional against exponent, normal against subnormal.
JSON_EDGE_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 123456789.0, 12.5, 999999999.0, 999999999.4, 999999999.5,
    1e9, -1e9, 1e15, 1e16, 1e17, 1e-4, 1e-5, 9.9999999995e-5, 9.99999999e-5, 0.1,
    5e-324, -5e-324, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
    2.2250738585e-308, sys.float_info.max, -sys.float_info.max,
    float("inf"), float("-inf"), float("nan"),
]


class TestJsonLiteral:
    """``_json_literal`` writes what ``json.dumps`` writes for the 9-digit value."""

    @staticmethod
    def expected(value):
        return json.dumps(cli._json_value(value))

    @pytest.mark.parametrize("value", JSON_EDGE_FLOATS)
    def test_edge_floats(self, value):
        assert cli._json_literal(value) == self.expected(value)
        assert cli._json_literal(np.float64(value)) == self.expected(value)

    def test_random_bit_patterns(self):
        # full-range doubles; the same mantissas at exponents around 1e-4..1e9;
        # and subnormals of every magnitude
        rng = np.random.default_rng(20261020)
        bits = rng.integers(0, 2**64, size=35_000, dtype=np.uint64)
        near = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (
            rng.integers(1023 - 40, 1023 + 60, size=bits.size, dtype=np.uint64) << np.uint64(52))
        tiny = bits >> rng.integers(12, 64, size=bits.size, dtype=np.uint64)
        values = np.concatenate([bits, near, tiny]).view(np.float64).tolist()
        literals = list(map(cli._json_literal, values))
        if literals != json.dumps(list(map(cli._json_value, values)))[1:-1].split(", "):
            value = next(v for v, lit in zip(values, literals) if lit != self.expected(v))
            pytest.fail(f"{value.hex()}: {cli._json_literal(value)} != {self.expected(value)}")

    @pytest.mark.parametrize("value", [None, True, False, 0, -84, 2**70, "", "E00",
                                       "Ångström \"q\"\n\t\\", "\U0001f600"])
    def test_other_types(self, value):
        assert cli._json_literal(value) == json.dumps(value)


# The renderer's per-cell rules as they stood before each csv and aligned row
# became one %-format: the reference that ``_render`` must print byte for byte.

def _reference_fmt(value):
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return ""
    return str(value)


def _reference_json_literal(value):
    return json.dumps(float(f"{value:.9g}") if isinstance(value, float) else value)


def _reference_json_object(members, pad):
    return "{\n  " + pad + (",\n  " + pad).join(members) + "\n" + pad + "}" if members else "{}"


def _reference_render(rows, columns, fmt, summary=None):
    if fmt == "json":
        keyed = [(json.dumps(k) + ": ", k) for k in columns]
        objects = [_reference_json_object(
            [key + _reference_json_literal(r.get(k)) for key, k in keyed], "    ") for r in rows]
        text = '{\n  "rows": ' + ("[\n    " + ",\n    ".join(objects) + "\n  ]" if rows else "[]")
        if summary is not None:
            text += ',\n  "summary": ' + _reference_json_object(
                [json.dumps(k) + ": " + _reference_json_literal(v) for k, v in summary.items()],
                "  ")
        lines = [text + "\n}"]
    elif fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join([_reference_fmt(r.get(k)) for k in columns]) for r in rows]
        if summary is not None:
            lines.append("# " + ", ".join(f"{k}={_reference_fmt(v)}" for k, v in summary.items()))
    else:
        cells = [[_reference_fmt(r.get(k)) for k in columns] for r in rows]
        widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
                  for i, c in enumerate(columns)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in [columns, *cells]]
        if summary is not None:
            lines.append(", ".join(f"{k}={_reference_fmt(v)}" for k, v in summary.items()))
    return "\n".join(lines) + "\n"


_AWKWARD_STRINGS = ["", "E00", "50%", "%s", "%(z)s", "%%", "a,b", ",", '"q"', "tab\tend ",
                    "\x00", "Ångström µ", "\U0001f600", "SERIES_SUSPECT"]


def _random_float(rng):
    """A float from every region where the 9-digit text or its literal
    changes form."""
    kind = rng.integers(9)
    if kind == 0:  # any 64-bit pattern: nan payloads, infinities, subnormals
        return float(rng.integers(0, 2**64, dtype=np.uint64).view(np.float64))
    if kind == 1:  # subnormal
        return float((rng.integers(1, 2**52, dtype=np.uint64)
                      >> np.uint64(rng.integers(0, 52))).view(np.float64)) * rng.choice([-1, 1])
    if kind == 2:
        return float(rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e-310,
                                 sys.float_info.min, sys.float_info.max]))
    if kind in (3, 4):  # either side of 1e9 or of 1e-4
        edge = 1e9 if kind == 3 else 1e-4
        offset = rng.normal() * 1e-9 * 10 ** rng.uniform(0, 9)
        return float(rng.choice([-1, 1]) * edge * (1 + offset))
    if kind == 5:  # integer valued
        return float(rng.integers(-10**12, 10**12) // 10 ** rng.integers(0, 12))
    if kind == 6:  # exponents from 1e-40 to 1e-5 and 1e9 to 1e40
        exponent = rng.choice([rng.uniform(-40, -4), rng.uniform(9, 40)])
        return float(rng.choice([-1, 1]) * 10 ** exponent)
    return float(rng.normal() * 10 ** rng.uniform(-4, 9))  # positional


def _random_value(rng, kind, json_safe=True):
    if kind == "float":
        return _random_float(rng)
    if kind == "positional":
        return float(rng.normal() * 10 ** rng.uniform(-3, 8))
    if kind == "int":
        return int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 3) * 10)
    if kind == "str":
        return _AWKWARD_STRINGS[rng.integers(len(_AWKWARD_STRINGS))]
    # json.dumps refuses a numpy int, so only the text formats draw one
    values = [_random_float(rng), np.float64(_random_float(rng)), None, True, False,
              int(rng.integers(-99, 99)), _AWKWARD_STRINGS[rng.integers(len(_AWKWARD_STRINGS))]]
    if not json_safe:
        values.append(np.int64(rng.integers(-99, 99)))
    return values[rng.integers(len(values))]


class TestRenderMatchesPerCellRules:
    """``_render`` prints what the per-cell rules print, in every format."""

    KINDS = ("float", "positional", "int", "str", "mixed")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_random_rows(self, capsys, fmt):
        rng = np.random.default_rng(36)
        for case in range(300):
            kinds = [self.KINDS[i] for i in rng.integers(0, len(self.KINDS), rng.integers(1, 9))]
            columns = [f"c{i}" + str(rng.choice(["", "%", ",", '"', "%s"])) for i in
                       range(len(kinds))]
            nrows = int(rng.choice([0, 1, 2, 3, 17]))
            rows = []
            for _ in range(nrows):
                row = {c: _random_value(rng, kind, fmt == "json") for c, kind in
                       zip(columns, kinds)}
                if rng.random() < 0.1:  # a missing key prints as None
                    del row[columns[rng.integers(len(columns))]]
                rows.append(row)
            summary = None if rng.random() < 0.5 else {
                f"s{i}%": _random_value(rng, "mixed", fmt == "json")
                for i in range(rng.integers(0, 4))}
            cli._render(rows, columns, fmt, summary)
            out = capsys.readouterr().out
            assert out == _reference_render(rows, columns, fmt, summary), (case, rows, summary)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_column_of_one_type_each(self, capsys, fmt):
        # every column a plain float, int, str, numpy float or None column,
        # with the floats' texts all positional in some columns and mixed
        # with exponents, nan, inf and integer values in others
        rng = np.random.default_rng(3600)
        columns = ["pos", "any", "int", "str", "np", "none", "whole", "small", "tiny", "big",
                   "edge"]
        rows = [{"pos": _random_value(rng, "positional"), "any": _random_float(rng),
                 "int": _random_value(rng, "int"), "str": _random_value(rng, "str"),
                 "np": np.float64(_random_float(rng)), "none": None,
                 "whole": float(rng.integers(-9, 9)), "small": float(rng.uniform(1e-9, 1e-5)),
                 "tiny": float(rng.choice([1e-35, 1e-300, 1e-310, 5e-324, 0.5])),
                 "big": float(rng.choice([1e9, 999999999.5, 123456789.0, 2.5])),
                 "edge": float(rng.choice([0.5, -0.0, math.nan, math.inf, 9.99999999995e-5]))}
                for _ in range(60)]
        cli._render(rows, columns, fmt)
        assert capsys.readouterr().out == _reference_render(rows, columns, fmt)


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
        # delta / A far past the 1s entry 1.190612: no sweep, and no non-convergence
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

    def test_field_past_csv_limit_exit_2(self, capsys, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text('z,shell,n,l,source,energy_kev,notes\n'
                        f'3,E00,0,0,present_work,-0.05405687,{"x" * (limit + 1)}\n',
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--shell", "E00", "--reference", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: line 2: field larger than field limit ({limit})\n"

    @pytest.mark.parametrize("tolerance, expected", [("1e-4", 0), ("1e-12", 1)])
    def test_quoted_note_exits_on_tolerance(self, capsys, tmp_path, tolerance, expected):
        path = tmp_path / "quoted.csv"
        path.write_text('z,shell,n,l,source,energy_kev,notes\n'
                        '3,E00,0,0,present_work,-0.05405687,"a, b"\n', encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--shell", "E00", "--reference", str(path),
                                 "--tolerance", tolerance)
        assert (code, err) == (expected, "")
        assert out

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

    def test_no_rows_of_the_source_exit_2(self, capsys):
        # the bundled E01 table holds present_work rows only
        code, out, err = run_cli(capsys, "compare", "--shell", "E01", "--source", "experiment")
        assert (code, out, err) == (2, "", "error: no experiment reference rows for shell E01\n")

    def test_header_only_reference_exit_2(self, capsys, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("z,shell,n,l,source,energy_kev\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--shell", "E00", "--reference", str(path))
        assert (code, out, err) == (2, "", "error: no present_work reference rows for shell E00\n")

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
        # Z past the float range once raised OverflowError (exit 1)
        (("level", "--z", "1" + "0" * 400, "--n", "0", "--l", "0"),
         "atomic number must be at most 1.79769e+308"),
        (("table", "--shell", "E00", "--z", "1" + "0" * 400),
         "atomic number must be at most 1.79769e+308"),
        (("verify", "--z", "1" + "0" * 400), "atomic number must be at most 1.79769e+308"),
        # its list alone would take gigabytes (MemoryError, exit 1, or killed)
        (("table", "--shell", "E00", "--z", "3..1000000000"),
         "Z range '3..1000000000' holds more than 100000 values"),
    ], ids=["level-delta0-nan", "level-delta0-inf", "level-hartree-ev-nan",
            "level-hartree-ev-inf", "table-delta0-nan", "compare-hartree-ev-inf",
            "verify-delta0-inf", "level-delta0-1e200", "level-delta0-1.4e51",
            "verify-delta0-1e200", "level-hartree-ev-1e308", "compare-tolerance-nan",
            "compare-tolerance-negative", "level-z-1e400", "table-z-1e400", "verify-z-1e400",
            "table-z-range-1e9"])
    def test_non_finite_value_exits_2(self, capsys, argv, message):
        with warnings.catch_warnings(), memory_cap():
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


#: The command shapes of the benchmark's ``tables`` workload.
WARM_COMMANDS = (
    [["table", "--shell", shell, "--z", "3..84", "--format", fmt]
     for shell in ("E00", "E01", "E10", "E11") for fmt in ("table", "csv", "json")]
    + [["compare", "--shell", shell, "--source", "present_work", "--tolerance", "0.0001",
        "--format", "json"] for shell in ("E00", "E01", "E10")]
    + [["level", "--z", "29", "--n", "1", "--l", "0", "--format", "csv"],
       ["level", "--z", "84", "--n", "0", "--l", "1", "--delta0", "0", "--format", "json"]]
)


def test_warm_commands_print_what_fresh_ones_do(capsys):
    # a process that has parsed the reference tables prints, byte for byte,
    # what it printed before it had and what a fresh interpreter prints
    refdata._parse.cache_clear()
    cold = [run_cli(capsys, *argv) for argv in WARM_COMMANDS]
    assert [run_cli(capsys, *argv) for argv in WARM_COMMANDS] == cold
    assert [code for code, _, _ in cold] == [0] * len(WARM_COMMANDS)
    for i in (5, 13, 16):  # one table, one compare and one level command
        proc = subprocess.run([sys.executable, "-m", "yukawa_atom", *WARM_COMMANDS[i]],
                              capture_output=True, text=True, timeout=120, env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == cold[i]


class TestRenderedOutput:
    @pytest.mark.parametrize("argv", [argv for argv in WARM_COMMANDS if argv[-1] == "json"],
                             ids=lambda argv: "-".join(argv[:3]))
    def test_warm_json_is_json_dumps_indent_2(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("screening", [s.value for s in ScreeningLaw])
    @pytest.mark.parametrize("order", ["0", "1", "2", "3"])
    @pytest.mark.parametrize("shell", ["E00", "E01", "E10"])
    def test_compare_totals_are_table_totals(self, capsys, shell, order, screening):
        config = ("--order", order, "--screening", screening, "--format", "json")
        _, out, _ = run_cli(capsys, "compare", "--shell", shell, *config)
        computed = {r["z"]: r["computed_kev"] for r in json.loads(out)["rows"]}
        z_list = ",".join(map(str, computed))
        _, out, _ = run_cli(capsys, "table", "--shell", shell, "--z", z_list, *config)
        assert {r["z"]: r["total_kev"] for r in json.loads(out)["rows"]} == computed

    def test_no_bound_state_row(self, capsys):
        # Z=4 2s is unbound: the row leaves eight of its fifteen keys missing
        code, out, _ = run_cli(capsys, "verify", "--z", "4", "--state", "1,0", "--format", "json")
        assert code == 0
        row, = json.loads(out)["rows"]
        assert row["flag"] == "NO_BOUND_STATE"
        assert sum(v is None for v in row.values()) == 8
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


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


def numeric_modules(modules):
    """The numpy and scipy modules among ``modules``."""
    return sorted(m for m in modules if m.split(".")[0] in ("numpy", "scipy"))


def test_closed_form_commands_load_no_scipy():
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    modules = set(result["modules"])
    assert numeric_modules(modules) == []
    # every layer is imported eagerly, so a tracer finds it in sys.modules
    layers = {f"yukawa_atom.{name}" for name in
              ("cli", "oracle", "wavefunctions", "_numerov_py", "perturbation", "refdata")}
    assert layers <= modules


#: Run in a fresh process: ``verify`` of Z=4 2s, past its critical ratio.
VERIFY_FOOTPRINT = """
import contextlib, io, json, sys
from yukawa_atom.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["verify", "--z", "4", "--state", "1,0", "--format", "json"])
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def test_verify_of_unbound_level_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", VERIFY_FOOTPRINT],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    row, = json.loads(result["out"])["rows"]
    assert row["flag"] == "NO_BOUND_STATE"
    assert numeric_modules(result["modules"]) == []


#: Run in a fresh process: ``verify`` of Z=29 1s, a bound level.
BOUND_VERIFY_FOOTPRINT = VERIFY_FOOTPRINT.replace('"4", "--state", "1,0"', '"29", "--state", "0,0"')


def test_verify_of_bound_level_loads_scipy_linalg_only():
    proc = subprocess.run([sys.executable, "-c", BOUND_VERIFY_FOOTPRINT],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    row, = json.loads(result["out"])["rows"]
    assert row["nodes"] == 0
    modules = numeric_modules(result["modules"])
    assert "scipy.linalg" in modules
    unwanted = ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy.sparse")
    assert [m for m in modules if m.startswith(unwanted)] == []


def test_python_dash_m_level_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "yukawa_atom",
         "level", "--z", "29", "--n", "0", "--l", "0"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes "import time: self | cumulative | name" per import
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "yukawa_atom.oracle" in imported
    assert numeric_modules(imported) == []
