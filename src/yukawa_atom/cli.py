"""Command-line front end.

Subcommands:
  level    one (Z, n, l) energy with its per-order breakdown
  table    a shell's energies over a list of Z values
  verify   perturbative totals against the direct Numerov eigensolver
  compare  regenerated energies against a bundled or user reference CSV

Exit codes: 0 ok, 1 comparison above tolerance, 2 usage or file errors,
3 eigensolver non-convergence.  Floats print with 9 significant digits so
identical invocations are byte-identical.

``_fmt`` and ``_json_literal`` state the rule for one cell.  ``_render``
applies ``_fmt``'s rule a row at a time: a csv line or an aligned line is
one %-format built once per tuple of value types, and an aligned table
pads every line with one "%-Ns" format.  The output is the per-cell
output byte for byte.  "%.9g" writes the text that ``format(value,
".9g")`` writes for any float, numpy's included, so ``isinstance(value,
float)`` still picks the 9-digit rule.  "%.0s" writes nothing for None and
"%s" writes ``str(value)``.  Values are only ever substituted into a
template, never part of it, so a string holding "%" or "," prints
unchanged.  JSON takes ``_json_literal`` per cell.

The parser is the one place each option is defined.  The shared options
take their defaults and choices from the library.  ``ScreeningModel``,
``UnitSystem`` and the Z-list and state parsers check their values, and
each handler takes the parsed arguments alone: ``main`` turns a
``ValueError`` into a usage error (exit 2).

``main`` builds one parser per process, on its first call, and reuses it:
building the tree costs about 1 ms, several times the parse and the
closed-form work of a ``level`` command.  The parser holds no handler;
``main`` looks up ``cmd_<command>`` by name in this module at call time, so
a handler rebound here after the first call (the benchmark's tracer and
``monkeypatch`` both rebind ``cmd_*``) is the one that runs, and the cached
parser keeps no wrapper alive past the rebinding.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .oracle import NoBoundState, NonConvergence, solve_bound_state
from .perturbation import (
    HARTREE_EV,
    AtomicSystem,
    QuantumState,
    ScreeningLaw,
    ScreeningModel,
    UnitSystem,
    energy_breakdown,
    screening_delta,
    to_kev,
)
from .refdata import (
    SHELL_QUANTUM_NUMBERS,
    MissingReference,
    ParseError,
    ReferenceSource,
    bundled_reference_path,
    compare as compare_datasets,
    load_reference,
)

#: Oracle disagreement above which a verify row is flagged.
BREAKDOWN_REL_THRESHOLD = 0.1

#: Z values covered by the bundled reference tables ('paper' list token);
#: the L-shell tables share one list, and E11 takes it too.
_L_SHELL_Z = (9, 14, 19, 24, 29, 34, 39, 44, 49, 54, 59, 64, 69, 74, 79, 84)
BUNDLED_Z = {
    "E00": (3, 4, 5, 6, 7, 8, *_L_SHELL_Z),
    "E01": _L_SHELL_Z,
    "E10": _L_SHELL_Z,
    "E11": _L_SHELL_Z,
}

#: Most values one 'a..b' Z range may hold.  A longer one is refused before
#: it is built: 3..1000000000 would need gigabytes for its list alone.
_MAX_Z_RANGE = 100_000


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return ""
    return str(value)


@functools.cache
def _row_templates(types: tuple) -> tuple[str, str, tuple[int, ...]]:
    """%-formats for a row whose values have these types, by ``_fmt``'s
    rules: 9 significant digits for a float (numpy's included), nothing for
    None and ``str`` for anything else.

    Returns the format of the whole csv line; the format of the row's cells
    joined by NUL, which no float, int or None text holds; and the indices
    of the cells of any other type, which that format leaves empty for the
    caller to fill with ``str``, so no text of theirs can shift a split.
    """
    formats, loose = [], []
    for i, t in enumerate(types):
        if issubclass(t, float):
            formats.append("%.9g")
        elif t is type(None):
            formats.append("%.0s")
        else:
            formats.append("%s")
            if t is not int and t is not bool:
                loose.append(i)
    cells = ["%.0s" if i in loose else f for i, f in enumerate(formats)]
    return ",".join(formats), "\0".join(cells), tuple(loose)


def _row_values(rows, columns) -> list[tuple]:
    """Each row's values in column order, None where a key is missing."""
    return [tuple(map(r.get, columns)) for r in rows]


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def _json_literal(value) -> str:
    """``json.dumps(_json_value(value))``, written straight from the 9-digit
    text where that text is already the shortest repr of the float it names:
    positional texts, and exponent texts of normal values below 1e-4."""
    if isinstance(value, float):
        text = f"{value:.9g}"
        if "e" not in text:
            if "." in text:
                return text
            if math.isfinite(value):
                return text + ".0"
        elif "e-" in text and abs(value) >= sys.float_info.min:
            return text
        return json.dumps(_json_value(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _json_object(members, pad: str) -> str:
    """Encoded ``"key": value`` members laid out as ``json.dumps(..., indent=2)``
    lays out an object that closes at ``pad``."""
    return "{\n  " + pad + (",\n  " + pad).join(members) + "\n" + pad + "}" if members else "{}"


def _render(rows, columns, fmt, summary=None):
    """Print rows of ``columns`` as an aligned table, csv or JSON, with
    ``_fmt``'s rules for every cell (``_json_literal``'s in JSON).

    Each csv line and each aligned line is one %-format of the row's
    values, so a value's text is never read as part of a format.
    """
    if fmt == "json":
        keyed = [(encode_basestring_ascii(k) + ": ", k) for k in columns]
        objects = [_json_object([key + _json_literal(r.get(k)) for key, k in keyed], "    ")
                   for r in rows]
        text = '{\n  "rows": ' + ("[\n    " + ",\n    ".join(objects) + "\n  ]" if rows else "[]")
        if summary is not None:
            text += ',\n  "summary": ' + _json_object(
                [encode_basestring_ascii(k) + ": " + _json_literal(v) for k, v in summary.items()],
                "  ")
        lines = [text + "\n}"]
    elif fmt == "csv":
        lines = [",".join(columns)]
        lines += [_row_templates(tuple(map(type, row)))[0] % row
                  for row in _row_values(rows, columns)]
        if summary is not None:
            lines.append("# " + ", ".join(f"{k}={_fmt(v)}" for k, v in summary.items()))
    else:
        cells = []
        for row in _row_values(rows, columns):
            _, template, loose = _row_templates(tuple(map(type, row)))
            texts = (template % row).split("\0")
            for i in loose:
                texts[i] = str(row[i])
            cells.append(texts)
        widths = [max(map(len, column)) for column in zip(columns, *cells)]
        padded = "  ".join([f"%-{w}s" for w in widths])
        lines = [(padded % tuple(row)).rstrip() for row in [columns, *cells]]
        if summary is not None:
            lines.append(", ".join(f"{k}={_fmt(v)}" for k, v in summary.items()))
    sys.stdout.write("\n".join(lines) + "\n")


def _parse_z_spec(text: str, shell: str) -> list[int]:
    """Z list syntax: ints, 'a..b' ranges, 'paper', 'a..b:paper', commas."""
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "paper":
            values.extend(BUNDLED_Z[shell])
            continue
        restrict_paper = token.endswith(":paper")
        if restrict_paper and ".." not in token:
            raise ValueError(f"bad Z value {token!r}")
        if restrict_paper:
            token = token[: -len(":paper")]
        if ".." in token:
            try:
                lo_s, hi_s = token.split("..")
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ValueError(f"bad Z range {token!r}")
            if lo > hi:
                raise ValueError(f"bad Z range {token!r}")
            if restrict_paper:
                values.extend(z for z in BUNDLED_Z[shell] if lo <= z <= hi)
            elif hi - lo >= _MAX_Z_RANGE:
                raise ValueError(f"Z range {token!r} holds more than {_MAX_Z_RANGE} values")
            else:
                values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(token))
            except ValueError:
                raise ValueError(f"bad Z value {token!r}")
    if not values:
        raise ValueError("empty Z list")
    return sorted(set(values))


def _parse_state(text: str) -> QuantumState:
    try:
        n_s, l_s = text.split(",")
        return QuantumState(int(n_s), int(l_s))
    except ValueError:
        raise ValueError(f"bad state {text!r}; expected 'n,l'")


def _model_and_units(args) -> tuple[ScreeningModel, UnitSystem]:
    """The command's screening model and units; each validates its own values."""
    return ScreeningModel(ScreeningLaw(args.screening), args.delta0), UnitSystem(args.hartree_ev)


def _breakdown_row(z: int, state: QuantumState, order: int, model: ScreeningModel,
                   units: UnitSystem) -> dict:
    delta = screening_delta(z, model)
    b = energy_breakdown(float(z), state, delta, order)
    total = b.total
    return {
        "z": z,
        "n": state.n,
        "l": state.l,
        "order": order,
        "delta": delta,
        "e0_hartree": b.e0,
        "a_delta_hartree": b.shift_const,
        "e1_hartree": b.e1,
        "e2_hartree": b.e2,
        "e3_hartree": b.e3,
        "total_hartree": total,
        "total_kev": to_kev(total, units),
        "flag": "SERIES_SUSPECT" if b.series_suspect else "",
    }


_BREAKDOWN_COLUMNS = ["z", "n", "l", "order", "delta", "e0_hartree", "a_delta_hartree",
                      "e1_hartree", "e2_hartree", "e3_hartree", "total_hartree",
                      "total_kev", "flag"]


def cmd_level(args) -> int:
    model, units = _model_and_units(args)
    state = QuantumState(args.n, args.l)
    row = _breakdown_row(args.z, state, args.order, model, units)
    _render([row], _BREAKDOWN_COLUMNS, args.format)
    return 0


def cmd_table(args) -> int:
    model, units = _model_and_units(args)
    n, l = SHELL_QUANTUM_NUMBERS[args.shell]
    state = QuantumState(n, l)
    z_list = _parse_z_spec(args.z, args.shell)
    rows = [_breakdown_row(z, state, args.order, model, units) for z in z_list]
    for row in rows:
        row["shell"] = args.shell
    _render(rows, ["shell"] + _BREAKDOWN_COLUMNS, args.format)
    return 0


def cmd_verify(args) -> int:
    model, units = _model_and_units(args)
    states = [_parse_state(s) for s in (args.state or ["0,0"])]
    z_list = _parse_z_spec(args.z, "E00")

    def run(z, st):
        system = AtomicSystem(z)
        delta = screening_delta(z, model)
        b = energy_breakdown(system.a, st, delta, args.order)
        row = {
            "z": z, "n": st.n, "l": st.l, "order": args.order,
            "perturbative_hartree": b.total,
            "perturbative_kev": to_kev(b.total, units),
            "flag": "",
        }
        try:
            res = solve_bound_state(system, delta, st)
        except NoBoundState:
            row["flag"] = "NO_BOUND_STATE"
            return row
        except NonConvergence as exc:
            res, row["flag"] = exc.result, "NON_CONVERGENCE"
        row["oracle_hartree"] = res.energy
        row["oracle_kev"] = to_kev(res.energy, units)
        row["nodes"] = res.nodes_found
        row["grid_points"] = res.grid_points
        row["sweeps"] = res.sweeps
        row["estimated_error_hartree"] = res.estimated_error
        if row["flag"]:
            return row
        row["abs_diff_hartree"] = abs(b.total - res.energy)
        row["rel_diff"] = row["abs_diff_hartree"] / abs(res.energy)
        if row["rel_diff"] > BREAKDOWN_REL_THRESHOLD or b.series_suspect:
            row["flag"] = "BREAKDOWN"
        return row

    rows = [run(z, st) for z in z_list for st in states]
    failures = sum(row["flag"] == "NON_CONVERGENCE" for row in rows)
    columns = ["z", "n", "l", "order", "perturbative_hartree", "oracle_hartree",
               "perturbative_kev", "oracle_kev", "abs_diff_hartree", "rel_diff",
               "nodes", "grid_points", "sweeps", "estimated_error_hartree", "flag"]
    _render(rows, columns, args.format)
    if failures:
        print(f"error: {failures} oracle run(s) did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_compare(args) -> int:
    model, units = _model_and_units(args)
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {args.tolerance}")
    source = ReferenceSource(args.source)
    state = QuantumState(*SHELL_QUANTUM_NUMBERS[args.shell])
    try:
        dataset = load_reference(args.reference or bundled_reference_path(args.shell))
        if args.z:
            z_values = _parse_z_spec(args.z, args.shell)
        else:
            z_values = sorted({r.z for r in dataset.rows if r.shell_label == args.shell
                               and r.source == source})
            if not z_values:
                raise MissingReference(
                    f"no {source.value} reference rows for shell {args.shell}")
        computed = [(z, args.shell, to_kev(energy_breakdown(
                        float(z), state, screening_delta(z, model), args.order).total, units))
                    for z in z_values]
        rows, summary = compare_datasets(dataset, computed, source)
    except (OSError, ParseError, MissingReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _render(rows, ["z", "shell", "computed_kev", "reference_kev", "abs_diff_kev", "rel_diff"],
            args.format, summary={**summary, "tolerance": args.tolerance, "source": source.value})
    return 0 if summary["max_rel_diff"] <= args.tolerance else 1


def _add_config_flags(sub):
    sub.add_argument("--order", type=int, default=3, choices=(0, 1, 2, 3),
                     help="highest correction order to include")
    sub.add_argument("--delta0", type=float, default=ScreeningModel.delta0,
                     help="screening strength coefficient (0 gives pure Coulomb)")
    sub.add_argument("--screening", choices=[s.value for s in ScreeningLaw],
                     default=ScreeningModel.variant.value,
                     help="Z-dependence of the screening parameter")
    sub.add_argument("--hartree-ev", type=float, default=HARTREE_EV, dest="hartree_ev",
                     help="eV per Hartree used for keV output")
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yukawa-atom",
        description="Shell binding energies for the static screened Coulomb potential.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_level = subs.add_parser("level", help="one level with its per-order breakdown")
    p_level.add_argument("--z", type=int, required=True, help="atomic number")
    p_level.add_argument("--n", type=int, required=True, help="radial quantum number")
    p_level.add_argument("--l", type=int, required=True, help="orbital quantum number")
    _add_config_flags(p_level)

    p_table = subs.add_parser("table", help="energies of one shell over many Z")
    p_table.add_argument("--shell", required=True, choices=sorted(SHELL_QUANTUM_NUMBERS))
    p_table.add_argument("--z", default="paper",
                         help="Z list: ints, 'a..b', 'paper', 'a..b:paper', comma separated")
    _add_config_flags(p_table)

    p_verify = subs.add_parser("verify", help="perturbative totals vs the direct eigensolver")
    p_verify.add_argument("--z", required=True,
                          help="Z list: ints, 'a..b', 'paper', 'a..b:paper', comma separated")
    p_verify.add_argument("--state", action="append",
                          help="state as 'n,l'; repeatable (default 0,0)")
    _add_config_flags(p_verify)

    p_cmp = subs.add_parser("compare", help="regenerated energies vs a reference CSV")
    p_cmp.add_argument("--shell", required=True, choices=sorted(SHELL_QUANTUM_NUMBERS),
                       help="E11 has no bundled table")
    p_cmp.add_argument("--z", default=None, help="restrict to these Z values")
    p_cmp.add_argument("--reference", default=None, help="reference CSV path (default: bundled)")
    p_cmp.add_argument("--tolerance", type=float, default=1e-4,
                       help="maximum acceptable relative difference")
    p_cmp.add_argument("--source", default="present_work",
                       choices=[s.value for s in ReferenceSource],
                       help="reference column to compare against")
    _add_config_flags(p_cmp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    sys.exit(main())
