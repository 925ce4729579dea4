"""The benchmark's three workloads.

Each workload draws its inputs from the seed once, computes its correctness
references before any timing, and then runs whole rounds of the same
operations in a closed loop from one client thread: each command or call is
issued after the previous one returns.  Any other thread is the program's
own pool.  Every output is checked; a check that fails marks the operation
failed, and any failure outside ``KNOWN_FAULTS`` makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from references import (
    CRITICAL_RATIO,
    HARTREE_EV,
    SHELL_LABEL,
    correction_from_moments,
    fermi_amaldi_delta,
    gauss_legendre_grid,
    hypervirial_pade_kev,
    is_bound,
    reference_level,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "yukawa_atom" / "data"

#: Operations that fail on every run, whatever the seed, because of a fault
#: in the program.  They stay in the workload and count as failed until the
#: fault is mended.
KNOWN_FAULTS = {
    ("spectrum", 5, 1, 0): "Z=5 2s: RadialGrid.for_state's box of max(20, 30 N^2/A) Bohr "
                           "truncates this weakly bound level, and estimated_error covers "
                           "only grid refinement",
}

#: Bundled K-shell Z values (the 'paper' list) split into light and medium.
LIGHT_K = (3, 4, 5, 6, 7, 8, 9)
MEDIUM_K = (14, 19, 24)
#: Bundled L-shell Z values up to 24, where table 3 has hypervirial-Pade rows.
L_SHELL_Z = (9, 14, 19, 24)

#: Relative agreement required of each bound level.
REFERENCE_REL_TOL = 1e-6
HYDROGEN_ABS_TOL = 1e-7
HYPERVIRIAL_REL_TOL = 1e-3
QUADRATURE_REL_TOL = 1e-10
NORM_TOL = 1e-8
COMPARE_TOLERANCE = 1e-4

#: moderated_radial is defined for 3 N^2 delta < 4A; the workload keeps to
#: 3 N^2 delta < 0.9 * 4A because closer to that edge it overflows on some Z.
MODERATED_MARGIN = 0.9
#: Seed-drawn atomic numbers per quadrature run.
Z_STRATA = 6


@dataclass
class Outcome:
    """What one run did: operations, latencies and check results."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)
    known: list = field(default_factory=list)
    latencies: list = field(default_factory=list)

    def op(self, seconds, problems, key=None):
        self.attempted += 1
        self.latencies.append(seconds)
        if not problems:
            return
        self.failed += 1
        if key in KNOWN_FAULTS:
            if KNOWN_FAULTS[key] not in self.known:
                self.known.append(KNOWN_FAULTS[key])
        else:
            self.problems.extend(f"{key}: {p}" for p in problems)


class Client:
    """The single client thread: issues one command or call at a time."""

    def __init__(self, tracer=None):
        from yukawa_atom.cli import main

        self._main = main
        self.tracer = tracer
        self.busy = 0.0
        #: called after each request, outside its timing
        self.between = None
        self._requests = 0

    def _request(self, name):
        self._requests += 1
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(self._requests, name)

    def cli(self, argv):
        """Run one in-process CLI command; returns (exit code, stdout, seconds)."""
        buf = io.StringIO()
        start = time.perf_counter()
        with self._request("cli.command"), contextlib.redirect_stdout(buf):
            try:
                code = self._main(list(argv))
            except SystemExit as exc:
                code = exc.code
        seconds = self._done(start)
        return code, buf.getvalue(), seconds

    def call(self, fn, *args):
        """Run one in-process call; returns (result, seconds)."""
        start = time.perf_counter()
        with self._request("client.call"):
            result = fn(*args)
        return result, self._done(start)

    def _done(self, start):
        seconds = time.perf_counter() - start
        self.busy += seconds
        if self.between is not None:
            self.between()
        return seconds


def _big_n(n, l):
    return n + l + 1


class Spectrum:
    """`verify --format json` over hydrogen, K, L and near-critical levels.

    Nearly all the time goes to the oracle and its Numerov kernel.
    """

    name = "spectrum"

    def __init__(self, seed):
        rng = random.Random(seed)
        light, medium, lz = rng.choice(LIGHT_K), rng.choice(MEDIUM_K), rng.choice(L_SHELL_Z)
        groups = [
            ([1], [(0, 0), (1, 1)]),             # hydrogen 1s and 3p, delta = 0
            ([light, medium, 29], [(0, 0)]),     # K shells
            ([lz], [(1, 0), (0, 1)]),            # L shells 2s and 2p
            ([4], [(1, 0)]),                     # unbound
            ([5], [(1, 0), (0, 1)]),             # 2s weakly bound, 2p unbound
            ([9], [(0, 1)]),                     # bound, delta/A = 0.209 < 0.2203
        ]
        rng.shuffle(groups)
        self.commands = []
        for zs, states in groups:
            argv = ["verify", "--z", ",".join(map(str, zs))]
            for n, l in states:
                argv += ["--state", f"{n},{l}"]
            argv += ["--format", "json"]
            levels = [(z, n, l) for z in sorted(zs) for n, l in states]
            self.commands.append((argv, levels))
        self.cold_argv = ["verify", "--z", "4", "--state", "1,0", "--format", "json"]
        self.warm_out = {}

    def prepare(self):
        levels = {lvl for _, lvls in self.commands for lvl in lvls}
        self.refs = {(z, n, l): reference_level(float(z), fermi_amaldi_delta(z), n, l)
                     for z, n, l in levels}
        self.hypervirial = hypervirial_pade_kev(DATA_DIR)

    def run_round(self, client, outcome):
        for argv, levels in self.commands:
            code, out, seconds = client.cli(argv)
            self.warm_out[tuple(argv)] = out
            for level, problems in self.check_command(code, out, levels):
                outcome.op(seconds, problems, ("spectrum",) + level)

    def check_command(self, code, out, levels):
        try:
            rows = json.loads(out)["rows"]
        except (ValueError, KeyError) as exc:
            return [(lvl, [f"unreadable verify output ({exc})"]) for lvl in levels]
        results = []
        for i, level in enumerate(levels):
            problems = [f"verify exited {code}"] if code != 0 else []
            row = rows[i] if i < len(rows) else None
            problems += self.check_level(level, row)
            results.append((level, problems))
        return results

    def check_level(self, level, row):
        z, n, l = level
        if row is None:
            return ["no output row"]
        if (row["z"], row["n"], row["l"]) != level:
            return [f"row is for {(row['z'], row['n'], row['l'])}"]
        a, delta = float(z), fermi_amaldi_delta(z)
        energy = row["oracle_hartree"]
        if not is_bound(a, delta, n, l):
            if row["flag"] != "NO_BOUND_STATE":
                return [f"delta/A = {delta / a:.5f} exceeds the critical "
                        f"{CRITICAL_RATIO[(n, l)]}, but got flag {row['flag']!r}, E = {energy}"]
            return []
        if energy is None or row["flag"] in ("NO_BOUND_STATE", "NON_CONVERGENCE"):
            return [f"bound level reported as {row['flag']!r}"]
        problems = []
        big_n = _big_n(n, l)
        e0 = -a * a / (2.0 * big_n * big_n)
        if delta > 0 and not e0 < energy < e0 + a * delta:
            problems.append(f"E = {energy} outside (E0, E0 + A delta) = ({e0}, {e0 + a * delta})")
        if z == 1 and abs(energy - e0) > HYDROGEN_ABS_TOL:
            problems.append(f"hydrogen E = {energy}, exact {e0}")
        if row["nodes"] != n:
            problems.append(f"nodes = {row['nodes']}, expected {n}")
        ref = self.refs[level]
        if ref is None or abs(energy - ref) > REFERENCE_REL_TOL * abs(ref):
            problems.append(f"E = {energy}, reference solver {ref}")
        hv = self.hypervirial.get(level)
        if hv is not None and abs(energy * HARTREE_EV / 1000.0 - hv) > HYPERVIRIAL_REL_TOL * abs(hv):
            problems.append(f"E = {energy * HARTREE_EV / 1000.0} keV, hypervirial-Pade {hv} keV")
        return problems

    def cold_jobs(self):
        """Fresh-process commands and the check of their output."""
        return [(["cli"] + self.cold_argv, _same_as_warm(self.warm_out, self.cold_argv))] * 6


def _same_as_warm(warm_out, argv):
    """Check that a fresh-process command printed what the warm one did."""
    def check(out):
        if out == warm_out.get(tuple(argv)):
            return []
        return ["fresh-process output differs from the warm command's"]
    return check


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _csv_matches(csv_rows, json_rows):
    if len(csv_rows) != len(json_rows):
        return [f"csv has {len(csv_rows)} rows, json {len(json_rows)}"]
    for c, j in zip(csv_rows, json_rows):
        for key, value in j.items():
            text = c.get(key)
            if value is None or isinstance(value, str):
                same = text == (value or "")
            else:
                same = text not in (None, "") and float(text) == value
            if not same:
                return [f"z={j.get('z')} {key}: csv {text!r}, json {value!r}"]
    return []


class Tables:
    """Warm in-process `table`, `compare` and `level` commands.

    Reaches the CLI, the closed forms and the reference tables, never the
    eigensolver or the quadrature.
    """

    name = "tables"
    Z_RANGE = "3..84"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.commands = []
        for shell in SHELL_LABEL.values():
            for fmt in ("table", "csv", "json"):
                self.commands.append(("table", shell, fmt,
                                      ["table", "--shell", shell, "--z", self.Z_RANGE, "--format", fmt]))
        for shell in ("E00", "E01", "E10"):
            self.commands.append(("compare", shell, "json",
                                  ["compare", "--shell", shell, "--source", "present_work",
                                   "--tolerance", str(COMPARE_TOLERANCE), "--format", "json"]))
        levels = set()
        while len(levels) < 12:
            z = self.rng.randint(3, 84)
            levels.add((z,) + self.rng.choice(sorted(SHELL_LABEL)))
        for i, (z, n, l) in enumerate(sorted(levels)):
            fmt = ("json", "csv")[i % 2]
            argv = ["level", "--z", str(z), "--n", str(n), "--l", str(l), "--format", fmt]
            if i % 3 == 0:
                argv += ["--delta0", "0"]
            self.commands.append(("level", (z, n, l), fmt, argv))
        picks = [c for c in self.commands if c[0] == "level"][:2] + \
            [c for c in self.commands if c[0] == "table" and c[2] != "table"][:2] + \
            [c for c in self.commands if c[0] == "compare"][:2]
        self.cold_argvs = [c[3] for c in picks]
        self.warm_out = {}

    def prepare(self):
        pass

    def run_round(self, client, outcome):
        order = list(self.commands)
        self.rng.shuffle(order)
        results = {}
        for cmd in order:
            code, out, seconds = client.cli(cmd[3])
            results[tuple(cmd[3])] = (code, out, seconds)
            self.warm_out[tuple(cmd[3])] = out
        tables = {}
        for kind, key, fmt, argv in self.commands:
            if kind == "table" and fmt == "json":
                tables[key] = _json_rows(results[tuple(argv)][1])
        for kind, key, fmt, argv in self.commands:
            code, out, seconds = results[tuple(argv)]
            problems = [f"exit {code}"] if code != 0 else []
            try:
                problems += getattr(self, f"_check_{kind}")(key, fmt, argv, out, tables)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output ({type(exc).__name__}: {exc})")
            outcome.op(seconds, problems, ("tables", kind, key, fmt))

    def _check_table(self, shell, fmt, argv, out, tables):
        json_rows = tables[shell]
        if fmt == "table":
            lines = out.splitlines()
            return [] if len(lines) == len(json_rows) + 1 else [f"{len(lines)} lines"]
        if fmt == "csv":
            return _csv_matches(_parse_csv(out), json_rows)
        n, l = next(k for k, v in SHELL_LABEL.items() if v == shell)
        problems = []
        if [r["z"] for r in json_rows] != list(range(3, 85)):
            problems.append("rows do not cover Z = 3..84")
        for row in json_rows:
            z = row["z"]
            if fermi_amaldi_delta(z) / z > CRITICAL_RATIO[(n, l)] and not row["flag"]:
                problems.append(f"Z={z} is past critical screening but carries no flag")
        return problems

    def _check_compare(self, shell, fmt, argv, out, tables):
        summary = json.loads(out)["summary"]
        if not summary["max_rel_diff"] <= COMPARE_TOLERANCE:
            return [f"max_rel_diff {summary['max_rel_diff']}"]
        return []

    def _check_level(self, level, fmt, argv, out, tables):
        z, n, l = level
        if fmt == "json":
            total = json.loads(out)["rows"][0]["total_hartree"]
        else:
            total = float(_parse_csv(out)[0]["total_hartree"])
        if "--delta0" in argv:
            big_n = _big_n(n, l)
            want = float(f"{-z * z / (2.0 * big_n * big_n):.9g}")
        else:
            table = tables[SHELL_LABEL[(n, l)]]
            want = next(r["total_hartree"] for r in table if r["z"] == z)
        return [] if total == want else [f"total {total}, expected {want}"]

    def cold_jobs(self):
        return [(["cli"] + argv, _same_as_warm(self.warm_out, argv)) for argv in self.cold_argvs]


def _json_rows(text):
    try:
        return json.loads(text)["rows"]
    except (ValueError, KeyError):
        return []


class Quadrature:
    """`correction_via_quadrature` and `moderated_radial` calls.

    Reaches the wavefunctions module and scipy's quad, never the CLI or the
    eigensolver.
    """

    name = "quadrature"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        # one Z from each of six equal strata of 3..84, so that every seed
        # mixes light and heavy atoms alike
        edges = np.linspace(3, 85, Z_STRATA + 1).round().astype(int)
        zs = [self.rng.randrange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        states = [(n, l) for n in range(3) for l in range(3)]
        self.ops = [("correction", z, n, l, order)
                    for z in zs for n, l in states for order in (1, 2, 3)]
        for z in zs:
            delta = fermi_amaldi_delta(z)
            for n, l in states:
                big_n = _big_n(n, l)
                if 3.0 * big_n**2 * delta < MODERATED_MARGIN * 4.0 * z:
                    self.ops.append(("wavefunction", z, n, l))
        corrections = [op for op in self.ops if op[0] == "correction"]
        self.cold_ops = [self.rng.choice(corrections) for _ in range(6)]

    def prepare(self):
        self.refs = {}
        for op in self.ops:
            kind, z, n, l = op[:4]
            if kind == "correction":
                self.refs[op] = correction_from_moments(float(z), fermi_amaldi_delta(z), n, l, op[4])
            else:
                self.refs[op] = gauss_legendre_grid(40.0 * _big_n(n, l) ** 2 / z)

    def run_round(self, client, outcome):
        import yukawa_atom as ya

        order = list(self.ops)
        self.rng.shuffle(order)
        for op in order:
            kind, z, n, l = op[:4]
            system, state, delta = ya.AtomicSystem(z), ya.QuantumState(n, l), fermi_amaldi_delta(z)
            if kind == "correction":
                value, seconds = client.call(ya.correction_via_quadrature, system, state, delta, op[4])
                problems = self.check_correction(op, value)
            else:
                nodes = self.refs[op][0]
                values, seconds = client.call(_moderated_on_grid, system, state, delta, nodes)
                problems = self.check_norm(op, values)
            outcome.op(seconds, problems, ("quadrature",) + op)

    def check_norm(self, op, values):
        norm = float(np.dot(self.refs[op][1], values**2))
        return [] if abs(norm - 1.0) <= NORM_TOL else [f"norm {norm!r} on the benchmark's grid"]

    def check_correction(self, op, value):
        ref = self.refs[op]
        if abs(value - ref) <= QUADRATURE_REL_TOL * abs(ref):
            return []
        return [f"correction {value!r}, hydrogenic moments give {ref!r}"]

    def cold_jobs(self):
        jobs = []
        for op in self.cold_ops:
            _, z, n, l, order = op
            argv = ["correction", str(z), str(n), str(l), repr(fermi_amaldi_delta(z)), str(order)]
            jobs.append((argv, lambda out, op=op: self.check_correction(op, float(out))))
        return jobs


def _moderated_on_grid(system, state, delta, nodes):
    import yukawa_atom as ya

    return np.asarray(ya.moderated_radial(system, state, delta)(nodes))


WORKLOADS = {w.name: w for w in (Spectrum, Tables, Quadrature)}
