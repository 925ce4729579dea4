"""Paired in-process comparison of two source trees, route by route.

Copies this checkout's ``src/yukawa_atom`` and OTHER_ROOT's under two
package names in a temporary directory and imports both into one
interpreter; the package's relative imports make a copy work under any
name.  For each route it runs both sides once, with their work counted and
their outputs hashed, which also warms them, then times ``ROUNDS`` rounds,
alternating which side runs first.  A round runs each side's calls as many
times over as makes the slower side's warm run last ``MIN_ROUND`` seconds,
so that a stall of a few milliseconds does not decide a ratio.  Per route
it prints the median
per-round time ratio, this / other, with its quartiles; each side's work,
the sweeps and swept points through that copy's
``_numerov_py.count_nodes_sweep`` and the integrals through
``scipy.integrate.quad``; and each side's sha256 of the route's outputs
(results and raised errors, floats as ``float.hex``), so that equal bits
show:

    python tools/pair.py OTHER_ROOT

The routes, every level with the Fermi-Amaldi delta: ``solve_bound_state``
over Z = 2..83 in steps of 3 with n, l <= 2 (252 levels);
``energy_breakdown`` of orders 0-3 over Z = 3..84 with n, l <= 2; warm
``cli.main`` ``table``, ``level`` and ``compare`` commands; and
``correction_via_quadrature`` of orders 1-3 and ``moderated_radial`` over
a few Z with n, l <= 2.  A ratio whose quartiles exclude 1 resolves a
change; the tool gates nothing.  It takes no option beyond OTHER_ROOT, and
pytest does not collect it.
"""

import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import scipy.integrate

ROOT = Path(__file__).resolve().parents[1]

ROUNDS = 20
MIN_ROUND = 0.02  # seconds

STATES = [(n, l) for n in range(3) for l in range(3)]
SHELLS = ("E00", "E01", "E10", "E11")
FORMATS = ("table", "csv", "json")
QUADRATURE_Z = (3, 20, 41, 62, 84)


def _delta(pkg, z):
    return pkg.screening_delta(z, pkg.ScreeningModel())


def _solve(pkg, z, n, l):
    return pkg.solve_bound_state, (pkg.AtomicSystem(z), _delta(pkg, z), pkg.QuantumState(n, l))


def _breakdown(pkg, z, n, l, order):
    return pkg.energy_breakdown, (float(z), pkg.QuantumState(n, l), _delta(pkg, z), order)


def _correction(pkg, z, n, l, order):
    args = (pkg.AtomicSystem(z), pkg.QuantumState(n, l), _delta(pkg, z), order)
    return pkg.correction_via_quadrature, args


def _moderated(pkg, z, n, l):
    return pkg.moderated_radial, (pkg.AtomicSystem(z), pkg.QuantumState(n, l), _delta(pkg, z))


def _run_cli(cli, argv):
    """(exit code, stdout, stderr) of one command through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _command(pkg, *argv):
    return _run_cli, (pkg.cli, argv)


#: name -> (call builder, items): the builder turns one item into a side's
#: (function, arguments), built before any timing.
ROUTES = {
    "solve_bound_state": (_solve, [(z, n, l) for z in range(2, 84, 3) for n, l in STATES]),
    "energy_breakdown": (_breakdown, [(z, n, l, order) for z in range(3, 85)
                                      for n, l in STATES for order in range(4)]),
    "table": (_command, [("table", "--shell", shell, "--z", "3..84", "--format", fmt)
                         for shell in SHELLS for fmt in FORMATS]),
    "level": (_command, [("level", "--z", z, "--n", str(n), "--l", str(l), "--format", fmt)
                         for z in ("3", "29", "84") for n, l in STATES for fmt in FORMATS]),
    "compare": (_command, [("compare", "--shell", shell, "--format", fmt)
                           for shell in ("E00", "E01", "E10") for fmt in FORMATS]),
    "correction_via_quadrature": (_correction, [(z, n, l, order) for z in QUADRATURE_Z
                                                for n, l in STATES for order in (1, 2, 3)]),
    "moderated_radial": (_moderated, [(z, n, l) for z in QUADRATURE_Z for n, l in STATES]),
}


def _run(calls):
    """Each call's result, or the exception it raised."""
    results = []
    for f, args in calls:
        try:
            results.append(f(*args))
        except Exception as exc:
            results.append(exc)
    return results


def _text(value):
    """``value`` as text that shows every bit of its floats."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, BaseException):
        return f"{type(value).__name__}: {value}"
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return "(" + " ".join(map(_text, value)) + ")"
    return repr(value)


def _timed_run(calls, repeat=1):
    """Seconds that ``repeat`` runs of ``calls`` take, with no collection
    inside the timing, as timeit does."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeat):
            _run(calls)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _counted_run(pkg, calls):
    """(work, sha256 of the outputs) of one untimed run of ``calls``."""
    work = {"sweeps": 0, "points": 0, "integrals": 0}
    sweep, quad = pkg._numerov_py.count_nodes_sweep, scipy.integrate.quad

    def counted_sweep(w, *args):
        work["sweeps"] += 1
        work["points"] += len(w)
        return sweep(w, *args)

    def counted_quad(*args, **kwargs):
        work["integrals"] += 1
        return quad(*args, **kwargs)

    pkg._numerov_py.count_nodes_sweep, scipy.integrate.quad = counted_sweep, counted_quad
    try:
        results = _run(calls)
    finally:
        pkg._numerov_py.count_nodes_sweep, scipy.integrate.quad = sweep, quad
    text = "\n".join(map(_text, results))
    return work, hashlib.sha256(text.encode()).hexdigest()


def _load(src: Path, name: str, into: Path):
    shutil.copytree(src / "yukawa_atom", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def compare_trees(this_root, other_root, routes=ROUTES, rounds=ROUNDS):
    """Route name -> {"ratio": (q1, median, q3) of this / other per round,
    "work": (this, other), "sha256": (this, other)}."""
    names = ("_pair_this", "_pair_other")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [_load(Path(root) / "src", name, Path(tmp))
                     for root, name in zip((this_root, other_root), names)]
            report = {}
            for route, (build, items) in routes.items():
                calls = [[build(pkg, *item) for item in items] for pkg in sides]
                counted = [_counted_run(pkg, c) for pkg, c in zip(sides, calls)]
                warm = max(_timed_run(c) for c in calls)
                repeat = max(1, math.ceil(MIN_ROUND / warm))
                ratios = []
                for i in range(rounds):
                    seconds = [0.0, 0.0]
                    for side in (0, 1) if i % 2 == 0 else (1, 0):
                        seconds[side] = _timed_run(calls[side], repeat)
                    ratios.append(seconds[0] / seconds[1])
                q1, median, q3 = statistics.quantiles(ratios, n=4)
                report[route] = {"ratio": (q1, median, q3),
                                 "work": tuple(work for work, _ in counted),
                                 "sha256": tuple(digest for _, digest in counted)}
            return report
        finally:
            sys.path.remove(tmp)
            for module in [m for m in sys.modules if m.partition(".")[0] in names]:
                del sys.modules[module]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tools/pair.py OTHER_ROOT", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"  # argparse lays out usage lines alike
    print(f"this {ROOT}\nother {Path(argv[0]).resolve()}\nrounds {ROUNDS}")
    for route, row in compare_trees(ROOT, argv[0]).items():
        q1, median, q3 = row["ratio"]
        print(f"{route}: {median:.3f}x (quartiles {q1:.3f}-{q3:.3f})")
        for side, work, digest in zip(("this", "other"), row["work"], row["sha256"]):
            counts = " ".join(f"{key} {value}" for key, value in work.items())
            print(f"  {side:5} {counts} sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
