"""Eigensolver survey: every level of Z = 1..84 with n, l <= 2 and the
Fermi-Amaldi delta, as exact as the floats it returns.

Prints one line per level (Z, n, l and its outcome: the energy and error as
``float.hex``, the finest grid's points, the sweeps and the node count of a
bound level, or ``unbound``), then the totals: bound and unbound levels,
sweeps, swept points, and the sha256 of the level lines.  Two checkouts give
the same results bit for bit when their digests agree:

    PYTHONPATH=src python tools/survey.py

The script is not a test module, so pytest does not collect it.
"""

import hashlib
import sys
import time

from yukawa_atom import (
    AtomicSystem,
    NoBoundState,
    NonConvergence,
    QuantumState,
    ScreeningModel,
    screening_delta,
    solve_bound_state,
)
from yukawa_atom import _numerov_py


def _outcome(system, delta, state):
    try:
        res = solve_bound_state(system, delta, state)
    except NoBoundState:
        return "unbound"
    except NonConvergence as exc:
        res, kind = exc.result, "nonconvergence"
    else:
        kind = "bound"
    return (f"{kind} {res.energy.hex()} {res.estimated_error.hex()} "
            f"{res.grid_points} {res.sweeps} {res.nodes_found}")


def main() -> int:
    work = {"sweeps": 0, "points": 0}
    sweep = _numerov_py.count_nodes_sweep

    def counted(w, *args):
        work["sweeps"] += 1
        work["points"] += len(w)
        return sweep(w, *args)

    _numerov_py.count_nodes_sweep = counted
    model, lines = ScreeningModel(), []
    start = time.perf_counter()
    try:
        for z in range(1, 85):
            system, delta = AtomicSystem(z), screening_delta(z, model)
            for n in range(3):
                for l in range(3):
                    lines.append(f"{z} {n} {l} {_outcome(system, delta, QuantumState(n, l))}")
    finally:
        _numerov_py.count_nodes_sweep = sweep
    seconds = time.perf_counter() - start
    text = "\n".join(lines) + "\n"
    kinds = [line.split()[3] for line in lines]
    sys.stdout.write(text)
    print(f"bound {kinds.count('bound')} unbound {kinds.count('unbound')} "
          f"nonconvergence {kinds.count('nonconvergence')}")
    print(f"sweeps {work['sweeps']} points {work['points']}")
    print(f"sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"seconds {seconds:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
