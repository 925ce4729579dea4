"""Direct numerical eigensolver for the radial screened-Coulomb problem.

Solves chi'' = 2 (V_eff - E) chi with the exact (un-expanded) potential
V_eff = -(A/r) exp(-delta r) + l(l+1)/(2 r^2) by outward Numerov integration
on a uniform grid.  The node count of the outward solution is a
non-decreasing step function of the trial energy that jumps from n to n+1
exactly at the n-th eigenvalue, so bisection on the node count brackets the
eigenvalue rigorously: once the bracket ends have n and n+1 nodes, the
sweep's last value has opposite signs there and one zero between them, and
Brent's method on that value finds the eigenvalue in a few sweeps.  The grid
is step-halved until two successive grids agree within ``GRID_TOL``;
Numerov being fourth order, the error left on the finer grid is estimated as
a fifteenth of their difference.

The default box reaches 30 decay lengths past a bound on the level's outer
turning point, both taken from the upper bound E0 + A delta on its energy,
and is never wider than max(20, 30 N^2/A) Bohr (see
:meth:`RadialGrid.for_state`).

The sweep is the hot path; ``_numerov_py`` runs it as one LAPACK banded
triangular solve per trial energy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from . import _numerov_py
from .perturbation import (
    AtomicSystem,
    QuantumState,
    ScreeningModel,
    coulomb_energy,
    screening_delta,
    total_energy,
)

__all__ = [
    "NoBoundState",
    "NonConvergence",
    "RadialGrid",
    "OracleResult",
    "ComparisonRecord",
    "solve_bound_state",
    "breakdown_report",
    "numerov_backend",
]

#: Width at which an eigenvalue counts as isolated on one grid.
ENERGY_TOL = 1e-10
#: Agreement between successive grids that marks the result converged.
GRID_TOL = 1e-8
#: Step-halving refinements before giving up.
MAX_REFINEMENTS = 8
#: Geometric widenings of the lower bracket edge before NoBoundState.
MAX_BRACKET_WIDENINGS = 3


def numerov_backend() -> str:
    """Name of the Numerov sweep backend, always 'pure-python'.

    The sweep is a numpy and LAPACK solve in ``_numerov_py``, with nothing
    compiled by the package.  The name stays 'pure-python' because the
    benchmark's tracer maps it to that module to find the sweep it times.
    """
    return "pure-python"


class NoBoundState(RuntimeError):
    """No eigenvalue with the required node count exists below zero."""


class NonConvergence(RuntimeError):
    """Grid refinement stalled; ``result`` carries the best estimate."""

    def __init__(self, message: str, result: "OracleResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid.  ``points`` must be odd and at least 1001."""

    r_min: float = 1e-6
    r_max: float = 20.0
    points: int = 20001

    def __post_init__(self):
        if self.points < 1001 or self.points % 2 == 0:
            raise ValueError(f"points must be odd and >= 1001, got {self.points}")
        if not 0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")

    @classmethod
    def for_state(cls, system: AtomicSystem, state: QuantumState, delta: float,
                  points: int = 20001, r_min: float = 1e-6) -> "RadialGrid":
        """Default box: 30 decay lengths of the level past its turning point,
        and never wider than max(20, 30 N^2 / A) Bohr.

        Since exp(-x) >= 1 - x, V <= -A/r + A delta, so E_up = E0 + A delta
        bounds the level from above.  Since V_eff >= -A/r, the outer turning
        point lies below A / (-E_up) when E_up < 0, and 30 / sqrt(-2 E_up)
        is at least 30 decay lengths of the level.  A level the bound cannot
        show to be bound gets the cap.
        """
        big_n = state.big_n
        r_max = max(20.0, 30.0 * big_n * big_n / system.a)
        e_up = coulomb_energy(system.a, state) + system.a * delta
        if e_up < 0.0:
            r_max = min(r_max, system.a / -e_up + 30.0 / np.sqrt(-2.0 * e_up))
        return cls(r_min=r_min, r_max=r_max, points=points)

    def halved(self) -> "RadialGrid":
        return replace(self, points=2 * (self.points - 1) + 1)


@dataclass(frozen=True)
class OracleResult:
    energy: float
    nodes_found: int
    grid_converged: bool
    estimated_error: float
    grid_points: int


@dataclass(frozen=True)
class ComparisonRecord:
    """Perturbative total paired with the direct eigenvalue, in Hartree."""

    perturbative: float
    oracle: float
    abs_diff: float
    rel_diff: float


#: Frobenius series length for the boundary values at the first two points.
_SERIES_TERMS = 6


def _series_start(a: float, delta: float, l: int, energy: float, r: float) -> float:
    """Regular solution near the origin, u = r^(l+1) sum_k c_k r^k.

    The plain r^(l+1) start misses a relative A*r correction at the second
    grid point, which degrades the eigenvalue convergence to first order in
    the step; the series restores the integrator's full order.
    """
    # v(r) = 2A exp(-delta r)/r + 2E expanded about r = 0; v[j] multiplies r^j
    # and the 1/r Coulomb piece is kept separately.
    v_coul = 2.0 * a
    v = [2.0 * energy - 2.0 * a * delta]
    fac = 1.0
    for j in range(1, _SERIES_TERMS - 1):
        fac *= j + 1
        v.append(2.0 * a * (-delta) ** (j + 1) / fac)

    c = [1.0]
    for q in range(1, _SERIES_TERMS):
        acc = v_coul * c[q - 1]
        for j in range(0, q - 1):
            acc += v[j] * c[q - 2 - j]
        c.append(-acc / (q * (q + 2 * l + 1)))

    poly = 0.0
    for ck in reversed(c):
        poly = poly * r + ck
    return r ** (l + 1) * poly


class _Sweeper:
    """Node count and last value of the outward solution for one (potential,
    grid) pair at varying trial energy; each energy is swept once."""

    def __init__(self, system: AtomicSystem, delta: float, state: QuantumState,
                 grid: RadialGrid):
        r = np.linspace(grid.r_min, grid.r_max, grid.points)
        self.h = r[1] - r[0]
        self.l = state.l
        self.a = system.a
        self.delta = delta
        self.r0 = r[0]
        self.r1 = r[1]
        # energy-independent part of f = 2(V_eff - E)
        l = state.l
        self.w = l * (l + 1) / (r * r) - 2.0 * system.a * np.exp(-delta * r) / r
        self._swept: dict[float, tuple[int, float]] = {}

    def _sweep(self, energy: float) -> tuple[int, float]:
        if energy not in self._swept:
            u0 = _series_start(self.a, self.delta, self.l, energy, self.r0)
            u1 = _series_start(self.a, self.delta, self.l, energy, self.r1)
            self._swept[energy] = _numerov_py.count_nodes_sweep(self.w, energy, self.h, u0, u1)
        return self._swept[energy]

    def nodes(self, energy: float) -> int:
        return self._sweep(energy)[0]

    def tail(self, energy: float) -> float:
        return self._sweep(energy)[1]


def _bisect_eigenvalue(sweep: _Sweeper, n: int, lo: float, hi: float) -> tuple[float, int]:
    """Eigenvalue in [lo, hi] at the node-count transition n -> n+1, and its
    node count.

    Bisects on the node count until the ends have exactly n and n+1 nodes.
    The sweep's last value has its first value's sign times (-1)^count, so
    it then has opposite signs at lo and hi, and Brent's method on it finds
    the eigenvalue.  Rescaling in the sweep keeps signs, so it only slows
    Brent towards bisection.
    """
    while sweep.nodes(lo) != n or sweep.nodes(hi) != n + 1:
        mid = 0.5 * (lo + hi)
        if hi - lo <= ENERGY_TOL or mid <= lo or mid >= hi:
            return mid, sweep.nodes(lo)
        if sweep.nodes(mid) >= n + 1:
            hi = mid
        else:
            lo = mid
    return brentq(sweep.tail, lo, hi, xtol=ENERGY_TOL), n


def _solve_on_grid(system, delta, state, grid,
                   bracket: tuple[float, float] | None = None) -> tuple[float, int]:
    """Eigenvalue and node count on one grid; raises NoBoundState."""
    sweep = _Sweeper(system, delta, state, grid)
    n = state.n
    hi = -1e-12

    if bracket is not None:
        lo_b, hi_b = bracket
        hi_b = min(hi_b, hi)
        if sweep.nodes(lo_b) <= n and sweep.nodes(hi_b) >= n + 1:
            return _bisect_eigenvalue(sweep, n, lo_b, hi_b)
        # stale bracket (grid shift moved the eigenvalue); fall through

    lo = 1.5 * coulomb_energy(system.a, state)
    for _ in range(MAX_BRACKET_WIDENINGS + 1):
        if sweep.nodes(lo) <= n:
            break
        lo *= 4.0
    else:
        raise NoBoundState(
            f"no bracket below the n={n} level for A={system.a}, delta={delta}"
        )
    if sweep.nodes(hi) < n + 1:
        raise NoBoundState(
            f"no bound state with {n} nodes for A={system.a}, delta={delta}, l={state.l}"
        )
    return _bisect_eigenvalue(sweep, n, lo, hi)


def solve_bound_state(system: AtomicSystem, delta: float, state: QuantumState,
                      grid: RadialGrid | None = None) -> OracleResult:
    """Bound-state energy by node-count bracketing, Brent's method on the
    sweep's last value, and grid refinement.

    On each grid, bisection on the node count brackets the eigenvalue and
    Brent's method isolates it to ``ENERGY_TOL``; the grid is then
    step-halved until successive energies differ by less than
    ``GRID_TOL`` Hartree.  Raises :class:`NoBoundState` if the level does
    not exist below zero and :class:`NonConvergence` (carrying the best
    estimate) if refinement stalls.  The default grid is
    :meth:`RadialGrid.for_state`'s box for ``delta``.
    """
    if delta < 0:
        raise ValueError(f"screening parameter must be non-negative, got {delta}")
    if grid is None:
        grid = RadialGrid.for_state(system, state, delta)

    energy, nodes = _solve_on_grid(system, delta, state, grid)
    prev_energy = energy
    prev_diff = None
    for level in range(1, MAX_REFINEMENTS + 1):
        grid = grid.halved()
        # Reuse the previous level's energy, padded by the observed grid
        # shift, as the bracket; _solve_on_grid revalidates node counts.
        pad = max(1e-4 * abs(prev_energy), 1e-4) if prev_diff is None \
            else max(4.0 * prev_diff, 1e-9)
        bracket = (prev_energy - pad, prev_energy + pad)
        energy, nodes = _solve_on_grid(system, delta, state, grid, bracket)
        diff = abs(energy - prev_energy)
        if diff < GRID_TOL:
            if nodes != state.n:
                raise NonConvergence(
                    f"converged energy has {nodes} nodes, expected {state.n}",
                    OracleResult(energy, nodes, False, diff, grid.points),
                )
            # Numerov is 4th order: the remaining error is ~diff/15.
            return OracleResult(
                energy=energy,
                nodes_found=nodes,
                grid_converged=True,
                estimated_error=max(diff / 15.0, ENERGY_TOL),
                grid_points=grid.points,
            )
        prev_energy = energy
        prev_diff = diff
    last = prev_diff if prev_diff is not None else float("inf")
    raise NonConvergence(
        f"grid refinement stalled after {MAX_REFINEMENTS} halvings "
        f"(last change {last:.3e} Hartree)",
        OracleResult(prev_energy, nodes, False, last, grid.points),
    )


def breakdown_report(system: AtomicSystem, model: ScreeningModel,
                     state: QuantumState, order: int = 3,
                     grid: RadialGrid | None = None) -> ComparisonRecord:
    """Pair the perturbative total with the direct eigenvalue."""
    delta = screening_delta(system.z, model)
    perturbative = total_energy(system, model, state, order).total
    oracle = solve_bound_state(system, delta, state, grid).energy
    abs_diff = abs(perturbative - oracle)
    return ComparisonRecord(
        perturbative=perturbative,
        oracle=oracle,
        abs_diff=abs_diff,
        rel_diff=abs_diff / abs(oracle),
    )
