"""Direct numerical eigensolver for the radial screened-Coulomb problem.

Solves chi'' = 2 (V_eff - E) chi with the exact (un-expanded) potential
V_eff = -(A/r) exp(-delta r) + l(l+1)/(2 r^2) by outward Numerov integration
on a uniform grid.  The node count of the outward solution is a
non-decreasing step function of the trial energy that jumps from n to n+1
exactly at the n-th eigenvalue, so bisection on the node count brackets the
eigenvalue rigorously: once the bracket ends have n and n+1 nodes, the
sweep's last value has opposite signs there and one zero between them, and
Brent's method on that value finds the eigenvalue in a few sweeps.  Every
grid runs from ``R_MIN`` = 1e-6 Bohr to its box's edge; the first has
``FIRST_GRID_POINTS`` = 4001 points unless the caller passes a grid, and
each refinement halves the step.  Numerov's eigenvalue error being O(h^4),
each grid's eigenvalue plus a fifteenth of its shift from the coarser grid
is a Richardson extrapolation to zero step; refinement stops once two
successive extrapolations agree within ``GRID_TOL``, and their difference is
the error estimate.

Every grid starts from the bracket [1.5 E0, -1e-12], with E0 the hydrogenic
level -A^2/(2 N^2).  Since V = -(A/r) exp(-delta r) is never below -A/r, the
comparison theorem puts every screened level above E0, so 1.5 E0 is a proven
lower end that the search never widens.  The first grid's bracket is
narrowed by a seed from the paper's third-order closed form, and each finer
grid's by the previous eigenvalue, moved from the third grid on by the
sixteenth of the last grid shift that Numerov's h^4 error predicts.  The
bracket's ends are swept from the top and each is kept only where its node
count proves it, so a poor seed costs sweeps but cannot change which level is
found (see :func:`solve_bound_state`).

No level binds once delta / A passes the 1s critical ratio, so such a
solve raises ``NoBoundState`` before it builds a grid.

A solve given no grid uses a box that reaches 30 decay lengths past a
bound on the level's outer turning point, both taken from the upper bound
E0 + A delta on its energy, and is never wider than max(20, 30 N^2/A) Bohr
(see :meth:`RadialGrid.for_state`).

The sweep is the hot path; ``_numerov_py`` runs it as one LAPACK banded
triangular solve per trial energy, on a band matrix kept between sweeps.
scipy's ``brentq`` and the sweep's ``dtbtrs`` are imported by the first
solve, not with this module, so the closed-form commands never load
``scipy.optimize`` or ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _numerov_py
from .perturbation import (
    AtomicSystem,
    QuantumState,
    coulomb_energy,
    energy_breakdown,
)

__all__ = [
    "NoBoundState",
    "NonConvergence",
    "RadialGrid",
    "OracleResult",
    "solve_bound_state",
    "numerov_backend",
]

#: Width at which an eigenvalue counts as isolated on one grid.
ENERGY_TOL = 1e-10
#: Agreement between successive extrapolated energies that marks the result converged.
GRID_TOL = 1e-8
#: Step-halving refinements before giving up.
MAX_REFINEMENTS = 8
#: Highest trial energy: a level must lie below it to count as bound.
_E_TOP = -1e-12
#: Inner end of every radial grid, in Bohr.
R_MIN = 1e-6
#: Points of the first grid of a solve given no grid.
FIRST_GRID_POINTS = 4001
#: delta / A past which no level binds: the 1s critical ratio 1.190612
#: (Rogers, Graboske & Harwood, Phys. Rev. A 1, 1577 (1970)), rounded up.
#: Every other level unbinds at a smaller ratio.
CRITICAL_RATIO = 1.1907


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
    """Uniform radial grid on [``R_MIN``, ``r_max``].  ``r_max`` must be finite
    and above ``R_MIN``; ``points`` must be odd and at least 1001."""

    r_max: float
    points: int

    def __post_init__(self):
        if self.points < 1001 or self.points % 2 == 0:
            raise ValueError(f"points must be odd and >= 1001, got {self.points}")
        if not R_MIN < self.r_max < math.inf:
            raise ValueError(f"r_max must be finite and above {R_MIN}, got {self.r_max}")

    @classmethod
    def for_state(cls, system: AtomicSystem, state: QuantumState, delta: float) -> "RadialGrid":
        """First grid of a solve: ``FIRST_GRID_POINTS`` points on a box of 30
        decay lengths of the level past its turning point, never wider than
        max(20, 30 N^2 / A) Bohr.

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
        return cls(r_max, FIRST_GRID_POINTS)

    def halved(self) -> "RadialGrid":
        return replace(self, points=2 * (self.points - 1) + 1)


@dataclass(frozen=True)
class OracleResult:
    energy: float
    nodes_found: int
    grid_converged: bool
    estimated_error: float
    grid_points: int
    #: Trial energies swept, over every grid.
    sweeps: int = 0


#: Frobenius series length for the boundary values at the first two points.
_SERIES_TERMS = 6


def _series_start(a: float, delta: float, l: int, energy: float, r0: float,
                  r1: float) -> tuple[float, float]:
    """Regular solution near the origin, u = r^(l+1) sum_k c_k r^k, at the
    grid's first two points r0 and r1; the c_k are built once for both.

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

    def u(r):
        poly = 0.0
        for ck in reversed(c):
            poly = poly * r + ck
        return r ** (l + 1) * poly

    return u(r0), u(r1)


class _Sweeper:
    """Node count and last value of the outward solution for one (potential,
    grid) pair at varying trial energy; each energy is swept once."""

    def __init__(self, system: AtomicSystem, delta: float, state: QuantumState,
                 grid: RadialGrid):
        r = np.linspace(R_MIN, grid.r_max, grid.points)
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
            u0, u1 = _series_start(self.a, self.delta, self.l, energy, self.r0, self.r1)
            self._swept[energy] = _numerov_py.count_nodes_sweep(self.w, energy, self.h, u0, u1)
        return self._swept[energy]

    def nodes(self, energy: float) -> int:
        return self._sweep(energy)[0]

    def tail(self, energy: float) -> float:
        return self._sweep(energy)[1]


def _bisect_eigenvalue(sweep: _Sweeper, n: int, lo: float, hi: float) -> tuple[float, int]:
    """Eigenvalue in [lo, hi] at the node-count transition n -> n+1, and its
    node count.

    Bisects on the node count until the ends have exactly n and n+1 nodes
    and lo >= 2 hi, taking the geometric midpoint -sqrt(lo hi) while
    lo < 2 hi, so that a bracket spanning decades towards E -> 0 shrinks by
    decades.  The sweep's last value has its first value's sign times
    (-1)^count, so it then has opposite signs at lo and hi, and Brent's
    method on it finds the eigenvalue.  Rescaling in the sweep keeps signs,
    so it only slows Brent towards bisection.
    """
    from scipy.optimize import brentq

    while sweep.nodes(lo) != n or sweep.nodes(hi) != n + 1 or lo < 2.0 * hi:
        mid = -np.sqrt(lo * hi) if lo < 2.0 * hi else 0.5 * (lo + hi)
        if hi - lo <= ENERGY_TOL or mid <= lo or mid >= hi:
            return mid, sweep.nodes(lo)
        if sweep.nodes(mid) >= n + 1:
            hi = mid
        else:
            lo = mid
    return brentq(sweep.tail, lo, hi, xtol=ENERGY_TOL), n


def _solve_on_grid(system, delta, state, grid, bracket: tuple[float, float] | None = None,
                   tally: list[int] | None = None) -> tuple[float, int]:
    """Eigenvalue and node count on one grid; raises NoBoundState.

    The search starts from lo = 1.5 E0, below the level by the comparison
    theorem (V >= -A/r puts every level above E0), and hi = -1e-12.  The
    ends of ``bracket`` are swept from the top: an end with n+1 or more
    nodes lies above the level and becomes ``hi``, and the first end with
    at most n nodes lies below it and becomes ``lo``, so the end below that
    is never swept.  Too few nodes at ``hi`` mean no bound level, which is
    found before any sweep at the lower end.  The number of trial energies
    swept is appended to ``tally``.
    """
    sweep = _Sweeper(system, delta, state, grid)
    n = state.n
    lo, hi = 1.5 * coulomb_energy(system.a, state), _E_TOP
    for end in sorted((min(end, _E_TOP) for end in bracket or ()), reverse=True):
        if sweep.nodes(end) <= n:
            lo = end
            break
        hi = end
    if sweep.nodes(hi) < n + 1:
        raise NoBoundState(
            f"no bound state with {n} nodes for A={system.a}, delta={delta}, l={state.l}"
        )
    energy, nodes = _bisect_eigenvalue(sweep, n, lo, hi)
    # scipy's brentq holds the callable it is given in a reference cycle, so
    # the sweeper outlives this call until the cyclic collector runs: drop
    # its potential, the one array it keeps.
    del sweep.w
    if tally is not None:
        tally.append(len(sweep._swept))
    return energy, nodes


def _seed_bracket(system: AtomicSystem, delta: float, state: QuantumState):
    """First-grid bracket around the closed-form third-order total, or None.

    The half-width is max(4 |E3|, 1e-6 |total|), clipped into
    [1.5 E0, -1e-12]: unclipped, a divergent series would send the sweep to
    deep energies where it rescales again and again.  No bracket is
    seeded when the total lies outside (1.5 E0, 0) or overflows.
    """
    try:
        b = energy_breakdown(system.a, state, delta, 3)
    except ValueError:
        return None
    floor = 1.5 * b.e0
    if not floor < b.total < 0.0:
        return None
    pad = max(4.0 * abs(b.e3), 1e-6 * abs(b.total))
    return max(b.total - pad, floor), min(b.total + pad, _E_TOP)


def solve_bound_state(system: AtomicSystem, delta: float, state: QuantumState,
                      grid: RadialGrid | None = None) -> OracleResult:
    """Bound-state energy by node-count bracketing, Brent's method on the
    sweep's last value, and grid refinement.

    Every grid's search starts from [1.5 E0, -1e-12]: the comparison theorem
    (V >= -A/r) puts the level above E0, and a level must lie below -1e-12
    to count as bound.  The first grid's bracket is the closed-form
    third-order total padded by max(4 |E3|, 1e-6 |total|) and clipped into
    that range (none when the total lies outside (1.5 E0, 0)); each finer
    grid's is the previous energy padded by 5e-5 of it after the first grid;
    after each later grid it is that grid's energy plus a sixteenth of its
    shift from the coarser grid (Numerov's next shift), padded by a quarter
    of that shift.  The bracket ends are swept from the top: an end
    with n+1 or more nodes becomes the upper end, and the first with at
    most n nodes the lower end, so the end below it is never swept.  Too
    few nodes at the upper end raise :class:`NoBoundState`.  Bisection,
    geometric while the ends differ by more than a factor of two so that
    levels near E = 0 take a few sweeps per decade, leaves ends with n and
    n+1 nodes, and Brent's method isolates the eigenvalue to
    ``ENERGY_TOL``.  The grid is step-halved, and after each halving the
    finer energy E_k is extrapolated to X_k = E_k + (E_k - E_{k-1}) / 15,
    which removes Numerov's h^4 error.  At least three grids are solved:
    the result is the first X_k within ``GRID_TOL`` Hartree of X_{k-1}, with
    max(|X_k - X_{k-1}|, ``ENERGY_TOL``) as its ``estimated_error``, and its
    node count is checked against n.  Raises :class:`NonConvergence`
    (carrying the latest X_k and its last change, or after a single halving
    X_1 and |X_1 - E_1|) if refinement stalls or that check fails.  The
    first grid is :meth:`RadialGrid.for_state`'s box for ``delta`` at
    ``FIRST_GRID_POINTS`` points; a grid passed in starts at its own box and
    size.  Every grid starts at ``R_MIN``.  The result's
    ``sweeps`` counts the trial energies swept on every grid, and its
    ``grid_points`` is the finest grid's size.  A delta past
    ``CRITICAL_RATIO`` times A raises :class:`NoBoundState` before any sweep.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"screening parameter must be finite and non-negative, got {delta}")
    if delta > CRITICAL_RATIO * system.a:
        raise NoBoundState(f"no bound state for A={system.a}, delta={delta}: delta/A is past "
                           f"the 1s critical ratio {CRITICAL_RATIO}")
    if grid is None:
        grid = RadialGrid.for_state(system, state, delta)

    tally: list[int] = []
    bracket = _seed_bracket(system, delta, state)
    energy = None
    for level in range(MAX_REFINEMENTS + 1):
        if level:
            grid = grid.halved()
        prev_energy = energy
        energy, nodes = _solve_on_grid(system, delta, state, grid, bracket, tally)
        if not level:
            extrap, error = energy, float("inf")
            centre, pad = energy, max(5e-5 * abs(energy), 1e-9)
        else:
            # Numerov is 4th order: the finer grid's error is about a
            # fifteenth of the shift, which the extrapolation removes.  The
            # first extrapolation has only its own correction as its error.
            shift = energy - prev_energy
            prev_extrap, extrap = extrap, energy + shift / 15.0
            error = abs(extrap - (energy if level == 1 else prev_extrap))
            if level > 1 and error < GRID_TOL:
                result = OracleResult(extrap, nodes, nodes == state.n,
                                      max(error, ENERGY_TOL), grid.points, sum(tally))
                if nodes != state.n:
                    raise NonConvergence(
                        f"converged energy has {nodes} nodes, expected {state.n}", result)
                return result
            # the next halving shifts the energy by about a sixteenth of this one
            centre, pad = energy + shift / 16.0, max(abs(shift) / 4.0, 1e-9)
        # _solve_on_grid revalidates the bracket's node counts.  Over
        # Z = 1..84 with n, l <= 2 the first halving moves 32 of the 472
        # bound levels by more than the first pad (Z=54 3p the most, by
        # 1.4e-3 of its energy); their stale brackets still prove one end.
        # First pads of 1e-6, 1e-5, 5e-5, 1e-4 and 1e-3 took 12534, 11783,
        # 11326, 11402 and 11961 sweeps over the bound levels, with the same
        # outcomes.  Later shifts shrink by a median 0.0625 per halving: over
        # the same levels each of the 587 grids after the second lands within
        # 0.025 pads of its predicted energy.
        bracket = (centre - pad, centre + pad)
    raise NonConvergence(
        f"grid refinement stalled after {MAX_REFINEMENTS} halvings "
        f"(last change {error:.3e} Hartree)",
        OracleResult(extrap, nodes, False, error, grid.points, sum(tally)),
    )
