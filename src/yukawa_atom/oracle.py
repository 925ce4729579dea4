"""Direct numerical eigensolver for the radial screened-Coulomb problem.

Solves chi'' = 2 (V_eff - E) chi with the exact (un-expanded) potential
V_eff = -(A/r) exp(-delta r) + l(l+1)/(2 r^2) by outward Numerov integration
on a logarithmic mesh: with r = R_MIN exp(x) and chi = sqrt(r) phi(x), the
sweep solves phi'' = [(l + 1/2)^2 - 2 A r exp(-delta r) - 2 E r^2] phi in
equal steps of x, and phi has chi's nodes and signs.  The mesh spends as
many points on each decade of r, so the K shells, which live inside a
fraction of their 20-Bohr box, finish on 1601 points.

The node count of the outward solution is a non-decreasing step function
of the trial energy that jumps from n to n+1 exactly at the n-th
eigenvalue, so bisection on the node count, at the geometric midpoint,
brackets the eigenvalue rigorously.  Once the bracket ends have n and n+1
nodes, the sweep's last value has opposite signs there and one zero
between them; once also (kappa(lo) - kappa(hi)) r_max <= 32, with
kappa = sqrt(-2 E), Chandrupatla's method on that value, with its
exp(kappa r_max) growth divided out, finds the eigenvalue in a few
sweeps.  Each refinement halves the grid's step.  Numerov's eigenvalue
error being O(h^4), each grid's eigenvalue plus a fifteenth of its shift
from the coarser grid is a Richardson extrapolation to zero step;
refinement stops once two successive extrapolations agree within
``GRID_TOL``, and their difference is the error estimate.

Every grid's search runs inside bounds [lo, hi], by default [1.5 E0, -1e-12]
(built once per solve) with E0 the hydrogenic level -A^2/(2 N^2).  Since
V = -(A/r) exp(-delta r) is never below -A/r, the comparison theorem puts
every screened level above E0, so 1.5 E0 is a proven lower end; a level
must lie below -1e-12 to count as bound.  The first grid's bracket is
narrowed by a seed from the paper's third-order closed form, and each finer
grid's by the previous eigenvalue, moved from the third grid on by the
sixteenth of the last grid shift that Numerov's h^4 error predicts.  The
bracket's ends are swept from the top and each is kept only where its node
count proves it, so a poor seed costs sweeps but cannot change which level
is found.  A grid on which hi has at most n nodes, or lo more than n, holds
no level with n nodes inside its bounds and raises ``NoBoundState``.

Every solve sizes its first mesh from its search bounds (see
:func:`_first_mesh`), from ``R_MIN`` = 1e-6 Bohr to a box edge r_max: the
caller's, checked once per solve, or with E_up = min(hi, E0 + A delta), an
upper bound on the level, A / (-E_up) + 30 / sqrt(-2 E_up), 30 decay
lengths past a bound on the level's outer turning point, but never wider
than max(20, 30 N^2/A) Bohr.  The mesh has ``FIRST_GRID_POINTS`` = 401
points, or as many more as keep Numerov's t = h^2 (w - 2 lo r^2) / 12 <= 0.5
at r_max, with w = (l + 1/2)^2 - 2 A r exp(-delta r); a caller's box whose mesh would pass
``MAX_FIRST_GRID_POINTS`` is refused.  A seeded solve first takes its seed
bracket as the bounds of every grid; where a grid shows the level outside
them, it starts again from the default bounds and their mesh, at the cost
of the sweeps already spent (see :func:`solve_bound_state`).  The seed's
top end is far tighter than E0 + A delta for the L shells up to Z = 24,
where E0 + A delta is loose or, up to Z = 20, not negative, and its lower
end far above 1.5 E0: Z=19 2s finishes on 1601 points in 8 Bohr, not 6393
in 20.

Since E(A, delta) = A^2 e(delta / A), each level unbinds at one critical
ratio delta_c / A of its state, tabled in ``CRITICAL_RATIO`` for n, l <= 3;
other states take the 1s entry, the largest.  A solve whose delta / A
passes its entry by more than ``CRITICAL_MARGIN`` = 1e-4 of it raises
``NoBoundState`` before it builds a grid or imports numpy; inside the
margin the sweep decides.

The sweep is the hot path; ``_numerov_py`` runs it as one LAPACK banded
triangular solve per trial energy.  One :class:`_Sweeper` per mesh builds
its r^2, w, start values and sweep buffers once, 13 doubles per point; a
solve holds one mesh at a time and none once it returns.
numpy and the sweep's ``dtbtrs`` are imported by the first solve, not with
this module, so the closed-form commands load no numpy or scipy module.
Chandrupatla's method is :func:`_chandrupatla`, a few dozen lines on
``math``, so a solve loads ``scipy.linalg`` and nothing else from scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _numerov_py
from .perturbation import (
    AtomicSystem,
    QuantumState,
    _check_delta,
    coulomb_energy,
    energy_breakdown,
)

__all__ = [
    "NoBoundState",
    "NonConvergence",
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
#: Fewest points of any grid, and of the first grid of every solve.
FIRST_GRID_POINTS = 401
#: Most points of the first mesh for the default bounds in a caller's box.
MAX_FIRST_GRID_POINTS = 2**20 + 1
#: delta_c / A past which the level with n nodes and angular momentum l no
#: longer binds, for n, l <= 3 (so (1, 0) is 2s), as :func:`_critical_ratio`
#: rebuilds them; Rogers, Graboske & Harwood (Phys. Rev. A 1, 1577 (1970))
#: give 1s 1.19061 and 3p 0.11271.  The entries with n or l = 3 keep one
#: more decimal, so that none is rounded by more of itself than 5d is.  A
#: state outside the table takes the 1s entry, the largest of any state.
CRITICAL_RATIO = {
    (0, 0): 1.190612, (1, 0): 0.310209, (0, 1): 0.220217,
    (2, 0): 0.139450, (1, 1): 0.112710, (0, 2): 0.091345,
    (2, 1): 0.067885, (1, 2): 0.058105, (2, 2): 0.040024,
    (3, 0): 0.0788281, (3, 1): 0.0451862, (3, 2): 0.0291667, (0, 3): 0.0498311,
    (1, 3): 0.0353894, (2, 3): 0.0263507, (3, 3): 0.0203422,
}
#: Relative margin past a ``CRITICAL_RATIO`` entry from which a level is
#: unbound without a sweep: 11 times the entries' largest rounding, 8.8e-6
#: of 5d's 0.04002435 (the largest with n or l = 3 is 1.7e-6, of 6d's
#: 0.02916665).  :func:`_critical_ratio`'s entries do not move, to its
#: bisection's 1e-9, when its mesh step of 2e-3 becomes 4e-3 or 1e-3.
CRITICAL_MARGIN = 1e-4


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


def _first_mesh(system: AtomicSystem, state: QuantumState, delta: float,
                bounds: tuple[float, float], r_max: float | None = None) -> tuple[float, int]:
    """(r_max, points) of the first mesh of a solve whose search runs inside
    ``bounds`` (lo, hi): a box of ``r_max`` Bohr if given, else of 30 decay
    lengths of the level past its turning point, never wider than
    max(20, 30 N^2 / A) Bohr, on ``FIRST_GRID_POINTS`` points or as many
    more as keep Numerov's t <= 0.5 at the box's edge for E = lo.  The
    point count is odd, so that every halving keeps it odd.

    The default box: since exp(-x) >= 1 - x, V <= -A/r + A delta, so
    E0 + A delta bounds the level from above, as hi does once the
    search's sweeps show the level below it; E_up is the lower of the
    two.  Since V_eff >= -A/r, the outer turning point lies below
    A / (-E_up) when E_up < 0, and 30 / sqrt(-2 E_up) is at least 30
    decay lengths of the level.  Where E_up is near 0, as with
    E0 + A delta not negative and hi = -1e-12, the cap takes over.

    Numerov's t = h^2 (w - 2 E r^2) / 12, w = (l + 1/2)^2
    - 2 A r exp(-delta r), must stay below 1, and on the mesh it grows
    with -E r^2 towards the box edge, so a coarse step lets deep trial
    energies count spurious nodes there.  The step keeps t <= 0.5 at
    r_max for lo, the deepest energy the search sweeps.
    """
    lo, hi = bounds
    if r_max is None:
        e0 = coulomb_energy(system.a, state)
        r_max = max(20.0, 30.0 * state.big_n ** 2 / system.a)
        e_up = min(hi, e0 + system.a * delta)
        if e_up < 0.0:
            r_max = min(r_max, system.a / -e_up + 30.0 / math.sqrt(-2.0 * e_up))
    f_edge = ((state.l + 0.5) ** 2 - 2.0 * system.a * r_max * math.exp(-delta * r_max)
              - 2.0 * lo * r_max * r_max)
    steps = math.ceil(math.log(r_max / R_MIN) * math.sqrt(max(f_edge, 0.0) / 6.0))
    steps = max(FIRST_GRID_POINTS - 1, steps + steps % 2)
    return r_max, steps + 1


@dataclass(frozen=True)
class OracleResult:
    """A solved level; :func:`solve_bound_state` returns only converged ones,
    and :class:`NonConvergence` carries the rest."""

    energy: float
    nodes_found: int
    estimated_error: float
    grid_points: int
    #: Trial energies swept, over every grid.
    sweeps: int


def _series_start(a: float, delta: float, l: int, r0: float, r1: float):
    """Regular solution near the origin, u = r^(l+1) sum_k c_k r^k for
    k = 0 .. 5, as the mesh's phi = u / sqrt(r) at the grid's first two
    points r0 and r1: a function of the trial energy, built once per grid.

    The plain r^(l+1) start misses a relative A*r correction at the second
    grid point, which degrades the eigenvalue convergence to first order in
    the step; the series restores the integrator's full order.  With
    v(r) = 2A exp(-delta r)/r + 2E expanded as 2A/r + sum_j v_j r^j, the
    c_k follow from c_0 = 1 and
    q (q + 2l + 1) c_q = -(2A c_{q-1} + sum_{j=0}^{q-2} v_j c_{q-2-j}).
    Only v_0 = 2E - 2A delta depends on the energy, so v_1 .. v_3, the
    divisors, c_1 and r^(l+1/2) are built here, and each call runs the rest
    of the recurrence, unrolled, in the order of that sum.
    """
    v_coul = 2.0 * a
    v0_shift = 2.0 * a * delta
    # v_j = 2A (-delta)^(j+1) / (j+1)!
    v1 = 2.0 * a * (-delta) ** 2 / 2.0
    v2 = 2.0 * a * (-delta) ** 3 / 6.0
    v3 = 2.0 * a * (-delta) ** 4 / 24.0
    d1, d2, d3, d4, d5 = (float(q * (q + 2 * l + 1)) for q in range(1, 6))
    c1 = -v_coul / d1
    coul_c1 = v_coul * c1
    s0, s1 = r0 ** (l + 0.5), r1 ** (l + 0.5)

    def start(energy: float) -> tuple[float, float]:
        v0 = 2.0 * energy - v0_shift
        c2 = -(coul_c1 + v0) / d2
        c3 = -(v_coul * c2 + v0 * c1 + v1) / d3
        c4 = -(v_coul * c3 + v0 * c2 + v1 * c1 + v2) / d4
        c5 = -(v_coul * c4 + v0 * c3 + v1 * c2 + v2 * c1 + v3) / d5
        return (s0 * (((((c5 * r0 + c4) * r0 + c3) * r0 + c2) * r0 + c1) * r0 + 1.0),
                s1 * (((((c5 * r1 + c4) * r1 + c3) * r1 + c2) * r1 + c1) * r1 + 1.0))

    return start


class _Sweeper:
    """One mesh r_i = ``R_MIN`` exp(i h), i = 0 .. points - 1, to ``r_max``,
    with its potential, start values and sweep buffers, all built once: the
    node count and last value of the outward solution at varying trial
    energy, each energy swept once into ``swept``.  The sweep runs
    phi = u / sqrt(r), which has u's nodes and tail sign."""

    def __init__(self, system: AtomicSystem, delta: float, state: QuantumState,
                 r_max: float, points: int):
        import numpy as np

        # i h, not a linspace of ln r: near |x| ~ 14 a linspace's spacing
        # rounds at about 1e-12 relative, which moves heavy K shells by
        # up to a few 1e-9 Ha
        self.h = math.log(r_max / R_MIN) / (points - 1)
        r = R_MIN * np.exp(self.h * np.arange(points))
        self.start = _series_start(system.a, delta, state.l, *r[:2].tolist())
        self.r_max = r_max
        # the energy-independent part of phi''/phi, and the r^2 that 2E multiplies
        self.w = (state.l + 0.5) ** 2 - 2.0 * system.a * r * np.exp(-delta * r)
        # r^2 in r's own buffer: building the mesh takes one array fewer
        self.r2 = np.multiply(r, r, out=r)
        self.work = _numerov_py.workspace(points)
        self.swept: dict[float, tuple[int, float]] = {}

    def _sweep(self, energy: float) -> tuple[int, float]:
        if energy not in self.swept:
            u0, u1 = self.start(energy)
            self.swept[energy] = _numerov_py.count_nodes_sweep(self.w, self.r2, energy, self.h,
                                                               u0, u1, self.work)
        return self.swept[energy]

    def nodes(self, energy: float) -> int:
        return self._sweep(energy)[0]

    def tail(self, energy: float) -> float:
        return self._sweep(energy)[1]


#: Iteration cap of :func:`_chandrupatla`, as in scipy's root finders.
_ROOT_MAXITER = 100
#: Relative tolerance of :func:`_chandrupatla`, 4 eps, scipy's least.
_ROOT_RTOL = 4.0 * math.ulp(1.0)
#: Largest (kappa(lo) - kappa(hi)) r_max, kappa = sqrt(-2 E), of a bracket
#: handed to the root finder: the de-trend factor stays above exp(-32)
#: across it.  Over Z = 1..84 with n, l <= 2, caps of 16, 32 and 64 take
#: 7944, 7914 and 7920 sweeps.
_ROOT_SPAN = 32.0


def _chandrupatla(f, xa: float, xb: float, xtol: float) -> float:
    """Zero of ``f`` between xa and xb, to xtol + 4 eps |x|, by Chandrupatla's
    method (T. R. Chandrupatla, *Adv. Eng. Softw.* 28, 145 (1997)).

    Each step keeps the bracket [x1, x2], x1 the latest iterate, and the
    point x3 it last dropped, and goes to x1 + t (x2 - x1): t is inverse
    quadratic interpolation through the three where the paper's test
    1 - sqrt(1 - xi) < phi < sqrt(xi) says it is safe, and 1/2 otherwise,
    kept at least half the tolerance from either end.  The first step is
    the secant through xa and xb, not the paper's t = 1/2: over
    Z = 1..84 with n, l <= 2 the eigensolver then takes 7914 sweeps, not
    8134.  f(xa) is evaluated before f(xb), and an end where ``f`` is
    exactly 0 is returned as it is; otherwise the end of the final bracket
    with the smaller |f| is.  Raises ValueError when f(xa) and f(xb) have
    one sign (compared by ``math.copysign``) or ``f`` returns NaN, and
    RuntimeError after ``_ROOT_MAXITER`` steps.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    x1, x2 = xa, xb
    f1, f2 = value(x1), value(x2)
    if f1 == 0:
        return x1
    if f2 == 0:
        return x2
    if math.copysign(1.0, f1) == math.copysign(1.0, f2):
        raise ValueError("f(a) and f(b) must have different signs")
    t = f1 / (f1 - f2)
    for _ in range(_ROOT_MAXITER):
        xm = x1 if abs(f1) < abs(f2) else x2
        tol, dx = xtol + _ROOT_RTOL * abs(xm), abs(x2 - x1)
        if dx < tol:
            return xm
        tl = 0.5 * tol / dx
        x = x1 + min(max(t, tl), 1.0 - tl) * (x2 - x1)
        fx = value(x)
        if fx == 0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, f1):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        else:
            t = 0.5
    raise RuntimeError(f"Failed to converge after {_ROOT_MAXITER} iterations.")


def _detrended(sweep: _Sweeper, hi: float):
    """The sweep's last value at E times exp(-(kappa(E) - kappa(hi)) r_max),
    kappa = sqrt(-2 E), as a function of E <= hi.

    Past the turning point the last value grows as exp(kappa r_max), so
    across a bracket it spans decades and interpolation steps crawl: on
    the raw value Z=14 2s takes 14 first-grid sweeps, 12 of them the root
    finder's, and 9 on this one.  The factor is positive and depends on E
    alone, so the value keeps the sign of the last value at every E, and
    its zero.  Unlike a compressed value (asinh or |u|^(1/8)), it stays
    linear through that zero.  On the brackets that
    :func:`_bisect_eigenvalue` hands over the factor is at least
    exp(-``_ROOT_SPAN``), on any grid.
    """
    kappa_hi = math.sqrt(-2.0 * hi)

    def value(energy):
        return sweep.tail(energy) * math.exp((kappa_hi - math.sqrt(-2.0 * energy)) * sweep.r_max)

    return value


def _bisect_eigenvalue(sweep: _Sweeper, n: int, lo: float, hi: float) -> tuple[float, int]:
    """Eigenvalue in [lo, hi] at the node-count transition n -> n+1, and its
    node count.

    Bisects at the geometric midpoint -sqrt(lo hi), so that a bracket
    spanning decades towards E -> 0 shrinks by decades, until the ends have
    exactly n and n+1 nodes and (kappa(lo) - kappa(hi)) r_max, the
    de-trend's exponent across them, is at most ``_ROOT_SPAN``.  The
    sweep's last value has its first value's sign times (-1)^count, so it
    then has opposite signs at lo and hi, and Chandrupatla's method
    (:func:`_chandrupatla`) on it, with its exponential growth divided out
    (:func:`_detrended`), finds the eigenvalue to ``ENERGY_TOL``.
    Rescaling in the sweep keeps signs, so it only slows the root finder
    towards bisection.
    """
    while (sweep.nodes(lo) != n or sweep.nodes(hi) != n + 1
           or (math.sqrt(-2.0 * lo) - math.sqrt(-2.0 * hi)) * sweep.r_max > _ROOT_SPAN):
        mid = -math.sqrt(lo * hi)
        if hi - lo <= ENERGY_TOL or mid <= lo or mid >= hi:
            return mid, sweep.nodes(lo)
        if sweep.nodes(mid) >= n + 1:
            hi = mid
        else:
            lo = mid
    return _chandrupatla(_detrended(sweep, hi), lo, hi, ENERGY_TOL), n


def _solve_on_grid(system, delta, state, sweep: _Sweeper, bounds: tuple[float, float],
                   bracket: tuple[float, float] | None, tally: list[int]) -> tuple[float, int]:
    """Eigenvalue and node count on the mesh of ``sweep``; raises NoBoundState.

    The search runs inside ``bounds`` (lo, hi).  The ends of ``bracket``, if
    any, clipped into them, are swept from the top: an end with n+1 or more
    nodes lies above the level and becomes ``hi``, and the first end with at
    most n nodes lies below it and becomes ``lo``, so the end below that is
    never swept.  Unless hi then has n+1 or more nodes and lo at most n, no
    level with n nodes lies inside the bounds on this grid, and NoBoundState
    is raised; hi is swept first, so an unbound level costs no sweep at lo.
    The number of trial energies swept is appended to ``tally``, also when
    the grid raises.
    """
    n = state.n
    lo, hi = bounds
    try:
        for end in sorted((min(max(end, lo), hi) for end in bracket or ()), reverse=True):
            if sweep.nodes(end) <= n:
                lo = end
                break
            hi = end
        if not sweep.nodes(hi) > n >= sweep.nodes(lo):
            raise NoBoundState(
                f"no bound state with {n} nodes for A={system.a}, delta={delta}, l={state.l}"
            )
        return _bisect_eigenvalue(sweep, n, lo, hi)
    finally:
        tally.append(len(sweep.swept))


def _seed_bracket(system: AtomicSystem, delta: float, state: QuantumState,
                  bounds: tuple[float, float]):
    """First-grid bracket around the closed-form third-order total, or None.

    The half-width is max(4 |E3|, 1e-6 |total|), clipped into the default
    ``bounds`` [1.5 E0, -1e-12]: unclipped, a divergent series would send
    the sweep to deep energies where it rescales again and again.  No
    bracket is seeded when the total lies outside (1.5 E0, 0) or overflows.
    """
    try:
        b = energy_breakdown(system.a, state, delta, 3)
    except ValueError:
        return None
    lo, hi = bounds
    if not lo < b.total < 0.0:
        return None
    pad = max(4.0 * abs(b.e3), 1e-6 * abs(b.total))
    return max(b.total - pad, lo), min(b.total + pad, hi)


def solve_bound_state(system: AtomicSystem, delta: float, state: QuantumState,
                      r_max: float | None = None) -> OracleResult:
    """Bound-state energy by node-count bracketing, Chandrupatla's method on
    the sweep's last value, and grid refinement (see the module docstring).

    Each grid's search runs inside bounds [lo, hi], the default ones
    [1.5 E0, -1e-12] built here once, from a bracket: on the first grid the
    seed (:func:`_seed_bracket`), on each finer one the previous energy
    moved by the shift that Numerov's h^4 error predicts.  A grid whose
    sweeps do not prove a level with n nodes inside its bounds raises
    :class:`NoBoundState` (:func:`_solve_on_grid`).  The grid is
    step-halved, and after each halving the finer energy E_k is
    extrapolated to X_k = E_k + (E_k - E_{k-1}) / 15.  At least three grids
    are solved: the result is the first X_k within ``GRID_TOL`` Hartree of
    X_{k-1}, with max(|X_k - X_{k-1}|, ``ENERGY_TOL``) as its
    ``estimated_error``, and its node count is checked against n.  Raises
    :class:`NonConvergence` (carrying the latest X_k and its last change, or
    after a single halving X_1 and |X_1 - E_1|) if refinement stalls or that
    check fails.

    Every grid runs from ``R_MIN`` to ``r_max`` Bohr, or to the default box,
    which a weakly bound level can outgrow; either way :func:`_refine` sizes
    the first mesh for its bounds' lower end.  A seeded level is first
    refined with its seed bracket as the bounds of every grid; if any of
    those grids raises :class:`NoBoundState`, the solve starts again from
    the seed bracket with the default bounds, as an unseeded level does.
    The result's ``sweeps`` counts the trial energies swept on every grid, a
    dropped seed mesh's included, and its ``grid_points`` is the finest
    grid's size.  A delta / A past the state's ``CRITICAL_RATIO`` entry by
    more than ``CRITICAL_MARGIN`` of it raises :class:`NoBoundState` before
    any grid is built.  Before that, ValueError is raised for a NaN,
    infinite or negative delta, and for an r_max not finite and above
    ``R_MIN``, or whose first mesh for the default bounds, the largest
    either pass builds, would pass ``MAX_FIRST_GRID_POINTS`` points.
    """
    _check_delta(delta)
    default = (1.5 * coulomb_energy(system.a, state), _E_TOP)
    if r_max is not None:
        if not R_MIN < r_max < math.inf:
            raise ValueError(f"r_max must be finite and above {R_MIN}, got {r_max}")
        points = _first_mesh(system, state, delta, default, r_max)[1]
        if points > MAX_FIRST_GRID_POINTS:
            raise ValueError(f"r_max = {r_max} Bohr needs a first mesh of {points} points, "
                             f"more than {MAX_FIRST_GRID_POINTS}")
    critical = CRITICAL_RATIO.get((state.n, state.l), CRITICAL_RATIO[0, 0])
    if delta / system.a > critical * (1.0 + CRITICAL_MARGIN):
        raise NoBoundState(f"delta/A = {delta / system.a:.5g} exceeds delta_c/A = {critical} "
                           f"for n={state.n}, l={state.l}")
    tally: list[int] = []
    bracket = _seed_bracket(system, delta, state, default)
    if bracket is not None:
        try:
            return _refine(system, delta, state, bracket, r_max, bracket, tally)
        except NoBoundState:
            pass
    return _refine(system, delta, state, default, r_max, bracket, tally)


def _refine(system, delta, state, bounds, r_max, bracket, tally) -> OracleResult:
    """:func:`solve_bound_state`'s grid refinement inside ``bounds`` in the box
    ``r_max`` (None for the default), from the first grid's ``bracket``;
    the trial energies swept are appended to ``tally``.  A halving takes
    the mesh from p to 2 p - 1 points, and each mesh's sweeper is a
    temporary, freed before the next one is built."""
    r_max, points = _first_mesh(system, state, delta, bounds, r_max)
    energy = None
    for level in range(MAX_REFINEMENTS + 1):
        if level:
            points = 2 * points - 1
        prev_energy = energy
        energy, nodes = _solve_on_grid(system, delta, state,
                                       _Sweeper(system, delta, state, r_max, points),
                                       bounds, bracket, tally)
        if not level:
            extrap, error = energy, float("inf")
            centre, pad = energy, max(1e-5 * abs(energy), 1e-9)
        else:
            # Numerov is 4th order: the finer grid's error is about a
            # fifteenth of the shift, which the extrapolation removes.  The
            # first extrapolation has only its own correction as its error.
            shift = energy - prev_energy
            prev_extrap, extrap = extrap, energy + shift / 15.0
            error = abs(extrap - (energy if level == 1 else prev_extrap))
            if level > 1 and error < GRID_TOL:
                result = OracleResult(extrap, nodes, max(error, ENERGY_TOL), points,
                                      sum(tally))
                if nodes != state.n:
                    raise NonConvergence(
                        f"converged energy has {nodes} nodes, expected {state.n}", result)
                return result
            # the next halving shifts the energy by about a sixteenth of this one
            centre, pad = energy + shift / 16.0, max(abs(shift) / 4.0, 1e-9)
        # _solve_on_grid revalidates the bracket's node counts, so a stale
        # bracket costs sweeps but still proves one end.  Over Z = 1..84
        # with n, l <= 2 the first halving moves each of the 472 bound
        # levels by at most 2.5e-6 of its energy, 4 times inside the first
        # pad.  First pads of 1e-6, 1e-5, 5e-5, 1e-4 and 1e-3 take 7655,
        # 7914, 7943, 7944 and 8066 sweeps over the bound levels, with the
        # same outcomes; 1e-6 would leave some first halvings outside it.
        # Later shifts shrink by a median 0.0625 per halving: over the same
        # levels each of the 472 grids after the second lands within 0.025
        # pads of its predicted energy.
        bracket = (centre - pad, centre + pad)
    raise NonConvergence(
        f"grid refinement stalled after {MAX_REFINEMENTS} halvings "
        f"(last change {error:.3e} Hartree)",
        OracleResult(extrap, nodes, error, points, sum(tally)),
    )


def _critical_ratio(n: int, l: int) -> float:
    """delta_c / A of the level with n nodes and angular momentum l, by
    bisection on delta at A = 1 for the screening past which channel l
    holds at most n bound levels.

    Channel l holds as many bound levels as its E = 0 solution has nodes.
    The sweep runs that solution on a mesh of step h = 2e-3 in ln r out to
    40 / delta, where the potential is e^-40 of its Coulomb value, so past
    the mesh's edge R the solution is u = a r^(l+1) + b r^-l.  It has one
    more zero past R when u(R) (u'(R) + l u(R) / R) = (2l + 1) a R^l u(R)
    is negative.  There phi = u / sqrt(r) is a' e^(kx) + b' e^(-kx) with
    k = l + 1/2, so phi(R) - e^(-k h) phi(R - h) has the sign of a,
    exactly.  The bisection starts from [0.5, 2] / N^2, which holds every
    entry, on one mesh that reaches 40 / delta at its lower end.
    """
    import numpy as np

    big_n, h = n + l + 1, 2e-3
    lo, hi = 0.5 / big_n**2, 2.0 / big_n**2
    r = R_MIN * np.exp(h * np.arange(math.ceil(math.log(40.0 / lo / R_MIN) / h) + 1))
    r2 = r * r
    decay = math.exp(-(l + 0.5) * h)
    work, work_before = _numerov_py.workspace(len(r)), _numerov_py.workspace(len(r) - 1)

    def levels(delta):
        w = (l + 0.5) ** 2 - 2.0 * r * np.exp(-delta * r)
        u0, u1 = _series_start(1.0, delta, l, r[0], r[1])(0.0)
        nodes, last = _numerov_py.count_nodes_sweep(w, r2, 0.0, h, u0, u1, work)
        _, before = _numerov_py.count_nodes_sweep(w[:-1], r2[:-1], 0.0, h, u0, u1, work_before)
        return nodes + (last * (last - decay * before) < 0.0)

    if not levels(lo) > n >= levels(hi):
        raise ValueError(f"delta_c / A of n={n}, l={l} lies outside [{lo}, {hi}]")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if levels(mid) > n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
