"""Eigensolver tests: hydrogenic exactness, node counting, the Numerov
sweep's contract, the default box, the root search and its work, screening
behaviour, and cross-validation against the closed forms."""

import gc
import math
import re
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from yukawa_atom import (
    AtomicSystem,
    NoBoundState,
    NonConvergence,
    QuantumState,
    ScreeningLaw,
    ScreeningModel,
    coulomb_energy,
    moderated_radial,
    screening_delta,
    solve_bound_state,
)
from yukawa_atom import oracle as oracle_mod
from yukawa_atom import _numerov_py
from yukawa_atom.wavefunctions import _exponent_coefficients

FA = ScreeningModel()


def _default_bounds(system, state):
    """The eigensolver's default search bounds [1.5 E0, -1e-12]."""
    return 1.5 * coulomb_energy(system.a, state), -1e-12


def _default_mesh(system, state, delta, r_max=None):
    """(r_max, points) of the first mesh of a solve's default bounds."""
    return oracle_mod._first_mesh(system, state, delta, _default_bounds(system, state), r_max)


def _step(r_max, points):
    """The step h in ln r of the eigensolver's mesh of ``points`` points to ``r_max``."""
    return math.log(r_max / oracle_mod.R_MIN) / (points - 1)


def _seed(system, delta, state):
    """The seed bracket of a solve, clipped into the default bounds."""
    return oracle_mod._seed_bracket(system, delta, state, _default_bounds(system, state))


def _grid_solve(system, delta, state, mesh, bracket=None):
    """One search inside the default bounds on the mesh (r_max, points), from
    ``bracket``."""
    sweep = oracle_mod._Sweeper(system, delta, state, *mesh)
    return oracle_mod._solve_on_grid(system, delta, state, sweep, _default_bounds(system, state),
                                     bracket, [])


def _all_states_up_to(big_n_max):
    return [
        (n, l)
        for n in range(big_n_max)
        for l in range(big_n_max)
        if n + l + 1 <= big_n_max
    ]


class TestHydrogenicExactness:
    @pytest.mark.parametrize("n, l", _all_states_up_to(4))
    def test_coulomb_levels(self, n, l):
        state = QuantumState(n, l)
        res = solve_bound_state(AtomicSystem(1), 0.0, state)
        exact = -0.5 / state.big_n**2
        assert res.nodes_found == n
        assert res.energy == pytest.approx(exact, rel=1e-7)

    def test_scaled_coupling(self):
        res = solve_bound_state(AtomicSystem(2), 0.0, QuantumState(0, 0))
        assert res.energy == pytest.approx(-2.0, rel=1e-7)

    def test_deep_high_l_state(self):
        res = solve_bound_state(AtomicSystem(84), 0.0, QuantumState(0, 1))
        assert res.energy == pytest.approx(-882.0, rel=1e-7)
        assert res.nodes_found == 0

    @pytest.mark.parametrize("z", [1, 29, 46, 51, 58, 59, 65, 75, 82, 84])
    def test_within_claimed_error(self, z):
        # delta = 0: every level lies within its estimated_error of
        # -Z^2 / (2 N^2).  A mesh built as a linspace of ln r, whose spacing
        # rounds at about 1e-12 relative near ln R_MIN = -13.8, misses this
        # (Z=75 1s by 2.4e-10 Ha against a claimed 1e-10)
        for state in (QuantumState(n, l) for n in range(3) for l in range(3)):
            res = solve_bound_state(AtomicSystem(z), 0.0, state)
            exact = coulomb_energy(float(z), state)
            assert abs(res.energy - exact) <= res.estimated_error, state


class TestOracleBasics:
    def test_result_fields(self):
        res = solve_bound_state(AtomicSystem(3), 1.078630, QuantumState(0, 0))
        assert res.estimated_error >= 0.0
        assert res.nodes_found == 0
        # matches the hypervirial-grade reference for this screening
        assert res.energy == pytest.approx(-1.9899, abs=2e-3)

    def test_monotone_in_screening(self):
        system, state = AtomicSystem(1), QuantumState(0, 0)
        energies = [
            solve_bound_state(system, d, state).energy
            for d in (0.0, 0.2, 0.4, 0.6, 0.8)
        ]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_critical_screening_bracket(self):
        # the 1s level unbinds near delta ~ 1.19; a shallow level needs a
        # wide box to be representable
        res = solve_bound_state(AtomicSystem(1), 1.1, QuantumState(0, 0), r_max=160.0)
        assert res.energy < 0.0
        assert res.nodes_found == 0
        with pytest.raises(NoBoundState):
            solve_bound_state(AtomicSystem(1), 1.3, QuantumState(0, 0), r_max=160.0)

    def test_excited_level_disappears_before_ground(self):
        # 2s unbinds around delta ~ 0.31 while 1s survives
        system = AtomicSystem(1)
        assert solve_bound_state(system, 0.5, QuantumState(0, 0), r_max=200.0).energy < 0
        with pytest.raises(NoBoundState):
            solve_bound_state(system, 0.5, QuantumState(1, 0), r_max=200.0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            solve_bound_state(AtomicSystem(1), -0.1, QuantumState(0, 0))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="screening parameter must be finite"):
            solve_bound_state(AtomicSystem(1), delta, QuantumState(0, 0))

    def test_coulomb_energy_past_float_range_refused_before_any_mesh(self, monkeypatch):
        # A^2 overflows at A = 1e200: E0 read -inf, the default box 0 Bohr,
        # and the first mesh's log raised a bare "math domain error"
        meshes = []
        monkeypatch.setattr(oracle_mod, "_first_mesh", lambda *args: meshes.append(args))
        with pytest.raises(ValueError, match=r"coupling strength A=1e\+200 puts the Coulomb "):
            solve_bound_state(AtomicSystem(1, a=1e200), 0.0, QuantumState(0, 0))
        assert meshes == []

    @pytest.mark.parametrize("r_max", [float("nan"), float("inf"), float("-inf"),
                                       oracle_mod.R_MIN, 1e-7, 0.0, -20.0])
    @pytest.mark.parametrize("delta", [0.5, 2.0], ids=["bound", "past_critical"])
    def test_rejects_bad_box(self, monkeypatch, r_max, delta):
        # checked before the critical-ratio exit, so also where hydrogen
        # 1s is unbound, and before any sweep; an infinite box would give a
        # NaN step, a RuntimeWarning and a false NoBoundState
        work = _count_sweeps(monkeypatch)
        with pytest.raises(ValueError, match="r_max must be finite and above"):
            solve_bound_state(AtomicSystem(1), delta, QuantumState(0, 0), r_max=r_max)
        assert work["sweeps"] == 0

    @pytest.mark.parametrize("r_max, points", [(4000.0, 3714409), (1e5, None), (1e6, None)])
    def test_refuses_box_past_mesh_ceiling(self, monkeypatch, r_max, points):
        # Z=84 1s: its mesh for 1.5 E0 grows as r_max sqrt(|E0|) ln(r_max), to
        # about 106M points at 1e5 Bohr and 1.16e9 at 1e6, each halving
        # doubling that
        work = _count_sweeps(monkeypatch)
        with pytest.raises(ValueError, match=rf"r_max = {r_max} Bohr needs a first mesh of "
                                             rf"{points or '[0-9]+'} points, more than 1048577"):
            solve_bound_state(AtomicSystem(84), screening_delta(84, FA), QuantumState(0, 0),
                              r_max=r_max)
        assert work["sweeps"] == 0

    def test_mesh_ceiling_is_inclusive(self, monkeypatch):
        # H 2s in 60 Bohr solves with the ceiling at its default-bounds mesh,
        # and is refused, unswept, one point below it
        system, state = AtomicSystem(1), QuantumState(1, 0)
        _, points = _default_mesh(system, state, 0.0, 60.0)
        monkeypatch.setattr(oracle_mod, "MAX_FIRST_GRID_POINTS", points)
        assert solve_bound_state(system, 0.0, state, r_max=60.0).energy == pytest.approx(-0.125)
        monkeypatch.setattr(oracle_mod, "MAX_FIRST_GRID_POINTS", points - 1)
        work = _count_sweeps(monkeypatch)
        with pytest.raises(ValueError, match=f"needs a first mesh of {points} points"):
            solve_bound_state(system, 0.0, state, r_max=60.0)
        assert work["sweeps"] == 0

    def test_closed_form_overflow_leaves_solve_unseeded(self):
        # the third-order total reaches -inf at this delta; the exact
        # potential has no bound level
        system, state = AtomicSystem(3), QuantumState(0, 0)
        assert _seed(system, 1.5e51, state) is None
        with pytest.raises(NoBoundState):
            solve_bound_state(system, 1.5e51, state)

    def test_solved_grids_keep_no_array(self):
        # with the cyclic collector off, a sweeper caught in a reference
        # cycle would outlive the solve with its grid's arrays
        gc.collect()
        gc.disable()
        try:
            solve_bound_state(AtomicSystem(29), screening_delta(29, FA), QuantumState(1, 0))
            left = [o for o in gc.get_objects() if isinstance(o, oracle_mod._Sweeper)]
        finally:
            gc.enable()
        assert left == []

    def test_solve_keeps_no_memory(self):
        # H 1s just below its critical ratio, in a 4000-Bohr box, finishes on
        # 176,881 points.  Only the result outlives the solve (840 bytes),
        # where a per-thread buffer cache once held 15.6 MB.  The peak, 13.25
        # doubles per point, is the finest mesh's r^2, w and 11-double sweep
        # buffers: a finer mesh built while the coarser one was still held
        # peaked at 19.5 (27.6 MB)
        solve_bound_state(AtomicSystem(1), 0.5, QuantumState(0, 0))  # numpy and LAPACK loaded
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = solve_bound_state(AtomicSystem(1), 1.19, QuantumState(0, 0), r_max=4000.0)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert res.grid_points == 176_881
        assert held <= 4096
        assert peak <= 14 * 8 * res.grid_points

    def test_concurrent_solves_bit_identical(self):
        # four threads solve four levels, a wide box among them, each thread
        # in its own order, so that meshes of different sizes are swept at
        # once; each result is the serial one, bit for bit
        levels = [(29, 0, 0, None), (84, 0, 2, None), (5, 1, 0, None), (51, 2, 0, _WIDE_BOX)]

        def solve(z, n, l, r_max):
            res = solve_bound_state(AtomicSystem(z), screening_delta(z, FA), QuantumState(n, l),
                                    r_max)
            return (res.energy.hex(), res.estimated_error.hex(), res.grid_points, res.sweeps,
                    res.nodes_found)

        expected = [solve(*level) for level in levels]
        results = {}

        def worker(k):
            order = levels[k:] + levels[:k]
            results[k] = [solve(*level) for _ in range(2) for level in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            assert results[k] == 2 * (expected[k:] + expected[:k])

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        # one halving and a zero tolerance stall Z=29 1s after two grids; the
        # single extrapolation is carried, with its own correction as its error
        monkeypatch.setattr(oracle_mod, "MAX_REFINEMENTS", 1)
        monkeypatch.setattr(oracle_mod, "GRID_TOL", 0.0)
        _, energies = _record_grid_solves(monkeypatch)
        with pytest.raises(NonConvergence) as excinfo:
            solve_bound_state(AtomicSystem(29), screening_delta(29, FA), QuantumState(0, 0))
        best = excinfo.value.result
        assert best.energy == pytest.approx(-341.3048, abs=1e-2)
        (x1,) = _extrapolations(energies)
        assert best.energy == x1
        assert best.estimated_error == abs(x1 - energies[-1])
        assert 0.0 < best.estimated_error < 1e-6


#: (Z, n, l) of the levels the benchmark's ``spectrum`` workload draws from,
#: and of the capped-box levels of ``test_lower_end_below_level``.
_FIRST_STEP_LEVELS = sorted(
    {(1, 0, 0), (1, 1, 1), (4, 1, 0), (5, 1, 0), (5, 0, 1), (9, 0, 1), (18, 2, 0), (54, 2, 1)}
    | {(z, 0, 0) for z in (3, 4, 5, 6, 7, 8, 9, 14, 19, 24, 29)}
    | {(z, n, l) for z in (9, 14, 19, 24) for n, l in ((1, 0), (0, 1))}
)


class TestFirstMesh:
    def test_default_box_holds_thirty_decay_lengths(self):
        # delta = 0: E_up is the exact level -1/18, so the box is the
        # turning-point bound 18 plus 30 * 3 Bohr
        r_max, _ = _default_mesh(AtomicSystem(1), QuantumState(1, 1), 0.0)
        assert r_max == pytest.approx(108.0)

    def test_default_box_from_screened_upper_bound(self):
        system, state = AtomicSystem(84), QuantumState(0, 0)
        delta = screening_delta(84, FA)
        e_up = coulomb_energy(system.a, state) + system.a * delta
        r_max, _ = _default_mesh(system, state, delta)
        assert r_max == pytest.approx(system.a / -e_up + 30.0 / np.sqrt(-2.0 * e_up))

    def test_default_box_past_turning_point_at_high_n(self):
        # H N=14 s: outer turning point 2 N^2, decay length N
        big_n = 14
        r_max, _ = _default_mesh(AtomicSystem(1), QuantumState(big_n - 1, 0), 0.0)
        assert r_max >= 2.0 * big_n**2 + 30.0 * big_n - 1e-9

    def test_default_box_capped_near_threshold(self):
        # E_up = -1e-7: 30 / sqrt(-2 E_up) alone would be 67000 Bohr
        r_max, _ = _default_mesh(AtomicSystem(1), QuantumState(0, 0), 0.4999999)
        assert r_max == 30.0

    def test_default_box_when_bound_unproven(self):
        # E0 + A delta > 0: the box is the cap max(20, 30 N^2 / A)
        z5_2s, _ = _default_mesh(AtomicSystem(5), QuantumState(1, 0), screening_delta(5, FA))
        z9_2p, _ = _default_mesh(AtomicSystem(9), QuantumState(0, 1), screening_delta(9, FA))
        assert z5_2s == pytest.approx(24.0)
        assert z9_2p == 20.0

    @pytest.mark.parametrize("z, n, l", _FIRST_STEP_LEVELS)
    def test_first_step_bound(self, z, n, l):
        # Numerov's t = h^2 f / 12 at the box edge, for the search's deepest
        # trial energy 1.5 E0, where f ~ 3 |E0| r^2
        system, state = AtomicSystem(z), QuantumState(n, l)
        r_max, points = _default_mesh(system, state, screening_delta(z, FA))
        e0 = coulomb_energy(system.a, state)
        assert points >= oracle_mod.FIRST_GRID_POINTS
        assert _step(r_max, points)**2 * 3.0 * abs(e0) * r_max**2 / 12.0 <= 0.5

    def test_every_first_mesh_step_bound(self):
        # Numerov's exact t = h^2 (w - 2 E r^2) / 12 at r_max for E = lo,
        # the deepest trial energy of the bounds the mesh is sized from: the
        # default [1.5 E0, -1e-12] and every seed bracket.  A step sized
        # without w left 19 default meshes above 0.5, up to 0.500169 at
        # Z=50 2p
        for z in range(1, 85):
            system, delta = AtomicSystem(z), screening_delta(z, FA)
            for state in (QuantumState(n, l) for n in range(3) for l in range(3)):
                bracket = _seed(system, delta, state)
                for lo, hi in filter(None, [_default_bounds(system, state), bracket]):
                    r, points = oracle_mod._first_mesh(system, state, delta, (lo, hi))
                    w = (state.l + 0.5) ** 2 - 2.0 * system.a * r * math.exp(-delta * r)
                    assert _step(r, points)**2 * (w - 2.0 * lo * r * r) / 12.0 <= 0.5, \
                        (z, state, lo, hi)

    @pytest.mark.parametrize("r_max", [60.0, 480.0, 3000.0])
    def test_caller_box_step_bound(self, r_max):
        # the same exact t at a box the caller sets, for the seed bounds and
        # the default ones; the box is the caller's in both
        for z, n, l in [(1, 0, 0), (5, 1, 0), (18, 2, 0), (54, 2, 1), (84, 0, 0), (84, 2, 2)]:
            system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
            seed = _seed(system, delta, state)
            for lo, hi in filter(None, [_default_bounds(system, state), seed]):
                box, points = oracle_mod._first_mesh(system, state, delta, (lo, hi), r_max)
                w = (state.l + 0.5) ** 2 - 2.0 * system.a * r_max * math.exp(-delta * r_max)
                assert box == r_max
                assert _step(r_max, points)**2 * (w - 2.0 * lo * r_max**2) / 12.0 <= 0.5, \
                    (z, state, lo)

    @pytest.mark.parametrize("r_max", [None, 60.0, 480.0])
    def test_meshes_odd_and_past_first_grid_floor(self, r_max):
        # the step rule gives an even step count of at least 400, and each
        # halving of an odd mesh is odd, so no mesh needs checking when built
        assert oracle_mod.FIRST_GRID_POINTS == 401
        for z in (1, 5, 18, 54, 84):
            system, delta = AtomicSystem(z), screening_delta(z, FA)
            for state in (QuantumState(n, l) for n in range(3) for l in range(3)):
                for bounds in filter(None, [_default_bounds(system, state),
                                            _seed(system, delta, state)]):
                    _, points = oracle_mod._first_mesh(system, state, delta, bounds, r_max)
                    assert points % 2 == 1 and points >= 401

    def test_refinement_halves_the_step(self, monkeypatch):
        # Z=84 1s: each finer mesh has 2 p - 1 points in the same box, so
        # its step is half the coarser one's and its points stay odd
        meshes = []
        sweeper = oracle_mod._Sweeper

        def recorded(system, delta, state, r_max, points):
            meshes.append((r_max, points))
            return sweeper(system, delta, state, r_max, points)

        monkeypatch.setattr(oracle_mod, "_Sweeper", recorded)
        res = solve_bound_state(AtomicSystem(84), screening_delta(84, FA), QuantumState(0, 0))
        assert len(meshes) >= 3 and res.grid_points == meshes[-1][1]
        for (box, points), (finer_box, finer_points) in zip(meshes, meshes[1:]):
            assert finer_box == box and finer_points == 2 * points - 1
            assert _step(finer_box, finer_points) == pytest.approx(_step(box, points) / 2)


def _scalar_sweep(w, r2, energy, h, u0, u1):
    """The summed-form sweep as a per-point loop: the kernel's reference."""
    t = (h * h / 12.0 * (w - 2.0 * energy * r2)).tolist()
    signs = [u < 0.0 for u in (u0, u1) if u != 0.0]
    u = u1
    y = (1.0 - t[1]) * u1
    d = y - (1.0 - t[0]) * u0
    for i in range(1, len(t) - 1):
        d += 12.0 * t[i] * u
        y += d
        u = y / (1.0 - t[i + 1])
        if abs(u) > _numerov_py.RESCALE_LIMIT:
            u, y, d = (v * _numerov_py.RESCALE_FACTOR for v in (u, y, d))
        if u != 0.0:
            signs.append(u < 0.0)
    return sum(a != b for a, b in zip(signs, signs[1:])), u


def _log_mesh(r_max, points):
    """The eigensolver's mesh from ``R_MIN`` to ``r_max`` Bohr, and its step."""
    h = _step(r_max, points)
    return oracle_mod.R_MIN * np.exp(h * np.arange(points)), h


def _hydrogen_sweep_args(l):
    """Hydrogen's w and r^2 for angular momentum l on a 20001-point mesh to
    200 Bohr, with the series start divided by sqrt(r)."""
    r, h = _log_mesh(200.0, 20001)
    w = (l + 0.5) ** 2 - 2.0 * r
    u0, u1 = (x ** (l + 0.5) * (1.0 - x / (l + 1)) for x in r[:2])
    return w, r * r, h, u0, u1


def _fresh_buffer_sweep(w, r2, energy, h, u0, u1):
    """The sweep with its band matrix and right-hand side allocated afresh
    for every solve: the reference that the kernel, on a mesh's reused
    workspace, must match bit for bit."""
    from scipy.linalg.lapack import dtbtrs

    n = len(w)
    t = h * h / 12.0 * (w - 2.0 * energy * r2)
    c = 1.0 - t
    g = 12.0 * t / c
    u = np.empty(n)
    u[0], u[1] = u0, u1
    start, y, d = 1, c[1] * u1, c[1] * u1 - c[0] * u0
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n - 1:
            size = 2 * (n - start) - 1
            ab = np.full((3, size), -1.0, order="F")
            np.negative(g[start:], out=ab[1, 0::2])
            b = np.zeros(size)
            b[0], b[1] = y, d
            x, _ = dtbtrs(ab, b, uplo="L", diag="U", overwrite_b=1)
            ys, ds = x[0::2], x[1::2]
            tail = u[start + 1:]
            np.divide(ys[1:], c[start + 1:], out=tail)
            over = np.flatnonzero(np.abs(tail) > _numerov_py.RESCALE_LIMIT)
            if not over.size:
                break
            j = over[0] + 1
            start = start + j
            y, d = ys[j] * _numerov_py.RESCALE_FACTOR, ds[j - 1] * _numerov_py.RESCALE_FACTOR
            u[start] *= _numerov_py.RESCALE_FACTOR
    signs = np.signbit(u[u != 0.0])
    return int(np.count_nonzero(signs[1:] != signs[:-1])), float(u[-1])


class TestNumerovSweep:
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_matches_scalar_loop(self, l):
        w, r2, h, u0, u1 = _hydrogen_sweep_args(l)
        # either side of the first two levels, and deep enough to rescale
        levels = [-0.5 / (k + l + 1) ** 2 for k in range(2)]
        energies = [f * e for e in levels for f in (1.001, 0.999)] + [-50.0]
        work = _numerov_py.workspace(len(w))
        for energy in energies:
            nodes, tail = _numerov_py.count_nodes_sweep(w, r2, energy, h, u0, u1, work)
            ref_nodes, ref_tail = _scalar_sweep(w, r2, energy, h, u0, u1)
            assert nodes == ref_nodes
            assert abs(tail - ref_tail) <= 1e-12 * abs(ref_tail)

    def test_reused_buffers_bit_identical(self, monkeypatch):
        # every sweep on a mesh reuses its sweeper's workspace, after sweeps
        # at other energies, some of which rescaled and solved again from
        # the rescaled point; Z=84 1s in 20 Bohr rescales near its level
        solves = []
        solve = _numerov_py._summed_solve
        monkeypatch.setattr(_numerov_py, "_summed_solve",
                            lambda *args: solves.append(1) or solve(*args))
        system, state = AtomicSystem(84), QuantumState(0, 0)
        delta = screening_delta(84, FA)
        level = -3183.5114
        energies = (1.001 * level, level, 0.999 * level, 0.5 * level, 4.0 * level)
        for points in (20001, 40001):
            sweep = oracle_mod._Sweeper(system, delta, state, 20.0, points)
            for energy in (*energies, *reversed(energies)):
                args = (sweep.w, sweep.r2, energy, sweep.h, *sweep.start(energy))
                reused = _numerov_py.count_nodes_sweep(*args, sweep.work)
                assert reused == _fresh_buffer_sweep(*args)
        assert len(solves) > 4 * len(energies)  # some sweeps rescaled and solved again

    @pytest.mark.parametrize("energy", [-0.5, -0.01, -50.0], ids=["level", "shallow", "rescaled"])
    def test_sweep_reuses_per_point_buffers(self, energy):
        # with the mesh's workspace built, t, 1 - t, -g and u live in it and
        # only boolean temporaries remain: 0.3-0.4 doubles per point,
        # against 4.1 when each sweep allocated its own
        r, h = _log_mesh(200.0, 40001)
        w = 0.25 - 2.0 * r
        args = (w, r * r, energy, h, r[0] ** 0.5, r[1] ** 0.5, _numerov_py.workspace(len(w)))
        _numerov_py.count_nodes_sweep(*args)  # binds dtbtrs
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _numerov_py.count_nodes_sweep(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * 8 * len(w)

    def test_rescaling_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in range(3):
                w, r2, h, u0, u1 = _hydrogen_sweep_args(l)
                work = _numerov_py.workspace(len(w))
                assert _numerov_py.count_nodes_sweep(w, r2, -50.0, h, u0, u1, work)[0] == 0
            # Z=84 1s in 20 Bohr: sqrt(-2E) r_max ~ 1600, so sweeps near the level rescale
            system, state = AtomicSystem(84), QuantumState(0, 0)
            _, nodes = _grid_solve(system, screening_delta(84, FA), state, (20.0, 20001))
            assert nodes == 0

    def test_node_count_steps_at_hydrogen_levels(self):
        # A = 1, l = 0, delta = 0: the k-th level is -1/(2 (k+1)^2)
        r, h = _log_mesh(200.0, 20001)
        w = 0.25 - 2.0 * r
        u0, u1 = (x ** 0.5 * (1.0 - x) for x in r[:2])
        work = _numerov_py.workspace(len(w))

        def sweep(energy):
            return _numerov_py.count_nodes_sweep(w, r * r, energy, h, u0, u1, work)

        for k in range(4):
            level = -0.5 / (k + 1) ** 2
            assert sweep(1.001 * level)[0] == k
            assert sweep(0.999 * level)[0] == k + 1

        # unrescaled, the solution would grow as exp(sqrt(-2E) r) past the float range
        deep = -50.0
        assert np.sqrt(-2.0 * deep) * r[-1] > np.log(np.finfo(float).max)
        nodes, tail = sweep(deep)
        assert nodes == 0
        assert np.isfinite(tail)

    def test_rounding_floor_below_grid_tol(self):
        # Z=84 1s on its 0.40-Bohr box: fourth order leaves ~3e-13 Ha between
        # these two meshes (the 3201- and 6401-point values differ by
        # 6.9e-9), so a larger change is rounding; it must stay well below
        # GRID_TOL.  The summed sweep changes by 7e-12, the unsummed
        # recurrence by 5.9e-7
        system, state = AtomicSystem(84), QuantumState(0, 0)
        delta = screening_delta(84, FA)
        r_max, _ = _default_mesh(system, state, delta)
        bracket = (-3183.5114, -3183.5113)
        e1, _ = _grid_solve(system, delta, state, (r_max, 40001), bracket)
        e2, _ = _grid_solve(system, delta, state, (r_max, 80001), bracket)
        assert abs(e2 - e1) < 0.1 * oracle_mod.GRID_TOL


#: ``_series_start``'s start values before it was split into a per-grid and
#: a per-energy part, for Z=29 with the Fermi-Amaldi delta at r = 0.1 and
#: 0.2 Bohr, far enough out that every term of the series moves the last
#: digits: (l, energy, (phi(0.1), phi(0.2))).
_SERIES_VALUES = [
    (0, -5000.0, (-13.65317199728709, -1263.6159325897293)),
    (0, -341.3, (-0.1774944323739494, -13.34997463859662)),
    (0, -0.01, (-0.05768319197750113, -1.7122989274031857)),
    (1, -5000.0, (0.1625250625219594, -47.260486884849236)),
    (1, -341.3, (0.01244675639534375, -0.44953771014239036)),
    (1, -0.01, (0.006505863008135685, -0.051496316951297166)),
    (2, -5000.0, (0.030284575384906462, -2.3095779388226108)),
    (2, -341.3, (0.002026248327438685, -0.016230522369438838)),
    (2, -0.01, (0.0012580361692289305, -0.00017389312235617301)),
]


class TestSeriesStart:
    @pytest.mark.parametrize("l, energy, expected", _SERIES_VALUES)
    def test_bit_identical_to_unsplit_recurrence(self, l, energy, expected):
        # deep, near the 1s level and shallow: the per-energy part runs the
        # recurrence in the same order, so every value is the same double
        start = oracle_mod._series_start(29.0, screening_delta(29, FA), l, 0.1, 0.2)
        assert start(energy) == expected


def _count_sweeps(monkeypatch):
    """Count the kernel's sweeps and swept points from here on."""
    work = {"sweeps": 0, "points": 0}
    sweep = _numerov_py.count_nodes_sweep

    def counted(w, *args):
        work["sweeps"] += 1
        work["points"] += len(w)
        return sweep(w, *args)

    monkeypatch.setattr(_numerov_py, "count_nodes_sweep", counted)
    return work


class TestRootSearch:
    @pytest.mark.parametrize("z, delta", [(1, 0.0), (29, screening_delta(29, FA))],
                             ids=["h_1s", "z29_1s"])
    def test_k_shell_work(self, monkeypatch, z, delta):
        # seeded from the closed form: 12 sweeps (11,212 points) for H 1s and
        # 14 (12,414) for Z=29 1s over the 401-, 801- and 1601-point meshes
        work = _count_sweeps(monkeypatch)
        solve_bound_state(AtomicSystem(z), delta, QuantumState(0, 0))
        assert work["sweeps"] <= 16
        assert work["points"] <= 15_000

    def test_first_step_bound_work(self):
        # Z=54 4p on its 20-Bohr box: 20 sweeps from a 2271-point first
        # mesh; a plain 401-point one, whose step at the box edge lets trial
        # energies near 1.5 E0 count spurious nodes, takes 77
        res = solve_bound_state(AtomicSystem(54), screening_delta(54, FA), QuantumState(2, 1))
        assert res.nodes_found == 2
        assert res.sweeps <= 24

    def test_near_critical_work(self, monkeypatch):
        # Z=5 2s lies 0.0101 Ha below zero; geometric bisection keeps the
        # root finder from crowding towards E = 0 (23 sweeps over three
        # grids, against 32 unseeded with plain bisection)
        work = _count_sweeps(monkeypatch)
        res = solve_bound_state(AtomicSystem(5), screening_delta(5, FA), QuantumState(1, 0))
        assert res.nodes_found == 1
        assert work["sweeps"] <= 24

    @pytest.mark.parametrize("z, n, l, seeded", [
        (4, 1, 0, False),
        (2, 0, 2, False),
        # third-order total in (1.5 E0, 0): the seed's top end is swept
        # first, and for Z=7 2p it lies below -1e-12
        (4, 0, 1, True),
        (7, 0, 1, True),
    ], ids=["z4_2s", "z2_3d", "z4_2p_seeded", "z7_2p_seeded"])
    def test_unbound_level_found_in_few_sweeps(self, monkeypatch, z, n, l, seeded):
        # -1e-12 is swept before the lower end, so no sweep goes to the
        # deep energies where the outward solution rescales.  These levels
        # lie past their critical ratios, which solve_bound_state answers
        # unswept, so its first grid's search runs here directly
        system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
        bracket = _seed(system, delta, state)
        assert (bracket is not None) == seeded
        work = _count_sweeps(monkeypatch)
        with pytest.raises(NoBoundState):
            _grid_solve(system, delta, state, _default_mesh(system, state, delta), bracket)
        assert 0 < work["sweeps"] <= 2
        with pytest.raises(NoBoundState):
            solve_bound_state(system, delta, state)
        assert work["sweeps"] <= 2

    @pytest.mark.parametrize("z, n, l", [
        (1, 0, 0), (84, 0, 0), (84, 0, 2),
        # capped boxes of max(20, 30 N^2 / A) Bohr
        (5, 1, 0), (18, 2, 0), (54, 2, 1),
    ], ids=["h_1s", "z84_1s", "z84_3d", "z5_2s", "z18_3s", "z54_3p"])
    def test_lower_end_below_level(self, z, n, l):
        # V >= -A/r puts every level above E0 (comparison theorem), so the
        # search never widens its lower end 1.5 E0; the sweep agrees
        system, state = AtomicSystem(z), QuantumState(n, l)
        delta = screening_delta(z, FA)
        sweep = oracle_mod._Sweeper(system, delta, state, *_default_mesh(system, state, delta))
        assert sweep.nodes(1.5 * coulomb_energy(system.a, state)) <= state.n

    @pytest.mark.parametrize("delta", [1e6, 1e7, 1e62, 1e100])
    def test_past_critical_ratio_unbound_without_sweeps(self, monkeypatch, delta):
        # at such delta the near-origin series diverges (1e7 stalls the
        # refinement, 1e62 overflows), so no sweep may run
        work = _count_sweeps(monkeypatch)
        with pytest.raises(NoBoundState):
            solve_bound_state(AtomicSystem(3), delta, QuantumState(0, 0))
        assert work["sweeps"] == 0

    def test_just_below_critical_ratio_stays_bound(self):
        # 1.19 < 1.190612: hydrogen 1s still binds, at about -9.0e-8 Ha
        res = solve_bound_state(AtomicSystem(1), 1.19, QuantumState(0, 0), r_max=4000.0)
        assert res.nodes_found == 0
        assert -1e-6 < res.energy < 0.0

    def test_wide_grid_solves(self):
        # Z=51 3s on 480 Bohr, against its 240-Bohr solve, -28.1957646540 Ha
        system, state = AtomicSystem(51), QuantumState(2, 0)
        res = solve_bound_state(system, screening_delta(51, FA), state, r_max=_WIDE_BOX)
        assert res.nodes_found == 2
        assert abs(res.energy + 28.1957646540) <= 1e-10

    @pytest.mark.parametrize("z, n, l, r_max, energy", [
        (5, 1, 0, 288.0, -0.0101907885),
        (18, 2, 0, 240.0, -0.0025716358),
        (54, 2, 1, 240.0, -0.0166175566),
    ], ids=["z5_2s", "z18_3s", "z54_4p"])
    def test_wide_box_levels(self, z, n, l, r_max, energy):
        # weakly bound levels in boxes 12 times their default ones, to the
        # ten decimals their table prints; Z=5 2s on a 288-Bohr grid of
        # 1601 points, too coarse a step for 1.5 E0, once raised
        # NoBoundState
        res = solve_bound_state(AtomicSystem(z), screening_delta(z, FA), QuantumState(n, l),
                                r_max=r_max)
        assert res.nodes_found == n
        assert abs(res.energy - energy) <= 5e-11

    @pytest.mark.parametrize("n, ratio, energy", [
        (0, 0.97, "-3.523756e-04"),
        (1, 0.99, "-8.380510e-06"),
        (2, 0.99, "-3.490431e-06"),
    ], ids=["1s", "2s", "3s"])
    def test_near_critical_levels_in_3000_bohr(self, n, ratio, energy):
        # A = 1 at a fraction of delta_c, where the level reaches far past
        # the default box, to seven significant digits
        delta = ratio * oracle_mod.CRITICAL_RATIO[n, 0]
        res = solve_bound_state(AtomicSystem(1), delta, QuantumState(n, 0), r_max=3000.0)
        assert res.nodes_found == n
        assert f"{res.energy:.6e}" == energy

    def test_user_grid_work(self, monkeypatch):
        # boxes the caller sets, each meshed by the step rule for its
        # bounds, the seed bracket's before the default ones
        work = _count_sweeps(monkeypatch)
        for z, n, l, r_max in [(73, 1, 1, 20.0), (49, 1, 0, 240.0), (43, 2, 0, 60.0)]:
            res = solve_bound_state(AtomicSystem(z), screening_delta(z, FA), QuantumState(n, l),
                                    r_max=r_max)
            assert res.nodes_found == n
        assert work["sweeps"] <= 60

    def test_node_mismatch_raises_nonconvergence(self, monkeypatch):
        # a converged energy whose node count is not n is reported, not returned
        bisect = oracle_mod._bisect_eigenvalue

        def off_by_one(sweep, n, lo, hi):
            return bisect(sweep, n, lo, hi)[0], n + 1

        monkeypatch.setattr(oracle_mod, "_bisect_eigenvalue", off_by_one)
        work = _count_sweeps(monkeypatch)
        state = QuantumState(1, 0)
        with pytest.raises(NonConvergence) as excinfo:
            solve_bound_state(AtomicSystem(29), screening_delta(29, FA), state)
        best = excinfo.value.result
        assert best.estimated_error < oracle_mod.GRID_TOL  # converged, then rejected
        assert best.nodes_found == state.n + 1
        assert best.sweeps == work["sweeps"] > 0

    def test_result_counts_every_sweep(self, monkeypatch):
        work = _count_sweeps(monkeypatch)
        res = solve_bound_state(AtomicSystem(29), screening_delta(29, FA), QuantumState(1, 0))
        assert res.sweeps == work["sweeps"] > 0

    def test_nonconvergence_result_counts_every_sweep(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "MAX_REFINEMENTS", 1)
        monkeypatch.setattr(oracle_mod, "GRID_TOL", 0.0)
        work = _count_sweeps(monkeypatch)
        with pytest.raises(NonConvergence) as excinfo:
            solve_bound_state(AtomicSystem(29), screening_delta(29, FA), QuantumState(0, 0))
        assert excinfo.value.result.sweeps == work["sweeps"] > 0

    @pytest.mark.parametrize("z, n, delta, r_max", [
        (1, 1, 0.0, 60.0),
        # sqrt(-2E) r_max ~ 1600: the sweep rescales its tail
        (84, 0, screening_delta(84, FA), 20.0),
    ], ids=["h_2s", "z84_1s_rescaled"])
    def test_root_matches_node_count_bisection(self, z, n, delta, r_max):
        system, state = AtomicSystem(z), QuantumState(n, 0)
        energy, nodes = _grid_solve(system, delta, state, (r_max, 20001))
        assert nodes == n

        sweep = oracle_mod._Sweeper(system, delta, state, r_max, 20001)
        lo, hi = 2.0 * coulomb_energy(system.a, state), -1e-12
        assert sweep.nodes(lo) <= n and sweep.nodes(hi) >= n + 1
        while hi - lo > 0.1 * oracle_mod.ENERGY_TOL:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if sweep.nodes(mid) >= n + 1:
                hi = mid
            else:
                lo = mid
        assert abs(energy - 0.5 * (lo + hi)) <= 2.0 * oracle_mod.ENERGY_TOL


#: L shells whose first mesh the seed bracket sizes: (Z, n, l) -> (energy
#: in Ha with no first mesh sized from a seed bracket, on 3033-6393
#: points, and the points they finish on now).  Z=14's seed brackets reach
#: down to -6.60 and -4.37 Ha, so their first meshes take 421 and 407
#: points to keep Numerov's t <= 0.5 at the box's edge.
_SEEDED_L_SHELLS = {
    (9, 1, 0): (-0.8111997939271192, 1601),
    (14, 1, 0): (-4.593396333984717, 1681),
    (14, 0, 1): (-3.291882368739052, 1625),
    (19, 1, 0): (-12.31905571335502, 1601),
    (19, 0, 1): (-10.441874498083587, 1601),
    (24, 1, 0): (-24.47186019461877, 1601),
    (24, 0, 1): (-22.058823680811546, 1601),
}

#: Levels whose seed bracket's top end is clipped to -1e-12, and one with no
#: seed bracket: (Z, n, l) -> (float.hex of the energy in Ha when only a
#: bracket below -1e-12 sized a mesh, the points it finished on then, and
#: the points it finishes on now).  Z=9 2p's and Z=6 2s's meshes are now
#: stepped for their brackets' lower ends, -1.30 and -4.53 Ha, not 1.5 E0.
#: Z=5 2s's bracket is [1.5 E0, -1e-12] itself and Z=18 3s has none, so
#: both keep their meshes and energies.
_TOP_CLIPPED_LEVELS = {
    (9, 0, 1): ("-0x1.4106b17830172p-3", 3033, 1601),
    (6, 1, 0): ("-0x1.3122d5cb04ed2p-4", 2025, 1657),
    (18, 2, 0): ("-0x1.a7ef8ccd2689ap-10", 4041, 4041),
    (5, 1, 0): ("-0x1.4bdd3ed5d2941p-7", 2041, 2041),
}


def _seed_mesh_steps(monkeypatch):
    """Numerov's t = h^2 (w - 2 E r^2) / 12 at the box's edge for every
    energy swept, from here on, on a seed-sized mesh or its halvings."""
    steps, seeded = [], []
    refine, sweep = oracle_mod._refine, _numerov_py.count_nodes_sweep

    def recorded_refine(system, delta, state, bounds, r_max, bracket, tally):
        # the seeded pass refines inside its own seed bracket
        seeded[:] = [bounds is bracket]
        return refine(system, delta, state, bounds, r_max, bracket, tally)

    def recorded_sweep(w, r2, energy, h, u0, u1, work):
        if seeded[0]:
            steps.append(h * h / 12.0 * (w[-1] - 2.0 * energy * r2[-1]))
        return sweep(w, r2, energy, h, u0, u1, work)

    monkeypatch.setattr(oracle_mod, "_refine", recorded_refine)
    monkeypatch.setattr(_numerov_py, "count_nodes_sweep", recorded_sweep)
    return steps


class TestSeedMesh:
    """A seeded level's first mesh is sized from its seed bracket, and kept
    only where that mesh's own sweeps prove the level inside the bracket."""

    @pytest.mark.parametrize("z, n, l", list(_SEEDED_L_SHELLS))
    def test_l_shells_finish_on_small_meshes(self, z, n, l):
        # the default bounds size these from 1.5 E0 and from E0 + A delta,
        # which is not negative up to Z=20 (so the 20-Bohr cap) and loose at
        # Z=24; their seed brackets give a box of a few decay lengths and a step
        # for the bracket's lower end
        before, points = _SEEDED_L_SHELLS[z, n, l]
        res = solve_bound_state(AtomicSystem(z), screening_delta(z, FA), QuantumState(n, l))
        assert res.nodes_found == n
        assert res.grid_points == points
        assert abs(res.energy - before) <= max(res.estimated_error, oracle_mod.ENERGY_TOL)

    @pytest.mark.parametrize("z, n, l", list(_TOP_CLIPPED_LEVELS))
    def test_top_clipped_brackets_size_meshes(self, z, n, l):
        # E0 + A delta is positive for all four, so either bounds give the
        # box max(20, 30 N^2 / A); the bracket's lower end sizes the step
        before, points_before, points = _TOP_CLIPPED_LEVELS[z, n, l]
        system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
        bracket = _seed(system, delta, state)
        assert bracket is None if (z, n, l) == (18, 2, 0) else bracket[1] == -1e-12
        res = solve_bound_state(system, delta, state)
        assert res.nodes_found == n
        assert res.grid_points == points
        if points == points_before:
            assert res.energy.hex() == before
        else:
            assert abs(res.energy - float.fromhex(before)) <= max(res.estimated_error,
                                                                 oracle_mod.ENERGY_TOL)

    @pytest.mark.parametrize("bracket, discarded", [((-12.0, -11.0), 2), ((-14.0, -13.0), 1)],
                             ids=["above_level", "below_level"])
    def test_unproven_bracket_falls_back_to_default_mesh(self, monkeypatch, bracket, discarded):
        # Z=19 2s lies at -12.319 Ha.  Above it the bracket's top end has n+1
        # nodes and its lower end too many; below it the top end already
        # has too few.  Either way the seed mesh is dropped, and the level is
        # solved on the default bounds' mesh from that bracket, its sweeps
        # counted
        system, state, delta = AtomicSystem(19), QuantumState(1, 0), screening_delta(19, FA)
        before, _ = _SEEDED_L_SHELLS[19, 1, 0]
        _, first = _default_mesh(system, state, delta)
        _, seed = oracle_mod._first_mesh(system, state, delta, bracket)
        assert seed != first
        monkeypatch.setattr(oracle_mod, "_seed_bracket", lambda *args: bracket)
        lengths = []
        sweep = _numerov_py.count_nodes_sweep
        monkeypatch.setattr(_numerov_py, "count_nodes_sweep",
                            lambda w, *args: lengths.append(len(w)) or sweep(w, *args))
        res = solve_bound_state(system, delta, state)
        assert lengths[:discarded + 1] == [seed] * discarded + [first]
        assert res.sweeps == len(lengths)
        assert res.grid_points == 4 * (first - 1) + 1
        assert abs(res.energy - before) <= max(res.estimated_error, oracle_mod.ENERGY_TOL)

    def test_level_leaving_bracket_on_finer_grid_restarts(self, monkeypatch):
        # Z=19 2s on the 401-point mesh sized from [-12.5, -12.319057] Ha
        # lies at -12.3190586, inside the bracket, but on its 801-point
        # halving at -12.3190559, above the bracket's top end: the solve
        # starts again on the default bounds' mesh, and the seed meshes'
        # sweeps count
        system, state, delta = AtomicSystem(19), QuantumState(1, 0), screening_delta(19, FA)
        bracket = (-12.5, -12.319057)
        before, _ = _SEEDED_L_SHELLS[19, 1, 0]
        _, first = _default_mesh(system, state, delta)
        _, seed = oracle_mod._first_mesh(system, state, delta, bracket)
        monkeypatch.setattr(oracle_mod, "_seed_bracket", lambda *args: bracket)
        lengths = []
        sweep = _numerov_py.count_nodes_sweep
        monkeypatch.setattr(_numerov_py, "count_nodes_sweep",
                            lambda w, *args: lengths.append(len(w)) or sweep(w, *args))
        res = solve_bound_state(system, delta, state)
        restart = lengths.index(first)
        assert lengths[restart - 1] == 2 * seed - 1
        assert set(lengths[:restart]) == {seed, 2 * seed - 1}
        assert res.sweeps == len(lengths)
        assert res.grid_points == 4 * (first - 1) + 1
        assert abs(res.energy - before) <= max(res.estimated_error, oracle_mod.ENERGY_TOL)

    @pytest.mark.parametrize("z, n, l", _FIRST_STEP_LEVELS)
    def test_seed_mesh_step_bound(self, monkeypatch, z, n, l):
        # as TestFirstMesh::test_every_first_mesh_step_bound at lo, for
        # every energy swept: the search stays inside the proven seed
        # bracket, whose lower end sizes the step, so no energy swept there
        # counts spurious nodes at r_max
        steps = _seed_mesh_steps(monkeypatch)
        try:
            solve_bound_state(AtomicSystem(z), screening_delta(z, FA), QuantumState(n, l))
        except NoBoundState:
            pass
        assert all(t <= 0.5 for t in steps)
        if (z, n, l) in _SEEDED_L_SHELLS:
            assert len(steps) > 10

    def test_seed_bracket_below_level_is_not_used(self):
        # Z=26 3p: the seed bracket [-10.73, -4.89] Ha lies far below the
        # level, whose top end the 469-point, 14.9-Bohr seed mesh finds with
        # too few nodes, so the level is solved on the default mesh.  A
        # 64001-point grid in the same 20-Bohr box gives -0.2381217056961269
        # (4e-15 away) and an 80-Bohr one lands 5.3e-13 away.  Searched from
        # 1.5 E0 on the seed mesh anyway, whose step is far too coarse
        # there, the level came out at -0.2381217050, 6.8e-10 off, while
        # claiming 1e-10
        system, state, delta = AtomicSystem(26), QuantumState(1, 1), screening_delta(26, FA)
        lo, hi = _seed(system, delta, state)
        res = solve_bound_state(system, delta, state)
        assert hi < -4.8 and res.energy > -0.3
        assert abs(res.energy + 0.23812170569612) <= res.estimated_error
        assert res.grid_points == 4 * (_default_mesh(system, state, delta)[1] - 1) + 1


def _counted(f):
    """``f`` and the list of arguments it is called with from here on."""
    args = []

    def g(x):
        args.append(x)
        return f(x)

    return g, args


def _first_grid_root(monkeypatch, z, n, l):
    """The sweeper of the first grid of Z's level (n, l), and the function
    and bracket that the root finder is given there."""
    calls, sweepers = [], []
    find_root, detrended = oracle_mod._chandrupatla, oracle_mod._detrended

    def recorded(f, lo, hi, xtol):
        calls.append((f, lo, hi))
        return find_root(f, lo, hi, xtol)

    def recorded_sweeper(sweep, hi):
        sweepers.append(sweep)
        return detrended(sweep, hi)

    monkeypatch.setattr(oracle_mod, "_chandrupatla", recorded)
    monkeypatch.setattr(oracle_mod, "_detrended", recorded_sweeper)
    system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
    _grid_solve(system, delta, state, _default_mesh(system, state, delta),
                _seed(system, delta, state))
    monkeypatch.undo()
    (sweep,), ((f, lo, hi),) = sweepers, calls
    return sweep, f, lo, hi


def _wallis(x):
    return x ** 3 - 2.0 * x - 5.0


def _cube_root(x):
    return math.copysign(abs(x) ** (1.0 / 3.0), x) - 0.1


class TestRootFinder:
    """Chandrupatla's method finds scipy's ``brentq`` root, to its tolerance,
    and keeps its contract on ends, signs, NaN and the iteration cap."""

    @staticmethod
    def _assert_as_brentq(f, lo, hi, xtol):
        from scipy.optimize import brentq

        ours, our_args = _counted(f)
        theirs, their_args = _counted(f)
        root = oracle_mod._chandrupatla(ours, lo, hi, xtol)
        expected = brentq(theirs, lo, hi, xtol=xtol, rtol=oracle_mod._ROOT_RTOL,
                          maxiter=oracle_mod._ROOT_MAXITER)
        assert abs(root - expected) <= xtol + oracle_mod._ROOT_RTOL * abs(expected)
        return our_args, their_args

    @pytest.mark.parametrize("z, n, l", [(14, 1, 0), (29, 0, 0), (54, 2, 1)],
                             ids=["z14_2s", "z29_1s", "z54_4p"])
    def test_sweep_tail_as_brentq(self, monkeypatch, z, n, l):
        # the raw last value of Z=14 2s spans decades across the bracket;
        # the de-trended one that the search passes is close to linear
        sweep, detrended, lo, hi = _first_grid_root(monkeypatch, z, n, l)
        for f in (sweep.tail, detrended):
            calls, _ = self._assert_as_brentq(f, lo, hi, oracle_mod.ENERGY_TOL)
            assert len(calls) > 2

    # 8, 18, 9 and 14 calls, against brentq's 8, 16, 9 and 14
    @pytest.mark.parametrize("f, lo, hi", [
        (_wallis, 2.0, 3.0),
        (_cube_root, -1.0, 4.0),
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: math.exp(10.0 * x) - 2.0, -3.0, 1.0),
    ], ids=["wallis", "cube_root", "sqrt2", "exp10"])
    def test_analytic_as_brentq(self, f, lo, hi):
        ours, theirs = self._assert_as_brentq(f, lo, hi, 1e-12)
        assert len(ours) <= len(theirs) + 2

    @pytest.mark.parametrize("lo, hi", [(2.0, 5.0), (5.0, 2.0)])
    def test_exact_zero_end_returned(self, lo, hi):
        f, args = _counted(lambda x: x - 2.0)
        assert oracle_mod._chandrupatla(f, lo, hi, 1e-12) == 2.0
        assert args == [lo, hi]

    def test_zero_end_needs_no_sign_change(self):
        # -0.0 counts as a zero, not as a negative value
        assert oracle_mod._chandrupatla(lambda x: -0.0 * x, 0.0, 1.0, 1e-12) == 0.0
        assert oracle_mod._chandrupatla(lambda x: x * x, -1.0, 0.0, 1e-12) == 0.0

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: -x * x - 1.0],
                             ids=["positive", "negative"])
    def test_same_signs_raise(self, f):
        with pytest.raises(ValueError, match="different signs"):
            oracle_mod._chandrupatla(f, -1.0, 1.0, 1e-12)

    @pytest.mark.parametrize("f", [
        lambda x: math.nan,
        # NaN first at an iterate inside the bracket
        lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5,
    ], ids=["end", "iterate"])
    def test_nan_raises(self, f):
        with pytest.raises(ValueError, match="NaN"):
            oracle_mod._chandrupatla(f, -1.0, 2.0, 1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_ROOT_MAXITER", 1)
        f, args = _counted(_wallis)
        with pytest.raises(RuntimeError, match="after 1 iterations"):
            oracle_mod._chandrupatla(f, 2.0, 3.0, 1e-12)
        assert len(args) == 3


#: (Z, n, l) of the de-trend's checks: the crawl case Z=14 2s, two K shells,
#: the step-bound first mesh of Z=54 4p and the capped box of Z=5 2s.
_DETREND_LEVELS = [(14, 1, 0), (29, 0, 0), (54, 2, 1), (5, 1, 0), (84, 0, 0)]
_DETREND_IDS = ["z14_2s", "z29_1s", "z54_4p", "z5_2s", "z84_1s"]


#: A box 24 times Z=51 3s's default 20 Bohr, twice that of its 240-Bohr
#: reference solve.  Handed over at lo >= 2 hi, Z=51 3s's bracket would
#: span about 1200 in the de-trend's exponent there, where the de-trend
#: factor underflows.
_WIDE_BOX = 480.0


def _root_spans(monkeypatch, system, delta, state, r_max):
    """(kappa(lo) - kappa(hi)) r_max, kappa = sqrt(-2 E), of every bracket
    that a solve hands to the root finder."""
    spans, edges = [], []
    find_root, detrended = oracle_mod._chandrupatla, oracle_mod._detrended

    def recorded_sweeper(sweep, hi):
        edges.append(sweep.r_max)
        return detrended(sweep, hi)

    def recorded(f, lo, hi, xtol):
        spans.append((math.sqrt(-2.0 * lo) - math.sqrt(-2.0 * hi)) * edges[-1])
        return find_root(f, lo, hi, xtol)

    monkeypatch.setattr(oracle_mod, "_chandrupatla", recorded)
    monkeypatch.setattr(oracle_mod, "_detrended", recorded_sweeper)
    solve_bound_state(system, delta, state, r_max)
    monkeypatch.undo()
    return spans


class _LinearTail:
    """A stand-in sweeper with one level at -1.7 Ha, whose last value is
    linear in E, on a box so wide that the de-trend factor across
    [-2, -1.5] underflows."""

    r_max = 1e4

    def nodes(self, energy):
        return int(energy > -1.7)

    def tail(self, energy):
        return energy + 1.7


class TestDetrendedRoot:
    """The root finder runs on the last value times exp(-(kappa(E) - kappa(hi)) r_max),
    which has the last value's sign and zero."""

    @pytest.mark.parametrize("z, n, l, r_max", [
        *[(z, n, l, None) for z, n, l in _DETREND_LEVELS],
        (51, 2, 0, _WIDE_BOX),
    ], ids=[*_DETREND_IDS, "z51_3s_480_bohr"])
    def test_root_bracket_span_bounded(self, monkeypatch, z, n, l, r_max):
        # on every grid of the solve, in the default box or a wider one
        spans = _root_spans(monkeypatch, AtomicSystem(z), screening_delta(z, FA),
                             QuantumState(n, l), r_max)
        assert len(spans) >= 3
        assert max(spans) <= oracle_mod._ROOT_SPAN

    def test_crawl_case_takes_few_sweeps(self, monkeypatch):
        # Z=14 2s on its seeded first grid: 14 sweeps on the raw last value,
        # 12 of them the root finder's, and 9 on the de-trended one
        system, state, delta = AtomicSystem(14), QuantumState(1, 0), screening_delta(14, FA)
        mesh = _default_mesh(system, state, delta)
        work = _count_sweeps(monkeypatch)
        _, nodes = _grid_solve(system, delta, state, mesh, _seed(system, delta, state))
        assert nodes == 1
        assert work["sweeps"] <= 10

    @pytest.mark.parametrize("z, n, l", _DETREND_LEVELS, ids=_DETREND_IDS)
    def test_same_eigenvalue_as_raw_tail(self, monkeypatch, z, n, l):
        system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
        mesh = _default_mesh(system, state, delta)
        bracket = _seed(system, delta, state)
        energy, nodes = _grid_solve(system, delta, state, mesh, bracket)
        monkeypatch.setattr(oracle_mod, "_detrended", lambda sweep, hi: sweep.tail)
        raw_energy, raw_nodes = _grid_solve(system, delta, state, mesh, bracket)
        assert nodes == raw_nodes == n
        assert abs(energy - raw_energy) <= oracle_mod.ENERGY_TOL

    @pytest.mark.parametrize("z, n, l", _DETREND_LEVELS, ids=_DETREND_IDS)
    def test_finite_nonzero_at_bracket_ends(self, monkeypatch, z, n, l):
        sweep, detrended, lo, hi = _first_grid_root(monkeypatch, z, n, l)
        for end in (lo, hi):
            value = detrended(end)
            assert math.isfinite(value) and value != 0.0
            assert math.copysign(1.0, value) == math.copysign(1.0, sweep.tail(end))
        assert detrended(hi) == sweep.tail(hi)

    def test_underflow_is_no_false_root(self):
        # de-trended from hi = -1.5, the value at lo = -2 has the factor
        # exp(-(2 - sqrt 3) 1e4) = 0, and a value of 0 would be returned as
        # the root; bisection narrows the bracket to a span of at most
        # _ROOT_SPAN before the root finder sees it
        energy, nodes = oracle_mod._bisect_eigenvalue(_LinearTail(), 0, -2.0, -1.5)
        assert nodes == 0
        assert abs(energy + 1.7) <= oracle_mod.ENERGY_TOL


_TABLED_STATES = list(oracle_mod.CRITICAL_RATIO)


class TestCriticalRatio:
    @pytest.mark.parametrize("n, l", _TABLED_STATES)
    def test_generator_rebuilds_entry(self, n, l):
        # 2e-6, or less where an eleventh of CRITICAL_MARGIN of the entry is
        # less: the margin is built on no entry being rounded by more
        entry = oracle_mod.CRITICAL_RATIO[n, l]
        tolerance = min(2e-6, oracle_mod.CRITICAL_MARGIN / 11 * entry)
        assert abs(oracle_mod._critical_ratio(n, l) - entry) <= tolerance

    @pytest.mark.parametrize("n, l", _TABLED_STATES)
    def test_generator_sweeps_once_per_delta(self, monkeypatch, n, l):
        # each delta the bisection tries gets one sweeper and one sweep, 33
        # in all from [0.5, 2] / N^2 to 1e-9; one banded solve per sweep
        # means no sweep rescales, so the last two values share one scale
        work, deltas, solves = _count_sweeps(monkeypatch), [], []
        sweeper, summed_solve = oracle_mod._Sweeper, _numerov_py._summed_solve

        def recorded(system, delta, *args):
            deltas.append(delta)
            return sweeper(system, delta, *args)

        def counted_solve(*args):
            solves.append(None)
            return summed_solve(*args)

        monkeypatch.setattr(oracle_mod, "_Sweeper", recorded)
        monkeypatch.setattr(_numerov_py, "_summed_solve", counted_solve)
        oracle_mod._critical_ratio(n, l)
        assert work["sweeps"] == len(deltas) == len(set(deltas)) == len(solves) == 33

    def test_published_values(self):
        # Rogers, Graboske & Harwood (1970), at the digits where they agree:
        # 1s and 3p to five, 2s and 2p (published 0.31009, 0.22029) to three
        table = oracle_mod.CRITICAL_RATIO
        assert round(table[0, 0], 5) == 1.19061
        assert round(table[1, 1], 5) == 0.11271
        assert round(table[1, 0], 3) == 0.310
        assert round(table[0, 1], 3) == 0.220

    @pytest.mark.parametrize("n, l", _TABLED_STATES)
    def test_eigensolver_agrees_with_entry(self, n, l):
        # a 40 / delta Bohr box finds no level at 1 + 2e-4 times the entry,
        # and, for l >= 1, the level at 1 - 2e-4 times it; an s level there
        # lies too close to E = 0 for any such box
        system, state = AtomicSystem(1), QuantumState(n, l)
        critical = oracle_mod.CRITICAL_RATIO[n, l]
        above, below = critical * (1 + 2e-4), critical * (1 - 2e-4)
        with pytest.raises(NoBoundState):
            _grid_solve(system, above, state, (40.0 / above, 8001))
        if l:
            energy, nodes = _grid_solve(system, below, state, (40.0 / below, 8001))
            assert nodes == n and energy < 0.0

    @pytest.mark.parametrize("n, l", _TABLED_STATES)
    def test_past_margin_unbound_without_sweeps(self, monkeypatch, n, l):
        work = _count_sweeps(monkeypatch)
        delta = 4.0 * oracle_mod.CRITICAL_RATIO[n, l] * (1 + 2 * oracle_mod.CRITICAL_MARGIN)
        with pytest.raises(NoBoundState):
            solve_bound_state(AtomicSystem(4), delta, QuantumState(n, l))
        assert work["sweeps"] == 0

    def test_inside_margin_is_swept(self, monkeypatch):
        work = _count_sweeps(monkeypatch)
        delta = oracle_mod.CRITICAL_RATIO[0, 1] * (1 + 0.5 * oracle_mod.CRITICAL_MARGIN)
        with pytest.raises(NoBoundState):
            solve_bound_state(AtomicSystem(1), delta, QuantumState(0, 1))
        assert work["sweeps"] > 0

    def test_message_names_the_ratios(self):
        # Z=4 2s with the Fermi-Amaldi delta
        message = "delta/A = 0.32104 exceeds delta_c/A = 0.310209 for n=1, l=0"
        with pytest.raises(NoBoundState, match=f"^{re.escape(message)}$"):
            solve_bound_state(AtomicSystem(4), screening_delta(4, FA), QuantumState(1, 0))

    def test_table_answers_only_levels_the_sweep_finds_unbound(self, monkeypatch):
        # Z = 1..84 under both screening laws: every level with n or l = 3
        # that its entry declares unbound without a sweep is unbound when
        # the sweep decides from the 1s entry, as it did before the table
        # held n, l = 3
        answered = []
        for law in ScreeningLaw:
            model = ScreeningModel(law)
            for z in range(1, 85):
                delta = screening_delta(z, model)
                for n, l in _TABLED_STATES:
                    critical = oracle_mod.CRITICAL_RATIO[n, l]
                    if 3 in (n, l) and delta / z > critical * (1 + oracle_mod.CRITICAL_MARGIN):
                        answered.append((z, delta, QuantumState(n, l)))
        assert len(answered) == 1086
        monkeypatch.setattr(oracle_mod, "CRITICAL_RATIO", {(0, 0): oracle_mod.CRITICAL_RATIO[0, 0]})
        for z, delta, state in answered:
            with pytest.raises(NoBoundState):
                solve_bound_state(AtomicSystem(z), delta, state)

    def test_state_outside_table_takes_1s_entry(self, monkeypatch):
        work = _count_sweeps(monkeypatch)
        state = QuantumState(4, 0)
        with pytest.raises(NoBoundState, match=re.escape("delta_c/A = 1.190612 for n=4, l=0")):
            solve_bound_state(AtomicSystem(1), 1.2, state)
        assert work["sweeps"] == 0
        # 5s unbinds far below 1s, so the sweep finds it unbound
        with pytest.raises(NoBoundState):
            solve_bound_state(AtomicSystem(1), 1.0, state)
        assert work["sweeps"] > 0


def _record_grid_solves(monkeypatch):
    """Record the bracket and the eigenvalue of every grid solve from here on."""
    brackets, energies = [], []
    solve = oracle_mod._solve_on_grid

    def recorded(system, delta, state, sweep, bounds, bracket, tally):
        energy, nodes = solve(system, delta, state, sweep, bounds, bracket, tally)
        brackets.append(bracket)
        energies.append(energy)
        return energy, nodes

    monkeypatch.setattr(oracle_mod, "_solve_on_grid", recorded)
    return brackets, energies


def _extrapolations(energies):
    """X_k = E_k + (E_k - E_{k-1}) / 15 for each grid k >= 1."""
    return [e + (e - prev) / 15.0 for prev, e in zip(energies, energies[1:])]


class TestRichardsonExtrapolation:
    @pytest.mark.parametrize("z, n, l", [
        (84, 0, 0), (24, 1, 0), (73, 2, 0), (29, 0, 1), (54, 2, 1),
    ], ids=["z84_1s", "z24_2s", "z73_3s", "z29_2p", "z54_3p"])
    def test_matches_fine_grid(self, z, n, l):
        # the raw eigenvalue on 256001 points, 62 to 638 times finer than
        # the first mesh; it is itself within 6e-12 Ha of the extrapolation
        # from 512001 points, and the results lie within 1.3e-11 Ha of it
        # (both at Z=84 1s).  Unextrapolated, the finest mesh's value misses
        # it by 1.2e-7 at Z=84 1s (1601 points) and 1.0e-9 at Z=29 2p (2833).
        system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
        res = solve_bound_state(system, delta, state)
        fine_mesh = (_default_mesh(system, state, delta)[0], 256001)
        bracket = (res.energy - 1e-7, res.energy + 1e-7)
        fine, nodes = _grid_solve(system, delta, state, fine_mesh, bracket)
        assert nodes == n
        assert abs(res.energy - fine) <= 2e-10

    def test_error_bar_above_root_tolerance(self):
        # Z=84 2s finishes on 401, 801 and 1601 points, where its last two
        # extrapolations differ by 1.1e-9 Ha: the error bar is the grid's,
        # not the root finder's.  The raw eigenvalue on 256001 points lies 1.6e-11 Ha
        # from the result
        system, state, delta = AtomicSystem(84), QuantumState(1, 0), screening_delta(84, FA)
        res = solve_bound_state(system, delta, state)
        assert res.estimated_error > oracle_mod.ENERGY_TOL
        fine_mesh = (_default_mesh(system, state, delta)[0], 256001)
        bracket = (res.energy - 1e-7, res.energy + 1e-7)
        fine, nodes = _grid_solve(system, delta, state, fine_mesh, bracket)
        assert nodes == 1
        assert abs(res.energy - fine) <= res.estimated_error

    @pytest.mark.parametrize("z, n, l", [(73, 2, 0), (54, 2, 1)], ids=["z73_3s", "z54_3p"])
    def test_result_is_the_extrapolation(self, monkeypatch, z, n, l):
        # refinement stops at the first pair of successive extrapolations
        # within GRID_TOL.  On the logarithmic mesh both levels' own
        # extrapolations agree below ENERGY_TOL (6.5e-13 Ha at Z=73 3s,
        # 1.1e-11 at Z=54 4p), so each grid's energy gets an h^2 term 1e-7/4^k
        # Ha on grid k, which the h^4 extrapolation leaves standing: its
        # changes are 1.5e-8 on the third grid and 3.75e-9 on the fourth,
        # one above GRID_TOL and one between ENERGY_TOL and GRID_TOL
        system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
        solve = oracle_mod._solve_on_grid
        points = []

        def with_h2_term(system, delta, state, sweep, bounds, bracket, tally):
            points.append(len(sweep.w))
            energy, nodes = solve(system, delta, state, sweep, bounds, bracket, tally)
            return energy + 1e-7 * ((points[0] - 1) / (points[-1] - 1)) ** 2, nodes

        monkeypatch.setattr(oracle_mod, "_solve_on_grid", with_h2_term)
        _, energies = _record_grid_solves(monkeypatch)
        res = solve_bound_state(system, delta, state)
        x = _extrapolations(energies)
        changes = [abs(b - a) for a, b in zip(x, x[1:])]
        assert len(energies) == 4
        assert res.grid_points == (points[0] - 1) * 2 ** (len(energies) - 1) + 1
        assert res.energy == x[-1]
        assert res.estimated_error == changes[-1] > oracle_mod.ENERGY_TOL
        assert all(c >= oracle_mod.GRID_TOL for c in changes[:-1])
        assert changes[-1] < oracle_mod.GRID_TOL

    @pytest.mark.parametrize("z, n, l", [
        (84, 0, 0), (24, 1, 0), (73, 2, 0), (29, 0, 1), (54, 2, 1),
    ], ids=["z84_1s", "z24_2s", "z73_3s", "z29_2p", "z54_3p"])
    def test_later_brackets_hold_the_eigenvalue(self, monkeypatch, z, n, l):
        # from the third grid on, the bracket is centred on the predicted
        # energy, a sixteenth of the last shift past the last eigenvalue, and
        # padded by a quarter of that shift: narrower than the shift itself
        brackets, energies = _record_grid_solves(monkeypatch)
        solve_bound_state(AtomicSystem(z), screening_delta(z, FA), QuantumState(n, l))
        assert len(energies) >= 3
        for k in range(2, len(energies)):
            (lo, hi), shift = brackets[k], energies[k - 1] - energies[k - 2]
            assert lo < energies[k] < hi
            assert hi - lo <= max(abs(shift), 4e-9)


#: Unbound states (n, l), n, l <= 2, of each Z of the work budget's slice.
_BUDGET_UNBOUND = {
    1: set(),
    9: {(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)},
    14: {(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)},
    29: {(0, 2), (1, 2), (2, 1), (2, 2)},
    54: {(1, 2), (2, 2)},
    84: {(2, 2)},
}


class TestWorkBudget:
    def test_survey_work(self, monkeypatch):
        # Z = 1..84 by the nine states n, l <= 2 with the Fermi-Amaldi
        # delta: 7933 sweeps of 10,826,467 points, against 7937 sweeps of
        # 12,157,715 points when only seed brackets below -1e-12 sized a
        # mesh and 7914 sweeps of 26,360,044 points when none did
        work = _count_sweeps(monkeypatch)
        outcomes = Counter()
        for z in range(1, 85):
            delta = screening_delta(z, FA)
            for n in range(3):
                for l in range(3):
                    try:
                        res = solve_bound_state(AtomicSystem(z), delta, QuantumState(n, l))
                    except NoBoundState:
                        outcomes["unbound"] += 1
                    else:
                        outcomes["bound", res.nodes_found == n] += 1
        assert outcomes == {("bound", True): 472, "unbound": 284}
        assert work["sweeps"] <= 8000
        assert work["points"] <= 11_500_000

    def test_survey_slice_work(self, monkeypatch):
        # Z in {1, 9, 14, 29, 54, 84} by the nine states n, l <= 2, with the
        # Fermi-Amaldi delta: 566 sweeps of 700,260 points in all, against
        # 567 sweeps of 820,675 points when only seed brackets below -1e-12
        # sized a mesh, 560 sweeps of 1,328,130 points when none did and
        # 664 sweeps of 1,757,040 points with Brent on the raw last value
        # and an 801-point first mesh
        work = _count_sweeps(monkeypatch)
        for z, unbound in _BUDGET_UNBOUND.items():
            delta = screening_delta(z, FA)
            for n in range(3):
                for l in range(3):
                    if (n, l) in unbound:
                        with pytest.raises(NoBoundState):
                            solve_bound_state(AtomicSystem(z), delta, QuantumState(n, l))
                    else:
                        res = solve_bound_state(AtomicSystem(z), delta, QuantumState(n, l))
                        assert res.nodes_found == n
        assert work["sweeps"] <= 600
        assert work["points"] <= 760_000


#: (label, bracket) for a level at energy e, its lower neighbour at e_below
#: and its upper one at e_above (same l, n - 1 and n + 1 nodes).
_BRACKETS = {
    "stale_above": lambda e, e_below, e_above: (0.999 * e, 0.998 * e),
    "stale_below": lambda e, e_below, e_above: (1.002 * e, 1.001 * e),
    "lo_valid_level_past_hi": lambda e, e_below, e_above: (1.001 * e, (1.0 + 1e-7) * e),
    "hi_valid_level_past_lo": lambda e, e_below, e_above: ((1.0 - 1e-7) * e, 0.999 * e),
    "centred_on_n_minus_1": lambda e, e_below, e_above: (1.000001 * e_below, 0.999999 * e_below),
    "centred_on_n_plus_1": lambda e, e_below, e_above: (1.000001 * e_above, 0.999999 * e_above),
}


class TestStaleBracket:
    """A bracket whose ends miss the level still gives the unseeded
    eigenvalue: the ends that node counts prove are kept, the rest searched."""

    @pytest.mark.parametrize("label", list(_BRACKETS))
    @pytest.mark.parametrize("z, n, delta, r_max", [
        (1, 1, 0.0, 60.0),
        (29, 1, screening_delta(29, FA), 20.0),
    ], ids=["h_2s", "z29_2s"])
    def test_matches_unseeded_eigenvalue(self, z, n, delta, r_max, label):
        system, mesh = AtomicSystem(z), (r_max, 20001)

        def solve(k, bracket=None):
            return _grid_solve(system, delta, QuantumState(k, 0), mesh, bracket)

        energy, nodes = solve(n)
        bracket = _BRACKETS[label](energy, solve(n - 1)[0], solve(n + 1)[0])
        sweep = oracle_mod._Sweeper(system, delta, QuantumState(n, 0), *mesh)
        counts = [sweep.nodes(end) for end in bracket]
        assert counts[0] > n or counts[1] <= n  # the bracket is stale
        seeded_energy, seeded_nodes = solve(n, bracket)
        assert seeded_nodes == nodes == n
        assert abs(seeded_energy - energy) <= 2.0 * oracle_mod.ENERGY_TOL


class TestMonotoneOrderConvergence:
    @pytest.mark.parametrize("z", [24, 54])
    def test_k_shell_errors_shrink_with_order(self, z):
        from yukawa_atom import energy_breakdown

        system, state = AtomicSystem(z), QuantumState(0, 0)
        delta = screening_delta(z, FA)
        oracle = solve_bound_state(system, delta, state).energy
        diffs = [
            abs(energy_breakdown(system.a, state, delta, order=k).total - oracle)
            for k in (1, 2, 3)
        ]
        assert diffs[0] >= diffs[1] >= diffs[2]


class TestVariationalSanity:
    @pytest.mark.parametrize("z, l", [(3, 0), (14, 0), (14, 1), (29, 1), (54, 2)])
    def test_trial_energy_bounds_channel_ground_state(self, z, l):
        state = QuantumState(0, l)
        system = AtomicSystem(z)
        delta = screening_delta(z, FA)
        psi = moderated_radial(system, state, delta)
        c2, c3 = _exponent_coefficients(system.a, state, delta)
        beta = psi.beta

        def kinetic(r):
            dlog = (l + 1) / r - beta + (2.0 * c2 + 3.0 * c3 * r) * r
            return 0.5 * (psi(r) * dlog) ** 2

        def potential(r):
            return (l * (l + 1) / (2.0 * r * r) - system.a * np.exp(-delta * r) / r) * psi(r) ** 2

        opts = dict(limit=400, epsabs=1e-12, epsrel=1e-12)
        rayleigh = quad(kinetic, 0, psi.r_max, **opts)[0] \
            + quad(potential, 0, psi.r_max, **opts)[0]
        oracle = solve_bound_state(system, delta, state).energy
        assert oracle <= rayleigh + 1e-9
