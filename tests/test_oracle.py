"""Eigensolver tests: hydrogenic exactness, node counting, the Numerov
sweep's contract, the default box, the root search and its work, screening
behaviour, and cross-validation against the closed forms."""

import gc
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from yukawa_atom import (
    AtomicSystem,
    NoBoundState,
    NonConvergence,
    QuantumState,
    RadialGrid,
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
        assert res.grid_converged
        assert res.nodes_found == n
        assert res.energy == pytest.approx(exact, rel=1e-7)

    def test_scaled_coupling(self):
        res = solve_bound_state(AtomicSystem(2), 0.0, QuantumState(0, 0))
        assert res.energy == pytest.approx(-2.0, rel=1e-7)

    def test_deep_high_l_state(self):
        res = solve_bound_state(AtomicSystem(84), 0.0, QuantumState(0, 1))
        assert res.energy == pytest.approx(-882.0, rel=1e-7)
        assert res.nodes_found == 0


class TestOracleBasics:
    def test_result_fields(self):
        res = solve_bound_state(AtomicSystem(3), 1.078630, QuantumState(0, 0))
        assert res.estimated_error >= 0.0
        assert res.grid_converged
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
        wide = RadialGrid(r_max=160.0, points=32001)
        res = solve_bound_state(AtomicSystem(1), 1.1, QuantumState(0, 0), grid=wide)
        assert res.energy < 0.0
        assert res.nodes_found == 0
        with pytest.raises(NoBoundState):
            solve_bound_state(AtomicSystem(1), 1.3, QuantumState(0, 0), grid=wide)

    def test_excited_level_disappears_before_ground(self):
        # 2s unbinds around delta ~ 0.31 while 1s survives
        system = AtomicSystem(1)
        wide = RadialGrid(r_max=200.0, points=32001)
        assert solve_bound_state(system, 0.5, QuantumState(0, 0), grid=wide).energy < 0
        with pytest.raises(NoBoundState):
            solve_bound_state(system, 0.5, QuantumState(1, 0), grid=wide)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            solve_bound_state(AtomicSystem(1), -0.1, QuantumState(0, 0))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="screening parameter must be finite"):
            solve_bound_state(AtomicSystem(1), delta, QuantumState(0, 0))

    def test_closed_form_overflow_leaves_solve_unseeded(self):
        # the third-order total reaches -inf at this delta; the exact
        # potential has no bound level
        system, state = AtomicSystem(3), QuantumState(0, 0)
        assert oracle_mod._seed_bracket(system, 1.5e51, state) is None
        with pytest.raises(NoBoundState):
            solve_bound_state(system, 1.5e51, state)

    def test_solved_grids_keep_no_array(self):
        # scipy's brentq holds its callable in a reference cycle, so each
        # grid's sweeper outlives the solve until the cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            solve_bound_state(AtomicSystem(29), screening_delta(29, FA), QuantumState(1, 0))
            left = [o for o in gc.get_objects() if isinstance(o, oracle_mod._Sweeper)]
        finally:
            gc.enable()
        assert not any(isinstance(v, np.ndarray) for s in left for v in vars(s).values())

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        # one halving and a zero tolerance stall Z=29 1s after two grids; the
        # single extrapolation is carried, with its own correction as its error
        monkeypatch.setattr(oracle_mod, "MAX_REFINEMENTS", 1)
        monkeypatch.setattr(oracle_mod, "GRID_TOL", 0.0)
        _, energies = _record_grid_solves(monkeypatch)
        with pytest.raises(NonConvergence) as excinfo:
            solve_bound_state(AtomicSystem(29), screening_delta(29, FA), QuantumState(0, 0))
        best = excinfo.value.result
        assert not best.grid_converged
        assert best.energy == pytest.approx(-341.3048, abs=1e-2)
        (x1,) = _extrapolations(energies)
        assert best.energy == x1
        assert best.estimated_error == abs(x1 - energies[-1])
        assert 0.0 < best.estimated_error < 1e-6


class TestRadialGrid:
    def test_default_box_holds_thirty_decay_lengths(self):
        # delta = 0: E_up is the exact level -1/18, so the box is the
        # turning-point bound 18 plus 30 * 3 Bohr
        g = RadialGrid.for_state(AtomicSystem(1), QuantumState(1, 1), 0.0)
        assert g.r_max == pytest.approx(108.0)

    def test_default_box_from_screened_upper_bound(self):
        system, state = AtomicSystem(84), QuantumState(0, 0)
        delta = screening_delta(84, FA)
        e_up = coulomb_energy(system.a, state) + system.a * delta
        g = RadialGrid.for_state(system, state, delta)
        assert g.r_max == pytest.approx(system.a / -e_up + 30.0 / np.sqrt(-2.0 * e_up))

    def test_default_box_past_turning_point_at_high_n(self):
        # H N=14 s: outer turning point 2 N^2, decay length N
        big_n = 14
        g = RadialGrid.for_state(AtomicSystem(1), QuantumState(big_n - 1, 0), 0.0)
        assert g.r_max >= 2.0 * big_n**2 + 30.0 * big_n - 1e-9

    def test_default_box_capped_near_threshold(self):
        # E_up = -1e-7: 30 / sqrt(-2 E_up) alone would be 67000 Bohr
        g = RadialGrid.for_state(AtomicSystem(1), QuantumState(0, 0), 0.4999999)
        assert g.r_max == 30.0

    def test_default_box_when_bound_unproven(self):
        # E0 + A delta > 0: the box is the cap max(20, 30 N^2 / A)
        z5_2s = RadialGrid.for_state(AtomicSystem(5), QuantumState(1, 0), screening_delta(5, FA))
        z9_2p = RadialGrid.for_state(AtomicSystem(9), QuantumState(0, 1), screening_delta(9, FA))
        assert z5_2s.r_max == pytest.approx(24.0)
        assert z9_2p.r_max == 20.0

    def test_rejects_even_points(self):
        with pytest.raises(ValueError):
            RadialGrid(r_max=20.0, points=20000)

    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            RadialGrid(r_max=20.0, points=501)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="r_max must be finite and above"):
            RadialGrid(r_max=oracle_mod.R_MIN, points=4001)

    @pytest.mark.parametrize("r_max", [float("inf"), float("nan"), 1e-7])
    def test_rejects_box_not_past_r_min(self, r_max):
        # an infinite box would give a NaN step, a RuntimeWarning and a false
        # NoBoundState for hydrogen 1s
        with pytest.raises(ValueError, match="r_max must be finite and above"):
            RadialGrid(r_max=r_max, points=4001)

    def test_halving_preserves_oddness(self):
        g = RadialGrid(r_max=20.0, points=20001)
        assert g.halved().points == 40001


def _scalar_sweep(w, energy, h, u0, u1):
    """The summed-form sweep as a per-point loop: the kernel's reference."""
    t = (h * h / 12.0 * (w - 2.0 * energy)).tolist()
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


def _hydrogen_sweep_args(l):
    """Hydrogen's w for angular momentum l on 200 Bohr, with the series start."""
    r = np.linspace(1e-6, 200.0, 20001)
    w = l * (l + 1) / (r * r) - 2.0 / r
    u0, u1 = (x ** (l + 1) * (1.0 - x / (l + 1)) for x in r[:2])
    return w, r[1] - r[0], u0, u1


def _fresh_buffer_sweep(w, energy, h, u0, u1):
    """The sweep with its band matrix and right-hand side allocated afresh
    for every solve: the reference the kernel's reused buffers must match
    bit for bit."""
    from scipy.linalg.lapack import dtbtrs

    n = len(w)
    t = h * h / 12.0 * (w - 2.0 * energy)
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
        w, h, u0, u1 = _hydrogen_sweep_args(l)
        # either side of the first two levels, and deep enough to rescale
        levels = [-0.5 / (k + l + 1) ** 2 for k in range(2)]
        energies = [f * e for e in levels for f in (1.001, 0.999)] + [-50.0]
        for energy in energies:
            nodes, tail = _numerov_py.count_nodes_sweep(w, energy, h, u0, u1)
            ref_nodes, ref_tail = _scalar_sweep(w, energy, h, u0, u1)
            assert nodes == ref_nodes
            assert abs(tail - ref_tail) <= 1e-12 * abs(ref_tail)

    def test_reused_buffers_bit_identical(self, monkeypatch):
        # a smaller grid after a larger one solves in a slice of the larger
        # grid's buffers; Z=84 1s in 20 Bohr rescales near its level
        solves = []
        solve = _numerov_py._summed_solve
        monkeypatch.setattr(_numerov_py, "_summed_solve",
                            lambda *args: solves.append(1) or solve(*args))
        system, state = AtomicSystem(84), QuantumState(0, 0)
        delta = screening_delta(84, FA)
        level = -3183.5114
        energies = (1.001 * level, level, 0.999 * level, 0.5 * level, 4.0 * level)
        for points in (20001, 40001, 20001):
            sweep = oracle_mod._Sweeper(system, delta, state, RadialGrid(r_max=20.0, points=points))
            for energy in energies:
                u0, u1 = oracle_mod._series_start(system.a, delta, 0, energy, sweep.r0, sweep.r1)
                args = (sweep.w, energy, sweep.h, u0, u1)
                assert _numerov_py.count_nodes_sweep(*args) == _fresh_buffer_sweep(*args)
        assert len(solves) > 3 * len(energies)  # some sweeps rescaled and solved again

    def test_concurrent_threads_bit_identical(self):
        # each thread keeps its own buffers, so threads sweeping grids of
        # different sizes at once cannot write into one another's band
        cases = []
        for points, l in ((20001, 0), (40001, 1), (30001, 2), (20001, 1)):
            r = np.linspace(1e-6, 200.0, points)
            w = l * (l + 1) / (r * r) - 2.0 / r
            for energy in (-0.5 / (l + 1) ** 2, -50.0):
                cases.append((w, energy, r[1] - r[0], r[0] ** (l + 1), r[1] ** (l + 1)))
        expected = [_fresh_buffer_sweep(*args) for args in cases]
        results = {}

        def worker(k):
            order = cases[k:] + cases[:k]
            results[k] = [_numerov_py.count_nodes_sweep(*args) for _ in range(3) for args in order]

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
            assert results[k] == 3 * (expected[k:] + expected[:k])

    def test_rescaling_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in range(3):
                w, h, u0, u1 = _hydrogen_sweep_args(l)
                assert _numerov_py.count_nodes_sweep(w, -50.0, h, u0, u1)[0] == 0
            # Z=84 1s in 20 Bohr: sqrt(-2E) r_max ~ 1600, so sweeps near the level rescale
            system, state = AtomicSystem(84), QuantumState(0, 0)
            grid = RadialGrid(r_max=20.0, points=20001)
            _, nodes = oracle_mod._solve_on_grid(system, screening_delta(84, FA), state, grid)
            assert nodes == 0

    def test_node_count_steps_at_hydrogen_levels(self):
        # A = 1, l = 0, delta = 0: the k-th level is -1/(2 (k+1)^2)
        r = np.linspace(1e-6, 200.0, 20001)
        w = -2.0 / r
        h = r[1] - r[0]
        u0, u1 = r[0] * (1.0 - r[0]), r[1] * (1.0 - r[1])

        def sweep(energy):
            return _numerov_py.count_nodes_sweep(w, energy, h, u0, u1)

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
        # Z=84 1s: fourth order leaves ~3e-11 Ha between these two grids, so
        # a larger change is rounding; it must stay well below GRID_TOL
        system, state = AtomicSystem(84), QuantumState(0, 0)
        delta = screening_delta(84, FA)
        grid = RadialGrid(RadialGrid.for_state(system, state, delta).r_max, 40001)
        bracket = (-3183.5114, -3183.5113)
        e1, _ = oracle_mod._solve_on_grid(system, delta, state, grid, bracket)
        e2, _ = oracle_mod._solve_on_grid(system, delta, state, grid.halved(), bracket)
        assert abs(e2 - e1) < 0.1 * oracle_mod.GRID_TOL


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
        # seeded from the closed form: 13 sweeps (120k points) for H 1s and
        # 15 (128k) for Z=29 1s over the 4001-, 8001- and 16001-point grids
        work = _count_sweeps(monkeypatch)
        res = solve_bound_state(AtomicSystem(z), delta, QuantumState(0, 0))
        assert res.grid_converged
        assert work["sweeps"] <= 16
        assert work["points"] <= 200_000

    def test_near_critical_work(self, monkeypatch):
        # Z=5 2s lies 0.0101 Ha below zero; geometric bisection keeps Brent
        # from crowding towards E = 0 (22 sweeps over three grids, against
        # 32 unseeded with plain bisection)
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
        # deep energies where the outward solution rescales
        system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
        assert (oracle_mod._seed_bracket(system, delta, state) is not None) == seeded
        work = _count_sweeps(monkeypatch)
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
        sweep = oracle_mod._Sweeper(system, delta, state, RadialGrid.for_state(system, state, delta))
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
        res = solve_bound_state(AtomicSystem(1), 1.19, QuantumState(0, 0),
                                grid=RadialGrid(4000.0, 200001))
        assert res.nodes_found == 0
        assert -1e-6 < res.energy < 0.0

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
        assert not best.grid_converged
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
    def test_brent_matches_node_count_bisection(self, z, n, delta, r_max):
        system, state = AtomicSystem(z), QuantumState(n, 0)
        grid = RadialGrid(r_max=r_max, points=20001)
        energy, nodes = oracle_mod._solve_on_grid(system, delta, state, grid)
        assert nodes == n

        sweep = oracle_mod._Sweeper(system, delta, state, grid)
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


def _record_grid_solves(monkeypatch):
    """Record the bracket and the eigenvalue of every grid solve from here on."""
    brackets, energies = [], []
    solve = oracle_mod._solve_on_grid

    def recorded(system, delta, state, grid, bracket=None, tally=None):
        energy, nodes = solve(system, delta, state, grid, bracket, tally)
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
        # the raw eigenvalue on 256001 points, 64 times finer than the first
        # grid; it is itself about 1e-10 Ha off at Z=73 3s.  Unextrapolated,
        # the 40001-point value misses it by 3.5e-10 at Z=24 2s and the
        # 160001-point one by 5.6e-10 at Z=73 3s.
        system, state, delta = AtomicSystem(z), QuantumState(n, l), screening_delta(z, FA)
        res = solve_bound_state(system, delta, state)
        fine_grid = RadialGrid(RadialGrid.for_state(system, state, delta).r_max, 256001)
        bracket = (res.energy - 1e-7, res.energy + 1e-7)
        fine, nodes = oracle_mod._solve_on_grid(system, delta, state, fine_grid, bracket)
        assert nodes == n
        assert abs(res.energy - fine) <= 2e-10

    @pytest.mark.parametrize("z, n, l", [(73, 2, 0), (54, 2, 1)], ids=["z73_3s", "z54_3p"])
    def test_result_is_the_extrapolation(self, monkeypatch, z, n, l):
        # refinement stops at the first pair of successive extrapolations
        # within GRID_TOL; both levels' agreement lies above ENERGY_TOL
        _, energies = _record_grid_solves(monkeypatch)
        res = solve_bound_state(AtomicSystem(z), screening_delta(z, FA), QuantumState(n, l))
        x = _extrapolations(energies)
        changes = [abs(b - a) for a, b in zip(x, x[1:])]
        assert len(energies) >= 3
        assert res.grid_points == 4000 * 2 ** (len(energies) - 1) + 1
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
        system, grid = AtomicSystem(z), RadialGrid(r_max=r_max, points=20001)

        def solve(k, bracket=None):
            return oracle_mod._solve_on_grid(system, delta, QuantumState(k, 0), grid, bracket)

        energy, nodes = solve(n)
        bracket = _BRACKETS[label](energy, solve(n - 1)[0], solve(n + 1)[0])
        sweep = oracle_mod._Sweeper(system, delta, QuantumState(n, 0), grid)
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
        beta = psi.chi.beta

        def kinetic(r):
            dlog = (l + 1) / r - beta + (2.0 * c2 + 3.0 * c3 * r) * r
            return 0.5 * (psi(r) * dlog) ** 2

        def potential(r):
            return (l * (l + 1) / (2.0 * r * r) - system.a * np.exp(-delta * r) / r) * psi(r) ** 2

        opts = dict(limit=400, epsabs=1e-12, epsrel=1e-12)
        rayleigh = quad(kinetic, 0, psi.chi.r_max, **opts)[0] \
            + quad(potential, 0, psi.chi.r_max, **opts)[0]
        oracle = solve_bound_state(system, delta, state).energy
        assert oracle <= rayleigh + 1e-9
