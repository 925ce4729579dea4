"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 4 is asserted exactly as specified.  Its excited-state third-order
subset is expected to fail: the closed third-order expressions for n >= 1
extrapolate the nodeless-state algebra instead of evaluating the defining
integrals (see notes in the repository root and the pinned regression test
in test_wavefunctions.py).  All other criteria pass.
"""

import time

import numpy as np
import pytest

from yukawa_atom import (
    AtomicSystem,
    QuantumState,
    ReferenceSource,
    ScreeningModel,
    UnitSystem,
    correction_via_quadrature,
    coulomb_chi,
    energy_breakdown,
    load_reference,
    moderated_radial,
    moderating_u,
    screening_delta,
    solve_bound_state,
    to_kev,
)
from yukawa_atom.cli import main
from yukawa_atom.refdata import bundled_reference_path

FA = ScreeningModel()

#: eV per Hartree of the literature columns (hypervirial-Pade, shifted large-N)
#: of tables 1 and 3.  Inferred from the fit below, where exact eigenvalues
#: match those columns to their printed digit; the paper does not state it.
LITERATURE_HARTREE_EV = 27.196


def _report(criterion, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f} s]" if elapsed is not None else ""
    print(f"CRITERION {criterion}: {status}{timing} {detail}")


def _table_errors(shell, state):
    dataset = load_reference(bundled_reference_path(shell))
    rows = [r for r in dataset.rows if r.source == ReferenceSource.PRESENT_WORK]
    errors = {}
    for row in rows:
        computed = to_kev(
            energy_breakdown(float(row.z), state, screening_delta(row.z, FA)).total
        )
        errors[row.z] = abs(computed - row.energy_kev) / abs(row.energy_kev)
    return errors


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    errors = _table_errors("E00", QuantumState(0, 0))
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    ok = len(errors) == 22 and worst < 1e-4 and elapsed < 1.0
    _report(1, ok, f"K-shell E00, 22 rows, worst rel diff {worst:.2e}", elapsed)
    assert len(errors) == 22
    assert worst < 1e-4, f"worst relative difference {worst:.3e} at Z="\
        f"{max(errors, key=errors.get)}"
    assert elapsed < 1.0


def test_criterion_2_table2_reproduction():
    errors = _table_errors("E01", QuantumState(0, 1))
    worst = max(errors.values())
    ok = len(errors) == 16 and worst < 1e-4
    _report(2, ok, f"K-shell E01, 16 rows, worst rel diff {worst:.2e}")
    assert len(errors) == 16
    assert worst < 1e-4


def test_criterion_3_table3_reproduction():
    errors = _table_errors("E10", QuantumState(1, 0))
    worst = max(errors.values())
    ok = len(errors) == 16 and worst < 1e-4
    _report(3, ok, f"L-shell E10, 16 rows, worst rel diff {worst:.2e}")
    assert len(errors) == 16
    assert worst < 1e-4


def test_criterion_4_quadrature_closed_form_theorem():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for n in (0, 1, 2):
        for l in (0, 1, 2):
            state = QuantumState(n, l)
            for a in (1.0, 3.0, 10.0):
                system = AtomicSystem(max(1, int(a)), a=a)
                for ratio in (0.05, 0.2, 0.5):
                    delta = ratio * a
                    for order in (1, 2, 3):
                        want = getattr(energy_breakdown(a, state, delta, order), f"e{order}")
                        got = correction_via_quadrature(system, state, delta, order)
                        rel = abs(got - want) / abs(want)
                        checked += 1
                        if rel > 1e-8:
                            failures.append((n, l, a, ratio, order, rel))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    detail = f"{checked} comparisons, {len(failures)} above 1e-8"
    if failures:
        orders = sorted({f[4] for f in failures})
        ns = sorted({f[0] for f in failures})
        detail += (
            f" (all failures at order {orders} with n in {ns}: the closed "
            "third-order forms for excited states are a pattern "
            "extrapolation, not the defining integrals; "
            "known upstream defect, see notes)"
        )
    _report(4, ok, detail, elapsed)
    assert elapsed < 30.0
    assert not failures, detail


def test_criterion_5_oracle_hydrogenic_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in range(4):
        for l in range(4 - n):
            state = QuantumState(n, l)
            if state.big_n > 4:
                continue
            res = solve_bound_state(AtomicSystem(1), 0.0, state)
            exact = -0.5 / state.big_n**2
            worst = max(worst, abs((res.energy - exact) / exact))
            assert res.nodes_found == n
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 10.0
    _report(5, ok, f"{count} hydrogenic levels, worst rel diff {worst:.2e}", elapsed)
    assert worst < 1e-7
    assert elapsed < 10.0


def test_criterion_6_oracle_vs_perturbation_k_shell():
    t0 = time.perf_counter()
    worst = 0.0
    for z in (14, 29, 54, 84):
        delta = screening_delta(z, FA)
        state = QuantumState(0, 0)
        pert = energy_breakdown(float(z), state, delta).total
        oracle = solve_bound_state(AtomicSystem(z), delta, state).energy
        worst = max(worst, abs(pert - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    ok = worst < 1.5e-3
    _report(6, ok, f"K shell Z in (14, 29, 54, 84), worst rel diff {worst:.2e}", elapsed)
    assert worst < 1.5e-3


def test_criterion_7_breakdown_reproduction(capsys):
    z, state = 9, QuantumState(1, 0)
    delta = screening_delta(z, FA)
    pert_kev = to_kev(energy_breakdown(float(z), state, delta).total)
    oracle = solve_bound_state(AtomicSystem(z), delta, state).energy
    rel = abs(to_kev(oracle) - pert_kev) / abs(to_kev(oracle))
    code = main(["verify", "--z", "9", "--state", "1,0", "--format", "csv"])
    cli_out = capsys.readouterr().out
    flagged = "BREAKDOWN" in cli_out
    ok = (
        abs(pert_kev - (-0.042259)) / 0.042259 < 1e-4
        and abs(to_kev(oracle) - (-0.02206)) < 2e-3
        and rel > 0.3
        and code == 0
        and flagged
    )
    with capsys.disabled():
        _report(7, ok, f"Z=9 (n=1, l=0): pert {pert_kev:.6f} keV vs oracle "
                       f"{to_kev(oracle):.6f} keV, rel diff {rel:.3f}, CLI flag "
                       f"{'present' if flagged else 'missing'}")
    assert abs(pert_kev - (-0.042259)) / 0.042259 < 1e-4
    assert abs(to_kev(oracle) - (-0.02206)) < 2e-3
    assert rel > 0.3
    assert flagged


def test_criterion_8_specialization_suite():
    worst = 0.0
    for n, big_n_of_l in ((0, lambda l: l + 1), (1, lambda l: l + 2), (2, lambda l: l + 3)):
        for l in (0, 1, 2, 3):
            bn = float(big_n_of_l(l))
            bl = float(l * (l + 1))
            state = QuantumState(n, l)
            for delta in (0.1, 0.5, 1.0):
                for a in (1.0, 3.0, 10.0):
                    spec1 = -(3 * bn**2 - bl) * delta**2 / 4
                    spec2 = (
                        bn**2 * (5 * bn**2 - 3 * bl + 1) * delta**3 / (12 * a)
                        - bn**4 * (5 * bn**2 - 3 * bl + 1) * delta**4 / (16 * a**2)
                    )
                    spec3 = (
                        -bn**2 * (5 * bn**2 - 3 * bl) * (5 * bn**2 - 3 * bl + 1) * delta**4 / (96 * a**2)
                        + bn**4 * (5 * bn**2 - 3 * bl + 1) * (9 * bn**2 - 5 * bl) * delta**5 / (48 * a**3)
                        - bn**6 * (5 * bn**2 - 3 * bl + 1) * (9 * bn**2 - 5 * bl) * delta**6 / (64 * a**4)
                    )
                    b = energy_breakdown(a, state, delta)
                    for got, want in ((b.e1, spec1), (b.e2, spec2), (b.e3, spec3)):
                        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    ok = worst < 1e-12
    _report(8, ok, f"general vs per-state encodings, worst rel diff {worst:.2e}")
    assert worst < 1e-12


def test_criterion_9_scaling_property():
    worst = 0.0
    for s in (2.0, 10.0):
        for n, l in ((0, 0), (1, 0), (0, 1), (2, 2)):
            state = QuantumState(n, l)
            base = energy_breakdown(3.0, state, 0.9, order=3)
            scaled = energy_breakdown(3.0 * s, state, 0.9 * s, order=3)
            for name in ("e0", "shift_const", "e1", "e2", "e3", "total"):
                b, sc = getattr(base, name), getattr(scaled, name)
                worst = max(worst, abs(sc - s * s * b) / max(abs(s * s * b), 1e-300))
    ok = worst < 1e-12
    _report(9, ok, f"(A, delta) -> (sA, s delta) degree-2 homogeneity, worst {worst:.2e}")
    assert worst < 1e-12


def test_criterion_10_wavefunction_suite():
    t0 = time.perf_counter()
    # norms
    from scipy.integrate import quad

    worst_norm = 0.0
    for a, n, l in ((1.0, 0, 0), (3.0, 0, 1), (1.0, 2, 0), (10.0, 1, 2)):
        chi = coulomb_chi(AtomicSystem(max(1, int(a)), a=a), QuantumState(n, l))
        val, _ = quad(lambda r: chi(r) ** 2, 0.0, chi.r_max,
                      limit=300, epsabs=1e-12, epsrel=1e-12)
        worst_norm = max(worst_norm, abs(val - 1.0))
    psi = moderated_radial(AtomicSystem(3), QuantumState(0, 0), screening_delta(3, FA))
    val, _ = quad(lambda r: psi(r) ** 2, 0.0, psi.r_max,
                  limit=300, epsabs=1e-12, epsrel=1e-12)
    worst_norm = max(worst_norm, abs(val - 1.0))

    # node counts
    nodes_ok = True
    for n in range(4):
        for l in (0, 1, 2):
            chi = coulomb_chi(AtomicSystem(2), QuantumState(n, l))
            r = np.linspace(1e-9, chi.r_max, 30001)
            vals = chi(r)
            signs = np.sign(vals[np.abs(vals) > 1e-14])
            nodes_ok = nodes_ok and int(np.sum(signs[1:] != signs[:-1])) == n

    # moderating factor limit
    r = np.linspace(0.0, 20.0, 201)
    u = moderating_u(1.0, QuantumState(0, 0), 1e-6, r)
    u_dev = float(np.max(np.abs(u - 1.0)))

    elapsed = time.perf_counter() - t0
    ok = worst_norm < 1e-8 and nodes_ok and u_dev < 1e-6
    _report(10, ok, f"norms within {worst_norm:.1e}, nodes exact: {nodes_ok}, "
                    f"|u-1| at delta=1e-6: {u_dev:.1e}", elapsed)
    assert worst_norm < 1e-8
    assert nodes_ok
    assert u_dev < 1e-6


def _half_printed_digit(text):
    """Half a unit of the last digit printed in ``text``."""
    return 0.5 * 10.0 ** -len(text.partition(".")[2])


def test_literature_columns_reproduced_by_eigensolver():
    """Exact eigenvalues of the Fermi-Amaldi model, at the literature's unit,
    reproduce every hypervirial-Pade row of tables 1 and 3 to half a printed
    digit.  Table 1's Z=59 1s row (-41.56612) is the outlier; its shifted
    large-N row (-41.56117) is the one the exact value matches."""
    t0 = time.perf_counter()
    units = UnitSystem(LITERATURE_HARTREE_EV)
    misses = []
    checked = 0
    for shell, state in (("E00", QuantumState(0, 0)), ("E10", QuantumState(1, 0))):
        dataset = load_reference(bundled_reference_path(shell))
        for row in dataset.rows:
            if row.source != ReferenceSource.HYPERVIRIAL_PADE:
                continue
            if (row.z, shell) == (59, "E00"):
                row = dataset.get(59, "E00", ReferenceSource.SHIFTED_N)
            exact = solve_bound_state(AtomicSystem(row.z), screening_delta(row.z, FA), state)
            kev = to_kev(exact.energy, units)
            checked += 1
            if abs(kev - row.energy_kev) > _half_printed_digit(row.energy_text):
                misses.append((shell, row.z, row.source.value, row.energy_text, kev))
    elapsed = time.perf_counter() - t0
    print(f"LITERATURE COLUMNS: {'FAIL' if misses else 'PASS'} [{elapsed:.2f} s] "
          f"{checked} rows at {LITERATURE_HARTREE_EV} eV/Ha, {len(misses)} off by more than "
          f"half a printed digit")
    assert checked == 38
    assert not misses, misses
