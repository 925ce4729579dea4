"""Tests of the benchmark itself: its checks, its known-fault accounting and
its tracing.  Run with ``python -m pytest bench``."""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from references import fermi_amaldi_delta, reference_level  # noqa: E402


def run_round(workload, tracer=None):
    workload.prepare()
    outcome = workloads.Outcome()
    workload.run_round(workloads.Client(tracer), outcome)
    outcome.rounds = 1
    return outcome


@pytest.fixture(scope="module")
def reduced_spectrum():
    """Hydrogen, a K shell with a hypervirial-Pade row, an unbound probe and
    the known Z=5 2s fault: every spectrum check, in a few solves."""
    workload = workloads.Spectrum(seed=0)
    workload.commands = [
        (["verify", "--z", "1,3", "--state", "0,0", "--format", "json"], [(1, 0, 0), (3, 0, 0)]),
        (["verify", "--z", "4,5", "--state", "1,0", "--format", "json"], [(4, 1, 0), (5, 1, 0)]),
    ]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        outcome = run_round(workload, tracer)
    return workload, outcome, spans.layer_metrics(tracer, outcome.rounds)


def test_reduced_spectrum_counts_known_fault_without_aborting(reduced_spectrum):
    _, outcome, _ = reduced_spectrum
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (4, 1)
    assert outcome.known == [workloads.KNOWN_FAULTS[("spectrum", 5, 1, 0)]]


def test_spectrum_trace_sees_oracle_and_kernel(reduced_spectrum):
    _, _, metrics = reduced_spectrum
    assert metrics["kernel.sweeps"] > 0 and metrics["kernel.ns_per_point"] > 0
    assert metrics["oracle.grid_points"] > 0 and metrics["oracle.no_bound_ms_p50"] > 0
    assert metrics["oracle.wall_s"] <= metrics["oracle.busy_s"] + 1e-9
    assert metrics["wavefunctions.quad_calls"] == 0


def test_instrumentation_is_undone():
    import scipy.integrate
    import yukawa_atom.cli as cli
    import yukawa_atom.oracle as oracle

    before = (cli.solve_bound_state, oracle.solve_bound_state, scipy.integrate.quad)
    with spans.instrument(spans.Tracer()):
        assert cli.solve_bound_state is not before[0]
    assert (cli.solve_bound_state, oracle.solve_bound_state, scipy.integrate.quad) == before


def _row(level, energy, nodes=None, flag=""):
    z, n, l = level
    return {"z": z, "n": n, "l": l, "oracle_hartree": energy,
            "nodes": n if nodes is None else nodes, "flag": flag}


def test_wrong_levels_trip_each_spectrum_check(reduced_spectrum):
    workload, _, _ = reduced_spectrum
    h, k, unbound = (1, 0, 0), (3, 0, 0), (4, 1, 0)
    e_k = workload.refs[k]
    assert workload.check_level(h, _row(h, -0.5)) == []
    assert workload.check_level(k, _row(k, e_k)) == []
    assert workload.check_level(unbound, _row(unbound, None, flag="NO_BOUND_STATE")) == []

    assert "hydrogen" in workload.check_level(h, _row(h, -0.5 + 1e-6))[0]
    assert "outside" in workload.check_level(k, _row(k, -4.6))[0]
    assert "nodes" in workload.check_level(k, _row(k, e_k, nodes=1))[0]
    assert "reference solver" in workload.check_level(k, _row(k, e_k * (1 + 1e-5)))[0]
    assert "critical" in workload.check_level(unbound, _row(unbound, -0.01))[0]
    assert "reported" in workload.check_level(k, _row(k, None, flag="NO_BOUND_STATE"))[0]
    tampered = copy.copy(workload)
    tampered.hypervirial = {k: workload.hypervirial[k] * 1.002}
    assert "hypervirial" in tampered.check_level(k, _row(k, e_k))[0]


def test_reference_solver_finds_the_truncated_level():
    # The oracle gives -0.0101277 Ha for Z=5 2s in its 20-Bohr box.
    assert reference_level(5.0, fermi_amaldi_delta(5), 1, 0) == pytest.approx(-0.0101908, rel=1e-5)


@pytest.fixture(scope="module")
def tables_round():
    workload = workloads.Tables(seed=3)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        outcome = run_round(workload, tracer)
    return workload, outcome, spans.layer_metrics(tracer, outcome.rounds)


def test_tables_round_passes_every_check(tables_round):
    workload, outcome, metrics = tables_round
    assert outcome.problems == [] and outcome.failed == 0
    assert outcome.attempted == len(workload.commands) == 27
    kinds = {c[0] for c in workload.commands}
    assert kinds == {"table", "compare", "level"}
    assert any("--delta0" in c[3] for c in workload.commands)
    assert metrics["perturbation.calls"] > 0 and metrics["refdata.rows"] > 0
    assert metrics["kernel.sweeps"] == 0 and metrics["oracle.busy_s"] == 0


def _json_table(workload, shell):
    out = workload.warm_out[("table", "--shell", shell, "--z", "3..84", "--format", "json")]
    return json.loads(out)["rows"]


def test_wrong_outputs_trip_each_tables_check(tables_round):
    workload, _, _ = tables_round
    tables = {s: _json_table(workload, s) for s in ("E00", "E01", "E10", "E11")}
    assert workload._check_table("E01", "json", [], "", tables) == []

    unflagged = copy.deepcopy(tables)
    unflagged["E01"][0]["flag"] = ""
    assert "no flag" in workload._check_table("E01", "json", [], "", unflagged)[0]

    csv_argv = ("table", "--shell", "E00", "--z", "3..84", "--format", "csv")
    csv_out = workload.warm_out[csv_argv]
    assert workload._check_table("E00", "csv", [], csv_out, tables) == []
    assert workload._check_table("E00", "csv", [], csv_out.replace("3,0,0", "3,0,1", 1), tables)

    assert workload._check_table("E00", "table", [], "header\nrow\n", tables)

    warm_check = workloads._same_as_warm(workload.warm_out, list(csv_argv))
    assert warm_check(csv_out) == [] and warm_check(csv_out + " ")

    bad_compare = json.dumps({"summary": {"max_rel_diff": 2e-4}})
    assert workload._check_compare("E00", "json", [], bad_compare, tables)

    zero = ["level", "--z", "7", "--n", "1", "--l", "0", "--format", "json", "--delta0", "0"]
    good = json.dumps({"rows": [{"total_hartree": -6.125}]})
    wrong = json.dumps({"rows": [{"total_hartree": -6.124}]})
    assert workload._check_level((7, 1, 0), "json", zero, good, tables) == []
    assert workload._check_level((7, 1, 0), "json", zero, wrong, tables)
    plain = zero[:-2]
    assert workload._check_level((7, 1, 0), "json", plain, wrong, tables)


@pytest.fixture(scope="module")
def quadrature_round():
    workload = workloads.Quadrature(seed=5)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        outcome = run_round(workload, tracer)
    return workload, outcome, spans.layer_metrics(tracer, outcome.rounds)


def test_quadrature_round_passes_every_check(quadrature_round):
    workload, outcome, metrics = quadrature_round
    assert outcome.problems == [] and outcome.failed == 0
    assert {op[0] for op in workload.ops} == {"correction", "wavefunction"}
    assert outcome.attempted == len(workload.ops)
    # each correction re-normalises chi: two quad calls for the norm, one integral
    assert metrics["wavefunctions.corrections_per_quad_call"] == pytest.approx(1 / 3)
    assert metrics["cli.self_ms_p50"] == 0


def test_wrong_values_trip_each_quadrature_check(quadrature_round):
    workload, _, _ = quadrature_round
    correction = next(op for op in workload.ops if op[0] == "correction")
    ref = workload.refs[correction]
    assert workload.check_correction(correction, ref) == []
    assert workload.check_correction(correction, ref * (1 + 1e-9))

    wave = next(op for op in workload.ops if op[0] == "wavefunction")
    import numpy as np
    import yukawa_atom as ya

    z, n, l = wave[1:]
    values = np.asarray(ya.moderated_radial(ya.AtomicSystem(z), ya.QuantumState(n, l),
                                            fermi_amaldi_delta(z))(workload.refs[wave][0]))
    assert workload.check_norm(wave, values) == []
    assert workload.check_norm(wave, values * (1 + 1e-7))


def test_inputs_follow_the_seed():
    assert workloads.Spectrum(7).commands == workloads.Spectrum(7).commands
    assert workloads.Tables(7).commands == workloads.Tables(7).commands
    assert workloads.Quadrature(7).ops == workloads.Quadrature(7).ops
    assert workloads.Quadrature(7).ops != workloads.Quadrature(8).ops


def test_unexpected_failure_makes_run_incorrect():
    outcome = workloads.Outcome()
    outcome.op(0.1, ["wrong"], ("spectrum", 3, 0, 0))
    outcome.op(0.1, ["wrong"], ("spectrum", 5, 1, 0))
    assert outcome.failed == 2
    assert len(outcome.problems) == 1 and len(outcome.known) == 1
