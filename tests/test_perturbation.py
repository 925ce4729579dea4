"""Closed-form energy tests.

Expected values tagged 'frozen' were computed independently with
high-precision arithmetic (mpmath, 25 digits) from the defining formulas.
"""

import math
import re
import sys

import numpy as np
import pytest

from yukawa_atom import (
    AtomicSystem,
    QuantumState,
    ScreeningLaw,
    ScreeningModel,
    UnitSystem,
    correction_via_quadrature,
    coulomb_energy,
    energy_breakdown,
    moderated_radial,
    moderating_u,
    screening_delta,
    solve_bound_state,
    superpotential_w1,
    superpotential_w2,
    to_kev,
)

FA = ScreeningModel(variant=ScreeningLaw.FERMI_AMALDI, delta0=0.98)
TF = ScreeningModel(variant=ScreeningLaw.THOMAS_FERMI, delta0=0.98)

# delta literal reused by several cases below (its own test freezes the
# precise value of screening_delta at Z=3)
DELTA_Z3 = 1.078630


class TestScreeningDelta:
    def test_fermi_amaldi_vanishes_at_hydrogen(self):
        assert screening_delta(1, FA) == 0.0

    def test_z3_fermi_amaldi(self):
        # frozen: 0.98 * 3^(1/3) * (2/3)^(2/3) at 25 digits
        assert screening_delta(3, FA) == pytest.approx(1.07862956797, abs=1e-9)

    def test_z3_thomas_fermi(self):
        # frozen: 0.98 * 3^(1/3)
        assert screening_delta(3, TF) == pytest.approx(1.4134045789, abs=1e-9)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            screening_delta(0, FA)
        with pytest.raises(ValueError):
            screening_delta(-2, TF)

    def test_fermi_amaldi_below_thomas_fermi(self):
        for z in (2, 10, 50, 84):
            assert screening_delta(z, FA) < screening_delta(z, TF)


class TestCoulombEnergy:
    @pytest.mark.parametrize(
        "a, n, l, expected",
        [
            (3.0, 0, 0, -4.5),
            (1.0, 1, 0, -0.125),
            (29.0, 0, 1, -105.125),
            (1.3e154, 0, 0, -8.449999999999999e307),  # A^2 just below overflow
        ],
    )
    def test_hydrogenic_values(self, a, n, l, expected):
        assert coulomb_energy(a, QuantumState(n, l)) == expected

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            coulomb_energy(0.0, QuantumState(0, 0))

    @pytest.mark.parametrize("a", [1.4e154, 1e200, sys.float_info.max])
    def test_refuses_energy_past_float_range(self, a):
        # A^2 overflows past about 1.34e154, where E0 read -inf
        with pytest.raises(ValueError, match=re.escape(
                f"coupling strength A={a} puts the Coulomb energy of the state n=0 l=0 "
                "outside the float range")):
            coulomb_energy(a, QuantumState(0, 0))


class TestOrderShifts:
    """Each order's correction, read from the breakdown's e1, e2 and e3."""

    def test_first_order_zero_screening(self):
        assert energy_breakdown(3.0, QuantumState(0, 0), 0.0).e1 == 0.0

    def test_first_order_frozen(self):
        # frozen: -(3/4) * 1.078630^2
        assert energy_breakdown(3.0, QuantumState(0, 0), DELTA_Z3).e1 == pytest.approx(
            -0.872582007675, rel=1e-10
        )

    def test_first_order_n1(self):
        assert energy_breakdown(1.0, QuantumState(1, 0), 1.0).e1 == pytest.approx(-3.0, rel=1e-14)

    def test_second_order_zero_screening(self):
        assert energy_breakdown(3.0, QuantumState(0, 0), 0.0).e2 == 0.0

    def test_second_order_frozen(self):
        # frozen: (6/36) d^3 - (6/144) d^4 at d = 1.078630
        assert energy_breakdown(3.0, QuantumState(0, 0), DELTA_Z3).e2 == pytest.approx(
            0.152754076496, rel=1e-10
        )

    def test_second_order_hand_case(self):
        # N = 2, L = 2: 4*15*0.001/12 - 16*15*0.0001/16
        assert energy_breakdown(1.0, QuantumState(0, 1), 0.1).e2 == pytest.approx(
            0.0035, rel=1e-12
        )

    def test_third_order_zero_screening(self):
        assert energy_breakdown(3.0, QuantumState(0, 0), 0.0).e3 == 0.0

    def test_third_order_frozen(self):
        assert energy_breakdown(3.0, QuantumState(0, 0), DELTA_Z3).e3 == pytest.approx(
            -0.00256980758462, rel=1e-10
        )

    def test_third_order_hand_case(self):
        assert energy_breakdown(2.0, QuantumState(0, 0), 0.5).e3 == pytest.approx(
            -0.00131225585938, rel=1e-10
        )


class TestTotalEnergy:
    def test_z3_k_shell_matches_reference(self):
        b = energy_breakdown(3, QuantumState(0, 0), screening_delta(3, FA), order=3)
        assert b.total == pytest.approx(-1.98650850392, rel=1e-10)  # frozen
        assert to_kev(b.total) == pytest.approx(-0.05405687, rel=1e-4)

    def test_z84_k_shell_matches_reference(self):
        b = energy_breakdown(84, QuantumState(0, 0), screening_delta(84, FA), order=3)
        assert to_kev(b.total) == pytest.approx(-86.629718, rel=1e-4)

    def test_zero_screening_is_pure_coulomb(self):
        model = ScreeningModel(delta0=0.0)
        b = energy_breakdown(5, QuantumState(0, 0), screening_delta(5, model), order=3)
        assert b.total == -12.5
        assert b.shift_const == b.e1 == b.e2 == b.e3 == 0.0

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_order_semantics(self, order):
        b = energy_breakdown(29, QuantumState(0, 0), screening_delta(29, FA), order=order)
        included = [b.e0]
        if order >= 1:
            included += [b.shift_const, b.e1]
        if order >= 2:
            included.append(b.e2)
        if order >= 3:
            included.append(b.e3)
        assert b.total == pytest.approx(sum(included), rel=1e-15)
        if order == 0:
            assert b.shift_const == 0.0
        if order < 2:
            assert b.e2 == 0.0
        if order < 3:
            assert b.e3 == 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            energy_breakdown(3, QuantumState(0, 0), screening_delta(3, FA), order=4)

    def test_series_suspect_flag(self):
        # heavily screened excited state: corrections dominate
        assert energy_breakdown(9, QuantumState(1, 0), screening_delta(9, FA)).series_suspect
        # deep K shell: corrections are tiny next to the Coulomb term
        assert not energy_breakdown(29, QuantumState(0, 0), screening_delta(29, FA)).series_suspect


#: (e1, e2, e3, total) in Hartree at the Fermi-Amaldi delta, as the closed
#: forms round them: a reassociation of any formula moves some of these.
PINNED_TERMS = {
    (3, "E00"): (-0.8725813086779937, 0.15275391553672596,
                 -0.0025698146926351924, -1.9865085039171682),
    (3, "E01"): (-2.908604362259979, -0.16445671186429545,
                 -1.868744663305299, -2.8309170335128386),
    (3, "E10"): (-3.4903252347119746, -0.2302393966100138,
                 -3.7034740725994766, -5.313150000004731),
    (3, "E11"): (-7.271510905649947, -17.906698943501333,
                 -391.7888151652936, -414.23113631052814),
    (29, "E00"): (-6.488218366026057, 0.40533009784761154,
                  -0.018427585259205032, -341.30503499799494),
    (29, "E01"): (-21.62739455342019, 3.0521837949984016,
                  0.037657873812627085, -38.36627202916652),
    (29, "E10"): (-25.95287346410423, 4.2730573129977625,
                  0.02508162011306503, -41.483453675550756),
    (29, "E11"): (-54.06848638355047, 8.301930935213282,
                  0.6277950255405393, -6.564701789576226),
    (84, "E00"): (-13.596632123269542, 0.44199124725098976,
                  -0.012000551633472741, -3183.5116190727017),
    (84, "E01"): (-45.322107077565136, 3.8959090567062544,
                  -0.14730645530504916, -565.9184821212139),
    (84, "E10"): (-54.38652849307817, 5.454272679388757,
                  -0.3106284033477398, -573.5878618620872),
    (84, "E11"): (-113.30526769391285, 18.1354201822011,
                  0.6315037237617154, -128.883321433),
}

SHELL_STATES = {"E00": (0, 0), "E01": (0, 1), "E10": (1, 0), "E11": (1, 1)}


class TestBitIdentity:
    @pytest.mark.parametrize("z, shell", list(PINNED_TERMS))
    def test_pinned_terms(self, z, shell):
        b = energy_breakdown(float(z), QuantumState(*SHELL_STATES[shell]), screening_delta(z, FA))
        assert (b.e1, b.e2, b.e3, b.total) == PINNED_TERMS[z, shell]

    @pytest.mark.parametrize("n, l", [(n, l) for n in range(5) for l in range(5)])
    @pytest.mark.parametrize("a, delta", [(1.0, 0.0), (3.0, DELTA_Z3), (29.0, 2.5),
                                          (84.0, 3.9), (0.37, 0.11), (1.0, 1.7)])
    def test_terms_are_the_shift_functions(self, n, l, a, delta):
        # at every order the breakdown holds the written-out shift functions
        # of the orders it reads and 0.0 above, and a breakdown cut at a
        # lower order holds the same bits as the full one
        state = QuantumState(n, l)
        full = energy_breakdown(a, state, delta, 3)
        for order in range(4):
            b = energy_breakdown(a, state, delta, order)
            assert b.e0 == coulomb_energy(a, state)
            assert b.shift_const == (a * delta if order else 0.0)
            shifts = (b.e1, b.e2, b.e3)
            assert list(map(_bits, shifts)) == list(map(_bits, _order_terms(a, n, l, delta, order)[2:]))
            assert shifts[:order] == (full.e1, full.e2, full.e3)[:order]

    def test_power_of_n_past_float_range_only_at_the_order_reading_it(self):
        # N = 1e60: N^6 leaves the float range and the order-2 products
        # overflow, but the first order stays finite
        state = QuantumState(10**60, 0)
        b = energy_breakdown(1.0, state, 1.0, 1)
        assert math.isfinite(b.total) and b.e1 == _first(1.0, 10**60, 0, 1.0)
        for order in (2, 3):
            with pytest.raises(ValueError, match=f"overflows the order-{order} energy"):
                energy_breakdown(1.0, state, 1.0, order)


# The closed forms written out whole, as the module evaluated them before
# it cached each state's factors: the cached prefixes must round every term
# to these bits.

def _coulomb(a, n, l):
    big_n = n + l + 1
    return -a * a / (2.0 * big_n * big_n)


def _first(a, n, l, delta):
    big_n = float(n + l + 1)
    return -(3.0 * big_n**2 - l * (l + 1)) * delta**2 / 4.0


def _second(a, n, l, delta):
    big_n = float(n + l + 1)
    bracket = 5.0 * big_n**2 - 3.0 * (l * (l + 1)) + 1.0
    return (
        big_n**2 * bracket * delta**3 / (12.0 * a)
        - big_n**4 * bracket * delta**4 / (16.0 * a * a)
    )


def _third(a, n, l, delta):
    big_n = float(n + l + 1)
    big_l = float(l * (l + 1))
    b1 = 5.0 * big_n**2 - 3.0 * big_l
    b2 = b1 + 1.0
    b3 = 9.0 * big_n**2 - 5.0 * big_l
    return (
        -big_n**2 * b1 * b2 * delta**4 / (96.0 * a**2)
        + big_n**4 * b2 * b3 * delta**5 / (48.0 * a**3)
        - big_n**6 * b2 * b3 * delta**6 / (64.0 * a**4)
    )


_WRITTEN_OUT_TERMS = (_first, _second, _third)


def _order_terms(a, n, l, delta, order):
    """(e0, A delta, e1, e2, e3) of the written-out forms, each correction
    evaluated only if ``order`` reads it, as a breakdown stores them."""
    terms = [_coulomb(a, n, l), a * delta if order else 0.0, 0.0, 0.0, 0.0]
    for k, term in enumerate(_WRITTEN_OUT_TERMS[:order]):
        terms[2 + k] = term(a, n, l, delta)
    return terms


def _bits(x):
    return x.hex()


def _seeded_grid(count=3000, seed=20261020):
    """(A, delta, n, l, order): small states, and n or l up to 1e60.  delta
    spans 1e-40 to 12 so that at a large N each monomial of a correction
    leads at some delta/A, where a factor's last bit shows in the term."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, l = (int(rng.integers(0, 7)) if rng.random() < 0.5
                else int(10 ** rng.uniform(0, 60)) for _ in range(2))
        delta = 0.0 if rng.random() < 0.05 else float(10 ** rng.uniform(-40, 1.08))
        yield float(10 ** rng.uniform(-2, 3)), delta, n, l, int(rng.integers(0, 4))


class TestFactors:
    """The per-state factors give the written-out expressions bit for bit."""

    def test_breakdown_is_the_written_out_forms(self):
        raised = compared = 0
        for a, delta, n, l, order in _seeded_grid():
            try:
                want = _order_terms(a, n, l, delta, order)
            except OverflowError:
                want = None
            if want is None or not math.isfinite(sum(want)):
                with pytest.raises(ValueError, match=f"overflows the order-{order} energy"):
                    energy_breakdown(a, QuantumState(n, l), delta, order)
                raised += 1
                continue
            b = energy_breakdown(a, QuantumState(n, l), delta, order)
            got = [b.e0, b.shift_const, b.e1, b.e2, b.e3]
            assert list(map(_bits, got)) == list(map(_bits, want)), (a, delta, n, l, order)
            assert _bits(b.total) == _bits(want[0] + want[1] + want[2] + want[3] + want[4])
            compared += 1
        assert raised > 100 and compared > 1000

    @pytest.mark.parametrize("k, shift", [(1, "first_order_shift"), (2, "second_order_shift"),
                                          (3, "third_order_shift")])
    def test_shifts_are_the_written_out_terms(self, k, shift):
        # the order-k shift alone, read from a breakdown cut at order k: the
        # written-out term's bits, or the breakdown's ValueError where that
        # term leaves the float range
        raised = 0
        for a, delta, n, l, _ in _seeded_grid(1000, seed=k):
            state = QuantumState(n, l)
            try:
                want = _WRITTEN_OUT_TERMS[k - 1](a, n, l, delta)
            except OverflowError:
                want = math.inf
                raised += 1
            if not math.isfinite(want):
                with pytest.raises(ValueError, match=f"overflows the order-{k} energy"):
                    energy_breakdown(a, state, delta, k)
                continue
            got = getattr(energy_breakdown(a, state, delta, k), f"e{k}")
            assert _bits(got) == _bits(want), (shift, a, delta, n, l)
        # with N below 1e61 only N^6 can leave the float range as a power
        assert (raised > 0) == (k == 3)

    def test_coulomb_term_is_the_written_out_form(self):
        for a, _, n, l, _ in _seeded_grid(500):
            want = _coulomb(a, n, l)
            assert _bits(coulomb_energy(a, QuantumState(n, l))) == _bits(want)


class TestToKev:
    def test_conversion_constant(self):
        assert to_kev(-1.0) == pytest.approx(-0.027212, rel=1e-12)

    def test_zero(self):
        assert to_kev(0.0) == 0.0

    def test_product(self):
        assert to_kev(-1.98632) == pytest.approx(-0.05405, abs=1e-5)

    def test_custom_units(self):
        assert to_kev(-1.0, UnitSystem(hartree_to_ev=27.2114)) == pytest.approx(
            -0.0272114, rel=1e-12
        )

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            UnitSystem(hartree_to_ev=0.0)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError, match="is not a finite keV value"):
            to_kev(-4.0, UnitSystem(hartree_to_ev=1e308))


class TestCoulombLimit:
    @pytest.mark.parametrize("a", [1.0, 3.0, 17.5])
    @pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (0, 2), (2, 1)])
    def test_delta_zero_reduces_exactly(self, a, n, l):
        state = QuantumState(n, l)
        b = energy_breakdown(a, state, 0.0, order=3)
        assert b.total == coulomb_energy(a, state)  # bitwise


# Independent encodings of the specialized per-state formulas: the ground,
# first and second radially excited levels written out with their explicit
# principal-like indices N0 = l+1, N1 = l+2, N2 = l+3.

def _specialized(n, l, a, d):
    big_n = (l + 1, l + 2, l + 3)[n]
    big_l = l * (l + 1)
    e1 = -(3 * big_n**2 - big_l) * d**2 / 4
    e2 = (
        big_n**2 * (5 * big_n**2 - 3 * big_l + 1) * d**3 / (12 * a)
        - big_n**4 * (5 * big_n**2 - 3 * big_l + 1) * d**4 / (16 * a**2)
    )
    e3 = (
        -big_n**2 * (5 * big_n**2 - 3 * big_l) * (5 * big_n**2 - 3 * big_l + 1) * d**4 / (96 * a**2)
        + big_n**4 * (5 * big_n**2 - 3 * big_l + 1) * (9 * big_n**2 - 5 * big_l) * d**5 / (48 * a**3)
        - big_n**6 * (5 * big_n**2 - 3 * big_l + 1) * (9 * big_n**2 - 5 * big_l) * d**6 / (64 * a**4)
    )
    return e1, e2, e3


class TestSpecializationConsistency:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("a", [1.0, 3.0, 10.0])
    def test_general_formulas_specialize(self, n, l, delta, a):
        state = QuantumState(n, l)
        s1, s2, s3 = _specialized(n, l, a, delta)
        b = energy_breakdown(a, state, delta)
        assert b.e1 == pytest.approx(s1, rel=1e-12)
        assert b.e2 == pytest.approx(s2, rel=1e-12)
        assert b.e3 == pytest.approx(s3, rel=1e-12)


class TestSignStructure:
    @pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (0, 1), (2, 2)])
    @pytest.mark.parametrize("a", [1.0, 5.0])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0, 2.5])
    def test_first_order_never_positive(self, n, l, a, delta):
        assert energy_breakdown(a, QuantumState(n, l), delta).e1 <= 0.0

    @pytest.mark.parametrize("n, l", [(0, 0), (1, 1), (0, 2)])
    @pytest.mark.parametrize("a", [1.0, 4.0])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.99])
    def test_second_order_positive_below_threshold(self, n, l, a, frac):
        state = QuantumState(n, l)
        delta = frac * 4.0 * a / (3.0 * state.big_n**2)
        assert energy_breakdown(a, state, delta).e2 >= 0.0

    @pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (1, 2)])
    def test_second_order_monomial_signs(self, n, l):
        a, delta = 2.0, 0.7
        state = QuantumState(n, l)
        big_n = float(state.big_n)
        bracket = 5.0 * big_n**2 - 3.0 * state.big_l + 1.0
        positive = big_n**2 * bracket * delta**3 / (12.0 * a)
        negative = -(big_n**4) * bracket * delta**4 / (16.0 * a * a)
        assert positive >= 0.0
        assert negative <= 0.0
        assert energy_breakdown(a, state, delta).e2 == pytest.approx(
            positive + negative, rel=1e-14
        )


class TestScalingLaw:
    @pytest.mark.parametrize("s", [2.0, 10.0])
    @pytest.mark.parametrize("n, l", [(0, 0), (1, 1), (2, 0)])
    def test_terms_scale_quadratically(self, s, n, l):
        a, delta = 3.0, 0.8
        state = QuantumState(n, l)
        base = energy_breakdown(a, state, delta, order=3)
        scaled = energy_breakdown(s * a, state, s * delta, order=3)
        for name in ("e0", "shift_const", "e1", "e2", "e3", "total"):
            want = s * s * getattr(base, name)
            assert getattr(scaled, name) == pytest.approx(want, rel=1e-12), name


class TestValidation:
    def test_atomic_system_defaults_coupling_to_z(self):
        assert AtomicSystem(29).a == 29.0

    @pytest.mark.parametrize("z", [2.5, 29.0, np.float64(29.0), "29", None])
    def test_non_integer_atomic_number_refused(self, z):
        # unchecked, AtomicSystem(2.5) built a = 2.5 and screening_delta(2.5)
        # returned 0.946; a non-integer coupling belongs in ``a``
        with pytest.raises(TypeError, match="atomic number must be an integer"):
            AtomicSystem(z)
        with pytest.raises(TypeError, match="atomic number must be an integer"):
            screening_delta(z, FA)

    @pytest.mark.parametrize("z", [np.int64(29), np.int32(29), np.uint8(29)])
    def test_numpy_integer_atomic_number_accepted(self, z):
        assert AtomicSystem(z).a == 29.0
        assert screening_delta(z, FA) == screening_delta(29, FA)

    def test_atomic_system_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AtomicSystem(0)
        with pytest.raises(ValueError):
            AtomicSystem(3, a=-1.0)

    def test_quantum_state_rejects_negative(self):
        with pytest.raises(ValueError):
            QuantumState(-1, 0)
        with pytest.raises(ValueError):
            QuantumState(0, -2)

    @pytest.mark.parametrize("variant", ["fermi_amaldi", "thomas_fermi", "bogus", None])
    def test_screening_model_rejects_variant_not_a_law(self, variant):
        # screening_delta applies the Fermi-Amaldi factor only to the enum
        # member, so "fermi_amaldi" would give Z=29 3.0109 in place of 2.9413
        with pytest.raises(ValueError, match="variant must be a ScreeningLaw"):
            ScreeningModel(variant=variant)

    def test_screening_model_rejects_negative_delta0(self):
        with pytest.raises(ValueError):
            ScreeningModel(delta0=-0.1)

    def test_quantum_state_derived_indices(self):
        st = QuantumState(2, 1)
        assert st.big_n == 4
        assert st.big_l == 2

    def test_breakdown_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            energy_breakdown(1.0, QuantumState(0, 0), -0.5)


#: The three routes to a level's energy, at Z=29 with the Fermi-Amaldi delta.
STATE_ROUTES = {
    "energy_breakdown": lambda st: energy_breakdown(29.0, st, screening_delta(29, FA)).total,
    "solve_bound_state":
        lambda st: solve_bound_state(AtomicSystem(29), screening_delta(29, FA), st).energy,
    "correction_via_quadrature":
        lambda st: correction_via_quadrature(AtomicSystem(29), st, screening_delta(29, FA), 2),
}


class TestIntegerQuantumNumbers:
    @pytest.mark.parametrize("route", STATE_ROUTES)
    @pytest.mark.parametrize("n, l", [(0.5, 0), (1.0, 0), (0, np.float64(1.0)), ("1", 0)])
    def test_non_integer_refused_before_any_route(self, route, n, l):
        # unchecked, 0.5 gives a closed-form energy, the eigensolver's "no
        # bound state with 0.5 nodes" and a TypeError inside the quadrature
        with pytest.raises(TypeError, match="quantum numbers must be integers"):
            STATE_ROUTES[route](QuantumState(n, l))

    @pytest.mark.parametrize("route", STATE_ROUTES)
    def test_numpy_integers_give_the_same_energy(self, route):
        numpy_state = QuantumState(np.int64(1), np.int32(0))
        assert STATE_ROUTES[route](numpy_state) == STATE_ROUTES[route](QuantumState(1, 0))


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    """NaN fails every ordered comparison, so each range check must also
    require a finite value."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_screening_model(self, value):
        with pytest.raises(ValueError, match="delta0 must be finite"):
            ScreeningModel(delta0=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_unit_system(self, value):
        with pytest.raises(ValueError, match="hartree_to_ev must be finite"):
            UnitSystem(hartree_to_ev=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_atomic_system_coupling(self, value):
        with pytest.raises(ValueError, match="coupling strength must be finite"):
            AtomicSystem(3, a=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_coulomb_energy_coupling(self, value):
        with pytest.raises(ValueError, match="coupling strength must be finite"):
            coulomb_energy(value, QuantumState(0, 0))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_breakdown_delta(self, value):
        with pytest.raises(ValueError, match="screening parameter must be finite"):
            energy_breakdown(3.0, QuantumState(0, 0), value)

    @pytest.mark.parametrize("delta, order", [(1e200, 1), (1e200, 3), (1.5e51, 3)])
    def test_breakdown_overflow(self, delta, order):
        # 1e200 overflows delta**2 (OverflowError); 1.5e51 takes e3 to -inf
        # through float products alone
        with pytest.raises(ValueError, match=re.escape(f"screening parameter {delta} overflows")):
            energy_breakdown(3.0, QuantumState(0, 0), delta, order)

    @pytest.mark.parametrize("a, delta, order", [
        (1e-170, 5e-171, 2), (1e-100, 5e-101, 3), (5e-324, 0.5, 3),
    ])
    def test_breakdown_divisor_underflow(self, a, delta, order):
        # a * a (order 2) or a**4 (order 3) underflows to zero in a divisor:
        # the same ValueError as an overflow, not a ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(f"screening parameter {delta} overflows")):
            energy_breakdown(a, QuantumState(0, 0), delta, order)


#: Every route that takes a screening parameter, called at Z=3 1s.
DELTA_ROUTES = {
    "energy_breakdown": lambda d: energy_breakdown(3.0, QuantumState(0, 0), d),
    "solve_bound_state": lambda d: solve_bound_state(AtomicSystem(3), d, QuantumState(0, 0)),
    "correction_via_quadrature":
        lambda d: correction_via_quadrature(AtomicSystem(3), QuantumState(0, 0), d, 1),
    "moderated_radial": lambda d: moderated_radial(AtomicSystem(3), QuantumState(0, 0), d),
    # each order's shift, read from a breakdown cut at that order
    "first_order_shift": lambda d: energy_breakdown(3.0, QuantumState(0, 0), d, 1).e1,
    "second_order_shift": lambda d: energy_breakdown(3.0, QuantumState(0, 0), d, 2).e2,
    "third_order_shift": lambda d: energy_breakdown(3.0, QuantumState(0, 0), d, 3).e3,
    "superpotential_w1": lambda d: superpotential_w1(QuantumState(0, 0), d),
    "superpotential_w2": lambda d: superpotential_w2(3.0, QuantumState(0, 0), d),
    "moderating_u": lambda d: moderating_u(3.0, QuantumState(0, 0), d, 1.0),
}


@pytest.mark.parametrize("route", DELTA_ROUTES)
@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -0.5])
def test_every_route_rejects_bad_delta_alike(route, delta):
    # one check for every route: none returns a value, integrates or solves
    # at a negative or non-finite delta, and all say so in the same words
    with pytest.raises(ValueError) as excinfo:
        DELTA_ROUTES[route](delta)
    assert str(excinfo.value) == f"screening parameter must be finite and non-negative, got {delta}"
