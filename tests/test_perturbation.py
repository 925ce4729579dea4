"""Closed-form energy tests.

Expected values tagged 'frozen' were computed independently with
high-precision arithmetic (mpmath, 25 digits) from the defining formulas.
"""

import math
import re

import pytest

from yukawa_atom import (
    AtomicSystem,
    QuantumState,
    ScreeningLaw,
    ScreeningModel,
    UnitSystem,
    coulomb_energy,
    energy_breakdown,
    first_order_shift,
    screening_delta,
    second_order_shift,
    third_order_shift,
    to_kev,
    total_energy,
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
        ],
    )
    def test_hydrogenic_values(self, a, n, l, expected):
        assert coulomb_energy(a, QuantumState(n, l)) == expected

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            coulomb_energy(0.0, QuantumState(0, 0))


class TestOrderShifts:
    def test_first_order_zero_screening(self):
        assert first_order_shift(QuantumState(0, 0), 0.0) == 0.0

    def test_first_order_frozen(self):
        # frozen: -(3/4) * 1.078630^2
        assert first_order_shift(QuantumState(0, 0), DELTA_Z3) == pytest.approx(
            -0.872582007675, rel=1e-10
        )

    def test_first_order_n1(self):
        assert first_order_shift(QuantumState(1, 0), 1.0) == pytest.approx(-3.0, rel=1e-14)

    def test_second_order_zero_screening(self):
        assert second_order_shift(3.0, QuantumState(0, 0), 0.0) == 0.0

    def test_second_order_frozen(self):
        # frozen: (6/36) d^3 - (6/144) d^4 at d = 1.078630
        assert second_order_shift(3.0, QuantumState(0, 0), DELTA_Z3) == pytest.approx(
            0.152754076496, rel=1e-10
        )

    def test_second_order_hand_case(self):
        # N = 2, L = 2: 4*15*0.001/12 - 16*15*0.0001/16
        assert second_order_shift(1.0, QuantumState(0, 1), 0.1) == pytest.approx(
            0.0035, rel=1e-12
        )

    def test_third_order_zero_screening(self):
        assert third_order_shift(3.0, QuantumState(0, 0), 0.0) == 0.0

    def test_third_order_frozen(self):
        assert third_order_shift(3.0, QuantumState(0, 0), DELTA_Z3) == pytest.approx(
            -0.00256980758462, rel=1e-10
        )

    def test_third_order_hand_case(self):
        assert third_order_shift(2.0, QuantumState(0, 0), 0.5) == pytest.approx(
            -0.00131225585938, rel=1e-10
        )


class TestTotalEnergy:
    def test_z3_k_shell_matches_reference(self):
        b = total_energy(AtomicSystem(3), FA, QuantumState(0, 0), order=3)
        assert b.total == pytest.approx(-1.98650850392, rel=1e-10)  # frozen
        assert to_kev(b.total) == pytest.approx(-0.05405687, rel=1e-4)

    def test_z84_k_shell_matches_reference(self):
        b = total_energy(AtomicSystem(84), FA, QuantumState(0, 0), order=3)
        assert to_kev(b.total) == pytest.approx(-86.629718, rel=1e-4)

    def test_zero_screening_is_pure_coulomb(self):
        model = ScreeningModel(delta0=0.0)
        b = total_energy(AtomicSystem(5), model, QuantumState(0, 0), order=3)
        assert b.total == -12.5
        assert b.shift_const == b.e1 == b.e2 == b.e3 == 0.0

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_order_semantics(self, order):
        b = total_energy(AtomicSystem(29), FA, QuantumState(0, 0), order=order)
        assert b.order_used == order
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
            total_energy(AtomicSystem(3), FA, QuantumState(0, 0), order=4)

    def test_series_suspect_flag(self):
        # heavily screened excited state: corrections dominate
        assert total_energy(AtomicSystem(9), FA, QuantumState(1, 0)).series_suspect
        # deep K shell: corrections are tiny next to the Coulomb term
        assert not total_energy(AtomicSystem(29), FA, QuantumState(0, 0)).series_suspect


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
        assert first_order_shift(state, delta) == pytest.approx(s1, rel=1e-12)
        assert second_order_shift(a, state, delta) == pytest.approx(s2, rel=1e-12)
        assert third_order_shift(a, state, delta) == pytest.approx(s3, rel=1e-12)


class TestSignStructure:
    @pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (0, 1), (2, 2)])
    @pytest.mark.parametrize("a", [1.0, 5.0])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0, 2.5])
    def test_first_order_never_positive(self, n, l, a, delta):
        assert first_order_shift(QuantumState(n, l), delta) <= 0.0

    @pytest.mark.parametrize("n, l", [(0, 0), (1, 1), (0, 2)])
    @pytest.mark.parametrize("a", [1.0, 4.0])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.99])
    def test_second_order_positive_below_threshold(self, n, l, a, frac):
        state = QuantumState(n, l)
        delta = frac * 4.0 * a / (3.0 * state.big_n**2)
        assert second_order_shift(a, state, delta) >= 0.0

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
        assert second_order_shift(a, state, delta) == pytest.approx(
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
