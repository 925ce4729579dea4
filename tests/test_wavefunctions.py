"""Wavefunction machinery tests.

The Laguerre oracle below evaluates the explicit alternating sum in exact
rational arithmetic; the quadrature oracles integrate the defining
expressions directly with scipy.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from scipy.integrate import quad

from yukawa_atom import (
    AtomicSystem,
    QuantumState,
    ScreeningModel,
    correction_via_quadrature,
    coulomb_chi,
    first_order_shift,
    moderated_radial,
    moderating_u,
    screening_delta,
    second_order_shift,
    superpotential_w1,
    superpotential_w2,
    third_order_shift,
)
from yukawa_atom.wavefunctions import (
    _QUAD_OPTS,
    _UNIT_WEIGHT,
    RadialFunction,
    _exponent_coefficients,
    _radial,
)


def laguerre_explicit(n, k, x):
    """Exact-rational evaluation of the explicit finite sum."""
    xf = Fraction(str(x))
    total = Fraction(0)
    for m in range(n + 1):
        coeff = Fraction(
            (-1) ** m * math.factorial(n + k),
            math.factorial(n - m) * math.factorial(m + k) * math.factorial(m),
        )
        total += coeff * xf**m
    return float(total)


def coulomb_moments(n, l, a):
    """Exact <r>, <r^2>, <r^3> of the Coulomb state (n, l) at integer coupling a.

    With x = 2 beta r, chi^2 is x^(2l+2) e^-x L(x)^2 up to a constant, where
    L = sum_j c_j x^j with c_j = (-1)^j C(n+k, n-j) / j! and k = 2l+1, and
    int_0^inf x^m e^-x dx = m!.
    """
    k = 2 * l + 1
    c = [Fraction((-1) ** j * math.comb(n + k, n - j), math.factorial(j)) for j in range(n + 1)]

    def integral(m):
        return sum(ci * cj * math.factorial(2 * l + 2 + m + i + j)
                   for i, ci in enumerate(c) for j, cj in enumerate(c))

    unit = Fraction(n + l + 1, 2 * a)  # 1 / (2 beta)
    return tuple(integral(m) / integral(0) * unit**m for m in (1, 2, 3))


def correction_from_moments(a, delta, n, l, order):
    """The order-1..3 correction integrands' expectations, from the moments:
    -A d^2 r / 2, A d^3 r^2 / 6 - W1^2 / 2 and -A d^4 r^3 / 24 - W1 W2, with
    W1 = s r, s = -N d^2 / 2, W2 = k N (N+1) r + k A r^2 and
    k = -N (3 N^2 d - 4A) d^3 / (24 A^2)."""
    big_n, d = n + l + 1, delta
    r1, r2, r3 = (float(m) for m in coulomb_moments(n, l, a))
    s = -big_n * d * d / 2.0
    k = -big_n * (3.0 * big_n**2 * d - 4.0 * a) * d**3 / (24.0 * a * a)
    return {
        1: -a * d * d / 2.0 * r1,
        2: (a * d**3 / 6.0 - 0.5 * s * s) * r2,
        3: -a * d**4 / 24.0 * r3 - s * k * big_n * (big_n + 1.0) * r2 - s * k * a * r3,
    }[order]


def laguerre_via_radial(n, k, x):
    """L_n^k(x), for odd k, from the recurrence inside ``_radial``: the
    closure of the state (n, (k-1)/2) at beta = 1/2 and unit norm, divided
    by its factor x^(l+1) e^(-x/2).  Zero is read at 1e-100 instead, where
    that factor is still a normal float for l <= 2 and L differs from L(0)
    by far less than an ulp."""
    l = (k - 1) // 2
    chi = RadialFunction(state=QuantumState(n, l), beta=0.5, norm=1.0, r_max=1.0)
    x = np.where(np.asarray(x, dtype=float) == 0.0, 1e-100, x)
    return _radial(chi)(x) / (x ** (l + 1) * np.exp(-0.5 * x))


class TestLaguerre:
    """The Laguerre factor of the one evaluator, for the odd upper indices
    k = 2l+1 that radial states use."""

    def test_degree_zero_is_one(self):
        assert laguerre_via_radial(0, 5, 7.3) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
    def test_degree_one(self, x):
        assert laguerre_via_radial(1, 1, x) == pytest.approx(2.0 - x, rel=1e-14)

    def test_degree_two_value(self):
        # 3 - 3x + x^2/2 at x = 1
        assert laguerre_via_radial(2, 1, 1.0) == pytest.approx(0.5, rel=1e-14)

    # 2 beta r reaches 80 N at r_max: 240 for the N = 3 states
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 80.0, 240.0])
    def test_recurrence_matches_explicit_sum(self, x):
        for n in range(9):
            for k in (1, 3, 5, 7, 9):
                got = laguerre_via_radial(n, k, x)
                want = laguerre_explicit(n, k, x)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (n, k, x)

    def test_value_at_zero_is_binomial(self):
        for n in range(6):
            for k in (1, 3, 5):
                assert laguerre_via_radial(n, k, 0.0) == pytest.approx(
                    math.comb(n + k, n), rel=1e-14
                )

    def test_vectorized_evaluation(self):
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(laguerre_via_radial(1, 1, x), 2.0 - x)


class TestCoulombChi:
    @pytest.mark.parametrize("z", [1, 4, 16, 40, 84])
    def test_chi_is_unmoderated(self, z):
        # chi is the moderated function with u = 1: no exponent terms, no
        # shift, and never rising at r_max, even where the moderated state is
        for n in range(3):
            for l in range(3):
                chi = coulomb_chi(AtomicSystem(z), QuantumState(n, l))
                assert (chi.c2, chi.c3, chi.g_peak) == (0.0, 0.0, 0.0)
                assert not chi.rising_at_r_max

    def test_hydrogen_ground_state_value(self):
        chi = coulomb_chi(AtomicSystem(1), QuantumState(0, 0))
        # 2 r exp(-r) at r = 1
        assert chi(1.0) == pytest.approx(2.0 / math.e, rel=1e-8)
        assert chi.norm == pytest.approx(2.0, rel=1e-8)

    def test_hydrogen_2s_node_position(self):
        chi = coulomb_chi(AtomicSystem(1), QuantumState(1, 0))
        assert abs(chi(2.0)) < 1e-12
        assert chi(1.9) * chi(2.1) < 0.0

    @pytest.mark.parametrize("a, n, l", [(3.0, 0, 1), (1.0, 2, 0), (10.0, 1, 2), (84.0, 0, 0)])
    def test_unit_norm(self, a, n, l):
        z = max(1, int(a))
        chi = coulomb_chi(AtomicSystem(z, a=a), QuantumState(n, l))
        val, err = quad(lambda r: chi(r) ** 2, 0.0, chi.r_max,
                        limit=300, epsabs=1e-12, epsrel=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_interior_node_count(self, n, l):
        chi = coulomb_chi(AtomicSystem(2), QuantumState(n, l))
        r = np.linspace(1e-9, chi.r_max, 40001)
        vals = chi(r)
        signs = np.sign(vals[np.abs(vals) > 1e-14])
        crossings = int(np.sum(signs[1:] != signs[:-1]))
        assert crossings == n

    def test_small_r_power_law(self):
        for l in (0, 1, 2):
            chi = coulomb_chi(AtomicSystem(3), QuantumState(0, l))
            ratio = chi(1e-4) / chi(5e-5)
            assert ratio == pytest.approx(2.0 ** (l + 1), rel=1e-3)


class TestFloatEvaluator:
    @pytest.mark.parametrize("z", [1, 3, 29, 84])
    def test_float_evaluator_matches_numpy_call(self, z):
        # one evaluator serves the vectorised __call__, on arrays with np.exp,
        # and the weighted quadrature integrands, one float at a time with
        # math.exp; a norm integrand must be the square of the same function
        delta = screening_delta(z, ScreeningModel())
        for n in range(3):
            for l in range(3):
                chi = coulomb_chi(AtomicSystem(z), QuantumState(n, l))
                pairs = [(chi, _radial(chi, weight=_UNIT_WEIGHT))]
                if 3 * (n + l + 1) ** 2 * delta < 4 * z:
                    psi = moderated_radial(AtomicSystem(z), QuantumState(n, l), delta)
                    pairs.append((psi, _radial(psi, weight=_UNIT_WEIGHT)))
                r = np.linspace(0.0, chi.r_max, 50)
                for vectorised, density in pairs:
                    want = vectorised(r) ** 2
                    got = np.array([density(float(x)) for x in r])
                    peak = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-13 * peak, (z, n, l, vectorised)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("l", range(3))
    def test_laguerre_factor_matches_laguerre_eval(self, n, l):
        # the evaluator runs the recurrence with its constants built once
        # per state; it is the exact explicit sum to within 1e-13 of the peak
        chi = coulomb_chi(AtomicSystem(29), QuantumState(n, l))
        radial = _radial(replace(chi, norm=1.0))
        r = np.linspace(0.0, chi.r_max, 400)
        laguerre = np.array([laguerre_explicit(n, 2 * l + 1, x) for x in 2.0 * chi.beta * r])
        want = r ** (l + 1) * laguerre * np.exp(-chi.beta * r)
        got = radial(r)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_weighted_closure_is_square_times_cubic(self):
        chi = coulomb_chi(AtomicSystem(29), QuantumState(2, 1))
        weight = (0.5, -1.0, 0.25, 2.0)
        radial = _radial(chi)
        density = _radial(chi, weight=weight)
        for r in np.linspace(0.0, chi.r_max, 50):
            cubic = weight[0] + weight[1] * r + weight[2] * r**2 + weight[3] * r**3
            assert density(r) == pytest.approx(radial(r) ** 2 * cubic, rel=1e-13, abs=1e-300)


_DELTA_29 = screening_delta(29, ScreeningModel())
PUBLIC_EVALUATORS = {
    "moderating_u": lambda r: moderating_u(29.0, QuantumState(1, 1), _DELTA_29, r),
    "coulomb_chi": lambda r: coulomb_chi(AtomicSystem(29), QuantumState(1, 1))(r),
    "moderated_radial": lambda r: moderated_radial(AtomicSystem(29), QuantumState(1, 1),
                                                   _DELTA_29)(r),
}


class TestScalarOrArray:
    """Every public evaluator gives a Python float for a scalar and an
    ndarray of the input's shape, matching the scalar calls, for an array."""

    @pytest.mark.parametrize("name", PUBLIC_EVALUATORS)
    @pytest.mark.parametrize("scalar", [1, 0.25, np.array(0.25), np.float64(2.0)])
    def test_scalar_gives_python_float(self, name, scalar):
        value = PUBLIC_EVALUATORS[name](scalar)
        assert type(value) is float
        assert value == PUBLIC_EVALUATORS[name](float(scalar))

    @pytest.mark.parametrize("name", PUBLIC_EVALUATORS)
    def test_array_gives_ndarray_of_its_shape(self, name):
        r = np.linspace(0.0, 1.5, 12).reshape(3, 4)
        values = PUBLIC_EVALUATORS[name](r)
        assert isinstance(values, np.ndarray)
        assert values.shape == r.shape
        scalars = np.array([PUBLIC_EVALUATORS[name](float(x)) for x in r.ravel()])
        np.testing.assert_allclose(values.ravel(), scalars, rtol=1e-15, atol=0.0)


class TestSuperpotentials:
    def test_w1_slope_ground_state(self):
        assert superpotential_w1(QuantumState(0, 0), 1.0) == (0.0, -0.5)

    def test_w1_zero_screening(self):
        assert superpotential_w1(QuantumState(0, 0), 0.0) == (0.0, -0.0)

    def test_w1_excited_state(self):
        _, slope = superpotential_w1(QuantumState(2, 1), 0.5)
        assert slope == pytest.approx(-0.5, rel=1e-14)

    def test_w2_zero_screening(self):
        assert superpotential_w2(1.0, QuantumState(0, 0), 0.0) == (0.0, 0.0, 0.0)

    def test_w2_frozen_coefficients(self):
        # -N [A r + N(N+1)] [3 N^2 d - 4A] d^3 r / (24 A^2) at A=3, N=1, d=1.078630
        c0, c1, c2 = superpotential_w2(3.0, QuantumState(0, 0), 1.078630)
        assert c0 == 0.0
        assert c1 == pytest.approx(0.101836050997, rel=1e-10)
        assert c2 == pytest.approx(0.152754076496, rel=1e-10)

    def test_w2_matches_independent_first_excited_encoding(self):
        # explicit n=1 form with N1 = l+2, N2 = l+3
        a, delta, l = 1.0, 0.1, 0
        n1, n2 = l + 2, l + 3
        k = -n1 * (3 * n1**2 * delta - 4 * a) * delta**3 / (24 * a * a)
        _, c1, c2 = superpotential_w2(a, QuantumState(1, l), delta)
        assert c1 == pytest.approx(k * n1 * n2, rel=1e-12)
        assert c2 == pytest.approx(k * a, rel=1e-12)

    @pytest.mark.parametrize("a, n, l, delta", [(2.0, 0, 1, 0.4), (29.0, 2, 2, 1.3)])
    def test_exponent_is_minus_integral_of_sum(self, a, n, l, delta):
        # -int_0^r (W1 + W2) has no constant or linear term
        state = QuantumState(n, l)
        w = P.polyadd(superpotential_w1(state, delta), superpotential_w2(a, state, delta))
        c2, c3 = _exponent_coefficients(a, state, delta)
        assert (-P.polyint(w)).tolist() == [0.0, 0.0, c2, c3]


class TestModeratingU:
    def test_zero_screening_is_unity(self):
        for r in (0.0, 0.5, 3.0, 20.0):
            assert moderating_u(5.0, QuantumState(1, 1), 0.0, r) == 1.0

    def test_unity_at_origin(self):
        assert moderating_u(3.0, QuantumState(0, 0), 1.07863, 0.0) == 1.0

    def test_frozen_value_against_quadrature(self):
        # frozen: exp(-int_0^1 (W1 + W2)) at A=1, n=0, l=0, delta=0.3
        got = moderating_u(1.0, QuantumState(0, 0), 0.3, 1.0)
        assert got == pytest.approx(1.018010263397096, rel=1e-12)

    @pytest.mark.parametrize("a, n, l, delta, r", [
        (1.0, 0, 0, 0.3, 1.0),
        (3.0, 0, 1, 0.6, 2.5),
        (2.0, 1, 0, 0.2, 4.0),
    ])
    def test_exponent_matches_numerical_quadrature(self, a, n, l, delta, r):
        state = QuantumState(n, l)
        w = P.polyadd(superpotential_w1(state, delta), superpotential_w2(a, state, delta))
        integral, err = quad(lambda x: P.polyval(x, w), 0.0, r, epsabs=1e-14, epsrel=1e-14)
        assert err < 1e-10
        assert moderating_u(a, state, delta, r) == pytest.approx(
            math.exp(-integral), rel=1e-10
        )

    def test_limit_to_unity_at_small_screening(self):
        r = np.linspace(0.0, 20.0, 201)
        u = moderating_u(1.0, QuantumState(0, 0), 1e-6, r)
        assert np.max(np.abs(u - 1.0)) < 1e-6


def gauss_legendre_norm(psi):
    """Integral of psi^2 over [0, r_max] by composite 24-point Gauss-Legendre."""
    edges = np.linspace(0.0, psi.r_max, 257)
    x, w = np.polynomial.legendre.leggauss(24)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return float(np.sum(half[:, None] * w * psi(mid[:, None] + half[:, None] * x) ** 2))


#: States with 3 N^2 delta / 4A in (0.92, 1) under the Fermi-Amaldi delta:
#: every one where u alone overflows inside [0, r_max], and a few more.
NEAR_DOMAIN_EDGE = [
    (z, n, l) for z in range(3, 85) for n in range(3) for l in range(3)
    if 0.92 < 3 * (n + l + 1) ** 2 * screening_delta(z, ScreeningModel()) / (4 * z) < 1
]

#: The near-edge states whose moderating exponent still rises at r_max:
#: every one has 3 N^2 delta / 4A >= 0.95.
RISING_AT_R_MAX = {
    (4, 0, 1), (4, 1, 0),
    (16, 0, 2), (16, 1, 1), (16, 2, 0), (17, 0, 2), (17, 1, 1), (17, 2, 0),
    (40, 1, 2), (40, 2, 1), (41, 1, 2), (41, 2, 1), (42, 1, 2), (42, 2, 1),
    (78, 2, 2), (79, 2, 2), (80, 2, 2), (81, 2, 2), (82, 2, 2), (83, 2, 2), (84, 2, 2),
}


class TestFullWavefunction:
    def test_zero_screening_equals_chi(self):
        system, state = AtomicSystem(3), QuantumState(0, 0)
        chi = coulomb_chi(system, state)
        psi = moderated_radial(system, state, 0.0)
        for r in (0.1, 0.5, 1.0, 4.0):
            assert psi(r) == pytest.approx(chi(r), rel=1e-10)

    def test_unit_norm_after_renormalization(self):
        # independent check with composite Gauss-Legendre on subintervals
        system, state = AtomicSystem(3), QuantumState(0, 0)
        delta = 1.07862956797
        psi = moderated_radial(system, state, delta)
        assert gauss_legendre_norm(psi) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("z, n, l", NEAR_DOMAIN_EDGE)
    def test_unit_norm_near_domain_edge(self, z, n, l):
        delta = screening_delta(z, ScreeningModel())
        psi = moderated_radial(AtomicSystem(z), QuantumState(n, l), delta)
        assert gauss_legendre_norm(psi) == pytest.approx(1.0, abs=1e-8)
        assert psi.rising_at_r_max == ((z, n, l) in RISING_AT_R_MAX)

    def test_rising_states_all_near_domain_edge(self):
        assert len(NEAR_DOMAIN_EDGE) == 28
        assert RISING_AT_R_MAX <= set(NEAR_DOMAIN_EDGE)

    @pytest.mark.parametrize("z, n, l", [(29, 0, 0), (84, 0, 1), (3, 0, 0), (54, 1, 0)])
    def test_not_rising_far_from_domain_edge(self, z, n, l):
        delta = screening_delta(z, ScreeningModel())
        psi = moderated_radial(AtomicSystem(z), QuantumState(n, l), delta)
        assert not psi.rising_at_r_max

    def test_small_r_leading_power(self):
        system, state = AtomicSystem(3), QuantumState(0, 0)
        delta = 1.07862956797
        psi = moderated_radial(system, state, delta)
        # psi ~ r^(l+1) = r as r -> 0
        assert psi(1e-4) / psi(5e-5) == pytest.approx(2.0, rel=1e-3)

    def test_growing_moderating_factor_rejected(self):
        # 3 N^2 delta >= 4 A: non-normalizable trial function
        with pytest.raises(ValueError):
            moderated_radial(AtomicSystem(3), QuantumState(0, 1), 1.07862956797)

    def test_node_structure_preserved(self):
        system, state = AtomicSystem(10), QuantumState(1, 0)
        delta = 0.4
        psi = moderated_radial(system, state, delta)
        r = np.linspace(1e-6, psi.r_max, 20001)
        vals = psi(r)
        signs = np.sign(vals[np.abs(vals) > 1e-14])
        assert int(np.sum(signs[1:] != signs[:-1])) == state.n


class TestCorrectionViaQuadrature:
    def test_zero_screening_vanishes(self):
        system, state = AtomicSystem(3), QuantumState(0, 0)
        for order in (1, 2, 3):
            assert correction_via_quadrature(system, state, 0.0, order) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_first_order_matches_closed_form(self):
        system, state = AtomicSystem(3), QuantumState(0, 0)
        delta = 1.07862956797
        got = correction_via_quadrature(system, state, delta, 1)
        assert got == pytest.approx(first_order_shift(state, delta), rel=1e-8)

    def test_second_order_matches_closed_form_excited(self):
        system, state = AtomicSystem(1), QuantumState(1, 1)
        got = correction_via_quadrature(system, state, 0.2, 2)
        assert got == pytest.approx(second_order_shift(1.0, state, 0.2), rel=1e-8)

    @pytest.mark.parametrize("n, l", [(0, 0), (0, 1), (0, 2)])
    @pytest.mark.parametrize("a", [1.0, 10.0])
    def test_all_orders_for_nodeless_states(self, n, l, a):
        z = max(1, int(a))
        system, state = AtomicSystem(z, a=a), QuantumState(n, l)
        delta = 0.2 * a
        closed = (
            first_order_shift(state, delta),
            second_order_shift(a, state, delta),
            third_order_shift(a, state, delta),
        )
        for order, want in zip((1, 2, 3), closed):
            got = correction_via_quadrature(system, state, delta, order)
            assert got == pytest.approx(want, rel=1e-8), order

    @pytest.mark.parametrize("n, l", [(1, 0), (1, 1), (2, 0)])
    def test_lower_orders_for_excited_states(self, n, l):
        a = 3.0
        system, state = AtomicSystem(3, a=a), QuantumState(n, l)
        delta = 0.3
        assert correction_via_quadrature(system, state, delta, 1) == pytest.approx(
            first_order_shift(state, delta), rel=1e-8
        )
        assert correction_via_quadrature(system, state, delta, 2) == pytest.approx(
            second_order_shift(a, state, delta), rel=1e-8
        )

    def test_third_order_excited_states_deviate_from_closed_form(self):
        # The closed third-order expression for n >= 1 extrapolates the
        # nodeless pattern in (N, L); the defining integral over the true
        # nodal state differs at the tens-of-percent level (the true 2s
        # <r^3> is 330/A^3 while the pattern implies 420/A^3).  This pins
        # the deviation so it cannot be silently papered over.
        a = 1.0
        system, state = AtomicSystem(1), QuantumState(1, 0)
        delta = 0.05
        got = correction_via_quadrature(system, state, delta, 3)
        closed = third_order_shift(a, state, delta)
        rel = abs(got - closed) / abs(closed)
        assert rel > 0.1

    def test_exact_moments_of_hydrogen_2s(self):
        assert coulomb_moments(1, 0, 1) == (6, 42, 330)

    @pytest.mark.parametrize("n, l", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    @pytest.mark.parametrize("z", [3, 29, 84])
    def test_all_orders_match_exact_moments(self, z, n, l):
        # the defining integrals, excited states and order 3 included, to
        # the benchmark's quadrature tolerance
        delta = screening_delta(z, ScreeningModel())
        for order in (1, 2, 3):
            got = correction_via_quadrature(AtomicSystem(z), QuantumState(n, l), delta, order)
            want = correction_from_moments(z, delta, n, l, order)
            assert got == pytest.approx(want, rel=1e-10), order

    @pytest.mark.parametrize("n", range(3))
    @pytest.mark.parametrize("l", range(3))
    @pytest.mark.parametrize("z", [3, 29, 84])
    def test_every_order_within_1e12_of_exact_moments(self, z, n, l):
        delta = screening_delta(z, ScreeningModel())
        for order in (1, 2, 3):
            got = correction_via_quadrature(AtomicSystem(z), QuantumState(n, l), delta, order)
            want = correction_from_moments(z, delta, n, l, order)
            assert got == pytest.approx(want, rel=1e-12), order

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            correction_via_quadrature(AtomicSystem(1), QuantumState(0, 0), 0.1, 4)

    def test_quad_looked_up_at_call_time(self, monkeypatch):
        # a wrapper swapped into scipy.integrate sees every quadrature while
        # it is in place, and none after it is undone
        import scipy.integrate

        original = scipy.integrate.quad
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        system, state = AtomicSystem(29), QuantumState(0, 0)
        delta = screening_delta(29, ScreeningModel())
        with monkeypatch.context() as patch:
            patch.setattr(scipy.integrate, "quad", counting)
            correction_via_quadrature(system, state, delta, 2)
        # chi's norm on [0, r_max] and its tail, then the correction
        assert len(calls) == 3
        correction_via_quadrature(system, state, delta, 2)
        assert len(calls) == 3

    @pytest.mark.parametrize("order", [1, 2, 3, "moderated"])
    def test_three_quad_calls_with_fixed_options(self, monkeypatch, order):
        # chi's norm on [0, r_max], its tail past r_max, then the correction
        # or the moderated norm; a faster integrand must not drop any of them
        import scipy.integrate

        original = scipy.integrate.quad
        calls = []

        def counting(f, a, b, **kwargs):
            calls.append((a, b, kwargs))
            return original(f, a, b, **kwargs)

        system, state = AtomicSystem(29), QuantumState(1, 1)
        delta = screening_delta(29, ScreeningModel())
        with monkeypatch.context() as patch:
            patch.setattr(scipy.integrate, "quad", counting)
            if order == "moderated":
                moderated_radial(system, state, delta)
            else:
                correction_via_quadrature(system, state, delta, order)
        r_max = coulomb_chi(system, state).r_max
        assert calls == [
            (0.0, r_max, _QUAD_OPTS), (r_max, np.inf, _QUAD_OPTS), (0.0, r_max, _QUAD_OPTS),
        ]
