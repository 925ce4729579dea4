"""Radial wavefunctions and quadrature cross-checks for the screened
Coulomb problem.

The reduced radial function of the unscreened problem is
chi(r) = N r^(l+1) exp(-beta r) L_n^(2l+1)(2 beta r) with beta = A/(n+l+1);
its normalization is fixed numerically.  The screening corrections ride on
top of chi through two low-order superpotentials, linear and quadratic
polynomials in r given as coefficient tuples in ascending powers of r (the
layout of ``numpy.polynomial.polynomial``), whose integral builds the
moderating factor u(r) = exp(-int_0^r (W1 + W2)); the moderated wavefunction
is chi * u.

``correction_via_quadrature`` re-derives the per-order energy shifts as
integrals over chi^2, which is the internal consistency oracle for the
closed forms in :mod:`yukawa_atom.perturbation`.  Superpotentials here carry
the sqrt(2m)/hbar rescaling (slope -N delta^2 / 2 at first order), so the
squared first-order term enters the second-order integrand as W1^2/2 while
the third-order integrand takes the plain product W1*W2.

One private evaluator, ``_radial``, computes chi and chi * u for every
caller.  It builds a state's constants once: the Laguerre recurrence's step
constants, started from the norm, and beta, c2, c3 and the exponent's shift.
The public ``__call__`` methods run the amplitude on arrays with ``np.exp``.
Each of the four integrands handed to ``quad`` (chi's norm and tail, the
moderated norm and the correction) is one closure that returns the squared
amplitude times a cubic weight, one Python float at a time with ``math.exp``
and no nested call; the three correction orders differ only in the weight.
Every integral goes through ``_quad``, which imports
``scipy.integrate`` on its first call and looks ``quad`` up there on every
call, so a wrapper put in its place sees every integral while it stays there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .perturbation import AtomicSystem, QuantumState

__all__ = [
    "QuadratureError",
    "LaguerreSpec",
    "laguerre_eval",
    "CoulombRadial",
    "coulomb_chi",
    "superpotential_w1",
    "superpotential_w2",
    "moderating_u",
    "ModeratedRadial",
    "moderated_radial",
    "correction_via_quadrature",
]

#: Integration window scale: chi^2 decays as exp(-2 A r / N), so 40 N^2 / A
#: leaves a tail below 1e-12 of the norm (exponent -80 N at the cutoff).
R_MAX_SCALE = 40.0

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-13)


def _quad(f, a, b):
    """``scipy.integrate.quad`` with ``_QUAD_OPTS``, looked up at call time."""
    import scipy.integrate

    return scipy.integrate.quad(f, a, b, **_QUAD_OPTS)


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested accuracy."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (value={value!r}, estimated error={error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree ``n`` and upper index ``k`` of an associated Laguerre polynomial."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValueError(f"Laguerre indices must be non-negative, got n={self.n} k={self.k}")

    @property
    def value_at_zero(self) -> float:
        return math.comb(self.n + self.k, self.n)


def _on_floats(f, x):
    """``f`` of ``x`` as a float ndarray: a Python float back for a scalar
    ``x``, an ndarray of its shape otherwise."""
    val = f(np.asarray(x, dtype=float))
    return val if val.ndim else float(val)


def laguerre_eval(spec: LaguerreSpec, x):
    """Associated Laguerre polynomial by the stable three-term recurrence.

    Accepts scalars or ndarrays.  Equivalent to the explicit alternating sum
    sum_m (-1)^m (n+k)! / ((n-m)! (m+k)! m!) x^m.
    """
    def recurrence(t):
        # L_j from L_-1 = 0 and L_0 = 1 (ones for n = 0 whatever t is)
        prev, cur = 0.0, np.ones_like(t)
        for j in range(1, spec.n + 1):
            prev, cur = cur, ((2.0 * j - 1.0 + spec.k - t) * cur - (j - 1.0 + spec.k) * prev) / j
        return cur

    return _on_floats(recurrence, x)


@dataclass(frozen=True)
class CoulombRadial:
    """Evaluable reduced radial function of the unscreened (Coulomb) problem.

    ``norm`` is fixed by quadrature so that the square integrates to one on
    [0, r_max]; the truncated tail is checked to be negligible.
    """

    state: QuantumState
    beta: float
    norm: float
    r_max: float

    def __call__(self, r):
        return _on_floats(_radial(np.exp, self, self.norm), r)


def _radial(exp, chi: CoulombRadial, norm: float, c2: float = 0.0, c3: float = 0.0,
            shift: float = 0.0, weight: tuple[float, float, float, float] | None = None):
    """Closure r -> norm r^(l+1) L_n^(2l+1)(2 beta r) exp(g(r) - shift), with
    g = -beta r + c2 r^2 + c3 r^3 and l, n, beta those of ``chi``; given a
    ``weight`` (w0, w1, w2, w3), the closure r -> that function squared times
    w0 + w1 r + w2 r^2 + w3 r^3 instead, an integrand for ``quad``.

    With the defaults it is chi scaled to ``norm``; with a moderated state's
    c2, c3 and g_peak it is that state.  ``exp`` fits the caller's input:
    ``math.exp`` for the floats ``quad`` passes one at a time, where numpy's
    per-call overhead costs several times the arithmetic, and ``np.exp`` for
    arrays.  Everything that depends only on the state is computed here,
    once: per point the closure runs the Laguerre recurrence from
    L_0 = norm with each step's constants ready, one power, one ``exp`` and,
    for a weight, one cubic, with no further call.
    """
    beta, l = chi.beta, chi.state.l
    p, k = l + 1, 2 * l + 1
    # L_j = ((2j - 1 + k - 2 beta r) L_(j-1) - (j - 1 + k) L_(j-2)) / j
    steps = tuple(((2 * j - 1 + k) / j, 2.0 * beta / j, (j - 1 + k) / j)
                  for j in range(1, chi.state.n + 1))

    def f(r):
        prev, cur = 0.0, norm
        for a, b, c in steps:
            prev, cur = cur, (a - b * r) * cur - c * prev
        return cur * r ** p * exp(((c3 * r + c2) * r - beta) * r - shift)

    if weight is None:
        return f
    w0, w1, w2, w3 = weight

    def density(r):
        prev, cur = 0.0, norm
        for a, b, c in steps:
            prev, cur = cur, (a - b * r) * cur - c * prev
        amp = cur * r ** p * exp(((c3 * r + c2) * r - beta) * r - shift)
        return amp * amp * (((w3 * r + w2) * r + w1) * r + w0)

    return density


#: ``_radial``'s weight for a norm integral.
_UNIT_WEIGHT = (1.0, 0.0, 0.0, 0.0)


def coulomb_chi(system: AtomicSystem, state: QuantumState) -> CoulombRadial:
    """Construct the numerically normalized Coulomb radial function."""
    big_n = state.big_n
    n, l = state.n, state.l
    beta = system.a / big_n
    r_max = R_MAX_SCALE * big_n * big_n / system.a

    # Precondition the integrand to O(1) so the quadrature works in relative
    # terms for any coupling; the final norm still comes from the quadrature.
    scale = math.sqrt(
        (2.0 * beta) ** -(2 * l + 3)
        * math.factorial(n + 2 * l + 1) / math.factorial(n)
        * 2.0 * big_n
    )

    chi = CoulombRadial(state=state, beta=beta, norm=1.0 / scale, r_max=r_max)
    density = _radial(math.exp, chi, chi.norm, weight=_UNIT_WEIGHT)
    main, main_err = _quad(density, 0.0, r_max)
    if main <= 0 or main_err > max(1e-11, 1e-9 * main):
        raise QuadratureError("normalization integral did not converge", main, main_err)
    tail, _ = _quad(density, r_max, np.inf)
    if tail > 1e-12 * main:
        raise QuadratureError("truncated tail is not negligible", tail, tail / main)
    return replace(chi, norm=1.0 / (scale * math.sqrt(main)))


def superpotential_w1(state: QuantumState, delta: float) -> tuple[float, float]:
    """First-order superpotential, linear with slope -N delta^2 / 2: its
    coefficients in ascending powers of r, (0, slope)."""
    return 0.0, -state.big_n * delta * delta / 2.0


def superpotential_w2(a: float, state: QuantumState, delta: float) -> tuple[float, float, float]:
    """Second-order superpotential -N [A r + N(N+1)] [3 N^2 delta - 4A] delta^3 r / (24 A^2):
    its coefficients in ascending powers of r, (0, k N(N+1), k A)."""
    big_n = float(state.big_n)
    k = -big_n * (3.0 * big_n**2 * delta - 4.0 * a) * delta**3 / (24.0 * a * a)
    return 0.0, k * big_n * (big_n + 1.0), k * a


def _exponent_coefficients(a: float, state: QuantumState, delta: float) -> tuple[float, float]:
    """(r^2, r^3) coefficients of -int_0^r (W1 + W2), the moderating exponent."""
    _, s = superpotential_w1(state, delta)
    _, k1, k2 = superpotential_w2(a, state, delta)
    return -(s + k1) / 2.0, -k2 / 3.0


def moderating_u(a: float, state: QuantumState, delta: float, r):
    """Moderating factor exp(-int_0^r (W1 + W2) dx), normalized to u(0) = 1."""
    c2, c3 = _exponent_coefficients(a, state, delta)
    return _on_floats(lambda t: np.exp((c2 + c3 * t) * t * t), r)


@dataclass(frozen=True)
class ModeratedRadial:
    """Moderated wavefunction chi(r) * u(r), renormalized to unit norm.

    Evaluated as ``norm * r^(l+1) L(2 beta r) exp(g(r) - g_peak)`` with the
    one exponent g = -beta r + c2 r^2 + c3 r^3 of chi * u, shifted by its
    peak on [0, r_max], so that it stays in range where u alone overflows.
    ``rising_at_r_max`` is true when g still rises at r_max, so that the
    unit norm on [0, r_max] belongs to a function that has not decayed there.
    """

    chi: CoulombRadial
    delta: float
    norm: float
    c2: float
    c3: float
    g_peak: float
    rising_at_r_max: bool

    def __call__(self, r):
        return _on_floats(_radial(np.exp, self.chi, self.norm, self.c2, self.c3, self.g_peak), r)


def moderated_radial(system: AtomicSystem, state: QuantumState, delta: float) -> ModeratedRadial:
    """Build the renormalized moderated wavefunction for repeated evaluation.

    Only defined in the perturbative regime 3 N^2 delta < 4 A; past that
    point the moderating exponent grows with r and the product chi * u is
    not normalizable.  Close to that edge the exponent may still be rising
    at r_max; the function is normalized on [0, r_max] all the same, and
    flagged by ``rising_at_r_max``.
    """
    big_n = state.big_n
    if 3.0 * big_n**2 * delta >= 4.0 * system.a:
        raise ValueError(
            f"moderating factor grows without bound for delta={delta} at "
            f"N={big_n}, A={system.a} (needs 3 N^2 delta < 4 A)"
        )
    chi = coulomb_chi(system, state)
    c2, c3 = _exponent_coefficients(system.a, state, delta)
    # g'(r) = -beta + 2 c2 r + 3 c3 r^2: the peak is at an end or at a root
    roots = np.roots([3.0 * c3, 2.0 * c2, -chi.beta])
    inside = [x.real for x in roots if x.imag == 0 and 0 < x.real < chi.r_max]
    g_peak = max(((c3 * x + c2) * x - chi.beta) * x for x in [0.0, chi.r_max, *inside])
    rising = (3.0 * c3 * chi.r_max + 2.0 * c2) * chi.r_max - chi.beta > 0.0
    # chi's norm keeps the trial integrand O(1) whenever u stays near 1
    trial = _radial(math.exp, chi, chi.norm, c2, c3, g_peak, weight=_UNIT_WEIGHT)
    nrm2, err = _quad(trial, 0.0, chi.r_max)
    if nrm2 <= 0 or err > 1e-9 * nrm2:
        raise QuadratureError("moderated normalization did not converge", nrm2, err)
    return ModeratedRadial(chi=chi, delta=delta, norm=chi.norm / math.sqrt(nrm2), c2=c2, c3=c3,
                           g_peak=g_peak, rising_at_r_max=rising)


def correction_via_quadrature(system: AtomicSystem, state: QuantumState,
                              delta: float, order: int) -> float:
    """Energy correction of the given order as an integral over chi^2.

    order 1: <-A d^2 r / 2>
    order 2: <A d^3 r^2 / 6 - W1^2 / 2>
    order 3: <-A d^4 r^3 / 24 - W1 W2>

    The factor conventions follow the rescaled superpotentials stored here;
    they make order 1..3 reproduce the closed forms exactly for nodeless
    (n = 0) states.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    chi = coulomb_chi(system, state)
    a, d = system.a, delta
    # every order's weight is r (w1 + w2 r + w3 r^2), with W1(r) = s r and
    # W2(r) = (k2 r + k1) r
    _, s = superpotential_w1(state, delta)
    _, k1, k2 = superpotential_w2(a, state, delta)
    w1, w2, w3 = {
        1: (-a * d * d / 2.0, 0.0, 0.0),
        2: (0.0, a * d**3 / 6.0 - s * s / 2.0, 0.0),
        3: (0.0, -s * k1, -a * d**4 / 24.0 - s * k2),
    }[order]

    integrand = _radial(math.exp, chi, chi.norm, weight=(0.0, w1, w2, w3))
    value, err = _quad(integrand, 0.0, chi.r_max)
    if err > max(1e-12, 1e-9 * abs(value)):
        raise QuadratureError(f"order-{order} correction did not converge", value, err)
    return value
