"""Third-order analytic binding energies for the static screened Coulomb
(Yukawa) potential V(r) = -(A/r) exp(-delta r).

Everything is in Hartree atomic units (hbar = m = 1) with coupling A equal to
the atomic number Z for neutral atoms.  The screened level splits into the
hydrogenic zeroth order, a constant A*delta from the expansion of the
exponential, and three successive corrections that are polynomials in delta
with coefficients built from N = n + l + 1 and L = l(l+1).  Energies convert
to keV only at output boundaries.

Each term is a state factor times a power of delta over a power of A.  The
factors depend on (n, l) alone and are cached per state (``_factors``).  A
cached factor is the left-hand prefix of its written-out term, so the term
performs the same float operations in the same order as the whole
expression and every energy keeps every bit.  The powers stay inside
``energy_breakdown``'s overflow guard, and only the factors an order reads
are built.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ScreeningLaw",
    "AtomicSystem",
    "ScreeningModel",
    "QuantumState",
    "EnergyBreakdown",
    "UnitSystem",
    "screening_delta",
    "coulomb_energy",
    "first_order_shift",
    "second_order_shift",
    "third_order_shift",
    "energy_breakdown",
    "to_kev",
]

#: eV per Hartree as used for the bundled reference tables (two Rydberg,
#: rounded); configurable through UnitSystem.
HARTREE_EV = 27.212

#: Non-fatal flag threshold: the summed corrections should stay well below
#: the Coulomb term for the series to be trustworthy.
SERIES_SUSPECT_RATIO = 0.5


class ScreeningLaw(Enum):
    """How the screening parameter delta scales with the atomic number."""

    THOMAS_FERMI = "thomas_fermi"
    FERMI_AMALDI = "fermi_amaldi"


@dataclass(frozen=True)
class AtomicSystem:
    """Neutral atom of atomic number ``z`` with Coulomb coupling ``a`` (= z
    in atomic units unless overridden)."""

    z: int
    a: float | None = None

    def __post_init__(self):
        _check_z(self.z)
        if self.a is None:
            object.__setattr__(self, "a", float(self.z))
        _check_a(self.a)


@dataclass(frozen=True)
class ScreeningModel:
    """Screening law and its strength coefficient delta0 (inverse Bohr radii
    per Z^(1/3)).  delta0 = 0 degenerates every command to the pure Coulomb
    limit and is accepted for that purpose."""

    variant: ScreeningLaw = ScreeningLaw.FERMI_AMALDI
    delta0: float = 0.98

    def __post_init__(self):
        if not isinstance(self.variant, ScreeningLaw):
            raise ValueError(f"variant must be a ScreeningLaw, got {self.variant!r}")
        if not (math.isfinite(self.delta0) and self.delta0 >= 0):
            raise ValueError(f"delta0 must be finite and non-negative, got {self.delta0}")


@dataclass(frozen=True)
class QuantumState:
    """Radial quantum number ``n`` (node count) and orbital quantum number
    ``l``, both integers (numpy's included).  The principal-like index is
    N = n + l + 1."""

    n: int
    l: int

    def __post_init__(self):
        try:
            operator.index(self.n), operator.index(self.l)
        except TypeError:
            raise TypeError(f"quantum numbers must be integers, got n={self.n!r} "
                            f"l={self.l!r}") from None
        if self.n < 0 or self.l < 0:
            raise ValueError(f"quantum numbers must be non-negative, got n={self.n} l={self.l}")

    @property
    def big_n(self) -> int:
        return self.n + self.l + 1

    @property
    def big_l(self) -> int:
        return self.l * (self.l + 1)


@dataclass(frozen=True)
class UnitSystem:
    hartree_to_ev: float = HARTREE_EV

    def __post_init__(self):
        if not (math.isfinite(self.hartree_to_ev) and self.hartree_to_ev > 0):
            raise ValueError(
                f"hartree_to_ev must be finite and positive, got {self.hartree_to_ev}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-order decomposition of a level energy, in Hartree.

    ``total`` is always e0 + shift_const + e1 + e2 + e3, summed in that
    order, where terms above the requested order are stored as exact zeros.
    ``series_suspect`` is true when the corrections sum to more than half
    the Coulomb term, the empirical signature of the series breaking down.
    Both are computed from the five stored terms, not stored.
    """

    e0: float
    shift_const: float
    e1: float
    e2: float
    e3: float

    @property
    def total(self) -> float:
        return self.e0 + self.shift_const + self.e1 + self.e2 + self.e3

    @property
    def series_suspect(self) -> bool:
        return abs(self.e1 + self.e2 + self.e3) > SERIES_SUSPECT_RATIO * abs(self.e0)


def _check_delta(delta: float) -> None:
    """Reject a screening parameter that is not finite and non-negative."""
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"screening parameter must be finite and non-negative, got {delta}")


def _check_a(a: float) -> None:
    """Reject a coupling strength that is not finite and positive."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"coupling strength must be finite and positive, got {a}")


def _check_z(z: int) -> None:
    """Reject an atomic number that is not an integer (numpy's pass), is
    below 1 or is too large to convert to a float."""
    try:
        operator.index(z)
    except TypeError:
        raise TypeError(f"atomic number must be an integer, got {z!r}") from None
    if z < 1:
        raise ValueError(f"atomic number must be >= 1, got {z}")
    if not z <= sys.float_info.max:
        raise ValueError(f"atomic number must be at most {sys.float_info.max:.6g}")


def screening_delta(z: int, model: ScreeningModel) -> float:
    """Screening parameter in inverse Bohr radii for atomic number ``z``.

    Thomas-Fermi: delta0 * Z^(1/3).  The Fermi-Amaldi-corrected form carries
    an extra (1 - 1/Z)^(2/3), vanishing exactly at Z = 1.
    """
    _check_z(z)
    delta = model.delta0 * z ** (1.0 / 3.0)
    if model.variant is ScreeningLaw.FERMI_AMALDI:
        delta *= (1.0 - 1.0 / z) ** (2.0 / 3.0)
    return delta


def coulomb_energy(a: float, state: QuantumState) -> float:
    """Unscreened hydrogenic energy -A^2 / (2 N^2)."""
    _check_a(a)
    return -a * a / _factors(state.n, state.l, 0)[0]


def first_order_shift(state: QuantumState, delta: float) -> float:
    """First correction -(3N^2 - L) delta^2 / 4; independent of A."""
    _check_delta(delta)
    return _terms(1.0, state, delta, 1)[1]


def second_order_shift(a: float, state: QuantumState, delta: float) -> float:
    """Second correction, one positive delta^3 and one negative delta^4 term."""
    _check_delta(delta)
    return _terms(a, state, delta, 2)[2]


def third_order_shift(a: float, state: QuantumState, delta: float) -> float:
    """Third correction: delta^4, delta^5 and delta^6 terms."""
    _check_delta(delta)
    return _terms(a, state, delta, 3)[3]


@functools.lru_cache(maxsize=4096)
def _factors(n: int, l: int, order: int) -> tuple[float, ...]:
    """The state's factors of every term through ``order``, in term order.

    Each factor is the left-hand prefix of its written-out term, the part
    before the first power of delta, so ``factor * delta**k / divisor``
    performs the same float operations in the same order as the whole
    expression and rounds to the same bits:
      e0 = -A^2 / (2 N N)
      e1 = -(3N^2 - L) delta^2 / 4
      e2 = N^2 b2 delta^3 / (12 A) - N^4 b2 delta^4 / (16 A A)
      e3 = -N^2 b1 b2 delta^4 / (96 A^2) + N^4 b2 b3 delta^5 / (48 A^3)
           - N^6 b2 b3 delta^6 / (64 A^4)
    with b1 = 5N^2 - 3L, b2 = b1 + 1 and b3 = 9N^2 - 5L.  Only the factors
    ``order`` reads are built, so a power of N past the float range raises
    ``OverflowError`` at the order that needs it and no earlier.
    """
    # a numpy int shares its cache key with the equal int, so build from
    # ints: every caller then reads the same Python floats
    n, l = int(n), int(l)
    big_n = float(n + l + 1)
    big_l = float(l * (l + 1))
    factors = (2.0 * big_n * big_n,)
    if order >= 1:
        factors += (-(3.0 * big_n**2 - big_l),)
    if order >= 2:
        b1 = 5.0 * big_n**2 - 3.0 * big_l
        b2 = b1 + 1.0
        factors += (big_n**2 * b2, big_n**4 * b2)
        if order >= 3:
            b3 = 9.0 * big_n**2 - 5.0 * big_l
            factors += (-big_n**2 * b1 * b2, big_n**4 * b2 * b3, big_n**6 * b2 * b3)
    return factors


def _terms(a: float, state: QuantumState, delta: float, order: int) -> tuple[float, ...]:
    """(e0, e1, e2, e3) with the corrections above ``order`` zero: the one
    place the closed forms are evaluated, for inputs already checked."""
    f = _factors(state.n, state.l, order)
    e0 = -a * a / f[0]
    if order == 0:
        return e0, 0.0, 0.0, 0.0
    e1 = f[1] * delta**2 / 4.0
    if order == 1:
        return e0, e1, 0.0, 0.0
    delta4 = delta**4
    e2 = f[2] * delta**3 / (12.0 * a) - f[3] * delta4 / (16.0 * a * a)
    if order == 2:
        return e0, e1, e2, 0.0
    e3 = (f[4] * delta4 / (96.0 * a**2) + f[5] * delta**5 / (48.0 * a**3)
          - f[6] * delta**6 / (64.0 * a**4))
    return e0, e1, e2, e3


def energy_breakdown(a: float, state: QuantumState, delta: float, order: int = 3) -> EnergyBreakdown:
    """Breakdown at an explicitly supplied screening parameter.

    The constant A*delta term enters at order >= 1; corrections above
    ``order`` are zero.  Every term is degree-2 homogeneous in (A, delta).
    Raises ``ValueError`` when a term or the total leaves the float range.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    _check_delta(delta)
    _check_a(a)
    try:
        e0, e1, e2, e3 = _terms(a, state, delta, order)
        b = EnergyBreakdown(e0, a * delta if order >= 1 else 0.0, e1, e2, e3)
    except OverflowError:
        b = None
    if b is None or not math.isfinite(b.total):
        raise ValueError(f"screening parameter {delta} overflows the order-{order} energy "
                         f"at A={a}")
    return b


def to_kev(energy_hartree: float, units: UnitSystem = UnitSystem()) -> float:
    """Convert Hartree to keV with the configured eV-per-Hartree constant;
    raises ``ValueError`` when the result is not finite."""
    kev = energy_hartree * units.hartree_to_ev / 1000.0
    if not math.isfinite(kev):
        raise ValueError(f"{energy_hartree} Hartree at {units.hartree_to_ev} eV per Hartree "
                         f"is not a finite keV value")
    return kev
