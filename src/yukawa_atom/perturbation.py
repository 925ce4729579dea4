"""Third-order analytic binding energies for the static screened Coulomb
(Yukawa) potential V(r) = -(A/r) exp(-delta r).

Everything is in Hartree atomic units (hbar = m = 1) with coupling A equal to
the atomic number Z for neutral atoms.  The screened level splits into the
hydrogenic zeroth order, a constant A*delta from the expansion of the
exponential, and three successive corrections that are polynomials in delta
with coefficients built from N = n + l + 1 and L = l(l+1).  Energies convert
to keV only at output boundaries.
"""

from __future__ import annotations

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
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"coupling strength must be finite and positive, got {self.a}")


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


def _check_z(z: int) -> None:
    """Reject an atomic number below 1 or too large to convert to a float."""
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
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"coupling strength must be finite and positive, got {a}")
    big_n = state.big_n
    return -a * a / (2.0 * big_n * big_n)


def first_order_shift(state: QuantumState, delta: float) -> float:
    """First correction -(3N^2 - L) delta^2 / 4; independent of A."""
    _check_delta(delta)
    return _first_order(state, delta)


def second_order_shift(a: float, state: QuantumState, delta: float) -> float:
    """Second correction, one positive delta^3 and one negative delta^4 term."""
    _check_delta(delta)
    return _second_order(a, state, delta)


def third_order_shift(a: float, state: QuantumState, delta: float) -> float:
    """Third correction: delta^4, delta^5 and delta^6 terms."""
    _check_delta(delta)
    return _third_order(a, state, delta)


def _first_order(state: QuantumState, delta: float) -> float:
    # the formulas behind the public shifts, for a delta already checked
    big_n = float(state.big_n)
    return -(3.0 * big_n**2 - state.big_l) * delta**2 / 4.0


def _second_order(a: float, state: QuantumState, delta: float) -> float:
    big_n = float(state.big_n)
    bracket = 5.0 * big_n**2 - 3.0 * state.big_l + 1.0
    return (
        big_n**2 * bracket * delta**3 / (12.0 * a)
        - big_n**4 * bracket * delta**4 / (16.0 * a * a)
    )


def _third_order(a: float, state: QuantumState, delta: float) -> float:
    big_n = float(state.big_n)
    big_l = float(state.big_l)
    b1 = 5.0 * big_n**2 - 3.0 * big_l
    b2 = b1 + 1.0
    b3 = 9.0 * big_n**2 - 5.0 * big_l
    return (
        -big_n**2 * b1 * b2 * delta**4 / (96.0 * a**2)
        + big_n**4 * b2 * b3 * delta**5 / (48.0 * a**3)
        - big_n**6 * b2 * b3 * delta**6 / (64.0 * a**4)
    )


def energy_breakdown(a: float, state: QuantumState, delta: float, order: int = 3) -> EnergyBreakdown:
    """Breakdown at an explicitly supplied screening parameter.

    The constant A*delta term enters at order >= 1; corrections above
    ``order`` are zero.  Every term is degree-2 homogeneous in (A, delta).
    Raises ``ValueError`` when a term or the total leaves the float range.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    _check_delta(delta)
    try:
        b = EnergyBreakdown(
            e0=coulomb_energy(a, state),
            shift_const=a * delta if order >= 1 else 0.0,
            e1=_first_order(state, delta) if order >= 1 else 0.0,
            e2=_second_order(a, state, delta) if order >= 2 else 0.0,
            e3=_third_order(a, state, delta) if order >= 3 else 0.0,
        )
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
