"""Correctness references computed apart from the package.

Nothing here imports ``yukawa_atom``: the benchmark judges the package's
outputs against these, so they must not share its code.

* ``reference_level`` solves the radial screened-Coulomb problem on a
  logarithmic mesh as a symmetric tridiagonal eigenproblem (LAPACK ``stebz``
  Sturm-count bisection through ``scipy.linalg.eigh_tridiagonal``), with a
  wide box and Richardson extrapolation over three meshes.
* ``CRITICAL_RATIO`` holds the published critical screening delta_c / A
  beyond which a level is unbound (Rogers, Graboske & Harwood,
  Phys. Rev. A 1, 1577 (1970)).
* ``hydrogenic_moment`` gives <r>, <r^2>, <r^3> of the Coulomb states in
  closed form, from which the quadrature corrections follow exactly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

#: delta_c / A for the levels the benchmark uses, keyed by (n, l) with n the
#: radial node count (1s, 2s, 2p, 3p).
CRITICAL_RATIO = {(0, 0): 1.19061, (1, 0): 0.31009, (0, 1): 0.22029, (1, 1): 0.11271}

#: Shell labels of the bundled tables, keyed by (n, l).
SHELL_LABEL = {(0, 0): "E00", (0, 1): "E01", (1, 0): "E10", (1, 1): "E11"}

#: eV per Hartree of the bundled tables.
HARTREE_EV = 27.212

_MESH_POINTS = (4001, 8001, 16001)
#: Box radius in units of the decay length 1 / sqrt(-2E): the density beyond
#: it is below exp(-2 * 40).
_BOX_DECAY_LENGTHS = 40.0


def fermi_amaldi_delta(z: int, delta0: float = 0.98) -> float:
    """Screening parameter delta0 Z^(1/3) (1 - 1/Z)^(2/3)."""
    return delta0 * z ** (1.0 / 3.0) * (1.0 - 1.0 / z) ** (2.0 / 3.0)


def is_bound(a: float, delta: float, n: int, l: int) -> bool:
    """Bound unless delta / A exceeds the published critical ratio."""
    return delta / a < CRITICAL_RATIO[(n, l)]


def _mesh_eigenvalue(a, delta, n, l, r_max, points):
    """n-th eigenvalue of the l channel on r = e^x, chi = e^(x/2) y."""
    r_min = 1e-12 / a
    x = np.linspace(math.log(r_min), math.log(r_max), points)
    h = x[1] - x[0]
    r = np.exp(x)
    v = -a * np.exp(-delta * r) / r
    d = (2.0 / h**2 + (l + 0.5) ** 2 + 2.0 * r * r * v) / (2.0 * r * r)
    e = -1.0 / (2.0 * h**2 * r[:-1] * r[1:])
    # tol must be explicit: the default eps * ||T|| is O(1) Hartree here.
    w = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                         select_range=(n, n), tol=1e-14)
    return float(w[0])


def reference_level(a: float, delta: float, n: int, l: int) -> float | None:
    """Bound-state energy in Hartree, or None when no such level is bound.

    The box grows until it spans ``_BOX_DECAY_LENGTHS`` decay lengths of the
    level itself, so weakly bound levels are not squeezed.
    """
    big_n = n + l + 1
    r_max = _BOX_DECAY_LENGTHS * big_n / a
    for _ in range(12):
        energies = [_mesh_eigenvalue(a, delta, n, l, r_max, p) for p in _MESH_POINTS]
        if energies[-1] >= 0.0:
            return None
        e1, e2, e3 = energies
        r12 = (4.0 * e2 - e1) / 3.0
        r23 = (4.0 * e3 - e2) / 3.0
        energy = (16.0 * r23 - r12) / 15.0
        needed = _BOX_DECAY_LENGTHS / math.sqrt(-2.0 * energy)
        if r_max >= needed:
            return energy
        r_max = 2.0 * needed
    raise RuntimeError(f"reference box did not settle for A={a} delta={delta} n={n} l={l}")


def hydrogenic_moment(a: float, n: int, l: int, k: int) -> float:
    """<r^k> for k = 1, 2, 3 in the Coulomb state with N = n + l + 1."""
    big_n = n + l + 1
    ll = l * (l + 1)
    if k == 1:
        return (3.0 * big_n**2 - ll) / (2.0 * a)
    if k == 2:
        return big_n**2 * (5.0 * big_n**2 + 1.0 - 3.0 * ll) / (2.0 * a * a)
    if k == 3:
        return big_n**2 * (
            35.0 * big_n**2 * (big_n**2 - 1.0)
            - 30.0 * big_n**2 * (l + 2) * (l - 1)
            + 3.0 * (l + 2) * (l + 1) * l * (l - 1)
        ) / (8.0 * a**3)
    raise ValueError(f"moment order must be 1, 2 or 3, got {k}")


def correction_from_moments(a: float, delta: float, n: int, l: int, order: int) -> float:
    """Expectation over the Coulomb state of the order-1..3 correction
    integrands, written out from their definitions:

    order 1: -A d^2 r / 2
    order 2: A d^3 r^2 / 6 - W1^2 / 2
    order 3: -A d^4 r^3 / 24 - W1 W2

    with W1 = s r, s = -N d^2 / 2, and W2 = k N (N+1) r + k A r^2,
    k = -N (3 N^2 d - 4A) d^3 / (24 A^2).
    """
    big_n = n + l + 1
    d = delta
    s = -big_n * d * d / 2.0
    r1 = hydrogenic_moment(a, n, l, 1)
    r2 = hydrogenic_moment(a, n, l, 2)
    r3 = hydrogenic_moment(a, n, l, 3)
    if order == 1:
        return -a * d * d / 2.0 * r1
    if order == 2:
        return (a * d**3 / 6.0 - 0.5 * s * s) * r2
    if order == 3:
        k = -big_n * (3.0 * big_n**2 * d - 4.0 * a) * d**3 / (24.0 * a * a)
        return -a * d**4 / 24.0 * r3 - s * k * big_n * (big_n + 1.0) * r2 - s * k * a * r3
    raise ValueError(f"order must be 1, 2 or 3, got {order}")


def hypervirial_pade_kev(data_dir: Path) -> dict[tuple[int, int, int], float]:
    """The published hypervirial-Pade column, keyed by (Z, n, l), in keV."""
    table = {}
    for path in sorted(data_dir.glob("table*.csv")):
        with path.open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["source"] == "hypervirial_pade":
                    key = (int(row["z"]), int(row["n"]), int(row["l"]))
                    table[key] = float(row["energy_kev"])
    return table


def gauss_legendre_grid(r_max: float, panels: int = 64, order: int = 16):
    """Nodes and weights of composite Gauss-Legendre quadrature on [0, r_max]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, r_max, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
