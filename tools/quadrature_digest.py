"""Quadrature digest: every quadrature value of the survey states, bit for bit.

For Z = 3..84, every state with n, l <= 2 and the Fermi-Amaldi delta, prints
one line per value as ``float.hex``: the ``coulomb_chi`` norm, the
``moderated_radial`` norm and g_peak (or the ``ValueError`` it raises past
the perturbative domain), the values of chi and of chi * u as arrays at 65
points from 0 to r_max, and the ``correction_via_quadrature`` value of
orders 1, 2 and 3.  It ends with the number of lines and the sha256 of
those lines.  Two checkouts give the same integrals bit for bit when their
digests agree:

    PYTHONPATH=src python tools/quadrature_digest.py

The script takes no options, and pytest does not collect it.
"""

import hashlib

import numpy as np

from yukawa_atom import (
    AtomicSystem,
    QuantumState,
    ScreeningModel,
    correction_via_quadrature,
    coulomb_chi,
    moderated_radial,
    screening_delta,
)


def _values(f):
    return " ".join(x.hex() for x in f(np.linspace(0.0, f.r_max, 65)).tolist())


def _moderated(system, state, delta):
    try:
        psi = moderated_radial(system, state, delta)
    except ValueError as exc:
        return [f"ValueError {exc}"]
    return [f"{psi.norm.hex()} {psi.g_peak.hex()}", f"values {_values(psi)}"]


def main() -> int:
    model, lines = ScreeningModel(), []
    for z in range(3, 85):
        system, delta = AtomicSystem(z), screening_delta(z, model)
        for n in range(3):
            for l in range(3):
                state = QuantumState(n, l)
                key = f"{z} {n} {l}"
                chi = coulomb_chi(system, state)
                lines.append(f"{key} chi {chi.norm.hex()}")
                lines.append(f"{key} chi values {_values(chi)}")
                lines.extend(f"{key} moderated {line}"
                             for line in _moderated(system, state, delta))
                for order in (1, 2, 3):
                    value = correction_via_quadrature(system, state, delta, order)
                    lines.append(f"{key} order{order} {value.hex()}")
    print("\n".join(lines))
    print("lines", len(lines))
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
