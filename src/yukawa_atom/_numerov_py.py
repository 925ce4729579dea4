"""Numerov sweep, the eigensolver's node counter, as one banded triangular solve.

The recurrence runs in summed form (Blatt, J. Comput. Phys. 1, 382, 1967):
with y = (1 - t) u and t = h^2 f / 12, Numerov's scheme is
y_{i+1} - 2 y_i + y_{i-1} = 12 t_i u_i, and the sweep carries the first
difference d_i = y_{i+1} - y_i instead of y_{i-1}.  A rounding error then
shifts y rather than its slope, so the eigenvalue's rounding floor drops by
about the number of grid steps per decay length: at Z=84 1s from 1e-8 to
1e-11 Hartree on 40001 points.

With g_i = 12 t_i / (1 - t_i), the sweep d_i = d_{i-1} + g_i y_i,
y_{i+1} = y_i + d_i is a unit lower-triangular system in the interleaved
unknowns (y_1, d_1, y_2, d_2, ..., y_{n-1}) with two subdiagonals, so LAPACK's
``dtbtrs`` runs it as one forward substitution in the order of a per-point
loop; only its product g_i y_i rounds differently from the loop's
12 t_i u_i.

The outward solution is rescaled by ``RESCALE_FACTOR`` at the first point
where it passes ``RESCALE_LIMIT``, and the rest of the grid is solved again
from there; this keeps deep trial energies inside the float range without
changing any sign.
"""

import numpy as np
from scipy.linalg.lapack import dtbtrs

RESCALE_LIMIT = 1e250
RESCALE_FACTOR = 1e-250


def _summed_solve(g, y_first, d_before):
    """(y_0 .. y_{m-1}, d_0 .. d_{m-2}) of d_i = d_{i-1} + g_i y_i,
    y_{i+1} = y_i + d_i from y_0 = ``y_first`` and d_{-1} = ``d_before``."""
    size = 2 * len(g) - 1
    # Fortran order, so that f2py passes it uncopied.  Row 0 is the unit
    # diagonal, which diag="U" leaves unread.  Row 2 is -1 everywhere:
    # -d_{i-1} in row d_i and -y_i in row y_{i+1}.  Row 1 holds -g_i y_i in
    # row d_i and -d_i in row y_{i+1}.
    ab = np.full((3, size), -1.0, order="F")
    np.negative(g, out=ab[1, 0::2])
    b = np.zeros(size)
    b[0], b[1] = y_first, d_before
    x, _ = dtbtrs(ab, b, uplo="L", diag="U", overwrite_b=1)
    return x[0::2], x[1::2]


def count_nodes_sweep(w, energy, h, u0, u1):
    """Outward Numerov sweep of chi'' = f chi; returns (sign changes, last value).

    ``w`` is the energy-independent part of f = 2(V_eff - E) on a uniform
    grid of spacing ``h``.
    """
    n = len(w)
    if n < 3:
        return 0, u1

    t = h * h / 12.0 * (w - 2.0 * energy)
    c = 1.0 - t
    g = 12.0 * t / c
    u = np.empty(n)
    u[0], u[1] = u0, u1
    start, y, d = 1, c[1] * u1, c[1] * u1 - c[0] * u0
    # Past the first point above the limit the solve may overflow; those
    # values are discarded and solved again from the rescaled point.
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n - 1:
            ys, ds = _summed_solve(g[start:], y, d)
            tail = u[start + 1:]
            np.divide(ys[1:], c[start + 1:], out=tail)
            over = np.flatnonzero(np.abs(tail) > RESCALE_LIMIT)
            if not over.size:
                break
            j = over[0] + 1
            start, y, d = start + j, ys[j] * RESCALE_FACTOR, ds[j - 1] * RESCALE_FACTOR
            u[start] *= RESCALE_FACTOR

    signs = np.signbit(u[u != 0.0])
    return int(np.count_nonzero(signs[1:] != signs[:-1])), float(u[-1])
