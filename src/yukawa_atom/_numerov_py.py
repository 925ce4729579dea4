"""Numerov sweep, the eigensolver's node counter, as one banded triangular solve.

The recurrence runs in summed form (Blatt, J. Comput. Phys. 1, 382, 1967):
with y = (1 - t) u and t = h^2 f / 12, Numerov's scheme is
y_{i+1} - 2 y_i + y_{i-1} = 12 t_i u_i, and the sweep carries the first
difference d_i = y_{i+1} - y_i instead of y_{i-1}.  A rounding error then
shifts y rather than its slope, so the eigenvalue's rounding floor drops by
about the number of grid steps per decay length: at Z=84 1s on its
1601-point logarithmic mesh, over eight boxes 1e-13 apart, the eigenvalue
spreads by 2.7e-12 Hartree against 3.1e-10 with the unsummed recurrence.

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

A mesh's sweeps share one :func:`workspace`, 11 doubles per point, which
the caller builds once per mesh; the kernel keeps nothing between calls,
so a workspace is freed with its mesh and threads share no buffer.  A sweep
writes -g_i into the band, zeroes the right-hand side and allocates only
boolean temporaries: 0.3-0.4 doubles per point of a 40001-point mesh under
``tracemalloc``, against 4.1 with t, 1 - t, -g and u allocated afresh.  A
band allocated afresh per sweep gives the same bits but cost 7%: 90 solves
(n, l <= 2 at ten Z from 1 to 84) took 0.082 s against 0.076 s, medians of
8 alternated rounds on a 2-core Xeon.

numpy and ``dtbtrs`` are imported on the first sweep, so importing this
module loads neither numpy nor scipy.
"""

RESCALE_LIMIT = 1e250
RESCALE_FACTOR = 1e-250


#: LAPACK's ``dtbtrs``, bound by the first sweep: an import statement on
#: every sweep cost about 1 us of a 19-23-us sweep of 401 points (2-core Xeon).
_dtbtrs = None


def workspace(points):
    """The sweep buffers of a ``points``-point mesh: the band matrix, the
    right-hand side, and t (which then holds |u|), 1 - t and u.

    Fortran order, so that f2py passes the band uncopied.  Row 0 is the unit
    diagonal, which diag="U" leaves unread.  Row 2 is -1 everywhere:
    -d_{i-1} in row d_i and -y_i in row y_{i+1}.  Row 1 holds -g_i in row d_i
    (its even slots, which each sweep writes) and -1, for -d_i, in row
    y_{i+1}.  The -1 entries are written here, once.  A solve from grid
    point k uses the columns from 2k on, which are still
    Fortran-contiguous.
    """
    import numpy as np

    size = 2 * points - 1
    band = np.full((3, size), -1.0, order="F")
    return band, np.empty(size), np.empty(points), np.empty(points), np.empty(points)


def _summed_solve(band, rhs, y_first, d_before):
    """(y_0 .. y_{m-1}, d_0 .. d_{m-2}) of d_i = d_{i-1} + g_i y_i,
    y_{i+1} = y_i + d_i from y_0 = ``y_first`` and d_{-1} = ``d_before``,
    with -g_i in the even slots of ``band``'s row 1.  The solution
    overwrites ``rhs``."""
    global _dtbtrs
    if _dtbtrs is None:
        from scipy.linalg.lapack import dtbtrs as _dtbtrs

    rhs[:] = 0.0
    rhs[0], rhs[1] = y_first, d_before
    x, _ = _dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=1)
    return x[0::2], x[1::2]


def count_nodes_sweep(w, r2, energy, h, u0, u1, work):
    """Outward Numerov sweep of u'' = (w - 2 E r2) u in steps of ``h``, from
    the start values ``u0`` and ``u1``; returns (sign changes, last value).

    ``w`` and ``r2`` are arrays over the grid: on the eigensolver's
    logarithmic mesh, w = (l + 1/2)^2 - 2 A r exp(-delta r) and r2 = r^2.
    ``work`` is the grid's :func:`workspace`, which the sweep overwrites.
    ``bench/spans.py`` looks this function up through the module and counts
    a sweep's points as ``len(args[0])``, so ``w`` stays first.
    """
    import numpy as np

    n = len(w)
    band, rhs, t, c, u = work
    # t = h^2 / 12 (w - 2 E r2) and c = 1 - t, in place, with the rounding
    # of those expressions
    np.multiply(r2, 2.0 * energy, out=t)
    np.subtract(w, t, out=t)
    np.multiply(t, h * h / 12.0, out=t)
    np.subtract(1.0, t, out=c)
    # -g_i, written straight into the band's strided row: on meshes of
    # 401-6401 points a call saved outweighs the strided stores.  (-12 t) / c
    # rounds exactly as -(12 t / c) does.
    np.multiply(t, -12.0, out=t)
    np.divide(t, c, out=band[1, 0::2])
    u[0], u[1] = u0, u1
    start, y, d = 1, c[1] * u1, c[1] * u1 - c[0] * u0
    # Past the first point above the limit the solve may overflow; those
    # values are discarded and solved again from the rescaled point.
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n - 1:
            ys, ds = _summed_solve(band[:, 2 * start:], rhs[2 * start:], y, d)
            tail = u[start + 1:]
            np.divide(ys[1:], c[start + 1:], out=tail)
            over = (np.abs(tail, out=t[start + 1:]) > RESCALE_LIMIT).nonzero()[0]
            if not over.size:
                break
            j = over[0] + 1
            start, y, d = start + j, ys[j] * RESCALE_FACTOR, ds[j - 1] * RESCALE_FACTOR
            u[start] *= RESCALE_FACTOR

    # an exact zero has no sign, so it is skipped, but it rarely occurs
    signs = np.signbit(u if u.all() else u[u != 0.0])
    return int(np.count_nonzero(signs[1:] != signs[:-1])), float(u[-1])
