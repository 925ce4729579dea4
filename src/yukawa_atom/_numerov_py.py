"""Pure-Python Numerov sweep, the eigensolver's node counter.

The outward solution is rescaled by ``RESCALE_FACTOR`` whenever it passes
``RESCALE_LIMIT``, which keeps deep trial energies inside the float range
without changing any sign.
"""

RESCALE_LIMIT = 1e250
RESCALE_FACTOR = 1e-250


def count_nodes_sweep(w, energy, h, u0, u1):
    """Outward Numerov sweep of chi'' = f chi; returns (sign changes, last value).

    ``w`` is the energy-independent part of f = 2(V_eff - E) on a uniform
    grid of spacing ``h``.
    """
    n = len(w)
    if n < 3:
        return 0, u1

    h2_12 = h * h / 12.0
    um = u0
    uc = u1
    nodes = 0
    sprev = 0.0
    if u0 != 0.0:
        sprev = 1.0 if u0 > 0.0 else -1.0
    if uc != 0.0:
        if sprev != 0.0 and ((uc > 0.0) != (sprev > 0.0)):
            nodes += 1
        sprev = 1.0 if uc > 0.0 else -1.0

    t = h2_12 * (w - 2.0 * energy)
    t = t.tolist()
    tm = t[0]
    tc = t[1]
    for i in range(1, n - 1):
        tp = t[i + 1]
        un = ((2.0 + 10.0 * tc) * uc - (1.0 - tm) * um) / (1.0 - tp)
        um = uc
        uc = un
        tm = tc
        tc = tp
        if uc > RESCALE_LIMIT or -uc > RESCALE_LIMIT:
            uc *= RESCALE_FACTOR
            um *= RESCALE_FACTOR
        if uc != 0.0:
            if sprev != 0.0 and ((uc > 0.0) != (sprev > 0.0)):
                nodes += 1
            sprev = 1.0 if uc > 0.0 else -1.0
    return nodes, uc
