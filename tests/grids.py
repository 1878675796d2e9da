"""The grids (pi, g, rlo, hit) that the sparse kernels and the hyperbola
count read: the bitmap hit holds the n = g * (rlo + r) + pi at its set
bits r.  The sweep hands its parts its primality flags as hit; the tests
build a grid from the integers it is to hold."""

import numpy as np


def grid(lo, hi, n, g=None):
    """The grid of the ascending integers n in [lo, hi), over the n' = pi
    (mod g) of the window.  g defaults to 2, pi the parity of the n, when
    every n has one parity, as on the sweep's line and odd classes, and
    to 1, pi = 0, the whole window, otherwise."""
    n = np.asarray(n, dtype=np.int64)
    if g is None:
        g = 2 if n.size and (n % 2 == n[0] % 2).all() else 1
    pi = int(n[0] % g) if n.size else lo % g
    assert ((n % g == pi) & (n >= lo) & (n < hi)).all()
    rlo = -((pi - lo) // g)
    hit = np.zeros(-((pi - hi) // g) - rlo, dtype=np.bool_)
    hit[(n - pi) // g - rlo] = True
    return pi, g, rlo, hit


def held(grid):
    """The integers at the set bits of a grid, ascending."""
    pi, g, rlo, hit = grid
    return g * (rlo + np.flatnonzero(hit)) + pi
