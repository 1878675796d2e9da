"""The grids (g, hit) that the sparse kernels and the hyperbola count
read: the bitmap hit holds the n = lo + g * r at its set bits r, lo
being the first n of the window it comes with.  The sweep hands its
parts its primality flags as hit; the tests build a window and its grid
from the integers it is to hold."""

import numpy as np


def grid(lo, hi, n, g=None):
    """The window [lo', hi) and grid of the ascending integers n in [lo,
    hi), over the n' = lo' (mod g) of the window, lo' being lo moved up
    to the first n' of the class of the n.  g defaults to 2 when every n
    has one parity, as on the sweep's line and odd classes, and to 1,
    the whole window, otherwise."""
    n = np.asarray(n, dtype=np.int64)
    if g is None:
        g = 2 if n.size and (n % 2 == n[0] % 2).all() else 1
    if n.size:
        lo += int(n[0] - lo) % g
    assert (((n - lo) % g == 0) & (n >= lo) & (n < hi)).all()
    hit = np.zeros(-((lo - hi) // g), dtype=np.bool_)
    hit[(n - lo) // g] = True
    return lo, hi, (g, hit)


def held(lo, grid):
    """The integers at the set bits of a grid whose window starts at lo,
    ascending."""
    g, hit = grid
    return lo + g * np.flatnonzero(hit)
