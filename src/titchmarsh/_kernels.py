"""Segment kernels over half-open windows [lo, hi) of consecutive integers.

Every kernel expects ``primes`` to contain all primes up to
isqrt(hi - 1), sorted ascending, as an int64 array; the primality
kernel may instead sieve a class c + m*t over a window of t, given the
base primes prime to m and the first t each strikes.  The factorization
kernels share one strike (``strike``): each base prime is struck
through the window and divided out of a residual array, and a residual
> 1 left at the end is a single prime factor (a composite residual
would have two factors above sqrt(n), exceeding n).  Each value kernel
folds its local-factor rule (``RULES``) over that stream.

A sum reads its function only at n = p - a, about one n in log x, so
the strike and every value kernel take an optional ``grid`` = (pi, g,
rlo, hit), the n = g * (rlo + r) + pi at the set bits r of the bitmap
hit: the sweep's primality flags, half the window (g = 2) when its n
have one parity pi, else the whole window (g = 1, pi = 0).  Values come
back in the order of the bits, and whole-window tables pass no grid.

Every walk of base primes through a window splits the progressions
first[i] + t * step[i] of ascending steps in one place: ``multiples``
yields the steps below 1/STRIDE_RATIO of the window as strided views
and the rest in batches from ``progressions``; two readers of a bitmap
make the same split: ``_hits`` yields the set entries, its views
concatenated into batches, and ``_counts`` counts them per progression.

The strike yields a slice of the window with an int p (the dense
strike's strided views), or an index array with an array of primes of
the same length.  The sparse strike takes p = 2 from the lowest set bit
of every residual; the odd primes below max(size / bits, size /
BATCH_HITS) and size / STRIDE_RATIO, size being the bitmap's and bits
its set bits, about log x of them, by a divisibility test of the
residuals, which reads fewer integers than their strides through the
bitmap; and the rest through ``_hits``, at stride p in r from the first
bit with p | n (``_on_bitmap``).  The hyperbola count of ``sums`` reads
the same bitmap, with ``_counts``.  The dense strike keeps the primes
ascending.

``ACTIVE`` is the namespace the rest of the package calls the kernels
through, one attribute per kernel, so any of them can be swapped for a
wrapper at run time.  Every value kernel takes (lo, hi, primes, k, grid)
positionally, k unread by a rule without one, so a wrapper that
forwards ``*args`` forwards them too.
"""

from functools import partial
from math import isqrt
from types import SimpleNamespace

import numpy as np

BACKEND = "numpy"

# Steps below 1/STRIDE_RATIO of the width are walked as strided views
# (by the count too); longer ones hit so few integers each that they go
# in batches of at most BATCH_HITS computed hits, which bounds a batch's
# memory.  The sparse strike's views go out in batches of at most
# BATCH_HITS entries, and no view is longer (its primes are at least the
# bitmap's size / BATCH_HITS), nor is a block of cofactors; its residual
# passes read one residual per set bit each.
STRIDE_RATIO = 64
BATCH_HITS = 1 << 16


def _runs(ends):
    """Consecutive runs [i, j) of items whose sizes have the running
    totals ``ends``, each run at most BATCH_HITS in all; an item larger
    than that is a run of its own.  Yields (i, j, done), done being the
    total before item i."""
    i = 0
    while i < ends.size:
        done = int(ends[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(ends, done + BATCH_HITS, side="right")))
        yield i, j, done
        i = j


def progressions(first, step, counts):
    """Expand the progressions first[i] + t * step[i], 0 <= t < counts[i],
    in chunks of at most BATCH_HITS terms, in order.  Yields (which,
    idx): the terms idx of the chunk, and which[t], the progression that
    term idx[t] is from."""
    ends = np.cumsum(counts)
    for i, j, done in _runs(ends):
        if ends[i] - done > BATCH_HITS:
            # progression i alone is longer than a chunk: split it
            for t0 in range(0, int(counts[i]), BATCH_HITS):
                t = np.arange(t0, min(t0 + BATCH_HITS, int(counts[i])))
                yield np.full(t.size, i), first[i] + t * step[i]
            continue
        c = counts[i:j]
        which = np.repeat(np.arange(i, j), c)
        t = np.arange(which.size) - np.repeat(ends[i:j] - c - done, c)
        yield which, first[which] + t * step[which]


def _split(first, step, size):
    # the number of steps below size / STRIDE_RATIO, and each one's count of terms below size
    return int(np.searchsorted(step, size // STRIDE_RATIO)), (size - first + step - 1) // step


def multiples(first, step, size):
    """Walk the progressions first[i] + t * step[i] below size, for
    ascending steps and 0 <= first[i] < max(size, step[i]).  A step below
    size / STRIDE_RATIO yields (slice(first[i], None, step[i]), i); the
    rest come as the (idx, which) chunks of ``progressions``."""
    cut, counts = _split(first, step, size)
    # map and zip, not a Python loop, which made the primality kernel slower
    yield from zip(map(slice, first[:cut].tolist(), [None] * cut, step[:cut].tolist()), range(cut))
    counts[:cut] = 0  # walked above; ``which`` still indexes every step
    for which, idx in progressions(first, step, counts):
        yield idx, which


def _hits(flags, first, step):
    """(offs, which) for the true entries flags[offs] on the walk of
    ``multiples`` with size = flags.size, which[t] the progression of
    offs[t]; the strided views are read in batches of at most BATCH_HITS
    entries (a longer view alone)."""
    cut, counts = _split(first, step, flags.size)
    ends = np.cumsum(counts[:cut])
    # entry t of the concatenated views, in view v, is at origin[v] + t * step[v]
    origin = first[:cut] - (ends - counts[:cut]) * step[:cut]
    for i, j, done in _runs(ends):
        views = zip(first[i:j].tolist(), step[i:j].tolist())
        t = np.flatnonzero(np.concatenate([flags[o::s] for o, s in views])) + done
        v = np.searchsorted(ends, t, side="right")
        yield origin[v] + t * step[v], v
    counts[:cut] = 0
    for which, offs in progressions(first, step, counts):
        keep = np.flatnonzero(flags[offs])
        yield offs[keep], which[keep]


def _tally(out, which):
    # out[which[t]] += 1 for every t; which is ascending
    if which.size:
        first = int(which[0])
        c = np.bincount(which - first)
        out[first : first + c.size] += c


def _counts(flags, first, step):
    """The number of true entries of flags on each progression first[i] +
    t * step[i] of ``multiples`` with size = flags.size: the strided views
    are counted one by one, the batches tallied."""
    cut, counts = _split(first, step, flags.size)
    out = np.zeros(first.size, dtype=np.int64)
    out[:cut] = [np.count_nonzero(flags[o::s]) for o, s in zip(first[:cut].tolist(), step[:cut].tolist())]
    counts[:cut] = 0
    for which, offs in progressions(first, step, counts):
        _tally(out, which[flags[offs]])
    return out


def _divide(residual, idx, p):
    """Divide the full power of p[t] out of residual[idx[t]] for every t
    (idx may repeat a position) and return the exponents."""
    q = residual[idx] // p
    e = np.ones(p.size, dtype=np.int64)
    pe = p.copy()
    hit = np.flatnonzero(q % p == 0)
    hit = hit[q[hit] > 0]  # a positive q shrinks each pass, so the loop ends
    while hit.size:
        e[hit] += 1
        pe[hit] *= p[hit]
        q[hit] //= p[hit]
        hit = hit[q[hit] % p[hit] == 0]
    np.floor_divide.at(residual, idx, pe)
    return e


def strike(lo, hi, primes, grid=None):
    """Factor every n in [lo, hi) over the base primes, or with ``grid``,
    only the n = g * (rlo + r) + pi in it at the set bits r of hit.

    Yields (idx, p, e): the positions idx of the multiples of p and the
    exponent e of p at each.  A position is a window offset, or with
    ``grid`` the rank of a set bit among them.  Where p is an int, idx
    is a slice; otherwise idx, p and e are arrays of one length, and idx
    may repeat a position.  Last come the cofactors, block by block of
    at most BATCH_HITS positions: the positions whose residual exceeds
    1, the residual there, and exponent 1.  Without ``grid`` the primes
    come in ascending order.
    """
    primes = primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")]
    if grid is None:
        residual = np.arange(lo, hi, dtype=np.int64)
        yield from _strike_dense(lo, hi - lo, primes, residual)
    else:
        residual = np.flatnonzero(grid[3])  # the set bits r, made their n below
        yield from _strike_sparse(primes, grid, residual)
    for c in range(0, residual.size, BATCH_HITS):
        r = residual[c : c + BATCH_HITS]
        idx = np.nonzero(r > 1)[0]
        yield idx + c, r[idx], np.ones(idx.size, dtype=np.int64)


def _strike_dense(lo, width, primes, residual):
    for idx, i in multiples(-lo % primes, primes, width):
        if isinstance(idx, slice):
            s, p = idx.start, idx.step
            view = residual[idx]
            view //= p
            e = np.ones(view.size, dtype=np.int64)
            # multiples of p**2, p**3, ... are sub-strides of the multiples of p
            q = p * p
            t = -lo % q
            while t < width:
                residual[t::q] //= p
                e[(t - s) // p :: q // p] += 1
                q *= p
                t = -lo % q
            yield idx, p, e
        else:
            p = primes[i]
            yield idx, p, _divide(residual, idx, p)


def _on_bitmap(s, start, pi, g):
    # the n = 0 (mod s) from start on as r = (n - pi) / g: the first r and
    # the stride in r.  For g = 2 an odd s keeps its stride, with 2r + pi
    # = 0 (mod s) at r = -pi * (s + 1) / 2; an even s has stride s / 2 in
    # the even n and no odd n, so it counts only where s & 1 >= pi.  The
    # first r is built in place: for the ~60,000 base primes of a window
    # near 2**39, fresh temporaries cost twice the arithmetic.
    odd = s & 1
    step = s >> (odd ^ 1) if g == 2 else s
    r = -((pi - start) // g)
    first = (s + 1) >> 1
    first *= -pi
    first -= r
    first %= step
    first += r
    return first, step, odd >= pi


def _strike_sparse(primes, grid, residual):
    # the three groups of the module docstring, each in a few array
    # passes rather than one Python iteration per prime.  ``residual``
    # comes in as the set bits r, and becomes their n once the rank map
    # is read off it.  The bitmap group runs first and frees its maps
    # before the residual group makes its temporaries, the largest.
    pi, g, rlo, hit = grid
    size = hit.size
    # bitmap offset -> position, read only at the set bits: the first
    # position of its 2**16 block plus a uint16 rank in the block, half
    # the memory of an int32 map
    block = np.searchsorted(residual, np.arange(0, size, 1 << 16))
    rank = np.empty(size, dtype=np.uint16)
    rank[residual] = np.arange(residual.size) - block[residual >> 16]
    residual *= g
    residual += g * rlo + pi
    if not (residual.size and primes.size):
        return
    # the residual group ends where the strided views begin, or earlier
    few = max(-(-size // residual.size), -(-size // BATCH_HITS))
    mid = max(1, int(np.searchsorted(primes, min(few, size // STRIDE_RATIO))))
    odd = primes[mid:]
    first = _on_bitmap(odd, g * rlo + pi, pi, g)[0]
    first -= rlo
    for offs, which in _hits(hit, first, odd):
        if which.size:
            idx = block[offs >> 16] + rank[offs]
            p = odd[which]
            yield idx, p, _divide(residual, idx, p)
    del block, rank
    yield from _strike_residuals(residual, primes[1:mid].tolist())


def _strike_residuals(residual, small):
    # p = 2 from the lowest set bit of r, at most 2**41, so exact as a
    # double; then each odd prime in ``small`` by a divisibility test of
    # the residuals, by a floor division (several times faster than a
    # modulo by a scalar), and ``_divide``.
    low = residual & -residual
    idx = np.flatnonzero(low > 1)
    if idx.size:
        e = np.frexp(low[idx].astype(np.float64))[1].astype(np.int64) - 1
        residual[idx] >>= e
        yield idx, np.full(idx.size, 2), e
    for p in small:
        idx = np.flatnonzero(residual // p * p == residual)
        if idx.size:
            ps = np.full(idx.size, p)
            yield idx, ps, _divide(residual, idx, ps)


# The local-factor rules, named as their kernels: a fold ufunc and one or
# two factors of (p, e, k), each for Python ints and int64 arrays alike;
# two factors give the ratio of their folds, Pillai's num / den.
RULES = {
    "divisor": (np.multiply, lambda p, e, k: e + 1),
    # k - 1 held to int64 for numpy; no exponent reaches 2**63 - 1, so a larger k caps nothing
    "kfree": (np.multiply, lambda p, e, k: np.minimum(e, min(k, 1 << 63) - 1) + 1),
    "omega": (np.add, lambda p, e, k: 1),
    "mu": (np.multiply, lambda p, e, k: (e > 1) - 1),
    "phi": (np.multiply, lambda p, e, k: p ** (e - 1) * (p - 1)),
    "mu_k": (np.multiply, lambda p, e, k: (e != k) - 1),
    "pillai": (np.multiply, lambda p, e, k: p + e * (p - 1), lambda p, e, k: p),
}


def _fold(rule, lo, hi, primes, k=None, grid=None):
    """The kernel of RULES[rule], one int64 array per factor: ufunc's
    identity combined by ufunc with factor(p, e, k) for every prime power
    p**e exactly dividing each n in the window (with ``grid``, at its set
    bits, in their order), in whatever order the strike yields them.  A
    rule of one factor gives its one array, Pillai's the pair; a rule
    that does not read k ignores it."""
    ufunc, *factors = RULES[rule]
    size = hi - lo if grid is None else np.count_nonzero(grid[3])
    out = [np.full(size, ufunc.identity, dtype=np.int64) for _ in factors]
    for idx, p, e in strike(lo, hi, primes, grid):
        for arr, factor in zip(out, factors):
            if isinstance(idx, slice):
                view = arr[idx]
                ufunc(view, factor(p, e, k), out=view)
            else:
                # an index array may repeat a position
                ufunc.at(arr, idx, factor(p, e, k))
    return out[0] if len(out) == 1 else tuple(out)


def _primality(lo, hi, primes, first=None):
    """Flags of the t in [lo, hi) whose c + m*t is prime, for a class
    c (mod m) given by ``first``: each base prime l not dividing m,
    ascending in ``primes``, strikes the t = first[i] (mod l) from
    first[i] on, the t with l | c + m*t and c + m*t >= l*l.  Without
    ``first``, the line c = 0, m = 1: each prime strikes from its
    square, and 0 and 1 are cleared."""
    width = hi - lo
    flags = np.ones(width, dtype=np.bool_)
    if first is None:
        first = primes * primes
        flags[: max(0, 2 - lo)] = False
    keep = first < hi
    primes, first = primes[keep], first[keep]
    # the offset of each prime's first strike in the window
    first = np.maximum(first, lo + (first - lo) % primes) - lo
    for idx, _ in multiples(first, primes, width):
        flags[idx] = False
    return flags


def _fixed_parts(num, den, idx):
    # The exact sum of floor(num/den * 2**64) over the selected positions
    # (idx is an index array or a slice), summed in four parts so every
    # intermediate fits in int64: for n < 2**41, den = rad(n) < 2**41 and
    # num <= d(n) * den keep num//den plus three chained remainder shifts
    # (22 + 22 + 20 = 64 bits, each r << 22 below 2**63) in range.
    # Weights of the four parts: 2**64, 2**42, 2**20, 2**0.
    d = den[idx]
    q, r = np.divmod(num[idx], d)
    total = int(q.sum()) << 64
    for shift, weight in ((22, 42), (22, 20), (20, 0)):
        q, r = np.divmod(r << shift, d)
        total += int(q.sum()) << weight
    return total


ACTIVE = SimpleNamespace(
    primality=_primality,
    divisor=partial(_fold, "divisor"),
    kfree=partial(_fold, "kfree"),
    omega=partial(_fold, "omega"),
    mu=partial(_fold, "mu"),
    pillai=partial(_fold, "pillai"),
    fixed_parts=_fixed_parts,
)
