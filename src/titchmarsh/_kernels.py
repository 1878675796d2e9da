"""Segment kernels over half-open windows [lo, hi) of consecutive integers.

Every kernel expects ``primes`` to contain all primes up to
isqrt(hi - 1), sorted ascending, as an int64 array.  The factorization
kernels share one strike (``strike``): each base prime is struck
through the window and divided out of a residual array, and a residual
> 1 left at the end is a single prime factor (a composite residual
would have two factors above sqrt(n), exceeding n).  Each kernel is a
local-factor rule folded over that stream.

``ACTIVE`` is the namespace the rest of the package calls the kernels
through, one attribute per kernel, so any of them can be swapped for a
wrapper at run time.
"""

from math import isqrt
from types import SimpleNamespace

import numpy as np

BACKEND = "numpy"

# Primes below STRIDE_LIMIT and below 1/STRIDE_RATIO of the window width
# update strided views of the window one prime at a time.  Larger primes
# hit so few positions each that per-prime overhead would dominate, so
# they are struck together in batches of at most BATCH_HITS computed
# hits, which bounds the memory a batch takes; the cofactors go out in
# blocks of the same size.
STRIDE_LIMIT = 1 << 12
STRIDE_RATIO = 64
BATCH_HITS = 1 << 16


def progressions(first, step, counts):
    """Expand the progressions first[i] + t * step[i], 0 <= t < counts[i],
    in chunks of at most BATCH_HITS terms, in order.  Yields (which,
    idx): the terms idx of the chunk, and which[t], the progression that
    term idx[t] is from."""
    ends = np.cumsum(counts)
    i = 0
    while i < ends.size:
        done = int(ends[i - 1]) if i else 0
        j = int(np.searchsorted(ends, done + BATCH_HITS, side="right"))
        if j == i:
            # progression i alone is longer than a chunk: split it
            for t0 in range(0, int(counts[i]), BATCH_HITS):
                t = np.arange(t0, min(t0 + BATCH_HITS, int(counts[i])))
                yield np.full(t.size, i), first[i] + t * step[i]
            i += 1
            continue
        c = counts[i:j]
        which = np.repeat(np.arange(i, j), c)
        t = np.arange(which.size) - np.repeat(ends[i:j] - c - done, c)
        yield which, first[which] + t * step[which]
        i = j


def strike(lo, hi, primes):
    """Factor every n in [lo, hi) over the base primes.

    Yields (idx, p, e): window offsets idx of the multiples of p and the
    exponent e of p at each.  For the strided primes, idx is a slice and
    p an int; above them, idx, p and e are arrays over a batch of primes
    and idx may repeat a position.  Last come the cofactors, block by block
    of at most BATCH_HITS positions: the positions whose residual
    exceeds 1, the residual there, and exponent 1.
    """
    width = hi - lo
    residual = np.arange(lo, hi, dtype=np.int64)
    primes = primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")]
    split = int(np.searchsorted(primes, min(STRIDE_LIMIT, width // STRIDE_RATIO)))
    for p in primes[:split].tolist():
        s = -lo % p
        if s >= width:
            continue
        view = residual[s::p]
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
        yield slice(s, None, p), p, e
    big = primes[split:]
    first = -lo % big
    counts = (width - first + big - 1) // big
    for which, idx in progressions(first, big, counts):
        p = big[which]
        q = (idx + lo) // p
        e = np.ones(p.size, dtype=np.int64)
        pe = p.copy()
        hit = np.nonzero(q % p == 0)[0]
        while hit.size:
            e[hit] += 1
            pe[hit] *= p[hit]
            q[hit] //= p[hit]
            hit = hit[q[hit] % p[hit] == 0]
        np.floor_divide.at(residual, idx, pe)
        yield idx, p, e
    for c in range(0, width, BATCH_HITS):
        r = residual[c : c + BATCH_HITS]
        idx = np.nonzero(r > 1)[0]
        yield idx + c, r[idx], np.ones(idx.size, dtype=np.int64)


def _fold(lo, hi, primes, ufunc, *factors, dtype=np.int64):
    """One ``dtype`` array per local factor: ufunc's identity combined by
    ufunc with factor(p, e) for every prime power p**e exactly dividing
    each n in the window, in ascending order of p with the cofactor last."""
    out = [np.full(hi - lo, ufunc.identity, dtype=dtype) for _ in factors]
    for idx, p, e in strike(lo, hi, primes):
        for arr, factor in zip(out, factors):
            if isinstance(idx, slice):
                view = arr[idx]
                ufunc(view, factor(p, e), out=view)
            else:
                ufunc.at(arr, idx, factor(p, e))
    return out


def _primality(lo, hi, primes):
    width = hi - lo
    flags = np.ones(width, dtype=np.bool_)
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            flags[start - lo :: p] = False
    for n in range(lo, min(hi, 2)):
        flags[n - lo] = False
    return flags


def _divisor(lo, hi, primes):
    return _fold(lo, hi, primes, np.multiply, lambda p, e: e + 1)[0]


def _kfree(lo, hi, primes, k):
    return _fold(lo, hi, primes, np.multiply, lambda p, e: np.minimum(e, k - 1) + 1)[0]


def _omega(lo, hi, primes):
    return _fold(lo, hi, primes, np.add, lambda p, e: 1)[0]


def _mu(lo, hi, primes):
    return _fold(lo, hi, primes, np.multiply, lambda p, e: np.where(e > 1, 0, -1))[0]


def _pillai(lo, hi, primes):
    # numerator and denominator of prod_{p^e || n} (p + e*(p-1)) / p
    num, den = _fold(lo, hi, primes, np.multiply, lambda p, e: p + e * (p - 1), lambda p, e: p)
    return num, den


def _fixed_parts(num, den, idx):
    # Exact partial sums of floor(num/den * 2**64) over the selected
    # positions (idx is an int index array), decomposed so every
    # intermediate fits in int64: num < 2**40 * d(n) keeps num//den plus
    # three chained remainder shifts (23 + 23 + 18 = 64 bits) in range.
    # Weights of the four parts: 2**64, 2**41, 2**18, 2**0.
    n = num[idx]
    d = den[idx]
    q0 = n // d
    r = n % d
    t = r << 23
    q1 = t // d
    r = t % d
    t = r << 23
    q2 = t // d
    r = t % d
    t = r << 18
    q3 = t // d
    return (int(q0.sum()), int(q1.sum()), int(q2.sum()), int(q3.sum()))


ACTIVE = SimpleNamespace(
    primality=_primality,
    divisor=_divisor,
    kfree=_kfree,
    omega=_omega,
    mu=_mu,
    pillai=_pillai,
    fixed_parts=_fixed_parts,
)
