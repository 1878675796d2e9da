"""Segment kernels over half-open windows [lo, hi) of consecutive integers.

Every kernel expects ``primes`` to contain all primes up to
isqrt(hi - 1), sorted ascending, as an int64 array.  The factorization
kernels share one strike (``strike``): each base prime is struck
through the window and divided out of a residual array, and a residual
> 1 left at the end is a single prime factor (a composite residual
would have two factors above sqrt(n), exceeding n).  Each kernel is a
local-factor rule folded over that stream.

A sum reads its function only at n = p - a, about one n in log x, so
the strike and every value kernel take an optional ascending array
``at`` of window offsets: the residual then holds only those n, the
values come back in the order of ``at``, and the sums are factored at
the eligible n only.  Whole-window tables pass no ``at``.

``ACTIVE`` is the namespace the rest of the package calls the kernels
through, one attribute per kernel, so any of them can be swapped for a
wrapper at run time.  Callers pass ``at`` positionally, so a wrapper
that forwards ``*args`` forwards it too.
"""

from math import isqrt
from types import SimpleNamespace

import numpy as np

BACKEND = "numpy"

# Primes below STRIDE_LIMIT and below 1/STRIDE_RATIO of the number of
# integers struck (the window width, or the size of ``at``) update
# strided views of the window one prime at a time.  Larger primes hit so
# few of those integers each that per-prime overhead would dominate, so
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


def strike(lo, hi, primes, at=None):
    """Factor every n in [lo, hi) over the base primes, or with ``at``,
    an ascending array of window offsets, only the n = lo + at[i].

    Yields (idx, p, e): the positions idx of the multiples of p and the
    exponent e of p at each.  A position is a window offset, or with
    ``at`` an index into ``at``.  For the strided primes p is an int and
    idx a slice (an index array with ``at``) of distinct positions;
    above them, idx, p and e are arrays over a batch of primes and idx
    may repeat a position.  Last come the cofactors, block by block of
    at most BATCH_HITS positions: the positions whose residual exceeds
    1, the residual there, and exponent 1.
    """
    width = hi - lo
    if at is None:
        residual = np.arange(lo, hi, dtype=np.int64)
    else:
        at = np.asarray(at, dtype=np.int64)
        residual = at + lo
        # window offset -> index into at, -1 off at
        where = np.full(width, -1, dtype=np.int32)
        where[at] = np.arange(at.size, dtype=np.int32)
    primes = primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")]
    split = int(np.searchsorted(primes, min(STRIDE_LIMIT, residual.size // STRIDE_RATIO)))
    for p in primes[:split].tolist():
        s = -lo % p
        if s >= width:
            continue
        if at is not None:
            idx = where[s::p]
            idx = idx[idx >= 0]
            if idx.size:
                r = residual[idx] // p
                e = np.ones(idx.size, dtype=np.int64)
                hit = np.nonzero(r % p == 0)[0]
                while hit.size:
                    e[hit] += 1
                    r[hit] //= p
                    hit = hit[r[hit] % p == 0]
                residual[idx] = r
                yield idx, p, e
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
        if at is not None:
            idx = where[idx]
            keep = idx >= 0
            which, idx = which[keep], idx[keep]
        p = big[which]
        q = residual[idx] // p
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
    for c in range(0, residual.size, BATCH_HITS):
        r = residual[c : c + BATCH_HITS]
        idx = np.nonzero(r > 1)[0]
        yield idx + c, r[idx], np.ones(idx.size, dtype=np.int64)


def _fold(lo, hi, primes, ufunc, *factors, at=None, dtype=np.int64):
    """One ``dtype`` array per local factor: ufunc's identity combined by
    ufunc with factor(p, e) for every prime power p**e exactly dividing
    each n in the window (with ``at``, each n = lo + at[i]), in ascending
    order of p with the cofactor last."""
    size = hi - lo if at is None else len(at)
    out = [np.full(size, ufunc.identity, dtype=dtype) for _ in factors]
    for idx, p, e in strike(lo, hi, primes, at):
        for arr, factor in zip(out, factors):
            if not isinstance(p, int):
                # a batch may repeat a position
                ufunc.at(arr, idx, factor(p, e))
            elif isinstance(idx, slice):
                view = arr[idx]
                ufunc(view, factor(p, e), out=view)
            else:
                arr[idx] = ufunc(arr[idx], factor(p, e))
    return out


def _primality(lo, hi, primes):
    # strikes from p*p on, the primes below 1/STRIDE_RATIO of the width as
    # strided views and the rest in batches, as in ``strike``; a strided
    # prime costs one slice assignment here, so STRIDE_LIMIT does not cap them
    width = hi - lo
    flags = np.ones(width, dtype=np.bool_)
    primes = primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")]
    split = int(np.searchsorted(primes, width // STRIDE_RATIO))
    for p in primes[:split].tolist():
        flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    big = primes[split:]
    first = np.maximum(big * big, -(-lo // big) * big) - lo
    for _, idx in progressions(first, big, (width - first + big - 1) // big):
        flags[idx] = False
    flags[: max(0, 2 - lo)] = False
    return flags


def _divisor(lo, hi, primes, at=None):
    return _fold(lo, hi, primes, np.multiply, lambda p, e: e + 1, at=at)[0]


def _kfree(lo, hi, primes, k, at=None):
    return _fold(lo, hi, primes, np.multiply, lambda p, e: np.minimum(e, k - 1) + 1, at=at)[0]


def _omega(lo, hi, primes, at=None):
    return _fold(lo, hi, primes, np.add, lambda p, e: 1, at=at)[0]


def _mu(lo, hi, primes, at=None):
    return _fold(lo, hi, primes, np.multiply, lambda p, e: np.where(e > 1, 0, -1), at=at)[0]


def _pillai(lo, hi, primes, at=None):
    # numerator and denominator of prod_{p^e || n} (p + e*(p-1)) / p
    num, den = _fold(lo, hi, primes, np.multiply, lambda p, e: p + e * (p - 1), lambda p, e: p, at=at)
    return num, den


def _fixed_parts(num, den, idx):
    # The exact sum of floor(num/den * 2**64) over the selected positions
    # (idx is an index array or a slice), summed in four parts so every
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
    return (int(q0.sum()) << 64) + (int(q1.sum()) << 41) + (int(q2.sum()) << 18) + int(q3.sum())


ACTIVE = SimpleNamespace(
    primality=_primality,
    divisor=_divisor,
    kfree=_kfree,
    omega=_omega,
    mu=_mu,
    pillai=_pillai,
    fixed_parts=_fixed_parts,
)
