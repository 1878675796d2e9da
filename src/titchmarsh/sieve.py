"""Prime generation and segmented factorization.

The drivers here produce primes up to a bound, primality bitmaps over
windows, and compact factorizations of every integer in a window.
Windows are half-open ``Segment(lo, hi)`` values whose width is capped
so per-segment memory stays bounded; long ranges are covered by
stitching segments (see ``iter_segments``).
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import _kernels

DEFAULT_SEGMENT_WIDTH = 1 << 20
MAX_RANGE = 1 << 40
MAX_PRIME_LIMIT = 1 << 32
# [1, MAX_RANGE] spans this many default widths; a range spanning more
# widths is refused before any Segment is built, which bounds the list
MAX_SEGMENTS = MAX_RANGE // DEFAULT_SEGMENT_WIDTH


@dataclass(frozen=True)
class PrimeList:
    """All primes up to ``limit``, ascending, as an int64 array."""

    limit: int
    primes: np.ndarray

    def __len__(self):
        return int(self.primes.size)


@dataclass(frozen=True, slots=True)
class Segment:
    """Half-open window [lo, hi) of consecutive integers, 0 < lo < hi;
    slotted, since a sweep lists up to MAX_SEGMENTS of them."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise ValueError("segment bounds must be integers")
        if not 0 < self.lo < self.hi:
            raise ValueError(f"bad segment [{self.lo}, {self.hi})")

    @property
    def width(self):
        return self.hi - self.lo


def primes_up_to(n):
    """All primes up to and including n, by the segmented sieve: the
    primes up to isqrt(n), from this function itself (none when n < 4),
    are struck through each window of ``iter_segments(2, n + 1)`` by the
    primality kernel.

    Memory is one window of flags plus the primes returned.
    """
    n = int(n)
    if n < 2:
        raise ValueError("no primes below 2")
    if n > MAX_PRIME_LIMIT:
        raise ValueError(f"prime limit {n} exceeds {MAX_PRIME_LIMIT}")
    base = primes_up_to(isqrt(n)).primes if n >= 4 else np.zeros(0, dtype=np.int64)
    found = [
        np.flatnonzero(_kernels.ACTIVE.primality(seg.lo, seg.hi, base)) + seg.lo
        for seg in iter_segments(2, n + 1)
    ]
    return PrimeList(n, np.concatenate(found))


def iter_segments(lo, hi, width=DEFAULT_SEGMENT_WIDTH, cuts=()):
    """Segments covering [lo, hi), cut on the absolute width grid and
    additionally at every boundary in ``cuts`` that falls inside.

    The width lies in [1, DEFAULT_SEGMENT_WIDTH], so every window fits
    the cap of the window functions, and the range may span at most
    MAX_SEGMENTS widths."""
    if not lo < hi:
        raise ValueError("empty range")
    _check_width(width, lo, hi, width)
    bounds = {lo, hi}
    g = (lo // width + 1) * width
    while g < hi:
        bounds.add(g)
        g += width
    for c in cuts:
        if lo < c < hi:
            bounds.add(int(c))
    edges = sorted(bounds)
    return [Segment(a, b) for a, b in zip(edges, edges[1:])]


def _check_width(width, lo, hi, step):
    # a segment width outside [1, DEFAULT_SEGMENT_WIDTH] is refused, and so
    # is one whose segments, each spanning ``step`` values of [lo, hi), cut
    # it into more than MAX_SEGMENTS; the message names ``width``, the caller's
    if not 1 <= width <= DEFAULT_SEGMENT_WIDTH:
        raise ValueError(f"segment width must lie in [1, {DEFAULT_SEGMENT_WIDTH}], got {width}")
    if hi - lo > MAX_SEGMENTS * step:
        raise ValueError(
            f"segment width {width} is too narrow for [{lo}, {hi}): "
            f"the range spans more than {MAX_SEGMENTS} segments"
        )


def _check_window(seg, base, min_lo):
    if seg.lo < min_lo:
        raise ValueError(f"window must start at {min_lo} or above")
    if seg.width > DEFAULT_SEGMENT_WIDTH:
        raise ValueError(f"segment width {seg.width} exceeds cap {DEFAULT_SEGMENT_WIDTH}")
    need = isqrt(seg.hi - 1)
    if base.limit < need:
        raise ValueError(f"base primes reach {base.limit}, need {need}")


def primality_range(seg, base):
    """Boolean primality bitmap for the window.

    Parameters
    ----------
    seg : Segment
        Window with lo >= 2.
    base : PrimeList
        Must cover isqrt(seg.hi - 1).

    Returns
    -------
    np.ndarray of bool, length seg.width; entry i refers to seg.lo + i.
    """
    _check_window(seg, base, 2)
    return _kernels.ACTIVE.primality(seg.lo, seg.hi, base.primes)


@dataclass(frozen=True)
class FactoredRange:
    """Factorizations of every n in a window, CSR-packed.

    ``starts`` has length width + 1; the factors of seg.lo + i occupy
    ``primes[starts[i]:starts[i+1]]`` with matching ``exponents``,
    primes ascending, exponents >= 1.
    """

    segment: Segment
    starts: np.ndarray
    primes: np.ndarray
    exponents: np.ndarray

    def __len__(self):
        return self.segment.width

    def factors(self, n):
        """Factor list [(p, e), ...] of n, which must lie in the window."""
        if not self.segment.lo <= n < self.segment.hi:
            raise ValueError(f"{n} outside [{self.segment.lo}, {self.segment.hi})")
        i = n - self.segment.lo
        a, b = int(self.starts[i]), int(self.starts[i + 1])
        return [(int(p), int(e)) for p, e in zip(self.primes[a:b], self.exponents[a:b])]

    def items(self):
        for i in range(self.segment.width):
            n = self.segment.lo + i
            yield n, self.factors(n)


def factorize_range(seg, base):
    """Complete factorizations over the window (lo >= 1).

    The hits of the shared strike are stable-sorted by position, so each
    row lists its base primes ascending with the cofactor last.  Product
    of p**e over each row reconstructs n exactly.
    """
    _check_window(seg, base, 1)
    pos = np.arange(seg.width, dtype=np.int64)
    hits = [
        (pos[idx], np.broadcast_to(np.int64(p), e.shape), e)
        for idx, p, e in _kernels.strike(seg.lo, seg.hi, base.primes)
    ]
    idx, primes, exponents = (np.concatenate(col) for col in zip(*hits))
    order = np.argsort(idx, kind="stable")
    starts = np.zeros(seg.width + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=seg.width), out=starts[1:])
    return FactoredRange(seg, starts, primes[order], exponents[order])


def factorize_int(n):
    """Trial-division factorization of a single positive integer."""
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    step = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return out
