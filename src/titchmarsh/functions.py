"""Multiplicative functions: point evaluation, windowed tables, and
Dirichlet convolution.

Supported kinds
---------------
d         divisor count
dk        k-free divisor count: local factor min(e, k-1) + 1, so it
          counts divisors that are k-free
unitary   2**omega(n), the unitary divisor count (equals dk with k = 2)
omega     number of distinct prime factors (additive, not multiplicative)
mu        Moebius function
phi       Euler totient
mu_k      mu(m) when n = m**k for an integer m, else 0
pillai    P(n) = (1/n) * sum_{j<=n} gcd(j, n), an exact rational with
          local factor (p + e*(p-1)) / p
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from . import _kernels
from .sieve import Segment, _check_at, _check_window, iter_segments, primes_up_to

_PARAMETRIC = {"dk", "mu_k"}
_TAGS = {"d", "dk", "unitary", "omega", "mu", "phi", "mu_k", "pillai"}


@dataclass(frozen=True)
class FunctionKind:
    tag: str
    k: int | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown function kind {self.tag!r}")
        if self.tag in _PARAMETRIC:
            if not isinstance(self.k, int) or self.k < 2:
                raise ValueError(f"{self.tag} needs integer k >= 2")
        elif self.k is not None:
            raise ValueError(f"{self.tag} takes no k parameter")

    @property
    def label(self):
        return self.tag if self.k is None else f"{self.tag}{self.k}"


DIVISOR = FunctionKind("d")
UNITARY_DIVISOR = FunctionKind("unitary")
OMEGA = FunctionKind("omega")
MOEBIUS = FunctionKind("mu")
EULER_PHI = FunctionKind("phi")
PILLAI = FunctionKind("pillai")


def k_free_divisor(k):
    return FunctionKind("dk", int(k))


def moebius_kth(k):
    return FunctionKind("mu_k", int(k))


def evaluate(kind, factors):
    """Value of the function at the integer whose factorization is
    ``factors`` ([(p, e), ...], distinct primes, e >= 1).

    Integer kinds return int; pillai returns a Fraction in lowest terms.
    """
    tag = kind.tag
    if tag == "d":
        v = 1
        for _, e in factors:
            v *= e + 1
        return v
    if tag == "dk":
        v = 1
        for _, e in factors:
            v *= min(e, kind.k - 1) + 1
        return v
    if tag == "unitary":
        return 1 << len(factors)
    if tag == "omega":
        return len(factors)
    if tag == "mu":
        if any(e > 1 for _, e in factors):
            return 0
        return -1 if len(factors) % 2 else 1
    if tag == "phi":
        v = 1
        for p, e in factors:
            v *= p ** (e - 1) * (p - 1)
        return v
    if tag == "mu_k":
        k = kind.k
        if any(e % k for _, e in factors):
            return 0
        if any(e >= 2 * k for _, e in factors):
            return 0
        return -1 if len(factors) % 2 else 1
    if tag == "pillai":
        num = 1
        den = 1
        for p, e in factors:
            num *= p + e * (p - 1)
            den *= p
        return Fraction(num, den)
    raise ValueError(f"unknown function kind {tag!r}")


def integer_kth_root(n, k):
    """Largest r with r**k <= n (n >= 1, k >= 1); float seed, exact fixup."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k >= int(n).bit_length():
        return 1  # 2**k > n
    r = max(1, round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def mu_k(n, k):
    """mu(m) when n = m**k exactly, else 0."""
    n = int(n)
    k = int(k)
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 2:
        raise ValueError("need k >= 2")
    r = integer_kth_root(n, k)
    if r**k != n:
        return 0
    from .sieve import factorize_int

    return evaluate(MOEBIUS, factorize_int(r))


_RANGE_KINDS = {"d", "dk", "unitary", "omega", "mu"}


def value_range(kind, lo, hi, base=None, at=None):
    """Values of an integer-valued kind over [lo, hi) as int64, or with
    ``at``, strictly ascending int offsets in [0, hi - lo), at n = lo + at.

    Kinds: d, dk, unitary, omega, mu.  ``base`` defaults to a fresh
    sieve reaching isqrt(hi - 1).
    """
    if kind.tag not in _RANGE_KINDS:
        raise ValueError(f"no windowed table for kind {kind.tag!r}")
    return _values(kind, *_checked(lo, hi, base, at))


def pillai_range(lo, hi, base=None, at=None):
    """Numerator and denominator arrays of P(n) over [lo, hi), or with
    ``at``, strictly ascending int offsets in [0, hi - lo), at n = lo + at.

    Entries are the exact product forms (not reduced); num/den == P(n).
    """
    return _values(PILLAI, *_checked(lo, hi, base, at))


def _checked(lo, hi, base, at):
    # the kernels' arguments (lo, hi, primes, grid) for a checked window;
    # ``at`` is set on a full-width bitmap, bit r being n = lo + r
    seg = Segment(int(lo), int(hi))
    if base is None:
        base = primes_up_to(max(2, isqrt(seg.hi - 1)))
    _check_window(seg, base, 1)
    _check_at(seg, at)
    if at is None:
        return seg.lo, seg.hi, base.primes, None
    hit = np.zeros(seg.width, dtype=np.bool_)
    hit[np.asarray(at, dtype=np.int64)] = True
    return seg.lo, seg.hi, base.primes, (0, 1, seg.lo, hit)


def _values(kind, lo, hi, primes, grid=None):
    # kind's kernel over a checked window, or at the n of ``grid``
    # (``_kernels.strike``), which the kernels take positionally; pillai
    # gives the arrays (num, den)
    impl = _kernels.ACTIVE
    if kind.tag == "dk":
        return impl.kfree(lo, hi, primes, kind.k, grid)
    if kind.tag == "unitary":
        return np.left_shift(np.int64(1), impl.omega(lo, hi, primes, grid))
    return getattr(impl, "divisor" if kind.tag == "d" else kind.tag)(lo, hi, primes, grid)


def function_table(kind, n, base=None):
    """Array t of length n + 1 with t[m] = kind(m) for 1 <= m <= n, t[0] = 0.

    Filled window by window, each at most DEFAULT_SEGMENT_WIDTH wide,
    from one base sieve reaching isqrt(n).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if base is None:
        base = primes_up_to(max(2, isqrt(n)))
    table = np.zeros(n + 1, dtype=np.int64)
    for seg in iter_segments(1, n + 1):
        table[seg.lo : seg.hi] = value_range(kind, seg.lo, seg.hi, base=base)
    return table


def mu_k_table(n, k):
    """Array t with t[m] = mu_k(m) for m <= n; support is the k-th powers."""
    n = int(n)
    k = int(k)
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    t = np.zeros(n + 1, dtype=np.int64)
    jmax = integer_kth_root(n, k)
    # a k past n's bit length leaves j = 1 alone, and 1**k = 1
    t[np.arange(1, jmax + 1) ** min(k, n.bit_length())] = value_range(MOEBIUS, 1, jmax + 1)
    return t


def dirichlet_convolve(f, g):
    """(f * g)[n] = sum over divisors e of n of f[e] * g[n/e].

    Both tables are indexed from 0 with entry 0 ignored; lengths must
    match.  Runs in O(N log N) by looping over e and striding.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError("tables must be 1-d with matching length")
    n = f.size - 1
    if n < 1:
        raise ValueError("tables must cover index 1")
    out = np.zeros(n + 1, dtype=np.int64)
    for e in range(1, n + 1):
        fe = f[e]
        if fe:
            out[e::e] += fe * g[1 : n // e + 1]
    return out


def pillai_gcd_oracle(n):
    """P(n) straight from the definition: (1/n) * sum_{j<=n} gcd(j, n)."""
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 10**6:
        raise ValueError("oracle is quadratic-ish; keep n <= 10**6")
    return Fraction(sum(gcd(j, n) for j in range(1, n + 1)), n)
