"""Leading constants for shifted-prime divisor sums.

Everything here evaluates Euler products and sieved series attached to
the asymptotic sum_{p <= x} (f * d)(p - a) ~ c_f * x.  Results carry
explicit truncation metadata: ``tail_bound`` dominates the dropped
infinite part, ``rounding_bound`` is a coarse floating-point envelope,
and both are one-sided overestimates, never statistical guesses.

Building blocks:

  T(a)   = zeta(2)*zeta(3)/zeta(6) * prod_{p | a} (1 - p/(p^2 - p + 1))
  c_m    = T(a) * prod_{p | m} (1 + (p - 1)/(p^2 - p + 1))
  b_k    = T(a) * prod_p (1 - 1/(p^(k-2) * (p^2 - p + 1)))
  c_f    = sum_m f(m) * c_m / m

The k-free divisor count dk satisfies dk = mu_k * d (Dirichlet
convolution), so its constant is both the sieved series c_f over
f = mu_k and the closed product b_k; comparing the two routes within
their tail bounds is one of the package's primary cross-checks.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from . import _kernels
from .sieve import MAX_RANGE, factorize_int, iter_segments, primes_up_to

# zeta(3) as a double: the value of the series sum_{m <= 10**6} m**-3
# plus its Euler-Maclaurin tail, summed by fsum, and float(mpmath.zeta(3))
ZETA3 = float.fromhex("0x1.33ba004f00621p+0")
# T(a) reports that series' length as its truncation, so the constants
# output reads as it did when zeta(3) was summed at run time
ZETA3_SERIES_TERMS = 10**6
DEFAULT_PRIME_LIMIT = 10**7
DEFAULT_SERIES_LIMIT = 10**4
# An Euler product sieves every prime up to its prime_limit and holds a
# few float arrays over them: bk_product at 10**8 takes ~0.3 s, and a
# fresh process peaks near 165 MB resident (k = 2 and 3 alike).
MAX_PRODUCT_LIMIT = 10**8
# The tail envelope of cf_series enumerates the squarefree j up to 256 *
# m_limit in batches of at most 2**16, so a fresh process stays under 40 MB
# resident at any m_limit (38 MB at 10**6), but its time grows with
# m_limit: ~5 s on one core at 10**6.
MAX_SERIES_LIMIT = 10**6

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ConstantResult:
    """A computed constant plus truncation provenance.

    value          the floating-point estimate
    truncation     where the infinite part was cut (terms, primes, or
                   series support, depending on the producing op)
    tail_bound     rigorous bound on |true - value| from truncation alone
    rounding_bound coarse envelope for floating-point accumulation error
    """

    value: float
    truncation: int
    tail_bound: float
    rounding_bound: float = 0.0

    def __post_init__(self):
        if self.truncation < 2:
            raise ValueError("truncation must be >= 2")
        if self.tail_bound < 0 or self.rounding_bound < 0:
            raise ValueError("error bounds must be nonnegative")


def zeta_value(s):
    """zeta(s) for s in {2, 3, 6}: closed forms at 2 and 6, the double
    nearest zeta(3) at 3."""
    if s == 2:
        return math.pi**2 / 6.0
    if s == 6:
        return math.pi**6 / 945.0
    if s == 3:
        return ZETA3
    raise ValueError("zeta_value supports s in {2, 3, 6}")


def _distinct_primes(n):
    return [p for p, _ in factorize_int(abs(int(n)))]


def _check_shift(a):
    a = int(a)
    if a == 0:
        raise ValueError("shift a must be nonzero")
    if abs(a) > MAX_RANGE:
        raise ValueError(f"shift a must satisfy |a| <= {MAX_RANGE}")
    return a


@lru_cache(maxsize=None)
def titchmarsh_factor(a):
    """Constant T(a) in sum_{p <= x} d(p - a) ~ T(a) * x.

    a is a nonzero integer with |a| <= 2**40; the product over the
    distinct primes of |a| is finite and exact, so tail_bound is 0.
    """
    a = _check_shift(a)
    value = zeta_value(2) * zeta_value(3) / zeta_value(6)
    ps = _distinct_primes(a)
    for p in ps:
        value *= 1.0 - p / (p * p - p + 1.0)
    rounding = (16 + 8 * len(ps)) * _EPS * abs(value)
    return ConstantResult(value, ZETA3_SERIES_TERMS, 0.0, rounding)


def felix_cm(m, a):
    """Constant c_m in sum_{p <= x, p = a mod m} d((p - a)/m) ~ c_m * x / m.

    Finite product over the distinct primes of m on top of T(a); m is
    bounded like a, by 2**40, so factoring it stays cheap.
    """
    m = int(m)
    if not 1 <= m <= MAX_RANGE:
        raise ValueError(f"modulus m must lie in [1, {MAX_RANGE}]")
    t = titchmarsh_factor(a)
    value = t.value
    ps = _distinct_primes(m) if m > 1 else []
    for p in ps:
        value *= 1.0 + (p - 1.0) / (p * p - p + 1.0)
    rounding = t.rounding_bound / max(t.value, _EPS) * abs(value)
    rounding += 8 * len(ps) * _EPS * abs(value)
    return ConstantResult(value, t.truncation, t.tail_bound, rounding)


def _check_prime_limit(prime_limit, least):
    prime_limit = int(prime_limit)
    if not least <= prime_limit <= MAX_PRODUCT_LIMIT:
        raise ValueError(f"prime_limit must lie in [{least}, {MAX_PRODUCT_LIMIT}]")
    return prime_limit


# _exact_sum's limbs: _LIMB bits each, summed as float64 integers, exact
# below 2**53 for blocks of _SUM_BLOCK doubles; a limb's position is never
# below _LIMB_BASE, as its last limb lies within _LIMB bits of 2**-1074,
# the last bit of every double
_LIMB = 30
_LIMB_BASE = -1074 - _LIMB
_SUM_BLOCK = 1 << 16


def _limb_total(x):
    """sum(x) * 2**-_LIMB_BASE, an exact int, for a float64 array x of at
    most 2**23 doubles.

    x is scaled by 2**-a, a = e - _LIMB for every |x| < 2**e, which is
    exact unless x spans more exponents than a double holds (it is then
    split in two by magnitude), and cut into limbs toward zero: the limb
    trunc(y) has |limb| < 2**30, and y - trunc(y) keeps y's sign and fits
    in y's bits, so each limb's sum over x is an exact float64 integer,
    and the remainder, times 2**30, is the next y.  The cut ends at the
    first position where every y is an integer."""
    m = np.abs(x)
    top = float(m.max(initial=0.0))
    if not top:
        return 0
    low = float(m.min()) or float(m.min(where=m > 0, initial=top))
    a = math.frexp(top)[1] - _LIMB
    end = max(math.frexp(low)[1] - 53, -1074)  # every x a multiple of 2**end
    if end - a < -1074:
        small = m < 2.0 ** (a - 1000)
        return _limb_total(np.where(small, 0.0, x)) + _limb_total(x[small])
    y = np.ldexp(x, -a)
    limb = np.empty_like(y)
    total = 0
    while True:
        np.trunc(y, out=limb)
        total += int(limb.sum()) << (a - _LIMB_BASE)
        if a <= end:
            return total
        y -= limb
        y *= float(1 << _LIMB)
        a -= _LIMB


def _exact_sum(chunks):
    """The sum of every double in the float64 arrays ``chunks``, correctly
    rounded, as math.fsum gives it: each block of up to _SUM_BLOCK of them
    is cut into limbs (``_limb_total``), and their exact total takes one
    Python int true division, which is correctly rounded."""
    total = 0
    for x in chunks:
        for i in range(0, x.size, _SUM_BLOCK):
            total += _limb_total(x[i : i + _SUM_BLOCK])
    return total / (1 << -_LIMB_BASE)


def _log_sum(limit, term):
    """(sum of log1p(term(p)) over the primes p <= limit, their count), the
    sum exact (``_exact_sum``); term maps the primes, as one float64 array,
    to their terms.  One whole array, not windows: freeing it lifts
    glibc's mmap threshold, which spares a tracking pass after set-up
    ~2,000 page faults."""
    pf = primes_up_to(limit).primes.astype(np.float64)
    return _exact_sum([np.log1p(term(pf))]), pf.size


def zeta_product_identity_gap(prime_limit):
    """|zeta(2)zeta(3)/zeta(6) - prod_{p <= P} (1 + 1/(p(p-1)))|.

    The identity is exact over all primes; the finite product differs
    from the closed form by at most ~1/(P log P).
    """
    logs, _ = _log_sum(_check_prime_limit(prime_limit, 2), lambda p: 1.0 / (p * (p - 1.0)))
    closed = zeta_value(2) * zeta_value(3) / zeta_value(6)
    return abs(closed - math.exp(logs))


def _tail_power(cut, k):
    """cut**(k - 1) as a double, for the tail envelopes that divide by
    (k - 1) * cut**(k - 1).  A k for which that denominator is not a
    finite double is refused, so the bound on k is the cut's own:
    k <= 154 at 100 primes, 44 at 10**7, 39 at MAX_PRODUCT_LIMIT, and,
    with the series cut 256 * m_limit, k <= 48 at the default m_limit
    and 37 at MAX_SERIES_LIMIT."""
    if k < 2:
        raise ValueError("need k >= 2")
    try:
        power = float(cut) ** (k - 1)
        if math.isfinite((k - 1) * power):
            return power
    except OverflowError:
        pass
    raise ValueError(f"k = {k} is too large for the cut {cut}: (k - 1) * {cut}**(k - 1) overflows")


def bk_product(k, a, prime_limit=DEFAULT_PRIME_LIMIT):
    """Closed-product constant b_k for the k-free divisor sum.

    b_k = T(a) * prod_p (1 - u_p), u_p = 1/(p^(k-2) * (p^2 - p + 1)),
    truncated at ``prime_limit``; for every k the log1p(-u_p) are summed
    exactly (``_exact_sum``), with u_p = 0 where p^(k-2) overflows.

    Tail: -log prod_{p > P} (1 - u_p) <= sum u_p (1 + u_p) and for
    p > P >= 100 we have p^2 - p + 1 > 0.99 p^2, so the sum is below
    (100/99)(1 + eps) * sum_{n > P} n^-k <= 2 / ((k-1) P^(k-1)), giving
    |true - value| <= value * (1 - exp(-T)) <= value * T with
    T = 2 / ((k-1) P^(k-1)).
    """
    k = int(k)
    prime_limit = _check_prime_limit(prime_limit, 100)
    power = _tail_power(prime_limit, k)
    a = int(a)
    t = titchmarsh_factor(a)
    with np.errstate(over="ignore"):
        logs, count = _log_sum(prime_limit, lambda p: -1.0 / (np.power(p, k - 2) * (p * p - p + 1.0)))
    value = t.value * math.exp(logs)
    tail = value * 2.0 / ((k - 1) * power)
    rounding = (8 * count + 64) * _EPS * abs(value)
    return ConstantResult(value, prime_limit, tail, rounding)


# ---------------------------------------------------------------------------
# sieved series c_f


@dataclass(frozen=True)
class CfSpec:
    """Which sieve weight f feeds the series c_f = sum f(m) c_m / m.

    rule 'unit'  : f is the point mass at 1 (plain divisor sum)
    rule 'mu_k'  : f = mu_k, supported on k-th powers m = j**k
    rule 'pillai': f(m) = mu(m)/m, the weight with f * d = P
    """

    rule: str
    k: int | None = None

    def __post_init__(self):
        if self.rule not in {"unit", "mu_k", "pillai"}:
            raise ValueError(f"unknown cf rule {self.rule!r}")
        if self.rule == "mu_k":
            if not isinstance(self.k, int) or self.k < 2:
                raise ValueError("mu_k rule needs integer k >= 2")
        elif self.k is not None:
            raise ValueError(f"{self.rule} rule takes no k")

    def coefficient(self, m):
        """f(m) as an exact Fraction (point evaluation, test surface)."""
        from fractions import Fraction

        from .functions import MOEBIUS, evaluate, mu_k

        m = int(m)
        if m < 1:
            raise ValueError("need m >= 1")
        if self.rule == "unit":
            return Fraction(1 if m == 1 else 0)
        if self.rule == "mu_k":
            return Fraction(mu_k(m, self.k))
        return Fraction(evaluate(MOEBIUS, factorize_int(m)), m)

    @classmethod
    def point_mass(cls):
        return cls("unit")

    @classmethod
    def mu_k_rule(cls, k):
        k = int(k)
        return cls("mu_k", k)

    @classmethod
    def pillai_rule(cls):
        return cls("pillai")


# The walk's batches of nodes and the q windows of _series_terms: the
# envelope at m_limit 10**4 peaks at 4.2 MiB traced, against 7.2 MiB with
# walk batches of 2**16 and 6.3 MiB with q windows of 2**20 integers.
_WALK_BATCH = 1 << 12
_Q_WIDTH = 1 << 15  # values of t on the odd line q = 2t - 1, 2**16 integers


def _local_factor(p):
    # -p^2/(p^2 - p + 1) for an int64 array p: p*p is exact in int64 and
    # rounds once to a double in the division, which the pinned bits of
    # cf_series and of the envelope depend on
    return -(p * p / (p * p - p + 1.0))


def _expand(first, counts, batch):
    """(which, idx) over the runs first[i] + t, 0 <= t < counts[i], chunk
    by chunk of whole runs, each chunk at most ``batch`` terms (a longer
    run alone): idx the terms, which[t] the run of idx[t]."""
    ends = np.cumsum(counts)
    i = 0
    while i < counts.size:
        done = int(ends[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(ends, done + batch, side="right")))
        c = counts[i:j]
        which = np.repeat(np.arange(i, j), c)
        yield which, np.arange(done, int(ends[j - 1])) - np.repeat(ends[i:j] - c - first[i:j], c)
        i = j


def _walk(j, w, last, base, fb, top):
    """(j, w) batch by batch for the nodes j and every node below them: the
    children of j are j * base[i] <= top for every i > last, with weight
    w * fb[i], so each node is a squarefree j over base, its primes
    multiplied in ascending order.  base ends in a bound above top, so
    a node with base[last + 1] > top / j, a leaf, is found without a
    search."""
    yield j, w
    live = np.flatnonzero(j * base[last + 1] <= top)
    if live.size:
        j, w, last = j[live], w[live], last[live]
        counts = np.searchsorted(base, top // j, side="right") - last - 1
        for node, idx in _expand(last + 1, counts, _WALK_BATCH):
            yield from _walk(j[node] * base[idx], w[node] * fb[idx], idx, base, fb, top)


def _series_terms(lo, hi, k):
    """(j, mu(j) * ratio(j) / j**k) for the squarefree j in [lo, hi), as
    int64 and float64 arrays batch by batch, in no order of j, where
    ratio(j) = prod_{p | j} p^2/(p^2 - p + 1) = c_j / T(a), any a.

    Each j is enumerated once by its largest prime q, with Q = hi - 1 and
    R = max(2, isqrt(Q)).  The j whose q is at most R are the nodes of a
    depth-first walk over the primes up to R (``_walk``), from j = 1.
    The rest are j = s*q with q > R prime, so s <= Q/q < R + 1: the q
    come window by window from the odd line q = 2t - 1 (the primality
    kernel), and each squarefree s <= R, in ascending s, takes the q in
    [lo/s, Q/s] of the window as one contiguous slice.

    Every term is one fixed double, whichever way j is reached: its
    weight is -p^2/(p^2 - p + 1) multiplied from 1.0 prime by prime in
    ascending order, the largest last, and only then divided by j**k
    (numpy's power of the float64 j); a sign flip is exact, so mu(j) *
    ratio(j) is +-ratio(j) bit for bit.
    """
    top = hi - 1
    root = max(2, isqrt(top))
    primes = primes_up_to(root).primes
    base = np.append(primes, top + root)  # above the top of either walk
    fb = _local_factor(base)
    one = (np.ones(1, dtype=np.int64), np.ones(1), np.full(1, -1))
    for j, w in _walk(*one, base, fb, top):
        keep = np.flatnonzero(j >= lo)
        j = j[keep]
        yield j, w[keep] / j.astype(np.float64) ** k
    # the squarefree s <= R with their weights, ascending
    s, ws = (np.concatenate(col) for col in zip(*_walk(*one, base, fb, root)))
    order = np.argsort(s)
    s, ws = s[order], ws[order]
    odd = primes[1:]
    first = (odd * odd + 1) // 2
    t_hi = (top + 1) // 2 + 1
    if (root + 3) // 2 >= t_hi:
        return
    for seg in iter_segments((root + 3) // 2, t_hi, _Q_WIDTH):
        q = 2 * (np.flatnonzero(_kernels.ACTIVE.primality(seg.lo, seg.hi, odd, first)) + seg.lo) - 1
        if not q.size:
            continue
        fq = _local_factor(q)
        n = int(np.searchsorted(s, top // q[0], side="right"))
        start = np.searchsorted(q, -(-lo // s[:n]))
        counts = np.maximum(np.searchsorted(q, top // s[:n], side="right") - start, 0)
        for which, idx in _expand(start, counts, _kernels.BATCH_HITS):
            j = s[which] * q[idx]
            yield j, ws[which] * fq[idx] / j.astype(np.float64) ** k


@lru_cache(maxsize=None)
def _zeta_upper(k):
    # upper bound on zeta(k), k >= 2: finite head plus integral tail
    n = 1000
    head = math.fsum(m**-k for m in range(1, n + 1))
    return head + 1.0 / ((k - 1) * n ** (k - 1))


@lru_cache(maxsize=None)
def _g_series_constant():
    # G >= sum over squarefree d of g(d)/d, g(p) = (p-1)/(p^2 - p + 1):
    # product over p <= 10^5 of (1 + g(p)/p), then exp(sum_{p>P} g(p)/p)
    # <= exp(1/(P-1)) since g(p)/p <= 1/p^2.
    lim = 100_000
    logs, _ = _log_sum(lim, lambda p: (p - 1.0) / ((p * p - p + 1.0) * p))
    return math.exp(logs + 1.0 / (lim - 1.0))


_TAIL_STRETCH = 256


@lru_cache(maxsize=None)
def _cf_tail_envelope(m_cut, k):
    """Bound on sum_{j > m_cut} mu^2(j) ratio(j) / j^k, ratio as above.

    Exact midsection out to Q = 256 * m_cut, the terms of
    ``_series_terms`` summed batch by batch into one exact sum
    (``_exact_sum``), so that memory stays at a few batches at any m_cut,
    then an analytic remainder: writing ratio(j) = sum_{d | j} g(d) (squarefree
    j) and splitting j = d*t gives, for Q >= 1,

      sum_{j > Q} mu^2 ratio / j^k
        <= G * ( k/(k-1) + zeta(k) ) / Q^(k-1)

    with G = sum_sf g(d)/d, using sum_{t > Q/d} t^-k <= (d/Q)^(k-1) * k/(k-1)
    for d <= Q and sum_t t^-k = zeta(k) for d > Q.
    """
    q = _TAIL_STRETCH * m_cut
    power = _tail_power(q, k)
    mid = _exact_sum(np.abs(t) for _, t in _series_terms(m_cut + 1, q + 1, k))
    rem = _g_series_constant() * (k / (k - 1.0) + _zeta_upper(k)) / power
    return mid + rem


def cf_series(spec, a, m_limit=DEFAULT_SERIES_LIMIT):
    """Truncated series c_f = sum f(m) c_m / m for the given rule.

    ``m_limit`` truncates the rule's support enumeration: j <= m_limit
    for the mu_k rule (support m = j**k), m <= m_limit for the pillai
    rule; 10 <= m_limit <= MAX_SERIES_LIMIT.  tail_bound covers
    everything beyond the truncation.
    """
    if not isinstance(spec, CfSpec):
        raise ValueError("spec must be a CfSpec")
    m_limit = int(m_limit)
    if not 10 <= m_limit <= MAX_SERIES_LIMIT:
        raise ValueError(f"series limit m_limit must lie in [10, {MAX_SERIES_LIMIT}]")
    t = titchmarsh_factor(a)
    if spec.rule == "unit":
        return t
    k = spec.k if spec.rule == "mu_k" else 2
    # the envelope goes first: it refuses a k too large for its cut
    tail = t.value * _cf_tail_envelope(m_limit, k)
    # mu_k rule: sum_j mu(j) c_{j^k} / j^k; pillai: sum_m mu(m) c_m / m^2
    terms = [x for _, x in _series_terms(1, m_limit + 1, k)]
    value = t.value * _exact_sum(terms)
    abs_sum = t.value * _exact_sum(np.abs(x) for x in terms)
    rounding = _EPS * (16.0 * abs_sum + 4.0 * abs(value)) + t.rounding_bound
    return ConstantResult(value, m_limit, tail, rounding)
