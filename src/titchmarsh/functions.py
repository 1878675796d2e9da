"""Multiplicative functions: point evaluation, windowed tables, and
Dirichlet convolution, for the kinds listed in ``_TABLE``."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

from . import _kernels
from .constants import CfSpec
from .sieve import Segment, _check_at, _check_window, factorize_int, iter_segments, primes_up_to


@dataclass(frozen=True)
class _Row:
    rule: str  # its local factor _kernels.RULES[rule], and its _kernels.ACTIVE kernel if it has one
    takes_k: bool  # whether the rule reads the kind's own k
    k: int | None  # else the k the row fixes for its rule, if any
    entries: tuple  # the public entries that accept it
    weight: str | None  # f with g = f * d, as the CfSpec rule with the rule's k

    def rule_k(self, kind):
        return kind.k if self.takes_k else self.k

    def weight_of(self, kind):
        return CfSpec(self.weight, self.rule_k(kind))

    @property
    def ratio(self):
        return len(_kernels.RULES[self.rule]) == 3


_SUMMED = ("value_range", "shifted_prime_sum")
_TABLE = {
    "d": _Row("divisor", False, None, _SUMMED, "unit"),  # divisor count
    "dk": _Row("kfree", True, None, _SUMMED, "mu_k"),  # k-free divisor count, dk = mu_k * d
    "unitary": _Row("kfree", False, 2, _SUMMED, "mu_k"),  # unitary divisor count 2**omega: dk with k = 2
    "omega": _Row("omega", False, None, ("value_range",), None),  # distinct prime factors (additive)
    "mu": _Row("mu", False, None, ("value_range",), None),  # Moebius function
    "phi": _Row("phi", False, None, (), None),  # Euler totient
    "mu_k": _Row("mu_k", True, None, (), None),  # mu(m) when n = m**k for an integer m, else 0
    # P(n) = (1/n) * sum_{j<=n} gcd(j, n), an exact rational; f(m) = mu(m)/m
    "pillai": _Row("pillai", False, None, ("pillai_range", "shifted_prime_sum"), "pillai"),
}


def _accepted(entry):
    """The tags of the kinds that ``entry`` accepts, in table order."""
    return tuple(tag for tag, row in _TABLE.items() if entry in row.entries)


@dataclass(frozen=True)
class FunctionKind:
    tag: str
    k: int | None = None

    def __post_init__(self):
        if self.tag not in _TABLE:
            raise ValueError(f"unknown function kind {self.tag!r}")
        if _TABLE[self.tag].takes_k:
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
    ``factors`` ([(p, e), ...], distinct primes, e >= 1): its rule's fold
    in Python ints, an int, or for pillai a Fraction in lowest terms."""
    row = _TABLE[kind.tag]
    ufunc, *rule = _kernels.RULES[row.rule]
    fold = prod if ufunc is np.multiply else sum
    k = row.rule_k(kind)
    values = [fold(int(factor(p, e, k)) for p, e in factors) for factor in rule]
    return Fraction(*values) if row.ratio else values[0]


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
    return evaluate(MOEBIUS, factorize_int(r))


def value_range(kind, lo, hi, base=None, at=None):
    """Values of a kind whose row names value_range (d, dk, unitary, omega,
    mu) over [lo, hi) as int64, or with ``at``, strictly ascending int
    offsets in [0, hi - lo), at n = lo + at.  ``base`` defaults to a fresh
    sieve reaching isqrt(hi - 1)."""
    if "value_range" not in _TABLE[kind.tag].entries:
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
    # (``_kernels.strike``), which the kernels take positionally, after
    # the k of a rule that reads one; pillai gives the arrays (num, den)
    row = _TABLE[kind.tag]
    k = row.rule_k(kind)
    kernel = getattr(_kernels.ACTIVE, row.rule)
    return kernel(lo, hi, primes, grid) if k is None else kernel(lo, hi, primes, k, grid)


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


def _divisor_weights(kind, nmax):
    """Moduli q and weights c = f(q) with kind(n) = sum of c * d(n / q)
    over the q | n, for n <= nmax and the kind's integer weight f: q = 1
    for d, and q = j**k with c = mu(j) over the squarefree j for mu_k (dk
    and unitary).  q = 1 comes first, also when nmax < 1 leaves no n."""
    f = _TABLE[kind.tag].weight_of(kind)
    if f.rule == "unit":
        return np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    mu = function_table(MOEBIUS, integer_kth_root(max(nmax, 1), f.k))
    j = np.nonzero(mu)[0]
    # a k past nmax's bit length leaves j = 1 alone, and 1**k = 1
    return j ** min(f.k, max(nmax, 1).bit_length()), mu[j]


def mu_k_table(n, k):
    """Array t with t[m] = mu_k(m) for m <= n; support is the k-th powers."""
    n = int(n)
    k = int(k)
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    t = np.zeros(n + 1, dtype=np.int64)
    q, mu = _divisor_weights(k_free_divisor(k), n)  # mu_k is the weight of dk
    t[q] = mu
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
