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

import numpy as np

from .functions import MOEBIUS, function_table
from .sieve import MAX_RANGE, factorize_int, primes_up_to

ZETA3_SERIES_TERMS = 10**6
DEFAULT_PRIME_LIMIT = 10**7
DEFAULT_SERIES_LIMIT = 10**4

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


@lru_cache(maxsize=None)
def _zeta3_series():
    n = ZETA3_SERIES_TERMS
    head = math.fsum(m**-3 for m in range(1, n + 1))
    # Euler-Maclaurin tail: integral, half-term, and two curvature terms;
    # the next term is 1/(12 n^8), far below double resolution at n = 10^6,
    # so the result is exact to working precision
    tail = 0.5 / n**2 - 0.5 / n**3 + 0.25 / n**4 - 1.0 / (12.0 * n**6)
    return head + tail


def zeta_value(s):
    """zeta(s) for s in {2, 3, 6}: closed forms at 2 and 6, a truncated
    series with Euler-Maclaurin tail at 3."""
    if s == 2:
        return math.pi**2 / 6.0
    if s == 6:
        return math.pi**6 / 945.0
    if s == 3:
        return _zeta3_series()
    raise ValueError("zeta_value supports s in {2, 3, 6}")


def _distinct_primes(n):
    return [p for p, _ in factorize_int(abs(int(n)))]


@lru_cache(maxsize=None)
def titchmarsh_factor(a):
    """Constant T(a) in sum_{p <= x} d(p - a) ~ T(a) * x.

    a is a nonzero integer with |a| <= 2**40; the product over the
    distinct primes of |a| is finite and exact, so tail_bound is 0.
    """
    a = int(a)
    if a == 0:
        raise ValueError("shift a must be nonzero")
    if abs(a) > MAX_RANGE:
        raise ValueError(f"shift a must satisfy |a| <= {MAX_RANGE}")
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


def zeta_product_identity_gap(prime_limit):
    """|zeta(2)zeta(3)/zeta(6) - prod_{p <= P} (1 + 1/(p(p-1)))|.

    The identity is exact over all primes; the finite product differs
    from the closed form by at most ~1/(P log P).
    """
    prime_limit = int(prime_limit)
    pf = primes_up_to(prime_limit).primes.astype(np.float64)
    logs = np.log1p(1.0 / (pf * (pf - 1.0)))
    prod = math.exp(math.fsum(logs.tolist()))
    closed = zeta_value(2) * zeta_value(3) / zeta_value(6)
    return abs(closed - prod)


def bk_product(k, a, prime_limit=DEFAULT_PRIME_LIMIT):
    """Closed-product constant b_k for the k-free divisor sum.

    b_k = T(a) * prod_p (1 - u_p), u_p = 1/(p^(k-2) * (p^2 - p + 1)),
    truncated at ``prime_limit``.  Log-space accumulation for k = 2
    (where factors sit far from 1), direct multiplication otherwise.

    Tail: -log prod_{p > P} (1 - u_p) <= sum u_p (1 + u_p) and for
    p > P >= 100 we have p^2 - p + 1 > 0.99 p^2, so the sum is below
    (100/99)(1 + eps) * sum_{n > P} n^-k <= 2 / ((k-1) P^(k-1)), giving
    |true - value| <= value * (1 - exp(-T)) <= value * T with
    T = 2 / ((k-1) P^(k-1)).
    """
    k = int(k)
    if k < 2:
        raise ValueError("need k >= 2")
    prime_limit = int(prime_limit)
    if prime_limit < 100:
        raise ValueError("prime_limit must be >= 100")
    a = int(a)
    t = titchmarsh_factor(a)
    pf = primes_up_to(prime_limit).primes.astype(np.float64)
    with np.errstate(over="ignore"):
        denom = np.power(pf, k - 2) * (pf * pf - pf + 1.0)
        u = 1.0 / denom
    u[~np.isfinite(u)] = 0.0
    if k == 2:
        value = t.value * math.exp(math.fsum(np.log1p(-u).tolist()))
    else:
        value = t.value * float(np.prod(1.0 - u))
    tail = value * 2.0 / ((k - 1) * float(prime_limit) ** (k - 1))
    rounding = (8 * pf.size + 64) * _EPS * abs(value)
    return ConstantResult(value, prime_limit, tail, rounding)


# ---------------------------------------------------------------------------
# sieved series c_f


@dataclass(frozen=True)
class CfSpec:
    """Which sieve weight f feeds the series c_f = sum f(m) c_m / m.

    rule 'unit'  : f is the point mass at 1 (plain divisor sum)
    rule 'mu_k'  : f = mu_k, supported on k-th powers m = j**k
    rule 'pillai': f(m) = mu(m)/m, the weight with f * d = P

    ``alpha`` records the weight's decay exponent (1/k for the mu_k
    rule, 1 for the pillai rule); the tail machinery below recovers the
    decay from the rule directly, alpha is carried as declared metadata.
    """

    rule: str
    k: int | None = None
    alpha: float = 1.0

    def __post_init__(self):
        if self.rule not in {"unit", "mu_k", "pillai"}:
            raise ValueError(f"unknown cf rule {self.rule!r}")
        if self.rule == "mu_k":
            if not isinstance(self.k, int) or self.k < 2:
                raise ValueError("mu_k rule needs integer k >= 2")
        elif self.k is not None:
            raise ValueError(f"{self.rule} rule takes no k")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def coefficient(self, m):
        """f(m) as an exact Fraction (point evaluation, test surface)."""
        from fractions import Fraction

        from .functions import MOEBIUS, evaluate, mu_k
        from .sieve import factorize_int as _fi

        m = int(m)
        if m < 1:
            raise ValueError("need m >= 1")
        if self.rule == "unit":
            return Fraction(1 if m == 1 else 0)
        if self.rule == "mu_k":
            return Fraction(mu_k(m, self.k))
        return Fraction(evaluate(MOEBIUS, _fi(m)), m)

    @classmethod
    def point_mass(cls):
        return cls("unit")

    @classmethod
    def mu_k_rule(cls, k):
        k = int(k)
        return cls("mu_k", k, 1.0 / k)

    @classmethod
    def pillai_rule(cls):
        return cls("pillai", None, 1.0)


@lru_cache(maxsize=None)
def _ratio_table(q):
    # ratio[j] = prod_{p | j} p^2/(p^2 - p + 1) = c_j / T(a), any a
    ratio = np.ones(q + 1, dtype=np.float64)
    for p in primes_up_to(q).primes if q >= 2 else []:
        p = int(p)
        ratio[p::p] *= p * p / (p * p - p + 1.0)
    return ratio


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
    pf = primes_up_to(lim).primes.astype(np.float64)
    logs = np.log1p((pf - 1.0) / ((pf * pf - pf + 1.0) * pf))
    return math.exp(math.fsum(logs.tolist()) + 1.0 / (lim - 1.0))


_TAIL_STRETCH = 256


@lru_cache(maxsize=None)
def _cf_tail_envelope(m_cut, k):
    """Bound on sum_{j > m_cut} mu^2(j) ratio(j) / j^k, ratio as above.

    Exact midsection out to Q = 256 * m_cut, then an analytic remainder:
    writing ratio(j) = sum_{d | j} g(d) (squarefree j) and splitting
    j = d*t gives, for Q >= 1,

      sum_{j > Q} mu^2 ratio / j^k
        <= G * ( k/(k-1) + zeta(k) ) / Q^(k-1)

    with G = sum_sf g(d)/d, using sum_{t > Q/d} t^-k <= (d/Q)^(k-1) * k/(k-1)
    for d <= Q and sum_t t^-k = zeta(k) for d > Q.
    """
    q = _TAIL_STRETCH * m_cut
    mu = function_table(MOEBIUS, q)
    ratio = _ratio_table(q)
    j = np.arange(m_cut + 1, q + 1, dtype=np.int64)
    sel = j[mu[m_cut + 1 :] != 0]
    mid = math.fsum((ratio[sel] / sel.astype(np.float64) ** k).tolist())
    rem = _g_series_constant() * (k / (k - 1.0) + _zeta_upper(k)) / float(q) ** (k - 1)
    return mid + rem


def cf_series(spec, a, m_limit=DEFAULT_SERIES_LIMIT):
    """Truncated series c_f = sum f(m) c_m / m for the given rule.

    ``m_limit`` truncates the rule's support enumeration: j <= m_limit
    for the mu_k rule (support m = j**k), m <= m_limit for the pillai
    rule.  tail_bound covers everything beyond the truncation.
    """
    if not isinstance(spec, CfSpec):
        raise ValueError("spec must be a CfSpec")
    m_limit = int(m_limit)
    if m_limit < 10:
        raise ValueError("need m_limit >= 10")
    t = titchmarsh_factor(a)
    if spec.rule == "unit":
        return t
    mu = function_table(MOEBIUS, m_limit)
    ratio = _ratio_table(m_limit)
    j = np.arange(1, m_limit + 1, dtype=np.int64)
    live = j[mu[1:] != 0]
    k = spec.k if spec.rule == "mu_k" else 2
    # mu_k rule: sum_j mu(j) c_{j^k} / j^k; pillai: sum_m mu(m) c_m / m^2
    terms = mu[live] * ratio[live] / live.astype(np.float64) ** k
    series = math.fsum(terms.tolist())
    value = t.value * series
    tail = t.value * _cf_tail_envelope(m_limit, k)
    abs_sum = t.value * math.fsum(np.abs(terms).tolist())
    rounding = _EPS * (16.0 * abs_sum + 4.0 * abs(value)) + t.rounding_bound
    return ConstantResult(value, m_limit, tail, rounding)
