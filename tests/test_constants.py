"""Zeta values, Euler products, and series constants with reported tail bounds."""

import math
import tracemalloc
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from titchmarsh import constants
from titchmarsh.constants import (
    MAX_PRODUCT_LIMIT,
    MAX_SERIES_LIMIT,
    CfSpec,
    ConstantResult,
    bk_product,
    cf_series,
    felix_cm,
    titchmarsh_factor,
    zeta_product_identity_gap,
    zeta_value,
)
from titchmarsh.sieve import factorize_int, primes_up_to

mpmath.mp.dps = 30

# high-precision oracle for the leading constant zeta(2) zeta(3) / zeta(6)
_TITCH_REF = float(mpmath.zeta(2) * mpmath.zeta(3) / mpmath.zeta(6))


def test_zeta_closed_forms():
    assert math.isclose(zeta_value(2), math.pi**2 / 6, rel_tol=1e-15)
    assert math.isclose(zeta_value(6), math.pi**6 / 945, rel_tol=1e-15)


def test_zeta3_against_mpmath():
    assert zeta_value(3) == float(mpmath.zeta(3))


def test_zeta3_is_the_truncated_series():
    # the literal is sum_{m <= 10**6} m**-3 plus its Euler-Maclaurin tail
    # (integral, half-term, two curvature terms; the next, 1/(12 n**8), is
    # far below double resolution), which T(a) reports as its truncation
    n = 10**6
    head = math.fsum(m**-3 for m in range(1, n + 1))
    tail = 0.5 / n**2 - 0.5 / n**3 + 0.25 / n**4 - 1.0 / (12.0 * n**6)
    assert head + tail == zeta_value(3)
    assert titchmarsh_factor(1).truncation == n


def test_zeta_unsupported_arguments():
    for s in (0, 1, 4, 5, -2):
        with pytest.raises(ValueError):
            zeta_value(s)


def test_titchmarsh_factor_a1():
    r = titchmarsh_factor(1)
    assert r.value == zeta_value(2) * zeta_value(3) / zeta_value(6)
    assert math.isclose(r.value, _TITCH_REF, rel_tol=1e-14)
    assert r.tail_bound == 0.0
    assert r.rounding_bound >= 0.0


def test_titchmarsh_factor_local_factor():
    # p = 2 contributes 1 - 2/(4 - 2 + 1) = 1/3
    assert math.isclose(titchmarsh_factor(2).value, titchmarsh_factor(1).value / 3,
                        rel_tol=1e-15)


def test_titchmarsh_factor_sign_symmetry():
    for a in (1, 2, 6, 30):
        assert titchmarsh_factor(-a).value == titchmarsh_factor(a).value


def test_titchmarsh_factor_rejects_zero():
    with pytest.raises(ValueError):
        titchmarsh_factor(0)


def test_titchmarsh_factor_bounds_the_shift():
    assert titchmarsh_factor(-(2**39)).value > 0
    assert titchmarsh_factor(2**40).value > 0
    for a in (2**40 + 1, -(2**40) - 1):
        with pytest.raises(ValueError, match="a"):
            titchmarsh_factor(a)


def test_felix_cm_m1_is_empty_product():
    assert felix_cm(1, 1).value == titchmarsh_factor(1).value


def test_felix_cm_examples():
    assert math.isclose(felix_cm(2, 1).value, 2.5914619, rel_tol=1e-7)
    assert math.isclose(felix_cm(2, 1).value, titchmarsh_factor(1).value * 4 / 3,
                        rel_tol=1e-15)
    assert math.isclose(felix_cm(3, 2).value, 0.8329699, rel_tol=1e-6)


def test_felix_cm_validation():
    with pytest.raises(ValueError):
        felix_cm(0, 1)
    with pytest.raises(ValueError):
        felix_cm(2, 0)


def test_felix_cm_bounds_the_modulus():
    assert felix_cm(2**40, 1).value == felix_cm(2, 1).value
    with pytest.raises(ValueError, match="modulus"):
        felix_cm(2**40 + 1, 1)


def test_felix_cm_depends_on_radical():
    c1 = felix_cm(1, 1).value
    assert felix_cm(12, 1).value / c1 == felix_cm(6, 1).value / c1
    assert felix_cm(4, 1).value == felix_cm(2, 1).value
    assert felix_cm(9, 5).value == felix_cm(3, 5).value


def test_felix_cm_sign_symmetry():
    for m, a in ((2, 1), (3, 2), (5, 6)):
        assert felix_cm(m, -a).value == felix_cm(m, a).value


def test_zeta_product_identity_gap():
    # tail of the Euler product is below 1/(P-1) in log scale
    g5 = zeta_product_identity_gap(10**5)
    assert g5 <= 2.2e-5
    g6 = zeta_product_identity_gap(10**6)
    assert g6 < g5
    assert zeta_product_identity_gap(10**7) <= 1e-6


def test_bk_product_large_k_approaches_leading_constant():
    r = bk_product(50, 1, 10**4)
    assert abs(r.value - titchmarsh_factor(1).value) <= 1e-12


def test_bk_product_k2_tail_small_at_default_limit():
    r = bk_product(2, 1, 10**7)
    assert r.tail_bound <= 1e-6
    assert r.truncation == 10**7


def test_bk_tail_formula():
    # declared envelope 2 / ((k-1) P^(k-1)) relative to the value
    r = bk_product(2, 1, 100)
    assert r.tail_bound >= r.value * 2 / 100


def test_bk_monotone_in_k():
    for a in (1, -6):
        vals = [bk_product(k, a, 10**4).value for k in (2, 3, 4, 5, 10, 50)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_bk_sign_symmetry():
    for k in (2, 3):
        assert bk_product(k, -6, 10**4).value == bk_product(k, 6, 10**4).value


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("a", [1, -6])
def test_bk_product_is_the_exact_log_sum(k, a):
    # every k takes the fsum of log1p(-u_p): within 2**-50 of the same
    # product taken in 200-bit arithmetic (a running float product of the
    # 1 - u_p was off by 1.3e-14 of b_3 at this limit)
    limit = 10**5
    with mpmath.workprec(200):
        logs = mpmath.fsum(mpmath.log1p(-1 / (mpmath.mpf(p) ** (k - 2) * (p * p - p + 1)))
                           for p in primes_up_to(limit).primes.tolist())
        exact = titchmarsh_factor(a).value * mpmath.exp(logs)
        assert abs(bk_product(k, a, limit).value - exact) <= 2.0**-50 * exact


def test_bk_validation():
    with pytest.raises(ValueError):
        bk_product(1, 1, 10**4)
    with pytest.raises(ValueError):
        bk_product(2, 0, 10**4)
    with pytest.raises(ValueError):
        bk_product(2, 1, 50)


def test_k_is_bounded_by_the_cut():
    # (k - 1) * cut**(k - 1) must be a finite double: k <= 44 at 10**7
    # primes and k <= 48 at the series cut 256 * 10**4
    assert bk_product(44, 1).tail_bound > 0
    assert cf_series(CfSpec.mu_k_rule(48), 1).tail_bound > 0
    for call in (
        lambda: bk_product(45, 1),
        lambda: bk_product(40, 1, MAX_PRODUCT_LIMIT),
        lambda: cf_series(CfSpec.mu_k_rule(49), 1),
        lambda: cf_series(CfSpec.mu_k_rule(38), 1, MAX_SERIES_LIMIT),
        lambda: bk_product(10**18, 1),
    ):
        with pytest.raises(ValueError, match="too large"):
            call()


def test_prime_limit_is_bounded():
    for fn in (lambda p: bk_product(2, 1, p), zeta_product_identity_gap):
        with pytest.raises(ValueError, match="prime_limit"):
            fn(MAX_PRODUCT_LIMIT + 1)


def test_cfspec_point_mass_recovers_leading_constant():
    r = cf_series(CfSpec.point_mass(), 1, 100)
    t = titchmarsh_factor(1)
    assert r.value == t.value
    assert r.tail_bound == 0.0


def test_cfspec_coefficients():
    pm = CfSpec.point_mass()
    assert pm.coefficient(1) == 1
    assert pm.coefficient(7) == 0
    m2 = CfSpec.mu_k_rule(2)
    assert m2.coefficient(1) == 1
    assert m2.coefficient(4) == -1
    assert m2.coefficient(8) == 0
    assert m2.coefficient(36) == 1
    pl = CfSpec.pillai_rule()
    assert pl.coefficient(1) == 1
    assert pl.coefficient(2) == Fraction(-1, 2)
    assert pl.coefficient(4) == 0
    assert pl.coefficient(6) == Fraction(1, 6)


def test_cfspec_rejects_bad_rules():
    with pytest.raises(ValueError):
        CfSpec("mu_k", k=None)
    with pytest.raises(ValueError):
        CfSpec("bogus")


def test_cf_series_validation():
    with pytest.raises(ValueError):
        cf_series(CfSpec.mu_k_rule(2), 0, 100)
    with pytest.raises(ValueError):
        cf_series(CfSpec.mu_k_rule(2), 1, 5)  # cutoff below minimum
    with pytest.raises(ValueError, match="series limit"):
        cf_series(CfSpec.pillai_rule(), 1, MAX_SERIES_LIMIT + 1)


# (k, a, m_limit) -> value, tail_bound and rounding_bound of cf_series as
# .hex(), recorded from the implementation that summed whole-range mu and
# ratio tables; the mu_k rule at k = 2 and the pillai rule sum one series
_CF_PINS = {
    (2, 1, 10): ("0x1.00f4218badbb8p+0", "0x1.38765c94611d1p-3", "0x1.54c98b991fd69p-46"),
    (2, 1, 1000): ("0x1.0000f37beae99p+0", "0x1.976687814b6cdp-10", "0x1.5e2f9bad7c56bp-46"),
    (2, 1, 10**4): ("0x1.ffffee1034c5cp-1", "0x1.456b86913745cp-13", "0x1.5e45fc2bcd926p-46"),
    (2, -6, 10): ("0x1.878c63e108bc4p-3", "0x1.dc22132b3ea63p-6", "0x1.626bc1740ce91p-48"),
    (2, -6, 1000): ("0x1.8619d48c10a0ep-3", "0x1.36667f9f766b5p-12", "0x1.6994f2469c87ap-48"),
    (2, -6, 10**4): ("0x1.861853db95ec1p-3", "0x1.efe0cd0e0b14fp-16", "0x1.69a5fed79d782p-48"),
    (2, -(2**39), 10): ("0x1.569ad764e7a4cp-2", "0x1.a09dd0c5d6d18p-5", "0x1.0ca7a8807aed8p-47"),
    (2, -(2**39), 1000): ("0x1.555699fa8e8cdp-2", "0x1.0f99afab879dfp-11", "0x1.12ebb338b8984p-47"),
    (2, -(2**39), 10**4): ("0x1.55554960232e9p-2", "0x1.b1e4b36c49b26p-15", "0x1.12fa9e37996acp-47"),
    (3, 1, 10): ("0x1.85499a937a36dp+0", "0x1.d896117ff04fcp-8", "0x1.2e8c66c9fbf80p-46"),
    (3, 1, 1000): ("0x1.8512c701a6681p+0", "0x1.98b8ea946f9a2p-21", "0x1.2eff17b05a928p-46"),
    (3, 1, 10**4): ("0x1.8512c6bfcffccp+0", "0x1.04dd94222c78ep-27", "0x1.2eff1ad56cd15p-46"),
    (3, -6, 10): ("0x1.28999a57fb978p-2", "0x1.6810d0617a246p-10", "0x1.45495c43f194dp-48"),
    (3, -6, 1000): ("0x1.286fd4938af9fp-2", "0x1.376851342444bp-23", "0x1.45a0be798efe6p-48"),
    (3, -6, 10**4): ("0x1.286fd4616183ap-2", "0x1.8d8267d28ce8fp-30", "0x1.45a0c0def23a6p-48"),
    (3, -(2**39), 10): ("0x1.0386670cfc24ap-1", "0x1.3b0eb6554adfep-9", "0x1.e6531fecc607bp-48"),
    (3, -(2**39), 1000): ("0x1.0361da01199acp-1", "0x1.107b470d9fbc2p-22", "0x1.e6ec0bca99804p-48"),
    (3, -(2**39), 10**4): ("0x1.0361d9d535533p-1", "0x1.5bd21ad83b4bep-29", "0x1.e6ec0ffc07296p-48"),
}


def _bits(r):
    return r.value.hex(), r.tail_bound.hex(), r.rounding_bound.hex()


def test_cf_series_pinned_bits():
    for (k, a, m_limit), want in _CF_PINS.items():
        specs = [CfSpec.mu_k_rule(k)] + ([CfSpec.pillai_rule()] if k == 2 else [])
        for spec in specs:
            assert _bits(cf_series(spec, a, m_limit)) == want, (spec.rule, k, a, m_limit)


def test_cf_series_memory_does_not_grow_with_the_limit():
    def traced(m_limit):
        constants._cf_tail_envelope.cache_clear()
        tracemalloc.start()
        try:
            r = cf_series(CfSpec.pillai_rule(), 1, m_limit)
            return r, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, small = traced(10**4)
    r, large = traced(10**5)
    assert large <= small + 4 * 2**20, (small, large)
    # past 256 * 10**5 > 4096**2 the strike batches its large base primes;
    # the bits were recorded from the table-based implementation
    assert _bits(r) == ("0x1.ffffff87bd5cfp-1", "0x1.04775c36fdd2bp-16", "0x1.5e483a1c5a3b0p-46")


def test_tail_envelope_memory_is_a_few_windows():
    # the ratio sieve holds the arrays of one 2**16 window at a time,
    # about 4 MiB traced; a fold over 2**20 windows peaks near 40 MiB
    constants._cf_tail_envelope.cache_clear()
    tracemalloc.start()
    try:
        constants._cf_tail_envelope(10**4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


def _factored_terms(lo, hi, k):
    # the reference: each j factored on its own, -p^2/(p^2 - p + 1)
    # multiplied in ascending p, and j dropped when some p^2 divides it.
    # j**k is numpy's, as in the enumerator: Python's float ** int calls
    # libm's pow, which near 2.56e8 misses the correctly rounded j*j by an
    # ulp.  Returns the pairs (j, term), ascending in j, as two lists.
    ws, js = [], []
    for j in range(lo, hi):
        w = 1.0
        for p, e in factorize_int(j):
            if e > 1:
                break
            w *= -(p * p / (p * p - p + 1.0))
        else:
            ws.append(w)
            js.append(j)
    return js, (np.array(ws) / np.array(js, dtype=np.float64) ** k).tolist()


def _enumerated(lo, hi, k):
    # the enumerator's pairs (j, term), which come in no order of j, sorted by j
    j, t = (np.concatenate(col) for col in zip(*constants._series_terms(lo, hi, k)))
    order = np.argsort(j)
    return j[order].tolist(), t[order].tolist()


def _assert_terms_match(lo, hi, k):
    assert _enumerated(lo, hi, k) == _factored_terms(lo, hi, k), (lo, hi, k)


# The width of the windows of j that the ratio sieve, the enumerator's
# predecessor, walked: the seams of those windows stay as narrow checks.
# Each costs what the enumerator pays up to its hi: about 2 s near _TOP.
_W = 1 << 16
_TOP = constants._TAIL_STRETCH * MAX_SERIES_LIMIT


@pytest.mark.parametrize("lo,hi", [
    (1, 300),  # j = 1 and the smallest roots
    (_W - 40, _W + 40),
    (7 * _W - 1, 7 * _W + 2),
    (9 * _W - 30, 9 * _W + 30),  # 9 * 2**16, a multiple of 3**2
    (25 * 49 * _W - 30, 25 * 49 * _W + 30),  # multiples of 5**2 and 7**2
    (257**2 - 600, 257**2 + 40),  # 257**2 > 2**16
    (2 * _W - 3, 2 * 257**2 + 5),
    (251**2 - 40, 251**2 + 1),  # Q = r**2 for the prime r = 251: r in the walk, r**2 last
    (251**2 - 40, 251**2),  # Q = r**2 - 1: R = 250, and 251 a q of the windows
    (15991**2 - 60, 15991**2 + 1),  # the largest prime root below 256 * MAX_SERIES_LIMIT
    (15991**2 - 60, 15991**2),  # R = 15990
    (_TOP - 200, _TOP + 1),  # the top of the envelope at MAX_SERIES_LIMIT, Q = 16000**2
])
@pytest.mark.parametrize("k", [2, 3])
def test_series_terms_equal_factored_j(lo, hi, k):
    _assert_terms_match(lo, hi, k)


@pytest.mark.parametrize("top", [
    168, 169, 170,  # Q = r**2 - 1, r**2, r**2 + 1 for the prime r = 13
    255, 256, 257,  # and for the composite r = 16
    10200, 10201, 10202,  # the prime r = 101
    9999, 10000, 10001,  # the composite r = 100
])
@pytest.mark.parametrize("k", [2, 3])
def test_series_terms_over_one_to_q(top, k):
    # every j in [1, Q], either side of the split of the walk (largest
    # prime <= R = isqrt(Q)) from the windows of q > R
    _assert_terms_match(1, top + 1, k)


@pytest.mark.parametrize("k", [2, 3])
def test_series_terms_over_the_envelope_range(k):
    # (m, 256 m] for m = 1000, as _cf_tail_envelope(1000, k) reads it: Q =
    # 256000, R = 505, q in four windows of t on the odd line q = 2t - 1,
    # the first opening at t = 254 and the last ending at t = 128000 inside
    # its window; and the walk's second level, the j = p1 * p2, holds more
    # nodes than one batch
    m = 1000
    top = constants._TAIL_STRETCH * m
    base = primes_up_to(isqrt(top)).primes
    pairs = np.count_nonzero(np.outer(base, base)[np.triu_indices(base.size, 1)] <= top)
    assert pairs > constants._WALK_BATCH
    first, last = (isqrt(top) + 3) // 2, (top + 1) // 2
    assert first // constants._Q_WIDTH == 0 and last // constants._Q_WIDTH == 3
    assert (last + 1) % constants._Q_WIDTH
    _assert_terms_match(m + 1, top + 1, k)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(1, 1 << 23), width=st.integers(1, 300), k=st.sampled_from([2, 3]))
def test_series_terms_equal_factored_j_anywhere(lo, width, k):
    # lo up to 2**23, not _TOP: the enumerator walks every j below hi
    # whatever lo is, about 2 s at the top, which the cases above reach
    _assert_terms_match(lo, lo + width, k)


def _fsum_or_exact(xs):
    # fsum refuses an intermediate overflow even where the exact sum,
    # rounded, is a double; Fraction's float() rounds correctly too
    try:
        return math.fsum(xs)
    except OverflowError:
        return float(sum(map(Fraction, xs)))


_ANY_DOUBLE = st.floats(allow_nan=False, allow_infinity=False)
# mantissas of every width at every exponent, subnormals included
_SCALED = st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1130, 970))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(_ANY_DOUBLE, _SCALED, st.just(0.0), st.just(-0.0)),
                         max_size=40), max_size=6))
# a negative double 120 bits below its block's top: its remainder is
# exact toward zero, but not toward minus infinity
@example([[2.0**60, -(2.0**60), -(2.0**-60)]])
def test_exact_sum_equals_fsum(chunks):
    xs = [x for chunk in chunks for x in chunk]
    arrays = [np.array(chunk, dtype=np.float64) for chunk in chunks]
    try:
        want = _fsum_or_exact(xs)
    except OverflowError:
        with pytest.raises(OverflowError):
            constants._exact_sum(arrays)
        return
    assert constants._exact_sum(arrays).hex() == want.hex(), xs


def test_exact_sum_of_long_chunks_equals_fsum():
    # chunks longer than one block, of mixed signs over 1,200 binary
    # orders, and a run of terms like the envelope's
    rng = np.random.default_rng(31)
    n = 3 * constants._SUM_BLOCK + 5
    wide = rng.standard_normal(n) * 2.0 ** rng.integers(-1100, 100, n)
    terms = rng.random(n // 3) / rng.integers(1, 10**6, n // 3) ** 2.0
    for chunks in ([wide], [terms, -terms[::2], wide[:7]], [np.zeros(0), terms]):
        assert constants._exact_sum(chunks).hex() == math.fsum(np.concatenate(chunks).tolist()).hex()


# value of bk_product(2, a, P) for a = 1, -6 and zeta_product_identity_gap(P)
# as .hex(), recorded from the implementation that handed fsum a list
_LOG_SUM_PINS = {
    10**5: ("0x1.00000d75a70afp+0", "0x1.861876089d047p-3", "0x1.a28f3db900000p-20"),
    10**7: ("0x1.000000192b337p+0", "0x1.861861ac72978p-3", "0x1.8757db0000000p-27"),
}


@pytest.mark.parametrize("prime_limit", sorted(_LOG_SUM_PINS))
def test_log_sums_pinned_bits(prime_limit):
    got = (bk_product(2, 1, prime_limit).value.hex(), bk_product(2, -6, prime_limit).value.hex(),
           zeta_product_identity_gap(prime_limit).hex())
    assert got == _LOG_SUM_PINS[prime_limit]


def test_cf_series_sign_symmetry():
    for spec in (CfSpec.mu_k_rule(2), CfSpec.pillai_rule()):
        assert cf_series(spec, -6, 1000).value == cf_series(spec, 6, 1000).value


def test_series_equals_product_within_tails():
    for k in (2, 3):
        for a in (1, 2, -6):
            s = cf_series(CfSpec.mu_k_rule(k), a, 10**4)
            p = bk_product(k, a, 10**7)
            budget = s.tail_bound + p.tail_bound + s.rounding_bound + p.rounding_bound
            assert abs(s.value - p.value) <= budget, (k, a)


def test_pillai_series_matches_k2_product():
    s = cf_series(CfSpec.pillai_rule(), 1, 10**4)
    p = bk_product(2, 1, 10**7)
    budget = s.tail_bound + p.tail_bound + s.rounding_bound + p.rounding_bound
    assert abs(s.value - p.value) <= budget


def test_constant_result_validation():
    with pytest.raises(ValueError):
        ConstantResult(1.0, 1, 0.0)
    with pytest.raises(ValueError):
        ConstantResult(1.0, 10, -1e-9)
    r = ConstantResult(1.5, 10, 0.25)
    assert r.rounding_bound == 0.0


def test_tail_bounds_nonnegative_everywhere():
    for r in (titchmarsh_factor(3), felix_cm(6, 1), bk_product(3, 1, 10**4),
              cf_series(CfSpec.mu_k_rule(3), 1, 1000)):
        assert r.tail_bound >= 0.0
        assert r.rounding_bound >= 0.0
        assert r.truncation >= 2
