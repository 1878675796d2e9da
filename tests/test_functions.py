"""Arithmetic function evaluation, convolution, and brute-force oracles."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import titchmarsh
from titchmarsh.functions import (
    DIVISOR,
    EULER_PHI,
    MOEBIUS,
    OMEGA,
    PILLAI,
    UNITARY_DIVISOR,
    FunctionKind,
    dirichlet_convolve,
    evaluate,
    function_table,
    integer_kth_root,
    k_free_divisor,
    moebius_kth,
    mu_k,
    mu_k_table,
    pillai_gcd_oracle,
    pillai_range,
    value_range,
)
from titchmarsh.sieve import factorize_int, primes_up_to


def test_kind_validation():
    with pytest.raises(ValueError):
        FunctionKind("dk")  # k required
    with pytest.raises(ValueError):
        FunctionKind("mu_k")
    with pytest.raises(ValueError):
        FunctionKind("dk", k=1)
    with pytest.raises(ValueError):
        FunctionKind("d", k=2)  # k forbidden
    with pytest.raises(ValueError):
        FunctionKind("nope")
    assert k_free_divisor(3).k == 3
    assert moebius_kth(2).tag == "mu_k"


def test_kind_labels():
    assert DIVISOR.label == "d"
    assert k_free_divisor(2).label == "dk2"
    assert moebius_kth(3).label == "mu_k3"
    assert PILLAI.label == "pillai"


def test_evaluate_examples():
    f12 = factorize_int(12)
    assert evaluate(DIVISOR, f12) == 6
    assert evaluate(k_free_divisor(2), f12) == 4
    assert evaluate(k_free_divisor(3), factorize_int(16)) == 3
    assert evaluate(PILLAI, f12) == Fraction(10, 3)
    assert evaluate(UNITARY_DIVISOR, f12) == 4
    assert evaluate(OMEGA, f12) == 2
    assert evaluate(MOEBIUS, f12) == 0
    assert evaluate(MOEBIUS, factorize_int(30)) == -1
    assert evaluate(EULER_PHI, f12) == 4
    assert evaluate(moebius_kth(2), factorize_int(4)) == -1
    # exponents past 63 (n from 2**64 on) are capped at k - 1 exactly,
    # also where k - 1 is beyond int64
    assert evaluate(k_free_divisor(65), factorize_int(2**80)) == 65
    assert evaluate(k_free_divisor(100), factorize_int(2**80)) == 81
    assert evaluate(k_free_divisor(2**70), [(2, 100)]) == 101


def test_evaluate_at_1():
    for kind in (DIVISOR, UNITARY_DIVISOR, MOEBIUS, EULER_PHI, PILLAI,
                 k_free_divisor(2), moebius_kth(2)):
        assert evaluate(kind, []) == 1
    assert evaluate(OMEGA, []) == 0


def test_mu_k_examples():
    assert mu_k(1, 2) == 1
    assert mu_k(4, 2) == -1
    assert mu_k(8, 2) == 0
    assert mu_k(64, 3) == 0  # 64 = 4^3 and mu(4) = 0
    assert mu_k(64, 2) == 0
    assert mu_k(36, 2) == 1
    assert mu_k(27, 3) == -1


def test_mu_k_matches_direct_definition():
    for k in (2, 3):
        for n in range(1, 800):
            r = round(n ** (1.0 / k))
            expect = 0
            for m in (r - 1, r, r + 1):
                if m >= 1 and m**k == n:
                    expect = evaluate(MOEBIUS, factorize_int(m))
            assert mu_k(n, k) == expect, (n, k)


def test_mu_k_agrees_with_evaluate():
    for k in (2, 3, 4):
        kind = moebius_kth(k)
        for n in range(1, 600):
            assert mu_k(n, k) == evaluate(kind, factorize_int(n))


def test_integer_kth_root_near_perfect_powers():
    for k in (2, 3, 5):
        for m in (10**6, 10**6 + 1, 2**19 - 1):
            n = m**k
            assert integer_kth_root(n, k) == m
            assert integer_kth_root(n - 1, k) == m - 1
            assert integer_kth_root(n + 1, k) == m


def test_integer_kth_root_of_a_large_k_is_one():
    # 2**k > n from k = n.bit_length() on; (r + 1)**k is never built
    for n in (1, 2, 3, 999, 2**40):
        assert integer_kth_root(n, n.bit_length()) == 1
        assert integer_kth_root(n, 10**12) == 1
    assert integer_kth_root(2**40, 40) == 2


_ROOTS_CHILD = """
import json, sys
from titchmarsh.constants import CfSpec
from titchmarsh.functions import integer_kth_root, mu_k
cases = json.load(sys.stdin)
print(json.dumps([[integer_kth_root(n, k) for n, k in cases],
                  [mu_k(3**200, 3), mu_k(2**1100, 2), mu_k(210**150, 150)],
                  int(CfSpec("mu_k", 2).coefficient(2**1100))]))
"""


def test_integer_kth_root_is_exact_past_double_precision():
    # a float seed was off by up to about 2**52 once the root passed 2**53,
    # and walked back one step at a time (3**200 ran past a minute); past
    # 2**1024, n did not convert to a float at all.  A child process, so a
    # hang fails at the timeout
    rng = random.Random(27)
    cases, want = [], []
    for k in (2, 3, 5, 7, 12):
        for bits in (40, 60, 200, 1100 // k):
            r = rng.getrandbits(bits) | 1 << (bits - 1)
            cases += [[r**k - 1, k], [r**k, k], [r**k + 1, k]]
            want += [r - 1, r, r]
    src = str(Path(titchmarsh.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _ROOTS_CHILD], input=json.dumps(cases),
                          capture_output=True, text=True, timeout=10, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    roots, mus, coefficient = json.loads(proc.stdout)
    assert roots == want
    # 3**200 is no cube, 2**1100 the square of 2**550, 210**150 of squarefree 210
    assert mus == [0, 0, 1] and coefficient == 0


def test_mu_k_table_matches_scalar():
    tab = mu_k_table(500, 2)
    assert tab[0] == 0
    for n in range(1, 501):
        assert tab[n] == mu_k(n, 2)


def test_convolution_ones_gives_divisor():
    n = 200
    ones = np.ones(n + 1, dtype=np.int64)
    ones[0] = 0
    d = dirichlet_convolve(ones, ones)
    assert d[12] == 6
    dt = function_table(DIVISOR, n)
    assert np.array_equal(d, dt)


def test_function_table_spans_several_windows():
    n = 2**20 + 7
    t = function_table(DIVISOR, n)
    assert t.shape == (n + 1,)
    assert t[0] == 0
    for m in list(range(2**20 - 3, 2**20 + 4)) + list(range(n - 3, n + 1)):
        assert t[m] == evaluate(DIVISOR, factorize_int(m)), m


def test_convolution_moebius_inversion():
    n = 300
    ones = np.ones(n + 1, dtype=np.int64)
    ones[0] = 0
    mu = function_table(MOEBIUS, n)
    e = dirichlet_convolve(mu, ones)
    assert e[1] == 1
    assert not e[2:].any()


def test_convolution_mu2_with_d():
    # mu_2(1) d(12) + mu_2(4) d(3) = 6 - 2 = 4
    n = 2000
    conv = dirichlet_convolve(mu_k_table(n, 2), function_table(DIVISOR, n))
    assert conv[12] == 4
    assert np.array_equal(conv, function_table(k_free_divisor(2), n))


def test_convolution_length_mismatch():
    with pytest.raises(ValueError):
        dirichlet_convolve(np.ones(5, dtype=np.int64), np.ones(6, dtype=np.int64))


def test_table_index_one_is_identity():
    for kind in (DIVISOR, UNITARY_DIVISOR, MOEBIUS, k_free_divisor(2)):
        tab = function_table(kind, 10)
        assert tab[0] == 0
        assert tab[1] == 1


def test_unitary_equals_two_to_omega_up_to_1e6():
    n = 10**6
    uni = function_table(UNITARY_DIVISOR, n)
    dk2 = function_table(k_free_divisor(2), n)
    om = function_table(OMEGA, n)
    assert np.array_equal(uni[1:], np.int64(1) << om[1:])
    assert np.array_equal(uni, dk2)


def test_function_table_of_a_k_past_int64_is_the_divisor_table():
    d = function_table(DIVISOR, 5000)
    for k in (2**63, 2**63 + 1, 2**70):
        assert np.array_equal(function_table(k_free_divisor(k), 5000), d), k


def test_kfree_bounded_by_divisor_with_equality_iff_kfree():
    n = 10**6
    d = function_table(DIVISOR, n)
    for k in (2, 3):
        dk = function_table(k_free_divisor(k), n)
        assert (dk[1:] <= d[1:]).all()
        kfree = np.ones(n + 1, dtype=bool)
        q = 2
        while q ** k <= n:
            if _SMALL_PRIME[q]:
                kfree[q**k::q**k] = False
            q += 1
        assert np.array_equal(dk[1:] == d[1:], kfree[1:])


_SMALL_PRIME = np.zeros(1001, dtype=bool)
_SMALL_PRIME[primes_up_to(1000).primes] = True


def _random_coprime_pairs(count, seed=7):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        m = int(rng.integers(2, 31623))
        n = int(rng.integers(2, 10**9 // m))
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    return pairs


def test_multiplicativity_on_random_coprime_pairs():
    kinds = [DIVISOR, UNITARY_DIVISOR, MOEBIUS, EULER_PHI, PILLAI,
             k_free_divisor(2), k_free_divisor(3), moebius_kth(2)]
    for m, n in _random_coprime_pairs(10**4):
        fm, fn, fmn = factorize_int(m), factorize_int(n), factorize_int(m * n)
        for kind in kinds:
            assert evaluate(kind, fmn) == evaluate(kind, fm) * evaluate(kind, fn)
        assert evaluate(OMEGA, fmn) == evaluate(OMEGA, fm) + evaluate(OMEGA, fn)


def test_pillai_gcd_oracle_examples():
    assert pillai_gcd_oracle(1) == 1
    assert pillai_gcd_oracle(4) == 2
    assert pillai_gcd_oracle(12) == Fraction(10, 3)


def test_pillai_coherence_up_to_2000():
    for n in range(1, 2001):
        assert evaluate(PILLAI, factorize_int(n)) == pillai_gcd_oracle(n)


def test_pillai_oracle_domain():
    with pytest.raises(ValueError):
        pillai_gcd_oracle(0)
    with pytest.raises(ValueError):
        pillai_gcd_oracle(10**6 + 1)


def test_value_range_matches_evaluate():
    lo, hi = 1000, 1600
    base = primes_up_to(40)
    # a k from 2**63 + 1 on has a k - 1 beyond int64, which numpy cannot
    # take as the exponent cap (OverflowError)
    for kind in (DIVISOR, UNITARY_DIVISOR, OMEGA, MOEBIUS, k_free_divisor(3),
                 k_free_divisor(2**63 + 1), k_free_divisor(2**70)):
        vals = value_range(kind, lo, hi, base=base)
        for n in range(lo, hi):
            assert vals[n - lo] == evaluate(kind, factorize_int(n)), (kind.label, n)


def test_value_range_rejects_unsupported_kind():
    with pytest.raises(ValueError):
        value_range(PILLAI, 1, 10)


def test_pillai_range_exact_rationals():
    num, den = pillai_range(1, 2001)
    for n in range(1, 2001):
        assert Fraction(int(num[n - 1]), int(den[n - 1])) == pillai_gcd_oracle(n)


def test_pillai_range_denominators_positive():
    num, den = pillai_range(1, 500)
    assert (den >= 1).all()
    assert (num >= 1).all()


def test_evaluate_pillai_returns_reduced_rational():
    for n in (2, 4, 8, 12, 360, 1024):
        v = evaluate(PILLAI, factorize_int(n))
        assert isinstance(v, Fraction)
        assert math.gcd(abs(v.numerator), v.denominator) == 1
        assert v.denominator >= 1
