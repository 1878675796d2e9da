"""Segmented sieve: enumeration, windowed primality, windowed factorization."""

import numpy as np
import pytest

from titchmarsh.sieve import (
    DEFAULT_SEGMENT_WIDTH,
    MAX_PRIME_LIMIT,
    MAX_SEGMENTS,
    Segment,
    factorize_int,
    factorize_range,
    iter_segments,
    primality_range,
    primes_up_to,
)


def _is_prime(n):
    # independent trial-division oracle
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primes_up_to_small():
    assert primes_up_to(10).primes.tolist() == [2, 3, 5, 7]
    assert primes_up_to(2).primes.tolist() == [2]


def test_primes_up_to_100_against_trial_division():
    got = primes_up_to(100).primes.tolist()
    assert got == [n for n in range(2, 101) if _is_prime(n)]
    assert len(got) == 25


def test_primes_up_to_records_limit():
    base = primes_up_to(50)
    assert base.limit == 50
    assert len(base) == 15


def test_primes_up_to_domain():
    with pytest.raises(ValueError):
        primes_up_to(1)
    with pytest.raises(ValueError):
        primes_up_to(MAX_PRIME_LIMIT + 1)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0, 5)
    with pytest.raises(ValueError):
        Segment(5, 5)
    with pytest.raises(ValueError):
        Segment(7, 3)
    assert Segment(3, 7).width == 4


def test_iter_segments_grid_and_cuts():
    segs = list(iter_segments(1, 100, width=32))
    assert segs[0].lo == 1
    assert segs[-1].hi == 100
    for left, right in zip(segs, segs[1:]):
        assert left.hi == right.lo
    assert all(s.width <= 32 for s in segs)
    # cut points force segment boundaries
    segs = list(iter_segments(1, 1000, width=256, cuts=(500,)))
    assert any(s.hi == 500 for s in segs)


def test_iter_segments_bounds_the_segment_count():
    # refused before a single Segment is built, so these return at once
    with pytest.raises(ValueError, match="segment"):
        iter_segments(2, 10**7, 1)
    with pytest.raises(ValueError, match="segment"):
        iter_segments(1, MAX_SEGMENTS * 8 + 2, 8)
    assert MAX_SEGMENTS * DEFAULT_SEGMENT_WIDTH == 2**40


def test_primality_range_90_100():
    base = primes_up_to(10)
    bits = primality_range(Segment(90, 100), base)
    assert bits.tolist() == [n == 97 for n in range(90, 100)]


def test_primality_range_2_10():
    bits = primality_range(Segment(2, 10), primes_up_to(3))
    marked = [n for n, b in zip(range(2, 10), bits) if b]
    assert marked == [2, 3, 5, 7]


def test_primality_range_millions_window():
    lo = 10**6
    base = primes_up_to(1100)
    bits = primality_range(Segment(lo, lo + 100), base)
    for n, b in zip(range(lo, lo + 100), bits):
        assert bool(b) == _is_prime(n)


def test_primality_insufficient_base():
    with pytest.raises(ValueError):
        primality_range(Segment(10**6, 10**6 + 10), primes_up_to(100))


def test_primality_rejects_lo_below_2():
    with pytest.raises(ValueError):
        primality_range(Segment(1, 10), primes_up_to(10))


def test_width_cap_enforced():
    base = primes_up_to(100)
    with pytest.raises(ValueError):
        primality_range(Segment(2, 2 + 64), base, max_width=32)
    with pytest.raises(ValueError):
        factorize_range(Segment(1, 1 + 64), base, max_width=32)


def test_factorize_range_basics():
    fr = factorize_range(Segment(10, 20), primes_up_to(5))
    assert fr.factors(12) == [(2, 2), (3, 1)]
    assert fr.factors(13) == [(13, 1)]
    assert fr.factors(16) == [(2, 4)]


def test_factorize_range_residual_cofactor():
    # 19946 = 2 * 9973 and 9973 > base limit, so it must survive as residual
    assert _is_prime(9973)
    fr = factorize_range(Segment(19940, 19950), primes_up_to(150))
    assert fr.factors(19946) == [(2, 1), (9973, 1)]


def test_factorize_range_includes_1():
    fr = factorize_range(Segment(1, 5), primes_up_to(3))
    assert fr.factors(1) == []
    assert fr.factors(4) == [(2, 2)]


def test_reassembly_full_segment():
    seg = Segment(100000, 102048)
    fr = factorize_range(seg, primes_up_to(400))
    for n in range(seg.lo, seg.hi):
        prod = 1
        for p, e in fr.factors(n):
            prod *= int(p) ** int(e)
        assert prod == n


def test_primality_factorization_coherence():
    seg = Segment(2, 4000)
    base = primes_up_to(70)
    bits = primality_range(seg, base)
    fr = factorize_range(seg, base)
    for n in range(seg.lo, seg.hi):
        assert bool(bits[n - seg.lo]) == (fr.factors(n) == [(n, 1)])


def test_segment_independence():
    base = primes_up_to(1000)
    whole = factorize_range(Segment(50000, 52000), base)
    left = factorize_range(Segment(50000, 51000), base)
    right = factorize_range(Segment(51000, 52000), base)
    for n in range(50000, 51000):
        assert whole.factors(n) == left.factors(n)
    for n in range(51000, 52000):
        assert whole.factors(n) == right.factors(n)


def test_factored_range_items_iteration():
    fr = factorize_range(Segment(6, 9), primes_up_to(3))
    got = {n: fs for n, fs in fr.items()}
    assert got == {6: [(2, 1), (3, 1)], 7: [(7, 1)], 8: [(2, 3)]}


def test_factorize_int():
    assert factorize_int(1) == []
    assert factorize_int(12) == [(2, 2), (3, 1)]
    assert factorize_int(13) == [(13, 1)]
    assert factorize_int(9973) == [(9973, 1)]
    assert factorize_int(2**10 * 3**4 * 101) == [(2, 10), (3, 4), (101, 1)]
    with pytest.raises(ValueError):
        factorize_int(0)


def test_default_width_is_power_of_two():
    assert DEFAULT_SEGMENT_WIDTH == 1 << 20


def test_primality_dtype_is_bool():
    bits = primality_range(Segment(2, 50), primes_up_to(7))
    assert bits.dtype == np.bool_
