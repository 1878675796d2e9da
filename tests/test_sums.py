"""Checkpointed shifted-prime sums, progression sums, and the S1/S2 split."""

import math
from fractions import Fraction

import numpy as np
import pytest
from grids import grid, held
from hypothesis import example, given, settings
from hypothesis import strategies as st

import titchmarsh.sums
from titchmarsh import _kernels
from titchmarsh.constants import felix_cm, titchmarsh_factor
from titchmarsh.functions import (
    DIVISOR,
    MOEBIUS,
    PILLAI,
    UNITARY_DIVISOR,
    evaluate,
    function_table,
    integer_kth_root,
    k_free_divisor,
    pillai_gcd_oracle,
    value_range,
)
from titchmarsh.sieve import factorize_int, primes_up_to
from titchmarsh.sums import (
    FelixRecord,
    SumRecord,
    decompose_s1_s2,
    default_checkpoints,
    felix_partial_sum,
    shifted_prime_sum,
)


def _direct_sum(kind, a, x):
    # independent accumulation from a flat table, no segmentation
    table = function_table(kind, max(x - a, x))
    total = 0
    skipped = 0
    for p in primes_up_to(x).primes.tolist():
        if p <= a:
            skipped += 1
            continue
        total += int(table[p - a])
    return total, skipped


def test_hand_anchor_divisor():
    rec = shifted_prime_sum(DIVISOR, 1, 20)[-1]
    assert rec.sum == 31
    assert rec.skipped_primes == 0
    assert rec.x == 20


def test_hand_anchor_unitary():
    assert shifted_prime_sum(UNITARY_DIVISOR, 1, 20)[-1].sum == 23


def test_hand_anchor_cubefree():
    assert shifted_prime_sum(k_free_divisor(3), 1, 20)[-1].sum == 29


def test_hand_anchor_negative_shift():
    rec = shifted_prime_sum(DIVISOR, -1, 10)[-1]
    assert rec.sum == 13
    assert rec.skipped_primes == 0


def test_skipped_primes_counted():
    rec = shifted_prime_sum(DIVISOR, 2, 20)[-1]
    expect, skipped = _direct_sum(DIVISOR, 2, 20)
    assert skipped == 1  # p = 2 is not summed
    assert rec.sum == expect
    assert rec.skipped_primes == 1


def test_matches_direct_sum_at_1e5():
    for kind in (DIVISOR, k_free_divisor(2)):
        for a in (1, -1, 2, 5):
            rec = shifted_prime_sum(kind, a, 10**5)[-1]
            expect, skipped = _direct_sum(kind, a, 10**5)
            assert rec.sum == expect, (kind.tag, a)
            assert rec.skipped_primes == skipped


@pytest.mark.parametrize("width", [1, 2, 64])
@pytest.mark.parametrize("a", [1, -1, 2, 3, -2, 4])
def test_p_2_is_read_once_beside_the_odd_class(a, width):
    # the sweep strikes only odd p and reads p = 2 apart: as n = 2 - a in
    # front of the first window when 2 > a, else as a skipped prime
    cps = [3, 4, 5, 10, 100, 2000]
    for kind in (DIVISOR, k_free_divisor(2)):
        recs = shifted_prime_sum(kind, a, 2000, cps, segment_width=width, workers=2)
        for r in recs:
            assert (r.sum, r.skipped_primes) == _direct_sum(kind, a, r.x), (kind.tag, r.x)


@pytest.mark.parametrize("m,a,least", [(1, 1, 2), (1, -1, 2), (1, 2, 2), (1, -(2**39), 2),
                                         (1, 5, 6), (3, -1, 0), (9, -7, -6), (5, 2, 3)])
@pytest.mark.parametrize("width", [1, 2, 97, 1 << 12])
def test_every_window_of_the_sweep_has_one_parity(m, a, least, width):
    # p = 2 is read as a window of its own, so on the line and in the
    # class of an odd m the n of every window a part gets have one
    # parity, and the bitmaps of the count and the strike are half-width
    windows = []

    def part(base, lo, hi, bits):
        n = held(bits)
        windows.append((lo, hi, n, bits[1]))
        return [int(n.size)]

    x = max(a, 0) + 3000
    rows = titchmarsh.sums._sweep(a, x, part, width, 2, (1000,), m=m, least=least)
    odd = [p for p in primes_up_to(x).primes.tolist() if (p - a) % m == 0 and p >= least]
    assert rows[x] == (sum(p <= a for p in odd), [sum(p > a for p in odd)])
    assert windows
    for lo, hi, n, _ in windows:
        assert n.size == 0 or (np.all(n & 1 == n[0] & 1) and lo <= n[0] and n[-1] < hi)
    # p = 2, when summed, is the one-integer window [n, n + 1) in front
    if 2 in odd and a < 2:
        lo, hi, n, _ = windows.pop(0)
        assert (lo, hi, n.tolist()) == ((2 - a) // m, (2 - a) // m + 1, [(2 - a) // m])
    assert not any((n * m + a == 2).any() for _, _, n, _ in windows)
    assert all(g == 2 for *_, g in windows)


@pytest.mark.parametrize("m,a,least,x", [
    (1, 1, 2, 3000), (1, -1, 2, 3000),  # the line, odd a; p = 2 in front
    (1, 2, 2, 3000), (1, -6, 2, 3000),  # the line, even a: odd n
    (3, -1, 0, 3000), (5, 2, 3, 3000),  # odd m
    (4, 3, 2, 3000), (6, -1, 0, 3000),  # even m: g = 1
    # a > 2, swept from p = 3: the first window straddles p = a
    (1, 1000, 2, 4000), (3, 1001, 2, 4000), (4, 1001, 2, 4000),
    (8, 1, 2, 8),  # an empty class
])
@pytest.mark.parametrize("width", [1, 97, 1 << 12])
def test_the_sweep_hands_each_part_the_bitmap_of_its_n(m, a, least, x, width):
    # bit r of a part's grid is n = g*(rlo + r) + pi, g = 2 on the line
    # and in an odd m's class, 1 for an even m; the bitmap runs from the
    # window's lo, or from an n <= 0 when the window straddles p = a, to
    # its last n, hi - 1, and is set exactly at the n = (p - a) / m of
    # the window's primes p > a
    parts = []

    def part(base, lo, hi, bits):
        parts.append((lo, hi, bits))
        return [0]

    titchmarsh.sums._sweep(a, x, part, width, 1, m=m, least=least)
    eligible = [p for p in primes_up_to(x).primes.tolist() if (p - a) % m == 0 and least <= p and a < p]
    assert np.concatenate([held(bits) for *_, bits in parts]).tolist() == [(p - a) // m for p in eligible]
    if eligible[:1] == [2]:
        # p = 2 is the one-bit grid of its n, in front
        two = (2 - a) // m
        (lo, hi, (pi, g, rlo, hit)), *parts = parts
        assert (lo, hi, pi, g, rlo, hit.tolist()) == (two, two + 1, 0, 1, two, [True])
    if not eligible:
        [(lo, hi, (pi, g, rlo, hit))] = parts
        assert (lo, hi, pi, g, rlo, hit.size) == (1, 1, 0, 1, 1, 0)
        return
    ends = []
    for lo, hi, (pi, g, rlo, hit) in parts:
        assert g == (2 if m % 2 else 1) and 0 <= pi < g and hit.dtype == np.bool_
        assert g * (rlo + hit.size - 1) + pi == hi - 1
        first = g * rlo + pi
        assert first == lo or (lo == 1 and first < 1)
        # a window of p <= a alone has hi <= lo = 1, and no bit set
        if hi > lo:
            ends += [lo, hi]
        else:
            assert not hit.any()
    assert ends == sorted(ends)
    if a > 2 and width == 1 << 12:
        _, _, (pi, g, rlo, hit) = parts[0]
        assert g * rlo + pi < 1 and hit.any()


def test_pillai_sum_is_exact_fixed_point():
    # every term contributes floor(num 2^64 / den); the report divides once
    acc = 0
    for p in primes_up_to(20).primes.tolist():
        v = pillai_gcd_oracle(p - 1)
        acc += (v.numerator << 64) // v.denominator
    rec = shifted_prime_sum(PILLAI, 1, 20)[-1]
    assert rec.sum == acc / (1 << 64)
    true = sum(pillai_gcd_oracle(p - 1) for p in primes_up_to(20).primes.tolist())
    assert abs(rec.sum - true) < 1e-12
    assert true == Fraction(293, 15)


@pytest.mark.parametrize("x", [50, 1000])
@pytest.mark.parametrize("a", [-(2**40), -(2**40) + 1])
def test_pillai_sum_is_exact_up_to_n_2_41(a, x):
    # n = p - a reaches 2**40 + x, where den = rad(n) passes 2**40
    acc = 0
    for p in primes_up_to(x).primes.tolist():
        v = evaluate(PILLAI, factorize_int(p - a))
        acc += (v.numerator << 64) // v.denominator
    assert shifted_prime_sum(PILLAI, a, x, [x])[-1].sum == acc / (1 << 64)


@pytest.mark.parametrize("kind,a,x", [(PILLAI, 1000, 5000), (k_free_divisor(2), 4000, 10**4)])
def test_a_factored_window_that_straddles_p_a_equals_its_oracle(monkeypatch, kind, a, x):
    # the first window, p from 3 to 4097, holds p <= a, whose bits the
    # sweep clears, and p > a; dk2's n there, below 98, are too few for
    # the count's 19 pairs, so that window is factored too
    sums = titchmarsh.sums
    routes = []
    for route in ("_divisor_counts", "_factor_part"):
        fn = getattr(sums, route)
        monkeypatch.setattr(sums, route,
                            lambda *args, fn=fn, route=route: routes.append(route) or fn(*args))
    rec = shifted_prime_sum(kind, a, x, [x], segment_width=1 << 12, workers=1)[-1]
    assert routes[0] == "_factor_part"
    primes = primes_up_to(x).primes.tolist()
    assert rec.skipped_primes == sum(p <= a for p in primes)
    if kind is PILLAI:
        acc = 0
        for p in primes[rec.skipped_primes :]:
            v = evaluate(PILLAI, factorize_int(p - a))
            acc += (v.numerator << 64) // v.denominator
        assert rec.sum == acc / (1 << 64)
    else:
        assert rec.sum == _direct_sum(kind, a, x)[0]


def test_main_term_and_normalized_error():
    rec = shifted_prime_sum(DIVISOR, 1, 20)[-1]
    c = titchmarsh_factor(1).value
    assert rec.main_term == c * 20
    assert rec.normalized_error == (rec.sum - rec.main_term) / (20 / math.log(20))


def test_default_checkpoints():
    assert default_checkpoints(10**5) == [10**3, 10**4, 10**5]
    assert default_checkpoints(500) == [500]
    assert default_checkpoints(10**3) == [10**3]


def test_checkpoint_records_are_prefix_sums():
    recs = shifted_prime_sum(DIVISOR, 1, 10**4, checkpoints=(100, 5000, 10**4))
    assert [r.x for r in recs] == [100, 5000, 10**4]
    for r in recs:
        expect, _ = _direct_sum(DIVISOR, 1, r.x)
        assert r.sum == expect


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        shifted_prime_sum(DIVISOR, 1, 100, checkpoints=(50, 40))
    with pytest.raises(ValueError):
        shifted_prime_sum(DIVISOR, 1, 100, checkpoints=(50, 200))
    with pytest.raises(ValueError):
        shifted_prime_sum(DIVISOR, 1, 100, checkpoints=())


def test_domain_validation():
    with pytest.raises(ValueError):
        shifted_prime_sum(DIVISOR, 0, 100)
    with pytest.raises(ValueError):
        shifted_prime_sum(DIVISOR, 1, 2)
    with pytest.raises(ValueError):
        shifted_prime_sum(DIVISOR, 1, (1 << 40) + 1)
    with pytest.raises(ValueError):
        shifted_prime_sum(FunctionKindStub(), 1, 100)


class FunctionKindStub:
    tag = "omega"
    k = None
    label = "omega"


def test_sum_record_round_trip():
    rec = shifted_prime_sum(k_free_divisor(2), 1, 1000)[-1]
    back = SumRecord.from_dict(rec.to_dict())
    assert back == rec


def test_felix_record_round_trip():
    rec = felix_partial_sum(3, 1, 1000)
    back = FelixRecord.from_dict(rec.to_dict())
    assert back == rec


def test_felix_hand_anchors():
    assert felix_partial_sum(2, 1, 20).t_sum == 18
    assert felix_partial_sum(1, 1, 20).t_sum == 31
    assert felix_partial_sum(4, 3, 20).t_sum == 6
    # p = 2 alone: the odd class p = 5 (mod 6) has no p <= 4
    assert felix_partial_sum(3, -1, 4).t_sum == 1


def test_felix_predicted_value():
    rec = felix_partial_sum(2, 1, 20)
    assert rec.predicted == felix_cm(2, 1).value * 20 / 2


def test_felix_validation():
    with pytest.raises(ValueError):
        felix_partial_sum(4, 2, 100)  # gcd(2, 4) = 2
    with pytest.raises(ValueError):
        felix_partial_sum(0, 1, 100)
    with pytest.raises(ValueError):
        felix_partial_sum(2, 0, 100)


def test_felix_coincides_with_plain_sum():
    for a in (1, -1, 2):
        for x in (10**3, 10**5):
            t = felix_partial_sum(1, a, x).t_sum
            s = shifted_prime_sum(DIVISOR, a, x)[-1].sum
            assert t == s, (a, x)


def test_felix_direct_oracle_small():
    # T_m(x) over the progression, from a flat divisor table
    table = function_table(DIVISOR, 10**4)
    for m, a in ((2, 1), (3, 1), (3, 2), (5, 3), (4, 3)):
        expect = sum(int(table[(p - a) // m])
                     for p in primes_up_to(10**4).primes.tolist()
                     if p > a and (p - a) % m == 0)
        assert felix_partial_sum(m, a, 10**4).t_sum == expect, (m, a)


def _line_progression(m, a, x):
    # T_m(x) as the line sweep counts it: every prime p <= x, and the
    # n = p - a divisible by m counted with q = m
    qs, cs, cols = (np.array([v], dtype=np.int64) for v in (m, 1, 0))

    def part(base, lo, hi, bits):
        return titchmarsh.sums._divisor_counts(qs, cs, cols, 1, lo, hi, bits).tolist()

    return titchmarsh.sums._sweep(a, x, part, 1 << 20, 1)[x][1][0]


@st.composite
def _progressions(draw):
    m = draw(st.integers(1, 60))
    a = draw(st.integers(-(10**4), 10**4).filter(lambda a: a != 0 and math.gcd(a, m) == 1))
    width = draw(st.sampled_from([1, 7, 97, 1 << 12, 1 << 20]))
    # at most about 300 windows of the class, x near that bound or tiny
    cap = min(3 * 10**5, 300 * width * m)
    x = draw(st.integers(max(3, cap // 10), cap) | st.integers(3, 100))
    return m, a, x, width, draw(st.sampled_from([1, 2]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=_progressions())
@example(case=(7, -9999, 20011, 97, 2))  # a < 0
@example(case=(60, 7, 3 * 10**5, 1 << 12, 1))  # even m, odd a
@example(case=(59, -2, 3000, 7, 2))  # m above isqrt(x)
@example(case=(3, -1, 1000, 1, 1))  # p = 2 is in the class, at r = 1
# p = 2 is in the class mod m but in no odd class mod 2m: read once, in
# front of the first window, or alone when no odd p of the class is <= x
@example(case=(3, -1, 4, 1, 2))
@example(case=(3, -1, 10**4, 1 << 20, 2))
@example(case=(5, -3, 7, 2, 1))
@example(case=(5, -3, 10**4, 64, 2))
@example(case=(5, -3, 3000, 1, 2))
# r near 10**5: windows below r = 26843 are counted, those above factored
@example(case=(3, 1, 3 * 10**5, 1 << 12, 2))
# a far above 2: the class is swept from r = 1, p = a + m, on
@example(case=(3, 999001, 10**6 + 3 * 10**4, 1 << 20, 2))
@example(case=(7, 10**6 + 3, 10**6 + 7 * 10**4, 1 << 12, 2))
@example(case=(10, 654321, 800000, 97, 1))
@example(case=(1, 5 * 10**5, 6 * 10**5, 1 << 20, 2))
def test_class_sweep_matches_the_line(case):
    m, a, x, width, workers = case
    got = felix_partial_sum(m, a, x, segment_width=width, workers=workers).t_sum
    assert got == _line_progression(m, a, x), case


def test_class_sweep_takes_both_sides_of_the_count_rule(monkeypatch):
    sums = titchmarsh.sums
    routes = []
    for route in ("_divisor_counts", "_factor_part"):
        fn = getattr(sums, route)
        monkeypatch.setattr(sums, route,
                            lambda *args, fn=fn, route=route: routes.append(route) or fn(*args))
    got = felix_partial_sum(3, 1, 3 * 10**5, segment_width=1 << 12, workers=1).t_sum
    assert set(routes) == {"_divisor_counts", "_factor_part"}
    monkeypatch.undo()
    assert got == _line_progression(3, 1, 3 * 10**5)


@pytest.mark.parametrize("m,a,x", [
    (1001, 1, 1000),  # m > x - a: no r >= 1
    (2**40, 1, 2**40),
    (10, -9, 3),  # r = 1 is p = 1
    (8, 1, 10),  # r = 1 is p = 9
    (3, 10**4, 10**4 + 2),  # the class's p <= x are all p <= a
])
def test_empty_class_sums_to_zero(m, a, x):
    assert felix_partial_sum(m, a, x).t_sum == 0


def _sweeps(monkeypatch):
    # the range [lo, hi) of each sweep of the sums
    calls = []
    sweep = titchmarsh.sums.iter_segments

    def counted(lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return sweep(lo, hi, *args, **kwargs)

    monkeypatch.setattr(titchmarsh.sums, "iter_segments", counted)
    return calls


def test_sums_at_one_limit_share_their_base_primes(monkeypatch):
    # the sweep sieves its base primes once per square root, and hands
    # every later sum the same read-only array
    titchmarsh.sums._base_primes.cache_clear()
    calls = []
    sieve_primes = titchmarsh.sums.primes_up_to

    def counted(n):
        calls.append(n)
        return sieve_primes(n)

    monkeypatch.setattr(titchmarsh.sums, "primes_up_to", counted)
    shifted_prime_sum(DIVISOR, 1, 10**4)
    assert calls == [100]
    shifted_prime_sum(PILLAI, -6, 10**4 - 6)  # isqrt(x - a) = 100 again
    assert calls == [100]
    with pytest.raises(ValueError, match="read-only"):
        titchmarsh.sums._base_primes(100).primes[0] = 1


def test_felix_sweeps_its_class_from_r_1(monkeypatch):
    # the odd p = a (mod 3) are p = c + 6t, so the first p > a, p = a + 6
    # (r = 2; r = 1 is the even p = a + 3), starts the sweep; at a far
    # from 2 no segment lies between p = 2 and p = a
    calls = _sweeps(monkeypatch)
    m, a, x = 3, 999999001, 1001000000
    c = -(-a % (2 * m))
    assert felix_partial_sum(m, a, x).t_sum == 479965
    assert calls == [((a + 6 - c) // (2 * m), (x - c) // (2 * m) + 1)]


def test_felix_matches_the_split_columns():
    # T_m over the class against decompose's per_m column, counted on
    # the line with q = m: two routes to the same sums
    x = 10**6
    per_m = {m: t for m, _, t in decompose_s1_s2(2, 1, x).per_m}
    for m in (4, 9, 25):
        assert felix_partial_sum(m, 1, x).t_sum == per_m[m], m


def test_residue_partition():
    # summing over all residue classes mod q recovers the plain shifted sum
    x, a = 10**5, 1
    total = shifted_prime_sum(DIVISOR, a, x)[-1].sum
    table = function_table(DIVISOR, x)
    primes = primes_up_to(x).primes.tolist()
    for q in range(2, 11):
        per_residue = {}
        boundary = 0
        for p in primes:
            if p <= a:
                continue
            r = p % q
            if math.gcd(r, q) == 1:
                per_residue[r] = per_residue.get(r, 0) + int(table[p - a])
            else:
                boundary += int(table[p - a])  # finitely many p dividing q
        assert sum(per_residue.values()) + boundary == total, q
        assert set(per_residue) <= {r for r in range(q) if math.gcd(r, q) == 1}


def test_decompose_partition_identity():
    rep = decompose_s1_s2(2, 1, 10**4)
    assert rep.s1 + rep.s2 == rep.total
    assert rep.total == shifted_prime_sum(k_free_divisor(2), 1, 10**4)[-1].sum


def test_decompose_contributing_moduli_at_1e6():
    rep = decompose_s1_s2(2, 1, 10**6, B=2.0)
    assert rep.threshold == pytest.approx(math.log(10**6) ** 2, rel=1e-12)
    moduli = {t[0] for t in rep.per_m}
    # squarefree j with j^2 <= 190.9: j in {1,2,3,5,6,7,10,11,13}
    assert moduli == {1, 4, 9, 25, 36, 49, 100, 121, 169}


def test_decompose_per_m_entries():
    rep = decompose_s1_s2(2, 1, 10**4)
    table = function_table(DIVISOR, 10**4)
    primes = primes_up_to(10**4).primes.tolist()
    for m, mu, t_m in rep.per_m:
        expect = sum(int(table[(p - 1) // m]) for p in primes
                     if p > 1 and (p - 1) % m == 0)
        assert t_m == expect, m
        assert mu in (-1, 1)
    s1 = sum(mu * t_m for _, mu, t_m in rep.per_m)
    assert s1 == rep.s1


def _split_oracle(k, a, x, B):
    # per_m, s1 and s2 straight from the definition: every modulus
    # m = j**k <= x - a with mu(j) != 0, summed over a flat prime list
    n = primes_up_to(x).primes
    n = n[n > a] - a
    dtab = function_table(DIVISOR, x - a)
    jmax = integer_kth_root(x - a, k)
    mu = function_table(MOEBIUS, jmax)
    thr = math.log(x) ** B
    per_m = []
    s2 = 0
    for j in range(1, jmax + 1):
        if mu[j] == 0:
            continue
        m = j**k
        t_m = int(dtab[n[n % m == 0] // m].sum())
        if m <= thr:
            per_m.append((m, int(mu[j]), t_m))
        else:
            s2 += int(mu[j]) * t_m
    return tuple(per_m), sum(mu * t for _, mu, t in per_m), s2


@pytest.mark.parametrize("B", (1.0, 2.0))
@pytest.mark.parametrize("a", (1, 6, -7))
@pytest.mark.parametrize("k", (2, 3))
def test_decompose_matches_split_oracle(k, a, B):
    x = 20011
    per_m, s1, s2 = _split_oracle(k, a, x, B)
    total = shifted_prime_sum(k_free_divisor(k), a, x, [x])[-1].sum
    assert s1 + s2 == total
    for width in (97, 4096, 1 << 20):
        for workers in (1, 2):
            rep = decompose_s1_s2(k, a, x, B, segment_width=width, workers=workers)
            got = (rep.per_m, rep.s1, rep.s2, rep.total)
            assert got == (per_m, s1, s2, total), (width, workers)


@pytest.mark.parametrize("a", (-2, -6))
def test_decompose_counts_primes_dividing_a(a):
    # with a < 0 a prime p | a has p > a, so m | p - a is possible with
    # gcd(a, m) > 1: p = 2, a = -2 gives 4 | 4, and T_4 must count it
    per_m, s1, s2 = _split_oracle(2, a, 1000, 2.0)
    rep = decompose_s1_s2(2, a, 1000, 2.0)
    assert (rep.per_m, rep.s1, rep.s2) == (per_m, s1, s2)
    assert dict((m, t) for m, _, t in rep.per_m)[4] > 0
    assert rep.s1 + rep.s2 == rep.total


@pytest.mark.parametrize("run,span", [
    # the odd p in [3, 10**4], swept as p = 2t - 1, t in [2, 5000]
    (lambda x: decompose_s1_s2(2, 1, x), (2, 5001)),
    # the odd p of the class p = 1 + 3r, r in [2, 3332], swept as p =
    # -5 + 6t, t = r / 2 + 1 in [2, 1667]
    (lambda x: felix_partial_sum(3, 1, x), (2, 1668)),
], ids=["decompose", "felix"])
def test_one_sweep_of_the_primes(monkeypatch, run, span):
    calls = _sweeps(monkeypatch)
    run(10**4)
    assert calls == [span]


def test_decompose_k3():
    rep = decompose_s1_s2(3, 1, 10**4, B=2.0)
    assert rep.s1 + rep.s2 == rep.total
    assert rep.total == shifted_prime_sum(k_free_divisor(3), 1, 10**4)[-1].sum
    moduli = {t[0] for t in rep.per_m}
    assert moduli == {1, 8, 27}  # cubes of squarefree j with j^3 <= 84.8


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose_s1_s2(1, 1, 10**4)
    with pytest.raises(ValueError):
        decompose_s1_s2(2, 0, 10**4)
    with pytest.raises(ValueError):
        decompose_s1_s2(2, 1, 50)
    with pytest.raises(ValueError):
        decompose_s1_s2(2, 1, 10**4, B=0.5)
    with pytest.raises(ValueError):
        decompose_s1_s2(2, 1, 10**4, B=11)


def test_decompose_report_round_trip_shape():
    d = decompose_s1_s2(2, 1, 10**4).to_dict()
    assert d["s1"] + d["s2"] == d["total"]
    assert d["per_m"][0] == {"m": 1, "mu": 1, "t_m": d["per_m"][0]["t_m"]}


def test_decompose_s2_share_matches_pilot():
    import json
    from importlib import resources

    rep = decompose_s1_s2(2, 1, 10**6, B=2.0)
    assert abs(rep.s2) <= rep.total / 10
    pilots = json.loads(
        resources.files("titchmarsh").joinpath("data/pilots.json").read_text())
    pilot = float.fromhex(pilots["decompose"]["s2_over_total"])
    share = rep.s2 / rep.total
    assert abs(share - pilot) <= 0.2 * abs(pilot)


def test_determinism_across_widths_and_workers():
    base = shifted_prime_sum(DIVISOR, 1, 10**5)[-1]
    for workers, width in ((1, 1 << 14), (3, 1 << 15), (2, 1 << 17)):
        rec = shifted_prime_sum(DIVISOR, 1, 10**5,
                                segment_width=width, workers=workers)[-1]
        assert rec.sum == base.sum
    pil = shifted_prime_sum(PILLAI, 1, 10**4)[-1]
    for workers, width in ((1, 1 << 13), (3, 1 << 15)):
        rec = shifted_prime_sum(PILLAI, 1, 10**4,
                                segment_width=width, workers=workers)[-1]
        assert rec.sum == pil.sum  # bit-identical, not approximately equal


def test_run_ordered_keeps_order_with_few_jobs_in_flight():
    # a sweep may have 2**20 windows; submitting every job at once held
    # a future per job (25 MiB at 2**14 trivial jobs), far more than the
    # results themselves
    import tracemalloc

    jobs = list(range(1 << 14))
    tracemalloc.start()
    try:
        got = titchmarsh.sums._run_ordered(jobs, lambda j: -j, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [-j for j in jobs]
    assert peak < 4 << 20, peak


def test_negative_shift_widens_window():
    # p - a can exceed x when a < 0; the table window must cover it
    rec = shifted_prime_sum(DIVISOR, -5, 10**4)[-1]
    expect, _ = _direct_sum(DIVISOR, -5, 10**4)
    assert rec.sum == expect


def test_large_positive_shift():
    rec = shifted_prime_sum(DIVISOR, 100, 10**4)[-1]
    expect, skipped = _direct_sum(DIVISOR, 100, 10**4)
    assert rec.sum == expect
    assert rec.skipped_primes == skipped == 25


def _divisor_oracle(qs, lo, hi, n):
    # per q, the sum of d(n / q) over the n divisible by q, from the
    # factoring kernel on the window of the quotients
    out = []
    for q in qs:
        r = n[n % q == 0] // q
        if r.size == 0:
            out.append(0)
            continue
        rlo, rhi = int(r[0]), int(r[-1]) + 1
        out.append(int(value_range(DIVISOR, rlo, rhi)[r - rlo].sum()))
    return out


def _check_count(qs, cs, lo, hi, n):
    # three column maps over the same moduli: one column per q, one
    # column weighted by cs, and the decompose shape (the first half own
    # a column each, unweighted; the rest share the last, weighted)
    count = titchmarsh.sums._divisor_counts
    qs = np.array(qs, dtype=np.int64)
    cs = np.array(cs, dtype=np.int64)
    want = _divisor_oracle(qs.tolist(), lo, hi, n)
    i = np.arange(qs.size)
    bits = grid(lo, hi, n)
    got = count(qs, np.ones_like(qs), i, qs.size, lo, hi, bits)
    assert got.tolist() == want, (lo, hi)
    [total] = count(qs, cs, np.zeros_like(qs), 1, lo, hi, bits).tolist()
    assert total == sum(c * w for c, w in zip(cs.tolist(), want)), (lo, hi)
    own = (qs.size + 1) // 2
    got = count(qs, np.where(i < own, 1, cs), np.minimum(i, own), own + 1, lo, hi, bits)
    rest = sum(c * w for c, w in zip(cs[own:].tolist(), want[own:]))
    assert got.tolist() == [*want[:own], rest], (lo, hi)


def _signed_powers(js, k):
    # q = j**k over the squarefree j of js, ascending, with c = mu(j)
    mu = function_table(MOEBIUS, max(js))
    pairs = sorted((j**k, int(mu[j])) for j in set(js) if mu[j])
    return [q for q, _ in pairs], [c for _, c in pairs]


@settings(max_examples=60, deadline=None)
@given(
    lo=st.integers(1, 2**40),
    width=st.integers(1, 4096),
    density=st.sampled_from([1.0, 0.5, 0.05]),
    seed=st.integers(0, 2**32),
    m=st.integers(2, 5000),
    js=st.lists(st.integers(1, 60), min_size=1, max_size=8),
    k=st.integers(2, 4),
    parity=st.sampled_from([None, 0, 1]),
)
def test_divisor_count_matches_factoring(lo, width, density, seed, m, js, k, parity):
    # with parity 0 or 1 every n has it, and the count runs on the bitmap
    # of that parity alone
    hi = lo + width
    rng = np.random.default_rng(seed)
    n = np.arange(lo, hi, dtype=np.int64)
    n = n[rng.random(width) < density]
    if parity is not None:
        n = n[n % 2 == parity]
    _check_count([1], [1], lo, hi, n)
    _check_count([m], [1], lo, hi, n)
    _check_count(*_signed_powers(js, k), lo, hi, n)


@pytest.mark.parametrize("lo,hi,n", [
    (1, 2, [1]),  # n = 1
    (1, 64, range(1, 64)),  # every n, lo = 1
    (10**6, 10**6 + 300, [10**6, 10**6 + 299]),  # a square at lo
    (10**6 - 299, 10**6 + 1, [10**6 - 299, 10**6]),  # a square at hi - 1
    (2**40 - 2**21, 2**40 - 2**21 + 2**20 + 1, [(2**20 - 1) ** 2, 2**40 - 2**21 + 2**20]),
    (3 * 25, 3 * 25 + 1, [3 * 25]),  # n = q * e * e exactly, q = 3, e = 5
    (7 * 41**2 - 3, 7 * 41**2 + 4, [7 * 41**2 - 3, 7 * 41**2, 7 * 41**2 + 3]),
    # one parity: the half-width bitmap
    (1, 64, range(1, 64, 2)),  # every odd n, lo = 1
    (1, 64, range(2, 64, 2)),  # every even n, lo odd
    (2, 3, [2]),  # n = 2 alone
    (999**2 - 300, 999**2 + 1, range(999**2 - 300, 999**2 + 1, 2)),  # odd square at hi - 1
    (10**6, 10**6 + 301, range(10**6, 10**6 + 301, 2)),  # even square at lo
    (2**40 - 2**21, 2**40 - 2**21 + 2**20 + 1, [(2**20 - 1) ** 2, 2**40 - 2**21 + 2**20 - 1]),
])
def test_divisor_count_edges(lo, hi, n):
    n = np.array(sorted(n), dtype=np.int64)
    _check_count([1], [1], lo, hi, n)
    _check_count([1, 3, 7, 4, 9, 25], [1, 1, 1, -1, -1, -1], lo, hi, n)
    _check_count(*_signed_powers(range(1, 30), 2), lo, hi, n)
    # q = 1, e = 4 and q = 4, e = 1 share one view at stride 4 once
    # lo > 12, and their weights cancel there
    _check_count([1, 4], [1, -1], lo, hi, n)


def _recorded_views(monkeypatch):
    # the views (first, step) that each _kernels._counts call reads
    calls = []
    counts = _kernels._counts

    def record(flags, first, step):
        calls.append(list(zip(first.tolist(), step.tolist())))
        return counts(flags, first, step)

    monkeypatch.setattr(_kernels, "_counts", record)
    return calls


@pytest.mark.parametrize("e", [1, 2, 3, 5])
def test_divisor_count_merges_one_stride_by_its_start(monkeypatch, e):
    # q = 1 at 4e and q = 4 at e share the stride s = 4e; the first
    # starts at 16e*e, the second at the first multiple of s from
    # max(lo, 4e*e).  For 4e*e < lo < 16e*e they read two views; from
    # lo = 16e*e on, one, which weights +1 and -1 cancel
    calls = _recorded_views(monkeypatch)
    qs, cols = np.array([1, 4]), np.zeros(2, dtype=np.int64)
    for lo, views in ((4 * e * e + 1, 2), (16 * e * e, 0)):
        hi = lo + 64 * (4 * e + 1) + 3  # s = 4e is below 1/64 of the width
        n = np.arange(lo, hi, dtype=np.int64)  # both parities: g = 1
        calls.clear()
        titchmarsh.sums._divisor_counts(qs, np.array([1, -1]), cols, 1, lo, hi, grid(lo, hi, n))
        assert sum(step == 4 * e for call in calls for _, step in call) == views
        for dense in (n, n[n % 3 != 1]):
            _check_count([1, 4], [1, -1], lo, hi, dense)
            _check_count([1, 4], [1, 1], lo, hi, dense)


@pytest.mark.parametrize("e, width", [(5, 600), (200, 1000), (300, 1000)])
def test_divisor_count_merges_a_long_stride_by_its_start(monkeypatch, e, width):
    # q = 1 at 4e and q = 4 at e share the stride s = 4e >= width /
    # STRIDE_RATIO (at e = 300, s > width: a view of one entry), and from
    # lo >= 16e*e on both start at the first multiple of s, lo + 10; with
    # weights +1 and -1 that view is not read, with +1 and +1 it is
    calls = _recorded_views(monkeypatch)
    s = 4 * e
    lo = (16 * e * e // s + 1) * s - 10
    hi = lo + width
    assert s >= width // _kernels.STRIDE_RATIO
    qs, cols = np.array([1, 4]), np.zeros(2, dtype=np.int64)
    for n in (np.arange(lo, hi, dtype=np.int64), np.arange(lo, hi, 3, dtype=np.int64)):
        view = (10, min(s, width))  # both parities: g = 1, the bitmap is the window
        for cs, read in (([1, -1], False), ([1, 1], True)):
            calls.clear()
            titchmarsh.sums._divisor_counts(qs, np.array(cs), cols, 1, lo, hi, grid(lo, hi, n))
            assert any(view in call for call in calls) == read
            _check_count([1, 4], cs, lo, hi, n)


def test_a_window_of_many_pairs_is_counted_batch_by_batch(monkeypatch):
    # d near 2**40 has 2**20 - 1 pairs, 16 batches of BATCH_HITS: no read
    # gets more than a batch's pairs and squares
    calls = _recorded_views(monkeypatch)
    lo, hi = 2**40 - 2**12, 2**40
    one = np.ones(1, dtype=np.int64)
    assert titchmarsh.sums._pairs(one, hi)[1].sum() > _kernels.BATCH_HITS
    for n in (np.arange(lo + 1, hi, 2, dtype=np.int64), np.arange(lo, hi, 5, dtype=np.int64)):
        calls.clear()
        col = np.zeros(1, dtype=np.int64)
        [got] = titchmarsh.sums._divisor_counts(one, one, col, 1, lo, hi, grid(lo, hi, n))
        assert len(calls) > 1 and max(map(len, calls)) <= 2 * _kernels.BATCH_HITS
        assert got == int(value_range(DIVISOR, lo, hi)[n - lo].sum())


@pytest.mark.parametrize("kind", [DIVISOR, k_free_divisor(2), k_free_divisor(3), UNITARY_DIVISOR])
def test_both_sides_of_the_count_rule_agree(monkeypatch, kind):
    # the windows differ by one integer: the first is counted, the next
    # has one pair too many for its width and is factored
    sums = titchmarsh.sums
    width = 1 << 14
    qs, cs = sums._divisor_weights(kind, 2**24)
    part = sums._value_part(kind, 2**24)
    base = primes_up_to(2**12)
    routes = []
    for route in ("_divisor_counts", "_factor_part"):
        fn = getattr(sums, route)
        monkeypatch.setattr(sums, route,
                            lambda *args, fn=fn, route=route: routes.append(route) or fn(*args))
    # the pair count grows with hi; find the first hi past the rule
    lo_hi, hi = width, 2**24
    while lo_hi < hi:
        mid = (lo_hi + hi) // 2
        if sums._pairs(qs, mid)[1].sum() * sums._COUNT_REACH > width:
            hi = mid
        else:
            lo_hi = mid + 1
    picked = []
    for top in (hi - 1, hi):
        lo = top - width
        n = np.arange(lo, top, 3, dtype=np.int64)
        bits = grid(lo, top, n)
        routes.clear()
        [got] = part(base, lo, top, bits)
        picked.append(routes[0])
        want = int(value_range(kind, lo, top)[n - lo].sum())
        [counted] = sums._divisor_counts(qs, cs, np.zeros_like(qs), 1, lo, top, bits).tolist()
        assert got == want == counted, (kind.label, lo, top)
    assert picked == ["_divisor_counts", "_factor_part"]


def _stub_routes(monkeypatch):
    # record the route each window takes and sum nothing: the rule reads
    # only the window and its moduli, never the sums
    sums = titchmarsh.sums
    routes = []

    def counted(qs, cs, cols, ncols, lo, hi, bits):
        routes.append("count")
        return np.zeros(ncols, dtype=np.int64)

    def factored(kind, base, lo, hi, bits):
        routes.append("factor")
        return 0

    monkeypatch.setattr(sums, "_divisor_counts", counted)
    monkeypatch.setattr(sums, "_factor_part", factored)
    return routes


_CHECKPOINTS = [10**4, 10**5, 10**6, 10**7]


@pytest.mark.parametrize("run,want", [
    # the benchmark's tracking sums: first p = 2 as the one-integer
    # window n = 1, whose one pair is too many for its width, so it is
    # factored; then 13 windows, 10 on the 2**20 grid, 3 more from the
    # cuts; every one counted for d, and for dk2 all but the 48575
    # integers from the cut at 10**6 to the grid, too narrow for their
    # pairs
    (lambda: shifted_prime_sum(DIVISOR, 1, 10**7, _CHECKPOINTS, workers=1),
     ["factor"] + ["count"] * 13),
    (lambda: shifted_prime_sum(k_free_divisor(2), 1, 10**7, _CHECKPOINTS, workers=1),
     ["factor"] + ["count"] * 3 + ["factor"] + ["count"] * 9),
    # its split workload's T_m, over r <= (10**7 - 1) / m: all counted
    (lambda: felix_partial_sum(2, 1, 10**7, workers=1), ["count"] * 5),
    (lambda: felix_partial_sum(3, 1, 10**7, workers=1), ["count"] * 4),
    (lambda: felix_partial_sum(5, 1, 10**7, workers=1), ["count"] * 2),
    # its high_shift d sum: p = 2 at n = 2**39 + 2 and both windows near
    # 2**39 factored
    (lambda: shifted_prime_sum(DIVISOR, -(2**39), 2 * 10**6, [2 * 10**6], workers=1),
     ["factor"] * 3),
], ids=["d", "dk2", "felix2", "felix3", "felix5", "high_shift_d"])
def test_the_benchmark_sums_take_their_measured_routes(monkeypatch, run, want):
    routes = _stub_routes(monkeypatch)
    run()
    assert routes == want


def test_decompose_total_stays_on_the_kfree_kernel(monkeypatch):
    # criterion 7 compares the decompose total with the plain dk2 sum;
    # the total must come from the kfree kernel and the plain sum from
    # the count, or the check would compare one route with itself
    calls = []
    kfree = _kernels.ACTIVE.kfree

    def counted(*args):
        calls.append(args[:2])
        return kfree(*args)

    monkeypatch.setattr(_kernels.ACTIVE, "kfree", counted)
    rep = decompose_s1_s2(2, 1, 10**5)
    # first p = 2 as the window [1, 2), then the odd p from n = 2 on; the
    # last window ends at n = 99998, the n of the last odd p <= 10**5
    assert calls[:2] == [(1, 2), (2, calls[1][1])] and calls[-1][1] == 10**5 - 1
    calls.clear()
    ref = shifted_prime_sum(k_free_divisor(2), 1, 10**5, [10**5])[-1].sum
    # the plain sum counts every window of odd p; only p = 2's window
    # [1, 2) is factored, too narrow for its one pair
    assert calls == [(1, 2)]
    assert rep.s1 + rep.s2 == rep.total == ref



def _record_at(monkeypatch, name):
    # the n that each call to kernel ``name`` factors, read off its grid;
    # None when it factors the whole window
    calls = []
    kernel = getattr(_kernels.ACTIVE, name)

    def recorded(*args):
        bits = args[4] if len(args) == 5 else None
        calls.append(None if bits is None else held(bits))
        return kernel(*args)

    monkeypatch.setattr(_kernels.ACTIVE, name, recorded)
    return calls


@pytest.mark.parametrize("kind,a,x", [(PILLAI, 1, 10**5), (DIVISOR, -(2**39), 10**4)])
def test_sums_factor_only_the_eligible_n(monkeypatch, kind, a, x):
    # Pillai, and d in windows near 2**39 (too narrow to count), are
    # factored at the n = p - a of the eligible primes and nowhere else
    name = "pillai" if kind is PILLAI else "divisor"
    calls = _record_at(monkeypatch, name)
    rec = shifted_prime_sum(kind, a, x, [x])[-1]
    eligible = primes_up_to(x).primes
    eligible = eligible[eligible > a]
    assert rec.skipped_primes == len(primes_up_to(x)) - eligible.size
    assert calls and all(n is not None for n in calls)
    n = eligible - a
    assert np.array_equal(np.sort(np.concatenate(calls)), n)
    if kind is DIVISOR:
        lo = int(n[0])
        assert rec.sum == int(value_range(DIVISOR, lo, int(n[-1]) + 1)[n - lo].sum())


def test_function_table_factors_whole_windows(monkeypatch):
    calls = _record_at(monkeypatch, "divisor")
    table = function_table(DIVISOR, 5000)
    assert calls == [None]
    assert table[1:13].tolist() == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
