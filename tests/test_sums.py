"""Checkpointed shifted-prime sums, progression sums, and the S1/S2 split."""

import math
from fractions import Fraction

import pytest

import titchmarsh.sums
from titchmarsh.constants import felix_cm, titchmarsh_factor
from titchmarsh.functions import (
    DIVISOR,
    MOEBIUS,
    PILLAI,
    UNITARY_DIVISOR,
    function_table,
    integer_kth_root,
    k_free_divisor,
    pillai_gcd_oracle,
)
from titchmarsh.sieve import primes_up_to
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


@pytest.mark.parametrize("run", [
    lambda x: decompose_s1_s2(2, 1, x),
    lambda x: felix_partial_sum(3, 1, x),
], ids=["decompose", "felix"])
def test_one_sweep_of_the_primes(monkeypatch, run):
    calls = []
    sweep = titchmarsh.sums.iter_segments

    def counted(lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return sweep(lo, hi, *args, **kwargs)

    monkeypatch.setattr(titchmarsh.sums, "iter_segments", counted)
    run(10**4)
    assert calls == [(2, 10**4 + 1)]


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
