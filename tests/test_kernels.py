"""Kernels against the trial-division oracle: every value kernel must
equal ``evaluate(kind, factorize_int(n))``, and every factorization row
must multiply back to its n.  A kernel given a grid (the bitmap of the
integers it is to factor, ``tests/grids.py``) must equal the dense
kernel read at those integers, and the primality bitmap must mark
exactly the primes."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest
from grids import grid
from hypothesis import given, settings
from hypothesis import strategies as st

from titchmarsh import _kernels
from titchmarsh.functions import DIVISOR, MOEBIUS, OMEGA, PILLAI, evaluate, k_free_divisor
from titchmarsh.sieve import Segment, factorize_int, factorize_range, primes_up_to

_BASE = primes_up_to(1 << 21)  # covers every window below 2**42

_KINDS = [DIVISOR, k_free_divisor(2), k_free_divisor(3), k_free_divisor(4), OMEGA, MOEBIUS]


def _kernel_values(lo, hi):
    impl = _kernels.ACTIVE
    base = _BASE.primes
    out = {
        DIVISOR: impl.divisor(lo, hi, base),
        OMEGA: impl.omega(lo, hi, base),
        MOEBIUS: impl.mu(lo, hi, base),
    }
    for k in (2, 3, 4):
        out[k_free_divisor(k)] = impl.kfree(lo, hi, base, k)
    return out, impl.pillai(lo, hi, base)


def _check_against_oracle(lo, hi, positions):
    values, (num, den) = _kernel_values(lo, hi)
    for i in positions:
        factors = factorize_int(lo + i)
        for kind in _KINDS:
            assert values[kind][i] == evaluate(kind, factors), (kind.label, lo + i)
        assert Fraction(int(num[i]), int(den[i])) == evaluate(PILLAI, factors), lo + i


def _check_rows(lo, hi):
    fr = factorize_range(Segment(lo, hi), _BASE)
    assert np.isin(fr.primes[fr.primes <= _BASE.limit], _BASE.primes).all()
    for n, factors in fr.items():
        assert prod(p**e for p, e in factors) == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert all(e >= 1 for _, e in factors)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(1, 2**40), width=st.integers(1, 4096), seed=st.integers(0, 2**32))
def test_kernels_match_oracle_on_random_windows(lo, width, seed):
    hi = lo + width
    # trial division near 2**40 costs up to ~0.1 s per prime n, so the
    # oracle reads a random sample of each window; the rows check below
    # covers every position
    positions = random.Random(seed).sample(range(width), min(width, 48))
    _check_against_oracle(lo, hi, positions)
    _check_rows(lo, hi)


@pytest.mark.parametrize("n", [4099**2 * 3, 65537**2])
def test_batched_primes_with_square_factors(n):
    # in a 600-wide window both primes lie above width / STRIDE_RATIO, so
    # they come from the batched strike, where an exponent >= 2 needs the
    # repeated-division path
    lo, hi = n - 300, n + 300
    assert (hi - lo) // _kernels.STRIDE_RATIO < 4099
    _check_against_oracle(lo, hi, range(hi - lo))
    _check_rows(lo, hi)
    assert factorize_range(Segment(lo, hi), _BASE).factors(n) == factorize_int(n)
    # and struck sparsely, with n among the offsets
    at = np.arange((n - lo) % 7, hi - lo, 7)
    assert n - lo in at
    _check_sparse(lo, hi, at)


@pytest.mark.parametrize("lo,hi", [(1, 1 + 512), (2, 2 + 1024), (999001, 1000000)])
def test_low_windows_match_oracle(lo, hi):
    _check_against_oracle(lo, hi, range(hi - lo))


def test_narrow_windows_batch_the_small_primes():
    # in a window narrower than 64 * p even p = 2 is struck in a batch,
    # so exponents up to 30 (at 2**30) and 19 (3**19) take the batched
    # path: every yield is an index array with a prime array of its length
    for n in (2**30, 3**19):
        lo, hi = n - 50, n + 50
        assert hi - lo < 2 * _kernels.STRIDE_RATIO
        for idx, p, e in _kernels.strike(lo, hi, _BASE.primes):
            assert not isinstance(idx, slice) and idx.shape == p.shape == e.shape
        _check_against_oracle(lo, hi, range(hi - lo))
        _check_rows(lo, hi)


def test_batches_are_capped():
    # a window near 2**39 has ~3.5 * 10**5 hits of primes above width /
    # STRIDE_RATIO and ~7 * 10**5 cofactors; both come out in capped blocks
    lo = 2**39
    hi = lo + (1 << 20)
    base = primes_up_to(isqrt(hi - 1)).primes
    sizes = [idx.size for idx, _, _ in _kernels.strike(lo, hi, base)
             if not isinstance(idx, slice)]
    assert sum(sizes) > 10 * _kernels.BATCH_HITS
    assert max(sizes) <= _kernels.BATCH_HITS


# Divides 2, 5 and 9 by 3 in a child, so a loop that spins fails the test
# by its timeout instead of stalling the suite.
_DIVIDE_CHILD = """
import json
import numpy as np
from titchmarsh import _kernels
residual = np.array([2, 5, 9], dtype=np.int64)
e = _kernels._divide(residual, np.arange(3), np.full(3, 3))
print(json.dumps([e.tolist(), residual.tolist()]))
"""


def test_divide_returns_where_its_prime_does_not_divide():
    # 3 does not divide 2 or 5; q = 2 // 3 = 0 once kept q % p == 0 true
    src = str(Path(_kernels.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _DIVIDE_CHILD], capture_output=True, text=True,
                          timeout=5, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    e, residual = json.loads(proc.stdout)
    # the position 3 divides still gets its full power out
    assert (e[2], residual[2]) == (2, 1)


def test_fixed_parts_are_exact():
    rng = np.random.default_rng(11)
    num = rng.integers(1, 1 << 52, size=4096, dtype=np.int64)
    den = rng.integers(1, 1 << 40, size=4096, dtype=np.int64)
    idx = np.nonzero(rng.random(4096) < 0.7)[0]
    got = _kernels.ACTIVE.fixed_parts(num, den, idx)
    # the four parts it sums in int64 reconstruct sum of floor(num * 2^64 / den)
    expect = sum((int(num[i]) << 64) // int(den[i]) for i in idx.tolist())
    assert got == expect


def test_fixed_parts_are_exact_for_den_up_to_2_41():
    # n < 2**41 has den = rad(n) up to 2**41 - 1 and num <= d(n) * den,
    # d(n) < 2**14; a remainder r < den shifted by 23 bits left int64
    rng = np.random.default_rng(12)
    den = rng.integers(1 << 40, 1 << 41, size=4096, dtype=np.int64)
    num = den * rng.integers(1, 1 << 14, size=4096, dtype=np.int64) + rng.integers(0, den)
    idx = np.nonzero(rng.random(4096) < 0.7)[0]
    got = _kernels.ACTIVE.fixed_parts(num, den, idx)
    expect = sum((int(num[i]) << 64) // int(den[i]) for i in idx.tolist())
    assert got == expect


def test_fixed_parts_single_term_matches_fraction():
    num = np.array([293], dtype=np.int64)
    den = np.array([15], dtype=np.int64)
    idx = np.array([0], dtype=np.int64)
    total = _kernels.ACTIVE.fixed_parts(num, den, idx)
    assert total == (Fraction(293, 15) * (1 << 64)).__floor__()


def _check_sparse(lo, hi, at, g=None):
    # every kernel on the grid of the n = lo + at equals the dense kernel
    # read at the offsets ``at``
    impl = _kernels.ACTIVE
    base = _BASE.primes
    at = np.asarray(at, dtype=np.int64)
    first, _, bits = grid(lo, hi, lo + at, g)
    for name, k in (("divisor", None), ("kfree", 2), ("kfree", 3), ("omega", None), ("mu", None)):
        kernel = getattr(impl, name)
        dense = kernel(lo, hi, base, k)
        sparse = kernel(first, hi, base, k, bits)
        assert sparse.shape == at.shape
        assert np.array_equal(sparse, dense[at]), (name, k, lo, hi)
    num, den = impl.pillai(lo, hi, base)
    snum, sden = impl.pillai(first, hi, base, None, bits)
    assert impl.fixed_parts(snum, sden, slice(None)) == impl.fixed_parts(num, den, at), (lo, hi)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(1, 2**40), width=st.integers(1, 4096),
       density=st.sampled_from([1.0, 0.5, 0.05, 0.0]), seed=st.integers(0, 2**32))
def test_sparse_kernels_match_dense_on_random_windows(lo, width, density, seed):
    rng = np.random.default_rng(seed)
    _check_sparse(lo, lo + width, np.nonzero(rng.random(width) < density)[0])


def _one_parity(lo, width, pi, density, seed):
    # the offsets of the n = lo + at of parity pi, each kept with the
    # given density
    at = np.arange((pi - lo) % 2, width, 2)
    return at[np.random.default_rng(seed).random(at.size) < density]


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(1, 2**41 - 4096), width=st.integers(1, 4096), pi=st.integers(0, 1),
       density=st.sampled_from([1.0, 0.5, 0.05]), seed=st.integers(0, 2**32))
def test_sparse_kernels_match_dense_on_one_parity(lo, width, pi, density, seed):
    # n of one parity are struck on the half-width bitmap of r = (n - pi) / 2
    _check_sparse(lo, lo + width, _one_parity(lo, width, pi, density, seed), 2)


@pytest.mark.parametrize("lo,width,pi", [
    (10**8, 4095, 0),  # even lo, odd width: the last n is even, the last r
    (10**8 + 1, 4096, 1),  # odd lo, even width: the last odd n is lo + width - 2
    (10**8, 4096, 1),  # even lo: the first odd n is lo + 1, at r = 0
    (10**8 + 1, 1, 1),  # a window of one n
    (2**41 - 4096, 4096, 0),
    (2**41 - 4096, 4096, 1),
    (2**41 - 4097, 4096, 0),  # odd lo, even n: the last n is 2**41 - 2
])
def test_sparse_one_parity_edges(lo, width, pi):
    full = _one_parity(lo, width, pi, 1.0, 0)
    assert (lo + full[-1]) % 2 == pi and full[-1] >= width - 2
    _check_sparse(lo, lo + width, full, 2)
    for at in (full[:1], full[-1:], full[::7], full[1:]):
        _check_sparse(lo, lo + width, at, 2)


def test_sparse_one_parity_across_rank_blocks():
    # 2**18 odd n: the half-width bitmap spans two 2**16 blocks of the rank map
    lo, hi = 10**10 + 1, 10**10 + 1 + (1 << 18)
    rng = np.random.default_rng(7)
    at = np.arange(0, hi - lo, 2)
    _check_sparse(lo, hi, at[rng.random(at.size) < 0.3], 2)


def test_sparse_repeated_index_in_one_batch():
    # 4099 and 4111 are both batched base primes of n, struck in the same
    # batch, so the batch repeats n's index
    n = 3 * 4099 * 4111
    lo, hi = n - 2048, n + 2048
    at = np.arange((n - lo) % 5, hi - lo, 5)
    i = int(np.searchsorted(at, n - lo))
    assert at[i] == n - lo
    first, _, bits = grid(lo, hi, lo + at)
    batches = [idx for idx, p, _ in _kernels.strike(first, hi, _BASE.primes, bits) if (p == 4099).any()]
    assert len(batches) == 1 and np.count_nonzero(batches[0] == i) == 2
    _check_sparse(lo, hi, at)


def test_sparse_more_offsets_than_a_batch():
    # the bitmap batches and the cofactors of a sparse strike come out in
    # blocks of at most BATCH_HITS positions over at.size; only the
    # residual passes, one prime each, read every offset.  The strike
    # sends p = 2 and the odd primes below max(size / at.size, size /
    # BATCH_HITS), size being the bitmap's (one parity here, so half the
    # window), to the residual group, after the bitmap group: at width
    # 2**18 that is 2 alone, and 3 comes from a bitmap batch
    for width, residual in ((1 << 18, [2]), (1 << 19, [2, 3])):
        lo, hi = 10**8, 10**8 + width
        at = np.arange(0, hi - lo, 2)
        assert at.size > _kernels.BATCH_HITS
        size = (hi - lo) // 2
        few = max(-(-size // at.size), -(-size // _kernels.BATCH_HITS))
        passes, batches, cofactors, batch_primes = [], [], [], set()
        first, _, bits = grid(lo, hi, lo + at, 2)
        for idx, p, _ in _kernels.strike(first, hi, _BASE.primes, bits):
            assert idx.shape == p.shape
            if p.max() < few or (p == 2).all():
                passes.append(p[0])
                assert (p == p[0]).all() and idx.size <= at.size
            elif p.min() > isqrt(hi - 1):
                cofactors.append(idx.size)
            else:
                assert not passes, "a bitmap batch after a residual pass"
                batches.append(idx.size)
                batch_primes.update(p.tolist())
        assert passes == residual
        assert min(batch_primes) == next(q for q in _BASE.primes.tolist() if q > residual[-1])
        assert sum(cofactors) > _kernels.BATCH_HITS and sum(batches) > _kernels.BATCH_HITS
        assert max(batches + cofactors) <= _kernels.BATCH_HITS
        _check_sparse(lo, hi, at, 2)


def test_sparse_window_batches_above_the_stride_ratio():
    # the strided views stop at width / STRIDE_RATIO = 2048: 4093, below
    # 2**12, is read through its progression, batched with larger primes
    lo, hi = 10**10, 10**10 + (1 << 17)
    assert (hi - lo) // _kernels.STRIDE_RATIO < 4093
    rng = np.random.default_rng(5)
    at = np.nonzero(rng.random(hi - lo) < 0.05)[0]
    first, _, bits = grid(lo, hi, lo + at)
    strikes = _kernels.strike(first, hi, _BASE.primes, bits)
    assert any((p == 4093).any() and p.max() > 4093 for _, p, _ in strikes)
    _check_sparse(lo, hi, at)


@pytest.mark.parametrize("n", [2**39, 2**40, 3 * 2**39])
def test_sparse_two_adic_exponents_up_to_40(n):
    # p = 2 is taken from the lowest set bit of each residual
    lo, hi = n - 64, n + 64
    _check_sparse(lo, hi, np.arange(0, hi - lo, 2), 2)
    _check_sparse(lo, hi, [n - lo], 2)


def test_sparse_odd_offsets_have_no_two():
    lo, hi = 10**8, 10**8 + 4096
    at = np.nonzero(np.random.default_rng(3).random(hi - lo) < 0.3)[0] | 1
    at = np.unique(at[at < hi - lo])
    first, _, bits = grid(lo, hi, lo + at)
    assert not any((p == 2).any() for _, p, _ in _kernels.strike(first, hi, _BASE.primes, bits))
    _check_sparse(lo, hi, at)


@pytest.mark.parametrize("lo", [1, 10**8, 2**39])
def test_sparse_empty_and_single_offsets(lo):
    hi = lo + 4096
    _check_sparse(lo, hi, [])
    for i in (0, 1, 2047, 4095):
        _check_sparse(lo, hi, [i])


@pytest.mark.parametrize("lo", [10**8, 2**39])
@pytest.mark.parametrize("width", [1 << 12, 1 << 14])
@pytest.mark.parametrize("ratio", [1, 2, 3, 17, 64])
def test_sparse_group_boundaries(lo, width, ratio):
    # width / len(at) bounds the primes tested one by one over the
    # residuals and width / STRIDE_RATIO the strided views; these ratios
    # leave the groups between them empty, holding one prime, or crossed
    rng = np.random.default_rng(ratio)
    at = np.sort(rng.choice(width, width // ratio, replace=False))
    _check_sparse(lo, lo + width, at)


def test_sparse_strike_of_a_window_yields_a_few_batches():
    # the eligible n of a = 1 in a 2**20 window near 10**8: p = 2, the
    # primes below width / len(at) one by one, then batches
    plo, phi = 10**8, 10**8 + (1 << 20)
    base = primes_up_to(isqrt(phi)).primes
    n = np.flatnonzero(_kernels.ACTIVE.primality(plo, phi, base)) + plo - 1
    lo, hi = plo - 1, phi - 1
    assert n.size > 50_000
    first, _, bits = grid(lo, hi, n, 2)
    assert len(list(_kernels.strike(first, hi, base, bits))) <= 32


def _prime_flags(lo, hi):
    # the primes of [lo, hi) from the factorization rows: n is prime when
    # its row is n itself
    fr = factorize_range(Segment(lo, hi), _BASE)
    return np.array([factors == [(n, 1)] for n, factors in fr.items()], dtype=np.bool_)


def _byte_sieve(n):
    # independent of the kernel: a plain sieve of Eratosthenes over [0, n]
    flags = np.ones(n + 1, dtype=np.bool_)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


@pytest.mark.parametrize("width", [1, 2, 3, 63, 64, 65, 1000, 4096])
def test_primality_matches_primes_up_to(width):
    # primes_up_to runs this kernel too, so both are held to a byte sieve
    top = 1 << 16
    flags = _byte_sieve(top + 4095)
    assert np.array_equal(primes_up_to(top + 4095).primes, np.flatnonzero(flags))
    for lo in range(1, top, max(1, top // 64) + width):
        got = _kernels.ACTIVE.primality(lo, lo + width, _BASE.primes)
        assert np.array_equal(got, flags[lo : lo + width]), (lo, width)


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(1, 2**40), width=st.integers(1, 4096))
def test_primality_matches_the_factorization_rows(lo, width):
    got = _kernels.ACTIVE.primality(lo, lo + width, _BASE.primes)
    assert np.array_equal(got, _prime_flags(lo, lo + width))


@pytest.mark.parametrize("width", [1, 64, 4096])
def test_primality_near_2_39(width):
    # ~60,000 base primes, nearly all of them batched
    lo = 2**39 - width // 2
    got = _kernels.ACTIVE.primality(lo, lo + width, _BASE.primes)
    assert np.array_equal(got, _prime_flags(lo, lo + width))


def _naive_multiples(first, step, size):
    # every (term, progression) with term = first[i] + t * step[i] < size
    return sorted((f + t * s, i) for i, (f, s) in enumerate(zip(first, step)) for t in range(-(-(size - f) // s)))


def _walked(first, step, size):
    # (term, progression) pairs of ``multiples``, checking the shape of each item
    terms = np.arange(size)
    cut = int(np.searchsorted(step, size // _kernels.STRIDE_RATIO))
    got = []
    for idx, i in _kernels.multiples(np.array(first, dtype=np.int64), np.array(step, dtype=np.int64), size):
        if isinstance(idx, slice):
            assert i < cut and (idx.start, idx.step) == (first[i], step[i])
            got += [(int(t), i) for t in terms[idx]]
        else:
            assert (which := np.asarray(i)).size == idx.size <= _kernels.BATCH_HITS
            assert (which >= cut).all()
            got += list(zip(idx.tolist(), which.tolist()))
    return sorted(got)


def _read(flags, first, step):
    # (offset, progression) pairs of the one reader
    got = []
    for offs, which in _kernels._hits(flags, np.array(first, dtype=np.int64), np.array(step, dtype=np.int64)):
        assert offs.size == which.size
        got += list(zip(offs.tolist(), which.tolist()))
    return sorted(got)


@st.composite
def _walks(draw):
    size = draw(st.integers(1, 5000))
    step = sorted(draw(st.lists(st.integers(1, 2 * size + 10), max_size=40)))
    first = [draw(st.integers(0, max(size, s) - 1)) for s in step]
    return first, step, size, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=_walks())
def test_multiples_and_the_reader_match_naive_enumeration(case):
    first, step, size, seed = case
    want = _naive_multiples(first, step, size)
    assert _walked(first, step, size) == want
    flags = np.random.default_rng(seed).random(size) < 0.5
    assert _read(flags, first, step) == [(t, i) for t, i in want if flags[t]]


_EDGES = [
    ([], [], 1000),  # empty inputs
    ([0, 3, 15], [7, 15, 16], 1024),  # 16 = size // STRIDE_RATIO is batched, 15 strided
    ([5, 900], [2000, 5000], 1000),  # steps larger than size, one term or none
    ([0, 1, 2], [1, 3, 40], 63),  # size < STRIDE_RATIO: every step batched
    ([0, 1], [1, 2], _kernels.BATCH_HITS + 7),  # views longer than BATCH_HITS
    ([0, 999, 3], [1000, 1000, 1500], 1000),  # steps from size on, one term each
]


@pytest.mark.parametrize("first, step, size", _EDGES)
def test_multiples_and_the_reader_edges(first, step, size):
    want = _naive_multiples(first, step, size)
    assert _walked(first, step, size) == want
    flags = np.arange(size) % 3 != 1
    assert _read(flags, first, step) == [(t, i) for t, i in want if flags[t]]
    assert _read(np.ones(size, dtype=np.bool_), first, step) == want


def _check_counts(flags, first, step):
    # _counts against the true flags on the naive enumeration
    want = [0] * len(first)
    for t, i in _naive_multiples(first, step, flags.size):
        want[i] += int(flags[t])
    got = _kernels._counts(flags, np.array(first, dtype=np.int64), np.array(step, dtype=np.int64))
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(case=_walks())
def test_counts_match_naive_enumeration(case):
    first, step, size, seed = case
    _check_counts(np.random.default_rng(seed).random(size) < 0.5, first, step)


@pytest.mark.parametrize("first, step, size", _EDGES)
def test_counts_edges(first, step, size):
    for flags in (np.arange(size) % 3 != 1, np.ones(size, dtype=np.bool_), np.zeros(size, dtype=np.bool_)):
        _check_counts(flags, first, step)


def test_one_long_progression_is_split_into_chunks():
    # multiples() sends every progression longer than BATCH_HITS to a
    # strided view (the edges above); progressions() itself splits one
    size = 3 * _kernels.BATCH_HITS
    first, step = np.array([0]), np.array([1])
    chunks = list(_kernels.progressions(first, step, np.array([size])))
    assert len(chunks) == 3 and all(idx.size == _kernels.BATCH_HITS for _, idx in chunks)
    assert np.array_equal(np.concatenate([idx for _, idx in chunks]), np.arange(size))


@pytest.mark.parametrize("lo, width", [(10**8, 1 << 14), (2**39, 4096), (1, 1000)])
def test_dense_strike_yields_its_primes_ascending(lo, width):
    # factorize_range's rows list their primes in the order of the strike
    primes = _BASE.primes[: np.searchsorted(_BASE.primes, isqrt(lo + width - 1), side="right")]
    residual = np.arange(lo, lo + width, dtype=np.int64)
    seen = [np.broadcast_to(p, e.shape) for _, p, e in _kernels._strike_dense(lo, width, primes, residual)]
    order = np.concatenate(seen)
    assert (np.diff(order) >= 0).all()
    # both the strided views and the batches took part
    cut = width // _kernels.STRIDE_RATIO
    assert (order < cut).any() and (order >= cut).any()
