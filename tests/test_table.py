"""One test over the table of kinds (``functions._TABLE``): for every row,
``evaluate`` on ``factorize_int`` equals the row's kernel over a whole
window and on the grids the sums hand it; every integer weight f gives
the row's kind as f * d; the count and the factor route of every summed
row agree; and every kernel row is reached through its
``_kernels.ACTIVE`` name, which the benchmark's tracer wraps."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from grids import grid

from titchmarsh import _kernels
from titchmarsh.functions import (
    _TABLE,
    DIVISOR,
    FunctionKind,
    _divisor_weights,
    _values,
    dirichlet_convolve,
    evaluate,
    function_table,
    mu_k,
    pillai_range,
    value_range,
)
from titchmarsh.sieve import factorize_int, primes_up_to
from titchmarsh.sums import _divisor_counts, _factor_part

_BASE = primes_up_to(1 << 21)  # covers every window below 2**42

# every row, and each row that takes k at k = 2 and 3
_KINDS = [FunctionKind(tag, k)
          for tag, row in _TABLE.items() for k in ((2, 3) if row.takes_k else (None,))]
_IDS = [kind.label for kind in _KINDS]
_WINDOWS = [(1, 97), (10**8 - 48, 10**8 + 48), (2**40 - 48, 2**40 + 48)]


@lru_cache(maxsize=None)
def _factors(lo, hi):
    return [factorize_int(n) for n in range(lo, hi)]


def _kernel(kind, lo, hi, bits=None):
    # the row's kernel as the package reads it, pillai as exact fractions
    values = _values(kind, lo, hi, _BASE.primes, bits)
    if _TABLE[kind.tag].ratio:
        return [Fraction(int(a), int(b)) for a, b in zip(*values)]
    return values.tolist()


def _oracle(kind, n):
    # the kinds without a kernel, from their definitions
    if kind.tag == "phi":
        return sum(gcd(j, n) == 1 for j in range(1, n + 1))
    return mu_k(n, kind.k)


@pytest.mark.parametrize("lo,hi", _WINDOWS)
@pytest.mark.parametrize("kind", _KINDS, ids=_IDS)
def test_evaluate_equals_the_kernel_of_every_row(kind, lo, hi):
    want = [evaluate(kind, f) for f in _factors(lo, hi)]
    if not hasattr(_kernels.ACTIVE, _TABLE[kind.tag].rule):
        if hi < 1000:
            assert want == [_oracle(kind, n) for n in range(lo, hi)]
        return
    assert _kernel(kind, lo, hi) == want
    n = np.arange(lo, hi, dtype=np.int64)
    rng = np.random.default_rng(lo)
    some = n[rng.random(n.size) < 0.5]
    # a full-width grid (g = 1) and half-width grids of either parity (g = 2)
    for at, g in ((some, 1), (n[n % 2 == 0], 2), (some[some % 2 == 1], 2)):
        assert _kernel(kind, lo, hi, grid(lo, hi, at, g)) == [want[i] for i in at - lo], g


_N = 10**4


@pytest.mark.parametrize("kind", [k for k in _KINDS if "shifted_prime_sum" in _TABLE[k.tag].entries],
                         ids=lambda kind: kind.label)
def test_every_summed_row_is_its_weight_times_d(kind):
    # f from the public CfSpec of the row; the count's moduli and weights
    # are its support and values
    f = _TABLE[kind.tag].weight_of(kind)
    coeffs = [f.coefficient(m) for m in range(1, _N + 1)]
    if any(c.denominator != 1 for c in coeffs):
        assert _TABLE[kind.tag].ratio  # Pillai: f(m) = mu(m)/m, not counted
        return
    table = np.array([0, *map(int, coeffs)], dtype=np.int64)
    qs, cs = _divisor_weights(kind, _N)
    assert qs.tolist() == np.flatnonzero(table).tolist() and cs.tolist() == table[qs].tolist()
    d = function_table(DIVISOR, _N)
    assert np.array_equal(dirichlet_convolve(table, d), function_table(kind, _N))
    # the count and the factor route over one window, at n = p - 1
    lo, hi = 10**6, 10**6 + (1 << 12)
    p = primes_up_to(hi).primes
    bits = grid(lo, hi, p[p > lo] - 1)
    [counted] = _divisor_counts(qs, cs, np.zeros_like(qs), 1, lo, hi, bits).tolist()
    assert counted == _factor_part(kind, _BASE, lo, hi, bits)


# the kernel of each kind as perfbench/tracing.py counts it
_KERNELS = {"d": "divisor", "dk": "kfree", "unitary": "kfree", "omega": "omega", "mu": "mu",
            "pillai": "pillai"}


def test_every_kernel_row_goes_through_its_active_name(monkeypatch):
    assert {t for t, row in _TABLE.items() if hasattr(_kernels.ACTIVE, row.rule)} == set(_KERNELS)
    calls = []

    def recorded(name, kernel):
        # the kernel's name and its k, the argument between primes and grid
        def call(*args):
            calls.append((name, args[3]))
            return kernel(*args)

        return call

    for name in set(_KERNELS.values()):
        monkeypatch.setattr(_kernels.ACTIVE, name, recorded(name, getattr(_kernels.ACTIVE, name)))
    for kind in _KINDS:
        if kind.tag not in _KERNELS:
            continue
        calls.clear()
        if kind.tag == "pillai":
            pillai_range(100, 110)
        else:
            value_range(kind, 100, 110)
        # dk's own k, 2 for unitary, and None for the rules that read none
        k = {"dk": kind.k, "unitary": 2}.get(kind.tag)
        assert calls == [(_KERNELS[kind.tag], k)], kind.label
