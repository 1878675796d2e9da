"""Shifted-prime sums, progression partial sums, and the S1/S2 split.

The drivers sweep [2, x] in segments: a primality bitmap on the prime
side joins a fused value table on the shifted side (window n = p - a),
so nothing is ever factorized twice.  Segment jobs run on a thread pool
(numpy releases the GIL inside its array operations) and are reduced
strictly in segment order, which together with exact integer
accumulation makes every sum bit-identical across segment widths and
worker counts.

Pillai sums are rationals, so floating addition would make the total
depend on summation order.  Instead each term P(n) = num/den is scaled
to floor(num * 2**64 / den) and accumulated exactly; the reducer
carries a Python int and converts once per checkpoint.  The scaling
error is below x * 2**-64, invisible at double precision.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from . import _kernels
from .constants import (
    DEFAULT_PRIME_LIMIT,
    DEFAULT_SERIES_LIMIT,
    CfSpec,
    bk_product,
    cf_series,
    felix_cm,
    titchmarsh_factor,
)
from .functions import (
    DIVISOR,
    MOEBIUS,
    FunctionKind,
    function_table,
    integer_kth_root,
    k_free_divisor,
    value_range,
)
from .sieve import DEFAULT_SEGMENT_WIDTH, MAX_RANGE, PrimeList, Segment, iter_segments, primes_up_to

_SUM_KINDS = {"d", "dk", "unitary", "pillai"}

_FIXED_WEIGHTS = (1 << 64, 1 << 41, 1 << 18, 1)


def _resolve_workers(workers):
    if workers is not None:
        w = int(workers)
        if w < 1:
            raise ValueError("workers must be >= 1")
        return w
    env = os.environ.get("TITCHMARSH_WORKERS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _run_ordered(jobs, fn, workers):
    # ex.map yields results in submission order regardless of completion
    # order, so the reduction downstream is deterministic
    if workers == 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, jobs))


def _base_primes(x, a):
    top = max(int(x), int(x) - int(a), 4)
    return primes_up_to(max(2, isqrt(top)))


def default_checkpoints(x):
    """Powers of ten within [10**3, x]; just [x] when x < 10**3."""
    cps = []
    c = 1000
    while c <= x:
        cps.append(c)
        c *= 10
    return cps or [x]


@dataclass(frozen=True)
class SumRecord:
    """One checkpoint of a shifted-prime sum.

    ``sum`` is an exact int for integer kinds and a float for pillai;
    ``normalized_error`` is (sum - main_term) / (x / log x).
    """

    x: int
    a: int
    kind: FunctionKind
    sum: object
    main_term: float
    normalized_error: float
    skipped_primes: int

    def to_dict(self):
        return {
            "x": self.x,
            "a": self.a,
            "fn": self.kind.tag,
            "k": self.kind.k,
            "sum": self.sum,
            "main_term": self.main_term,
            "normalized_error": self.normalized_error,
            "skipped_primes": self.skipped_primes,
        }

    @classmethod
    def from_dict(cls, d):
        kind = FunctionKind(d["fn"], d["k"])
        return cls(
            int(d["x"]),
            int(d["a"]),
            kind,
            d["sum"],
            float(d["main_term"]),
            float(d["normalized_error"]),
            int(d["skipped_primes"]),
        )


@lru_cache(maxsize=None)
def _main_constant(tag, k, a, prime_limit, series_limit):
    if tag == "d":
        return titchmarsh_factor(a).value
    if tag in {"dk", "unitary"}:
        return bk_product(k if tag == "dk" else 2, a, prime_limit).value
    return cf_series(CfSpec.pillai_rule(), a, series_limit).value


def _eligible_primes(seg, base, a):
    flags = _kernels.ACTIVE.primality(seg.lo, seg.hi, base.primes)
    p = np.nonzero(flags)[0].astype(np.int64) + seg.lo
    if a > 0:
        keep = p > a
        return p[keep], int(p.size - keep.sum())
    return p, 0


def _checkpoint_records(a, kind, checkpoints, partials, const):
    # partials: list of (seg_hi, int payload, skipped) in segment order;
    # pillai payloads are scaled by 2**64 and unscaled at each checkpoint
    records = []
    ci = 0
    acc = 0
    skipped = 0
    for hi, payload, nskip in partials:
        acc += payload
        skipped += nskip
        while ci < len(checkpoints) and checkpoints[ci] + 1 == hi:
            cp = checkpoints[ci]
            total = acc / (1 << 64) if kind.tag == "pillai" else acc
            main = const * cp
            norm = (float(total) - main) / (cp / math.log(cp))
            records.append(SumRecord(cp, a, kind, total, main, norm, skipped))
            ci += 1
    if ci != len(checkpoints):
        raise AssertionError("checkpoint boundary not hit; segment cuts are wrong")
    return records


def shifted_prime_sum(
    kind,
    a,
    x,
    checkpoints=None,
    *,
    segment_width=DEFAULT_SEGMENT_WIDTH,
    workers=None,
    prime_limit=DEFAULT_PRIME_LIMIT,
    series_limit=DEFAULT_SERIES_LIMIT,
):
    """sum_{p <= x, p > a} g(p - a) at each checkpoint.

    Parameters
    ----------
    kind : FunctionKind with tag in {d, dk, unitary, pillai}
    a : nonzero integer shift
    x : upper limit, 3 <= x <= 2**40
    checkpoints : ascending ints in [3, x]; default: powers of ten in
        [10**3, x], or just [x] when x < 10**3

    Returns a list of SumRecord, one per checkpoint.  Primes p <= a
    contribute nothing (p - a < 1) and are tallied in skipped_primes.
    """
    if not isinstance(kind, FunctionKind) or kind.tag not in _SUM_KINDS:
        raise ValueError(f"kind must be one of {sorted(_SUM_KINDS)}")
    a = int(a)
    if a == 0:
        raise ValueError("shift a must be nonzero")
    x = int(x)
    if not 3 <= x <= MAX_RANGE:
        raise ValueError(f"x must be in [3, {MAX_RANGE}]")
    if checkpoints is None:
        checkpoints = default_checkpoints(x)
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if any(not 3 <= c <= x for c in checkpoints):
        raise ValueError("checkpoints must lie in [3, x]")
    if any(b <= a_ for a_, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    workers = _resolve_workers(workers)
    const = _main_constant(kind.tag, kind.k, a, int(prime_limit), int(series_limit))
    base = _base_primes(x, a)
    segs = iter_segments(2, x + 1, segment_width, cuts=[c + 1 for c in checkpoints])
    pillai = kind.tag == "pillai"
    impl = _kernels.ACTIVE

    def job(seg):
        p, nskip = _eligible_primes(seg, base, a)
        if p.size == 0:
            return seg.hi, 0, nskip
        wlo = max(1, seg.lo - a)
        whi = seg.hi - a
        idx = p - a - wlo
        if pillai:
            num, den = impl.pillai(wlo, whi, base.primes)
            parts = impl.fixed_parts(num, den, idx)
            return seg.hi, sum(int(q) * w for q, w in zip(parts, _FIXED_WEIGHTS)), nskip
        vals = value_range(kind, wlo, whi, base=base, max_width=seg.width + 1)
        return seg.hi, int(vals[idx].sum()), nskip

    partials = _run_ordered(segs, job, workers)
    return _checkpoint_records(a, kind, checkpoints, partials, const)


@dataclass(frozen=True)
class FelixRecord:
    """Progression partial sum T_m(x) = sum over p <= x, p = a (mod m),
    p > a of d((p - a)/m), next to its prediction c_m * x / m."""

    m: int
    a: int
    x: int
    t_sum: int
    predicted: float

    def to_dict(self):
        return {
            "m": self.m,
            "a": self.a,
            "x": self.x,
            "t_sum": self.t_sum,
            "predicted": self.predicted,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(int(d["m"]), int(d["a"]), int(d["x"]), int(d["t_sum"]), float(d["predicted"]))


def _progression_sum(m, a, x, base, segment_width, workers):
    # T_m(x); assumes the caller has dealt with gcd(a, m) > 1
    segs = iter_segments(2, x + 1, segment_width)

    def job(seg):
        p, _ = _eligible_primes(seg, base, a)
        if p.size == 0:
            return 0
        sel = p[(p - a) % m == 0]
        if sel.size == 0:
            return 0
        q = (sel - a) // m
        qlo = int(q.min())
        qhi = int(q.max()) + 1
        vals = value_range(DIVISOR, qlo, qhi, base=base, max_width=qhi - qlo)
        return int(vals[q - qlo].sum())

    return sum(_run_ordered(segs, job, workers))


def felix_partial_sum(
    m,
    a,
    x,
    *,
    segment_width=DEFAULT_SEGMENT_WIDTH,
    workers=None,
):
    """T_m(x) with its predicted main term c_m * x / m.

    Requires gcd(a, m) = 1: otherwise the progression p = a (mod m)
    contains at most finitely many primes and the prediction is void.
    """
    m = int(m)
    a = int(a)
    x = int(x)
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    if a == 0:
        raise ValueError("shift a must be nonzero")
    if gcd(a, m) != 1:
        raise ValueError(f"need gcd(a, m) = 1, got gcd({a}, {m}) = {gcd(a, m)}")
    if not 3 <= x <= MAX_RANGE:
        raise ValueError(f"x must be in [3, {MAX_RANGE}]")
    workers = _resolve_workers(workers)
    # the constant validates a before the base sieve is sized from it
    predicted = felix_cm(m, a).value * x / m
    base = _base_primes(x, a)
    t = _progression_sum(m, a, x, base, segment_width, workers)
    return FelixRecord(m, a, x, t, predicted)


@dataclass(frozen=True)
class DecompositionReport:
    """S1/S2 split of sum_{p <= x} dk(p - a) at threshold (log x)**B.

    s1 collects mu_k-weighted progression sums with modulus m <= threshold
    (listed in per_m as (m, mu coefficient, T_m)), s2 the rest, computed
    directly from the prime list rather than by subtraction; s1 + s2
    should reproduce ``total`` exactly.
    """

    k: int
    a: int
    x: int
    B: float
    threshold: float
    s1: int
    s2: int
    total: int
    per_m: tuple = field(default_factory=tuple)

    def to_dict(self):
        return {
            "k": self.k,
            "a": self.a,
            "x": self.x,
            "B": self.B,
            "threshold": self.threshold,
            "s1": self.s1,
            "s2": self.s2,
            "total": self.total,
            "per_m": [{"m": m, "mu": c, "t_m": t} for m, c, t in self.per_m],
        }


def _primes_array(x, base, segment_width, workers):
    segs = iter_segments(2, x + 1, segment_width)

    def job(seg):
        flags = _kernels.ACTIVE.primality(seg.lo, seg.hi, base.primes)
        return np.nonzero(flags)[0].astype(np.int64) + seg.lo

    return np.concatenate(_run_ordered(segs, job, workers))


def decompose_s1_s2(
    k,
    a,
    x,
    B=2.0,
    *,
    segment_width=DEFAULT_SEGMENT_WIDTH,
    workers=None,
    prime_limit=DEFAULT_PRIME_LIMIT,
    series_limit=DEFAULT_SERIES_LIMIT,
):
    """Split sum_{p <= x} dk(p - a) along dk = mu_k * d.

    Moduli m = j**k <= (log x)**B go into S1 via progression sweeps;
    larger moduli are summed directly against the full prime list (S2).
    The split is exact: report.s1 + report.s2 == report.total.
    """
    k = int(k)
    a = int(a)
    x = int(x)
    B = float(B)
    if k < 2:
        raise ValueError("need k >= 2")
    if a == 0:
        raise ValueError("shift a must be nonzero")
    if not 100 <= x <= MAX_RANGE:
        raise ValueError(f"x must be in [100, {MAX_RANGE}]")
    if not 1.0 <= B <= 10.0:
        raise ValueError("B must lie in [1, 10]")
    workers = _resolve_workers(workers)
    thr = math.log(x) ** B
    total_rec = shifted_prime_sum(
        k_free_divisor(k),
        a,
        x,
        [x],
        segment_width=segment_width,
        workers=workers,
        prime_limit=prime_limit,
        series_limit=series_limit,
    )[0]
    total = int(total_rec.sum)
    base = _base_primes(x, a)
    nmax = x - a
    jmax = integer_kth_root(nmax, k) if nmax >= 1 else 0
    j1 = min(integer_kth_root(int(thr), k), jmax)
    mu_tab = function_table(MOEBIUS, jmax) if jmax >= 1 else np.zeros(1, dtype=np.int64)
    per_m = []
    s1 = 0
    for j in range(1, j1 + 1):
        mu_j = int(mu_tab[j])
        if mu_j == 0:
            continue
        m = j**k
        if gcd(abs(a), m) > 1:
            # m | p - a with gcd(a, m) > 1 forces a common factor in p;
            # no prime above a survives, so T_m is 0
            t_m = 0
        else:
            t_m = _progression_sum(m, a, x, base, segment_width, workers)
        per_m.append((m, mu_j, t_m))
        s1 += mu_j * t_m
    s2 = 0
    if j1 < jmax:
        parr = _primes_array(x, base, segment_width, workers)
        parr = parr[parr > a]
        m_min = (j1 + 1) ** k
        qmax = nmax // m_min
        dtab = function_table(DIVISOR, qmax) if qmax >= 1 else None
        for j in range(j1 + 1, jmax + 1):
            mu_j = int(mu_tab[j])
            if mu_j == 0:
                continue
            m = j**k
            if gcd(abs(a), m) > 1:
                continue
            sel = parr[(parr - a) % m == 0]
            if sel.size == 0:
                continue
            q = (sel - a) // m
            s2 += mu_j * int(dtab[q].sum())
    return DecompositionReport(
        k, a, x, B, thr, int(s1), int(s2), total, tuple(per_m)
    )
