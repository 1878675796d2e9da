"""Shifted-prime sums, progression partial sums, and the S1/S2 split.

Every driver is one sweep in segments (``_sweep``): the primality bitmap
of a segment, its p <= a cleared, is the bitmap of the eligible n off
which each sum's part reads the segment's columns, and the sweep sums
the columns up to each cut.  The sums and ``decompose`` sweep the line
[2, x], n = p - a.  ``felix`` sweeps only the class p = a (mod m), n =
(p - a) / m the r of d(r) itself.  Every sweep strikes odd p only: its
bitmap runs over t, p = c + M*t, M = lcm(m, 2), each base prime striking
its one root class, so a window holds M times the primes of a line
window at the cost of one.  p = 2 is read apart, once, as a one-integer
window of its own (``_Class``, ``_sweep``), so on the line and in the
class of an odd m the n of every window have one parity, and the bitmap
covers half the window.  Segment jobs run on a thread pool (numpy
releases the GIL inside its array operations) and are reduced strictly
in segment order, which together with exact integer accumulation makes
every sum bit-identical across segment widths and worker counts.

Divisor-type sums are counted, not factored.  With d(r) = 2 #{e | r :
e*e <= r} - [r is a square], the sum of d(n / q) over the n divisible
by q is a count of the n on the window's bitmap in the progressions
0 (mod q*e) above q*e*e (``_divisor_counts``).  Each modulus q comes
with a weight and an output column, and the count returns the column
sums.  The pairs (q, e) that read the same view of the bitmap are
merged first, their weights summed, so each distinct view is read once
and a view whose weights cancel is not read at all (for dk2 the
weights mu(j) of the pairs at a stride s sum to mu(s)**2 where they
share a start, so the views at a stride that is not squarefree
cancel).  Counted this way:

- ``decompose``: each S1 modulus q = m in a column of its own, weight
  1, and S2 in one column shared by q = j**k, weight mu(j), over the
  large squarefree j;
- the ``d``, ``dk`` and ``unitary`` sums, and ``felix`` T_m, the d sum
  over the r of its class: one column, q = 1 for d and q = j**k,
  weight mu(j) for dk (dk = mu_k * d; unitary is dk with k = 2), in
  windows at least _COUNT_REACH times as wide as the count has pairs
  (q, e), isqrt(n_max) of them for d.  Narrower windows, and so higher
  n, go to the factor route (``_factor_part``).

Factored: Pillai sums, the factor route above, and the total of
``decompose``, which stays on the kfree kernel so that s1 + s2 = total
compares two independent routes.  A sum reads g only at n = p - a,
about one integer in log x, so these are factored at the eligible n
only: the value kernel gets the bitmap that the count reads and divides
nothing else of the window.  Pillai terms are exact for every n < 2**41,
the largest n = x - a that x, |a| <= 2**40 admit.

Pillai sums are rationals, so floating addition would make the total
depend on summation order.  Instead each term P(n) = num/den is scaled
to floor(num * 2**64 / den) and accumulated exactly; the reducer
carries a Python int and converts once per checkpoint.  The scaling
error is below x * 2**-64, invisible at double precision.
"""

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from . import _kernels
from .constants import CfSpec, _check_shift, bk_product, cf_series, felix_cm, titchmarsh_factor
from .functions import (
    DIVISOR,
    MOEBIUS,
    FunctionKind,
    _values,
    function_table,
    integer_kth_root,
    k_free_divisor,
)
from .sieve import DEFAULT_SEGMENT_WIDTH, MAX_RANGE, _check_width, iter_segments, primes_up_to

_SUM_KINDS = {"d", "dk", "unitary", "pillai"}

_MAX_WORKERS = 256  # a pool may start a thread per worker, each holding a window


def _resolve_workers(workers):
    # an explicit count, else TITCHMARSH_WORKERS by the same rule, else
    # one worker per core; a refusal names where the count came from
    source = ""
    if workers is None:
        env = os.environ.get("TITCHMARSH_WORKERS", "").strip()
        if not env:
            return min(os.cpu_count() or 1, _MAX_WORKERS)
        workers, source = env, f" (TITCHMARSH_WORKERS={env!r})"
    try:
        w = int(workers)
    except ValueError:
        raise ValueError(f"workers must be an integer, got {workers!r}{source}") from None
    if w < 1:
        raise ValueError(f"workers must be >= 1{source}")
    if w > _MAX_WORKERS:
        raise ValueError(f"workers must be <= {_MAX_WORKERS}{source}")
    return w


def _run_ordered(jobs, fn, workers):
    # the results in job order whatever the order of completion, so the
    # reduction downstream is deterministic; at most 4 jobs per worker
    # are in flight, so a sweep of 2**20 windows holds a few futures,
    # not one per window (submitted at once, they held gigabytes)
    if workers == 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    out, pending = [], deque()
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for j in jobs:
            if len(pending) == 4 * workers:
                out.append(pending.popleft().result())
            pending.append(ex.submit(fn, j))
        out.extend(f.result() for f in pending)
    return out


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
def _main_constant(tag, k, a):
    if tag == "d":
        return titchmarsh_factor(a).value
    if tag in {"dk", "unitary"}:
        return bk_product(k if tag == "dk" else 2, a).value
    return cf_series(CfSpec.pillai_rule(), a).value


@dataclass(frozen=True)
class _Class:
    """The odd primes p = a (mod m) of a sweep, gcd(a, m) = 1: the class p
    = b (mod M), M = lcm(m, 2), with b = a for odd a and b = a + m for
    even a (m is then odd), written p = c + M*t with c = b -
    M*ceil(b/M) in (-M, 0], so that every p >= 2 of the class has t >=
    1; on the line, m = 1, the odd p = 2t - 1.  ``primes`` are the base
    primes up to isqrt(x) that do not divide M, ``first`` the t from
    which each strikes the class (``_kernels._primality``), and
    ``start`` the t of the first p >= max(3, least) swept.  p = 2 is in
    no odd class; ``two`` says whether the sweep reads it, apart from
    every window, as a one-integer window of its own: when 2 = a (mod m)
    and least <= 2 <= x."""

    m: int
    c: int
    primes: np.ndarray
    first: np.ndarray
    start: int
    two: bool


def _class_sieve(a, m, x, base, least):
    # the roots t = -c/M (mod l) of l | c + M*t, with 1/M = M**(l - 2)
    # (mod l) by Fermat, for every l at once (l < 2**21, so no product
    # overflows), each from the least t with c + M*t >= l*l on
    big = m * (1 + m % 2)
    c = -(-(a if a % 2 else a + m) % big)
    primes = base[: np.searchsorted(base, isqrt(x), side="right")]
    primes = primes[big % primes != 0]
    inv, b, e = np.ones_like(primes), big % primes, primes - 2
    while e.any():
        inv = np.where(e & 1, inv * b % primes, inv)
        b = b * b % primes
        e >>= 1
    root = -c % primes * inv % primes
    low = -((c - primes * primes) // big)
    start = -((c - max(3, least)) // big)
    two = least <= 2 <= x and (2 - a) % m == 0
    return _Class(big, c, primes, low + (root - low) % primes, start, two)


def _eligible_primes(seg, sieved, a):
    # the odd p = c + M*t > a over the t of the segment, from sieved =
    # (class, primality flags of the t), and the number of p <= a, whose
    # flags it clears; the p are for perfbench/tracing.py to count
    cls, flags = sieved
    low = flags[: max(0, (a - cls.c) // cls.m + 1 - seg.lo)]
    nskip = int(np.count_nonzero(low))
    low[:] = False
    return cls.c + cls.m * (np.flatnonzero(flags) + seg.lo), nskip


def _window(seg, cls, a, m):
    # the skipped primes of the segment of t, and the n-window [lo, hi)
    # and grid its part gets (``_sweep``): bit r of the flags is t =
    # seg.lo + r, n = g*t - k = g*(rlo + r) + pi
    flags = _kernels.ACTIVE.primality(seg.lo, seg.hi, cls.primes, cls.first)
    nskip = _eligible_primes(seg, (cls, flags), a)[1]
    g, k = cls.m // m, (a - cls.c) // m
    pi = -k % g
    return nskip, max(1, g * seg.lo - k), g * (seg.hi - 1) - k + 1, (pi, g, seg.lo - (k + pi) // g, flags)


@lru_cache(maxsize=4)
def _base_primes(limit):
    # the sweep's base primes, shared by every sum that reaches the same
    # square root: near 2**39 they take a 741,456-wide sieve, 3-4 ms of a
    # 50 ms sum.  Read-only, since every caller gets the same array.
    base = primes_up_to(limit)
    base.primes.flags.writeable = False
    return base


def _sweep(a, x, part, segment_width, workers, cuts=(), m=1, least=2):
    """{c: (skipped primes, column sums)} over the primes p <= c of the
    class p = a (mod m), for each c in cuts and for x, from one pass
    over its odd primes in segments of t (``_Class``), from the first p
    >= max(3, least) on, with p = 2 read once when least <= 2 and 2 = a
    (mod m): on the line, m = 1, with least = 2 the pass is over [2, x].
    A sum that reads no skipped primes passes least = a + 1, its first
    p > a.

    The odd class has modulus M = lcm(m, 2), so n = (p - a) / m = g*t -
    k, with g = M / m in {1, 2} and k = (a - c) / m.  A segment is
    ceil(segment_width / g) values of t wide, about segment_width
    integers p, and a refused width is named as the caller gave it.
    ``part(base, lo, hi, grid)`` returns one segment's columns, a list
    of exact ints, read off the grid (pi, g, rlo, hit) of ``_window``:
    hit is the segment's primality flags, set at the n = g*(rlo + r) +
    pi of its primes p > a, in the n-window [lo, hi) = [max(1, g*seg.lo
    - k), g*(seg.hi - 1) - k + 1); base is the primes up to the square
    root of the largest n or p.  p = 2 is in no window: when 2 > a it is
    the one-bit grid of n = (2 - a) / m, [lo, hi) = [n, n + 1), whose
    columns every cut adds (all cuts are at least 3), and otherwise a
    skipped prime.  So for odd m, the line included, pi = -k mod 2 and
    the grid covers half the window.  Columns are summed in segment
    order; a class with no odd p in [3, x] has the columns of p = 2
    alone, or of an empty grid."""
    workers = _resolve_workers(workers)
    base = _base_primes(max(2, isqrt(max(x, x - a, 4))))
    cls = _class_sieve(a, m, x, base.primes, least)
    ends = {cut: (cut - cls.c) // cls.m + 1 for cut in (*cuts, x)}
    skipped, acc = int(cls.two and a >= 2), None
    if cls.two and a < 2:
        two = (2 - a) // m
        acc = part(base, two, two + 1, (0, 1, two, np.ones(1, dtype=np.bool_)))
    if cls.start >= ends[x]:
        # no odd p of the class up to x: the columns of p = 2 alone
        if acc is None:
            acc = part(base, 1, 1, (0, 1, 1, np.zeros(0, dtype=np.bool_)))
        return {cut: (skipped, acc) for cut in ends}
    stops = set(ends.values())
    width = -(-segment_width // (cls.m // m))
    _check_width(segment_width, cls.start, ends[x], width)
    segs = iter_segments(cls.start, ends[x], width, cuts=stops)

    def job(seg):
        nskip, *window = _window(seg, cls, a, m)
        return seg.hi, nskip, part(base, *window)

    rows = {}
    for hi, nskip, cols in _run_ordered(segs, job, workers):
        skipped += nskip
        acc = cols if acc is None else [s + c for s, c in zip(acc, cols)]
        if hi in stops:
            rows[hi] = (skipped, acc)
    return {cut: rows[end] for cut, end in ends.items()}


def _isqrt_array(v):
    # floor(sqrt(v)) elementwise, exact for 0 <= v < 2**52
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _pairs(qs, hi):
    # the moduli q < hi and, for each, the number of e with q*e*e < hi
    qs = qs[: np.searchsorted(qs, hi)]
    return qs, _isqrt_array((hi - 1) // qs)


def _divisor_counts(qs, cs, cols, ncols, lo, hi, grid):
    """out[c] = the sum of cs[i] * d(n / qs[i]) over the moduli i with
    cols[i] = c and the n divisible by qs[i], for ascending moduli qs and
    ncols columns, counted on the bitmap of the window's grid (pi, g,
    rlo, hit): the n in [lo, hi) at its set bits r, n = g*(rlo + r) + pi.

    d(r) = 2 #{e | r : e*e <= r} - [r is a square], so each pair (q, e)
    with q*e*e < hi counts the n = 0 (mod q*e) with n >= q*e*e twice,
    less the n = q*e*e itself.  On the line and in an odd class the
    sweep's bitmap holds one parity (g = 2), half the window.  Each pair
    counts the r from t on at a stride u (``_kernels._on_bitmap``), and
    each square is a view of one entry, at u = size.  So each batch of
    at most BATCH_HITS pairs keys its views and squares by (u, t,
    column), u capped at the bitmap's size (a longer stride reads one
    entry too), sums the weights of each key, and reads each distinct
    view once with ``_kernels._counts``; a key whose weights cancel is
    not read.  No integer of the window is factored."""
    out = np.zeros(ncols, dtype=np.int64)
    pi, g, rlo, hit = grid
    if not hit.any():
        return out
    size = hit.size
    qs, ecount = _pairs(qs, hi)
    ones = np.ones_like(ecount)
    # the pairs (q, e) = (qs[which], e), 1 <= e <= ecount[which], in
    # batches of at most BATCH_HITS, which ascending
    for which, e in _kernels.progressions(ones, ones, ecount):
        s = qs[which] * e
        sq = s * e
        # the pairs with an n = 0 (mod s), n >= max(s*e, lo), below hi
        start = np.maximum(sq, -(-lo // s) * s)
        near = np.flatnonzero(start < hi)
        which, s, sq, start = which[near], s[near], sq[near], start[near]
        t, u, on = _kernels._on_bitmap(s, start, pi, g)
        on = np.flatnonzero(on & (t < rlo + size))
        # the squares s*e >= lo of the parity of the n
        top = np.flatnonzero(sq >= lo)
        top = top[sq[top] % g == pi]
        # the key of (u, t, column) is below size**2 * ncols: under 2**62
        # for the sweep's windows (at most 2**20 + 1 wide) and numbers of
        # moduli (under 2**21)
        u = np.minimum(u[on], size)
        key = np.concatenate([u * size + t[on], (sq[top] - pi) // g + size * size]) - rlo
        at = np.concatenate([which[on], which[top]])
        key = key * ncols + cols[at]
        w = cs[at] * np.repeat([2, -1], [on.size, top.size])
        # the weights summed per key, the keys that cancel dropped
        order = np.argsort(key)
        key = key[order]
        head = np.flatnonzero(np.diff(key, prepend=-1))
        key, w = key[head], np.add.reduceat(w[order], head)
        keep = np.flatnonzero(w)
        key, w = key[keep], w[keep]
        # the distinct views, ascending in u, and the view of each key
        views = key // ncols
        new = np.diff(views, prepend=-1) != 0
        view = np.cumsum(new) - 1
        views = views[new]
        got = _kernels._counts(hit, views % size, views // size)
        np.add.at(out, key % ncols, w * got[view])
    return out


def _divisor_weights(kind, nmax):
    """Moduli q and weights c with kind(n) = sum of c * d(n / q) over the
    q | n, for n <= nmax: q = 1 for d, and q = j**k with c = mu(j) over
    the squarefree j for dk (dk = mu_k * d; unitary is dk with k = 2).
    q = 1 always comes first, also when nmax < 1 leaves no n."""
    if kind.tag == "d":
        return np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    k = kind.k if kind.tag == "dk" else 2
    mu = function_table(MOEBIUS, integer_kth_root(max(nmax, 1), k))
    j = np.nonzero(mu)[0]
    return j**k, mu[j]


# The count makes one pair (q, e) per q*e*e < hi: isqrt(n_max) of them
# for d, about 0.6 isqrt(n_max) log(isqrt(n_max)) for dk, whose pairs
# share views (``_divisor_counts``).  The factor route strikes only the
# eligible n, on the same half-width bitmap, so it costs nearly the same
# in every 2**20 window, while the count grows with its pairs: near
# 10**8, at 0.0096 pairs per integer, d counts in 8.4-9.1 ms and factors
# in 8.5-8.8 ms (one thread; ROADMAP item 3 logs the crossings).  A higher
# reach factors more windows: at 100, tracking's wall time fell but its
# peak memory rose by 3.5 MB (BENCH_12.json), so the reach stays at 25:
# a window is counted when it is at least _COUNT_REACH times as wide as
# its pairs.  The count stays: factoring every window instead made the
# split workload 42% slower in wall time (felix loses its count) and
# raised its peak memory 6% (2 vCPUs, 4 of 4 pairs).
_COUNT_REACH = 25


def _value_part(kind, nmax):
    """The sweep part of a sum of g = kind over n <= nmax: one column,
    counted for d, dk and unitary in windows wide enough for their
    pairs, factored otherwise."""
    qs, cs = (None, None) if kind.tag == "pillai" else _divisor_weights(kind, nmax)
    cols = None if qs is None else np.zeros(qs.size, dtype=np.int64)

    def part(base, lo, hi, grid):
        if qs is not None and _pairs(qs, hi)[1].sum() * _COUNT_REACH <= hi - lo:
            return _divisor_counts(qs, cs, cols, 1, lo, hi, grid).tolist()
        return [_factor_part(kind, base, lo, hi, grid)]

    return part


def _factor_part(kind, base, lo, hi, grid):
    # sum of g(n) from the value kernel, factoring only the n of the
    # window's grid; pillai terms are scaled by 2**64, exactly
    if not grid[3].any():
        return 0
    values = _values(kind, lo, hi, base.primes, grid)
    if kind.tag == "pillai":
        return _kernels.ACTIVE.fixed_parts(*values, slice(None))
    return int(values.sum())


def shifted_prime_sum(
    kind, a, x, checkpoints=None, *, segment_width=DEFAULT_SEGMENT_WIDTH, workers=None
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
    a = _check_shift(a)
    if not isinstance(kind, FunctionKind) or kind.tag not in _SUM_KINDS:
        raise ValueError(f"kind must be one of {sorted(_SUM_KINDS)}")
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
    const = _main_constant(kind.tag, kind.k, a)
    rows = _sweep(a, x, _value_part(kind, x - a), segment_width, workers, checkpoints)
    records = []
    for cp in checkpoints:
        skipped, [total] = rows[cp]
        if kind.tag == "pillai":
            total /= 1 << 64  # unscale the Pillai fixed point
        main = const * cp
        norm = (float(total) - main) / (cp / math.log(cp))
        records.append(SumRecord(cp, a, kind, total, main, norm, skipped))
    return records


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
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(int(d["m"]), int(d["a"]), int(d["x"]), int(d["t_sum"]), float(d["predicted"]))


def _progression_sum(m, a, x, segment_width, workers):
    # T_m(x), exact for every m >= 1: the d sum over r = (p - a)/m, swept
    # over the class alone
    part = _value_part(DIVISOR, (x - a) // m)
    return _sweep(a, x, part, segment_width, workers, m=m, least=a + 1)[x][1][0]


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
    a = _check_shift(a)
    m = int(m)
    x = int(x)
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    if gcd(a, m) != 1:
        raise ValueError(f"need gcd(a, m) = 1, got gcd({a}, {m}) = {gcd(a, m)}")
    if not 3 <= x <= MAX_RANGE:
        raise ValueError(f"x must be in [3, {MAX_RANGE}]")
    predicted = felix_cm(m, a).value * x / m
    return FelixRecord(m, a, x, _progression_sum(m, a, x, segment_width, workers), predicted)


@dataclass(frozen=True)
class DecompositionReport:
    """S1/S2 split of sum_{p <= x} dk(p - a) at threshold (log x)**B.

    s1 collects mu_k-weighted progression sums with modulus m <= threshold
    (listed in per_m as (m, mu coefficient, T_m)), s2 the rest, summed
    over the multiples of the large moduli rather than by subtraction;
    s1 + s2 should reproduce ``total`` exactly.
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
        per_m = [{"m": m, "mu": c, "t_m": t} for m, c, t in self.per_m]
        return {**asdict(self), "per_m": per_m}


# Not called by the package any more; perfbench/tracing.py still wraps
# it by name, so it stays bound.
def _primes_array(x, base, segment_width, workers):
    return primes_up_to(x).primes


def decompose_s1_s2(k, a, x, B=2.0, *, segment_width=DEFAULT_SEGMENT_WIDTH, workers=None):
    """Split sum_{p <= x} dk(p - a) along dk = mu_k * d.

    Moduli m = j**k <= (log x)**B go into S1 as progression sums T_m;
    larger moduli are summed over their multiples among the n = p - a
    (S2).  The total, every T_m and S2 come from one sweep of the
    primes.  The split is exact: report.s1 + report.s2 == report.total.
    """
    a = _check_shift(a)
    k = int(k)
    x = int(x)
    B = float(B)
    if k < 2:
        raise ValueError("need k >= 2")
    if k >= 1 << 63:
        # the moduli j**k and the exponent cap k - 1 are int64
        raise ValueError(f"need k <= 2**63 - 1, got k = {k}")
    if not 100 <= x <= MAX_RANGE:
        raise ValueError(f"x must be in [100, {MAX_RANGE}]")
    if not 1.0 <= B <= 10.0:
        raise ValueError("B must lie in [1, 10]")
    thr = math.log(x) ** B
    kind = k_free_divisor(k)
    # every m with mu(j) != 0 is summed, gcd(a, m) > 1 included: when a < 0
    # a prime p | a can still have m | p - a (p = 2, a = -2, m = 4)
    qs, cs = _divisor_weights(kind, x - a)
    ns1 = int(np.searchsorted(qs, int(thr), side="right"))
    # each S1 modulus counts T_m in a column of its own; the S2 moduli,
    # weighted by mu(j), share the last one
    i = np.arange(qs.size)
    weights, cols = np.where(i < ns1, 1, cs), np.minimum(i, ns1)

    def part(base, lo, hi, grid):
        # the total stays on the kfree kernel, so that s1 + s2 = total
        # checks the count against an independent route
        t = _divisor_counts(qs, weights, cols, ns1 + 1, lo, hi, grid)
        return [_factor_part(kind, base, lo, hi, grid), *t.tolist()]

    _, [total, *t_m, s2] = _sweep(a, x, part, segment_width, workers, least=a + 1)[x]
    per_m = tuple(zip(qs[:ns1].tolist(), cs[:ns1].tolist(), t_m))
    s1 = sum(mu * t for _, mu, t in per_m)
    return DecompositionReport(k, a, x, B, thr, s1, s2, total, per_m)
