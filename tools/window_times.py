"""Milliseconds per sieve window for each layer of a shifted-prime sum.

Usage:
  PYTHONPATH=src python3 tools/window_times.py [--runs N] [--width W]
                                               [--json] [P:A ...]

Each point P:A is one window of the primes, [P, P + W), and its shift a;
the sums read n = p - a for the primes p > a there, so the n-window is
about [max(1, P - a), P + W - a).  The sums sweep the odd p = 2t - 1 of
the window, W/2 values of t, and read p = 2 apart, in a window of its
own (``sums._sweep``); so every row here reads the odd p
alone, and the n of each window have one parity.  The count and factor
rows time what the sweep's part runs on its window: they are handed the
window's primality flags as the grid (g, hit), bit r at n = lo + g*r
(``sums._window``), as the sweep hands them, so they do not include the
bitmap.  The default points are
10^7:1 (the top window of felix's T_m to 10^7), 10^8:1 (n near 10^8)
and 2:-2^39 (n near 2^39, the first window of a sum with a = -2^39).
Numbers may be written 123, 3e8 or 2^39.

Rows, each the median of N runs (default 5) on one thread:
  eligible n         the number of n = p - a the sums read in the window,
                     p = 2 not among them
  primality bitmap   ms for the primality kernel over the odd p of the
                     prime window, W/2 values of t
  d / dk2 counted    ms for the hyperbola count (sums._divisor_counts)
  felix line         ms for T_2 counted on the line, where decompose's
                     per_m columns count it: the bitmap of the odd p of
                     the window and the count with q = 2 on it (odd a
                     only)
  felix class        ms for one window of felix's T_2 sweep over the class
                     p = a (mod 2), the primes from P on: the class bitmap
                     over W values of t = (p - c) / 2, twice the primes of
                     a line window, and d at their r = (p - a) / 2,
                     counted or factored as the sums' rule picks (odd a
                     only)
  d / dk2 factored   ms for the factor route at the eligible n
  Pillai factored    ms for the Pillai terms at the eligible n
  dense table        ms for d at every n of the n-window, the whole-window
                     strike (functions.value_range)
  d / dk2 pairs/int  the count's pairs (q, e) per integer of the window;
                     the sums count a window when this is at most
                     1 / sums._COUNT_REACH
  dk2 views/int      the distinct views of the bitmap the dk2 count
                     reads per integer, as its _kernels._counts calls
                     get them: the pairs that reach the window and its
                     squares, merged, less those whose weights cancel

--json prints one JSON object {point: {row: value}} instead of the table.
"""

import argparse
import json
import statistics
import time
from math import isqrt

import numpy as np

from titchmarsh import _kernels
from titchmarsh.functions import DIVISOR, PILLAI, k_free_divisor, value_range
from titchmarsh.sieve import Segment, primes_up_to
from titchmarsh.sums import (
    _class_sieve,
    _divisor_counts,
    _divisor_weights,
    _factor_part,
    _pairs,
    _value_part,
    _window,
)

DK2 = k_free_divisor(2)


def _int(text):
    sign, t = (-1, text[1:]) if text.startswith("-") else (1, text)
    if "^" in t:
        b, e = t.split("^")
        return sign * int(b) ** int(e)
    if "e" in t:
        m, e = t.split("e")
        return sign * int(m) * 10 ** int(e)
    return sign * int(t)


def _point(text):
    p, a = text.split(":")
    return _int(p), _int(a)


def _ms(call, runs):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        call()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _odd_window(plo, phi, a, base):
    # the line's odd class over the p in [plo, phi), as the sums sweep it:
    # (segment of t, class); p = 2 is in no window
    cls = _class_sieve(a, 1, phi - 1, base, plo)
    return Segment(cls.start, -((cls.c - phi) // 2)), cls


def _felix_rows(plo, a, width, runs):
    # T_2 over the primes from plo on: one line window and one class window
    phi = plo + width
    base = primes_up_to(max(2, isqrt(max(phi + width, phi + width - a))))
    q, one = np.full(1, 2), np.ones(1, dtype=np.int64)
    col = np.zeros(1, dtype=np.int64)
    odd = _odd_window(plo, phi, a, base.primes)

    def line():
        _, *window = _window(*odd, a, 1)
        return _divisor_counts(q, one, col, 1, *window)

    # W values of t from the first p = c + 2t >= plo of the class
    cls = _class_sieve(a, 2, phi + width, base.primes, plo)
    t = -((cls.c - plo) // 2)
    seg = Segment(t, t + width)
    part = _value_part(DIVISOR, (cls.c + 2 * (seg.hi - 1) - a) // 2)

    def over_the_class():
        return part(base, *_window(seg, cls, a, 2)[1:])

    return {"felix line": _ms(line, runs), "felix class": _ms(over_the_class, runs)}


def _views_read(qs, cs, cols, lo, hi, grid):
    # the distinct views (first, step) that the count's _kernels._counts calls read
    views, counts = set(), _kernels._counts

    def record(flags, first, step):
        views.update(zip(first.tolist(), step.tolist()))
        return counts(flags, first, step)

    _kernels._counts = record
    try:
        _divisor_counts(qs, cs, cols, 1, lo, hi, grid)
    finally:
        _kernels._counts = counts
    return len(views)


def window_rows(plo, a, width, runs):
    """{row: value} for the prime window [plo, plo + width) and shift a."""
    phi = plo + width
    base = primes_up_to(max(2, isqrt(max(phi, phi - a) - 1)))
    seg, cls = _odd_window(plo, phi, a, base.primes)
    # the n-window and the grid the sweep hands its part, the bitmap
    # supplied; the dense table and the rows per integer read its n >= 1,
    # as the sums' route rule does
    _, lo, hi, grid = _window(seg, cls, a, 1)
    held = max(lo, 1)
    (d_q, d_c), (k_q, k_c) = (_divisor_weights(kind, hi - 1) for kind in (DIVISOR, DK2))
    # one column, as the sums count them
    d_col, k_col = np.zeros_like(d_q), np.zeros_like(k_q)
    return {
        "eligible n": int(np.count_nonzero(grid[1])),
        "primality bitmap": _ms(
            lambda: _kernels.ACTIVE.primality(seg.lo, seg.hi, cls.primes, cls.first), runs
        ),
        "d counted": _ms(lambda: _divisor_counts(d_q, d_c, d_col, 1, lo, hi, grid), runs),
        "dk2 counted": _ms(lambda: _divisor_counts(k_q, k_c, k_col, 1, lo, hi, grid), runs),
        **(_felix_rows(plo, a, width, runs) if a % 2 else {}),
        "d factored": _ms(lambda: _factor_part(DIVISOR, base, lo, hi, grid), runs),
        "dk2 factored": _ms(lambda: _factor_part(DK2, base, lo, hi, grid), runs),
        "Pillai factored": _ms(lambda: _factor_part(PILLAI, base, lo, hi, grid), runs),
        "dense table": _ms(lambda: value_range(DIVISOR, held, hi, base), runs),
        "d pairs/int": float(_pairs(d_q, hi)[1].sum() / (hi - held)),
        "dk2 pairs/int": float(_pairs(k_q, hi)[1].sum() / (hi - held)),
        "dk2 views/int": _views_read(k_q, k_c, k_col, lo, hi, grid) / (hi - held),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("points", nargs="*", type=_point, default=None, metavar="P:A")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--width", type=_int, default=1 << 20)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    points = args.points or [(10**7, 1), (10**8, 1), (2, -(2**39))]
    table = {f"{p}:{a}": window_rows(p, a, args.width, args.runs) for p, a in points}
    if args.json:
        print(json.dumps(table, indent=1))
        return
    cols = list(table)
    print("| | " + " | ".join(cols) + " |")
    print("|---" * (len(cols) + 1) + "|")
    for row in dict.fromkeys(r for rows in table.values() for r in rows):
        cells = []
        for c in cols:
            v = table[c].get(row)
            if v is None:
                cells.append("-")
            else:
                cells.append(f"{v:,}" if isinstance(v, int) else f"{v:.4f}" if "/int" in row else f"{v:.1f}")
        print(f"| {row} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
