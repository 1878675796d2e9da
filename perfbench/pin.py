"""Establish the expected outputs in pinned.json.

A value is pinned only when every configuration agrees on it: segment
widths 2**18 and 2**20, times 1 and 2 workers.  The high_shift sums are
further checked term by term at a seed-chosen sample of primes p, where
the windowed kernels' g(p - a) must equal the value computed from the
trial-division oracle ``factorize_int``.  Rerun only when a change
legitimately alters numeric output, and explain any diff.

Usage: python3 perfbench/pin.py [--seed N] [--samples N]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from titchmarsh.functions import PILLAI, k_free_divisor  # noqa: E402
from titchmarsh.sums import decompose_s1_s2, felix_partial_sum, shifted_prime_sum  # noqa: E402

import workloads as w  # noqa: E402

CONFIGS = [(workers, width) for workers in (1, 2) for width in (1 << 18, 1 << 20)]


def compute(workers, width):
    kw = {"workers": workers, "segment_width": width}
    split = {"decompose": {}, "dk2_sweep": {}, "felix": {}}
    for x in w.SPLIT_X:
        rep = decompose_s1_s2(2, 1, x, 2.0, **kw)
        split["decompose"][str(x)] = {"s1": rep.s1, "s2": rep.s2}
        split["dk2_sweep"][str(x)] = shifted_prime_sum(k_free_divisor(2), 1, x, [x], **kw)[0].sum
    for m in w.FELIX_MODULI:
        split["felix"][str(m)] = felix_partial_sum(m, 1, w.FELIX_X, **kw).t_sum
    high = {}
    for kind in w.HIGH_KINDS:
        s = shifted_prime_sum(kind, w.HIGH_A, w.HIGH_X, [w.HIGH_X], **kw)[0].sum
        high[kind.label] = s.hex() if kind is PILLAI else s
    return {"split": split, "high_shift": high}


def oracle_sample(seed, samples):
    """Check g(p - a) from the windowed kernels against factorize_int."""
    ops = w.oracle_ops("high_shift", seed, samples)
    for op in ops:
        err = op.check(op.call())
        if err is not None:
            raise SystemExit(f"{op.name}: {err}")
    return ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--samples", type=int, default=16)
    args = ap.parse_args()
    results = {cfg: compute(*cfg) for cfg in CONFIGS}
    ref = results[CONFIGS[0]]
    for cfg, got in results.items():
        if got != ref:
            raise SystemExit(f"workers={cfg[0]}, width={cfg[1]} disagrees with {CONFIGS[0]}")
    checked = oracle_sample(args.seed, args.samples)
    ref["provenance"] = (
        f"agreed across (workers, width) in {CONFIGS}; {len(checked)} high_shift "
        f"terms at {args.samples} primes (seed {args.seed}) match factorize_int"
    )
    w.PINNED.write_text(json.dumps(ref, indent=2) + "\n")
    print(f"wrote {w.PINNED}")


if __name__ == "__main__":
    main()
