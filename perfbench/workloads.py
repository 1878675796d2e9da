"""The benchmark's workloads: their set-up, their API calls and the checks
on every output.

Each workload is a list of operations.  An operation is one public API
call plus the check of its output; a raised exception or a failed check
makes the operation fail.  Expected outputs come from the package's
pilot fixtures (``data/pilots.json``) and from ``pinned.json`` beside
this file, which ``pin.py`` establishes.

Why these workloads:

- ``tracking``: the north-star sums (d, dk2 and Pillai at a = 1) with the
  pilot checkpoints.  Dense low windows, 446 base primes, many hits per
  prime; time goes to the value kernels, the pool and the Pillai
  fixed-point reduce.
- ``split``: the S1/S2 decomposition and the progression sums T_m.  Many
  sweeps (one per S1 modulus) and the S2 scan over the materialized
  prime list; little dense kernel work, no Pillai.
- ``high_shift``: a = -2**39, so value windows sit near 2**39 and the
  kernels strike ~60,000 base primes with few hits each; per-prime
  Python overhead dominates and the GIL limits the pool.

Sizes are fixed so that expected values can be pinned, and each pass
makes its calls in the same order, because the order moves the allocator's
high-water mark.  The seed picks the terms that ``oracle_ops`` checks.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable

from titchmarsh import constants, functions, sieve, sums
from titchmarsh.constants import CfSpec
from titchmarsh.functions import DIVISOR, PILLAI, evaluate, k_free_divisor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PILOTS = ROOT / "src" / "titchmarsh" / "data" / "pilots.json"
PINNED = HERE / "pinned.json"

TRACKING_KINDS = (DIVISOR, k_free_divisor(2), PILLAI)
TRACKING_CHECKPOINTS = (10**4, 10**5, 10**6, 10**7)
SPLIT_X = (10**6, 3 * 10**6)
FELIX_MODULI = (2, 3, 5)
FELIX_X = 10**7
FELIX_PILOT_DRIFT = 0.02
HIGH_KINDS = (DIVISOR, PILLAI)
HIGH_A = -(2**39)
HIGH_X = 2 * 10**6
ORACLE_SAMPLES = {"tracking": 8, "split": 8, "high_shift": 4}


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # error message, or None when right


def load_expected():
    return {
        "pilots": json.loads(PILOTS.read_text()),
        "pinned": json.loads(PINNED.read_text()),
    }


def setup(name):
    """The set-up a fresh process pays before the workload's first call:
    the leading constants of its sums and its base primes."""
    if name == "tracking":
        constants.titchmarsh_factor(1)
        constants.bk_product(2, 1)
        constants.cf_series(CfSpec.pillai_rule(), 1)
        sieve.primes_up_to(isqrt(TRACKING_CHECKPOINTS[-1]))
    elif name == "split":
        constants.bk_product(2, 1)
        for m in FELIX_MODULI:
            constants.felix_cm(m, 1)
        sieve.primes_up_to(isqrt(max(SPLIT_X + (FELIX_X,))))
    elif name == "high_shift":
        constants.titchmarsh_factor(HIGH_A)
        constants.cf_series(CfSpec.pillai_rule(), HIGH_A)
        sieve.primes_up_to(isqrt(HIGH_X - HIGH_A))
    else:
        raise ValueError(f"unknown workload {name!r}")


def _expect(label, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _tracking_ops(expected, workers):
    pilots = expected["pilots"]["tracking"]
    cps = list(TRACKING_CHECKPOINTS)

    def op(kind):
        def call():
            return sums.shifted_prime_sum(kind, 1, cps[-1], cps, workers=workers)

        def check(records):
            got = [abs(float(r.sum) / r.main_term - 1.0).hex() for r in records]
            # the pilots run to 10**8; their first entries are these checkpoints
            return _expect(f"{kind.label} deviations", got, pilots[kind.label][: len(cps)])

        return Op(f"sum {kind.label}", call, check)

    return [op(kind) for kind in TRACKING_KINDS]


def _split_ops(expected, workers):
    pinned = expected["pinned"]["split"]
    pilot_share = expected["pilots"]["decompose"]["s2_over_total"]
    pilot_felix = expected["pilots"]["felix"]

    def decompose(x):
        want = pinned["decompose"][str(x)]

        def call():
            return sums.decompose_s1_s2(2, 1, x, 2.0, workers=workers)

        def check(rep):
            if rep.s1 + rep.s2 != rep.total:
                return f"s1 + s2 = {rep.s1 + rep.s2} != total {rep.total}"
            err = _expect("total vs plain dk2 sweep", rep.total, pinned["dk2_sweep"][str(x)])
            err = err or _expect("(s1, s2)", [rep.s1, rep.s2], [want["s1"], want["s2"]])
            if err is None and x == 10**6:
                # the pilot fixture pins the share at 10**6 only
                err = _expect("s2 share", (rep.s2 / rep.total).hex(), pilot_share)
            return err

        return Op(f"decompose x={x}", call, check)

    def felix(m):
        def call():
            return sums.felix_partial_sum(m, 1, FELIX_X, workers=workers)

        def check(rec):
            err = _expect(f"T_{m}", rec.t_sum, pinned["felix"][str(m)])
            drift = abs(rec.t_sum / rec.predicted - float.fromhex(pilot_felix[str(m)]))
            if err is None and drift > FELIX_PILOT_DRIFT:
                err = f"T_{m} ratio drifted {drift:.4f} from the pilot"
            return err

        return Op(f"felix m={m}", call, check)

    return [decompose(x) for x in SPLIT_X] + [felix(m) for m in FELIX_MODULI]


def _high_shift_ops(expected, workers):
    pinned = expected["pinned"]["high_shift"]

    def op(kind):
        def call():
            return sums.shifted_prime_sum(kind, HIGH_A, HIGH_X, [HIGH_X], workers=workers)

        def check(records):
            (rec,) = records
            got = rec.sum.hex() if kind is PILLAI else rec.sum
            return _expect(f"sum {kind.label}", got, pinned[kind.label])

        return Op(f"sum {kind.label}", call, check)

    return [op(kind) for kind in HIGH_KINDS]


def ops(name, expected, workers):
    """The operations of one pass of workload ``name``."""
    build = {"tracking": _tracking_ops, "split": _split_ops, "high_shift": _high_shift_ops}
    if name not in build:
        raise ValueError(f"unknown workload {name!r}")
    return build[name](expected, workers)


def oracle_ops(name, seed, samples=None):
    """Terms g(p - a) at seed-chosen primes p of the workload's range, each
    from a one-integer kernel window and checked against ``evaluate`` on
    the trial-division factorization ``factorize_int``."""
    shift, limit, kinds = {
        "tracking": (1, TRACKING_CHECKPOINTS[-1], TRACKING_KINDS),
        "split": (1, SPLIT_X[-1], (k_free_divisor(2), DIVISOR)),
        "high_shift": (HIGH_A, HIGH_X, HIGH_KINDS),
    }[name]
    rng = random.Random(seed)
    primes = sieve.primes_up_to(limit).primes
    base = sieve.primes_up_to(isqrt(limit - shift))
    chosen = rng.sample(primes[primes > shift].tolist(), samples or ORACLE_SAMPLES[name])

    def op(kind, n):
        def call():
            if kind is PILLAI:
                num, den = functions.pillai_range(n, n + 1, base=base)
                return Fraction(int(num[0]), int(den[0]))
            return int(functions.value_range(kind, n, n + 1, base=base)[0])

        def check(got):
            return _expect(f"{kind.label}({n})", got, evaluate(kind, sieve.factorize_int(n)))

        return Op(f"term {kind.label}({n})", call, check)

    return [op(kind, p - shift) for p in sorted(chosen) for kind in kinds]
