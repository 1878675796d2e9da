"""Named verification checks, shared by the CLI and the test suite.

``run(level)`` executes the fast invariant suite (< 10 s, oracle sizes
capped) or the full acceptance suite.  Every check returns (ok, detail)
and never raises on a mere numeric failure, so the CLI can report all
outcomes in one pass.  No check reads the clock: ``run`` times each one
once, and fails a passing check that took at least the budget beside it
in the check tables.

The tracking checks compare against pilot fixtures stored in
``data/pilots.json``: deviations from a calibration run, recorded as
float hex strings.  Integer sums and the scaled Pillai accumulator are
exact, so reruns must reproduce the stored deviations bit for bit.
"""

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

from .constants import (
    CfSpec,
    bk_product,
    cf_series,
    titchmarsh_factor,
    zeta_product_identity_gap,
)
from .functions import (
    DIVISOR,
    PILLAI,
    UNITARY_DIVISOR,
    evaluate,
    function_table,
    k_free_divisor,
    mu_k_table,
    pillai_gcd_oracle,
    pillai_range,
    dirichlet_convolve,
)
from .sieve import factorize_range, primes_up_to, Segment
from .sums import decompose_s1_s2, felix_partial_sum, shifted_prime_sum

CANONICAL_WIDTH = 1 << 20
CANONICAL_WORKERS = 4
TRACKING_CHECKPOINTS = (10**4, 10**5, 10**6, 10**7, 10**8)
TRACKING_KINDS = (DIVISOR, k_free_divisor(2), PILLAI)
FELIX_MODULI = (2, 3, 5)
FELIX_X = 10**7

# (workers, width); the last is the reference the others must match
_DETERMINISM_CONFIGS = ((1, 1 << 16), (1, 1 << 20), (4, 1 << 16), (4, 1 << 20))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0


def _pilots():
    path = resources.files("titchmarsh").joinpath("data/pilots.json")
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, OSError):
        return None


# ---------------------------------------------------------------------------
# acceptance criteria


def convolution_identity(n_conv=10**5, n_unitary=10**6):
    """(mu_k * d) == dk coefficientwise, and dk2 == 2^omega via the
    independent omega kernel."""
    d_tab = function_table(DIVISOR, n_conv)
    for k in (2, 3, 4):
        conv = dirichlet_convolve(mu_k_table(n_conv, k), d_tab)
        direct = function_table(k_free_divisor(k), n_conv)
        bad = np.nonzero(conv[1:] != direct[1:])[0]
        if bad.size:
            n = int(bad[0]) + 1
            return False, f"(mu_{k} * d)({n}) = {conv[n]} != dk({n}) = {direct[n]}"
    dk2 = function_table(k_free_divisor(2), n_unitary)
    uni = function_table(UNITARY_DIVISOR, n_unitary)
    bad = np.nonzero(dk2[1:] != uni[1:])[0]
    if bad.size:
        n = int(bad[0]) + 1
        return False, f"dk2({n}) = {dk2[n]} != 2^omega({n}) = {uni[n]}"
    return True, f"(mu_k*d)=dk for k in 2,3,4 up to {n_conv}; dk2=2^omega up to {n_unitary}"


def pillai_oracle_equality(n_max=2000):
    """eval(Pillai, n) == gcd-sum definition, exact rationals."""
    base = primes_up_to(max(2, math.isqrt(n_max)))
    fr = factorize_range(Segment(1, n_max + 1), base)
    num, den = pillai_range(1, n_max + 1, base=base)
    for n in range(1, n_max + 1):
        want = pillai_gcd_oracle(n)
        if evaluate(PILLAI, fr.factors(n)) != want:
            return False, f"eval(Pillai, {n}) != gcd oracle"
        if Fraction(int(num[n - 1]), int(den[n - 1])) != want:
            return False, f"pillai_range at {n} != gcd oracle"
    return True, f"P(n) = gcd-sum/n exactly for n <= {n_max}"


def zeta_identity(prime_limit=10**7, tol=1e-6):
    """zeta(2)zeta(3)/zeta(6) vs the Euler product over p <= limit."""
    gap = zeta_product_identity_gap(prime_limit)
    ok = gap <= tol
    return ok, f"|closed form - product to {prime_limit}| = {gap:.3e} (tol {tol:.0e})"


def series_product_identity(
    combos=((2, 1), (3, 1), (2, -6)),
    m_limit=10**4,
    prime_limit=10**7,
    k2_cap=2e-4,
):
    """cf_series(mu_k rule) vs bk_product within combined tail bounds."""
    details = []
    for k, a in combos:
        s = cf_series(CfSpec.mu_k_rule(k), a, m_limit)
        p = bk_product(k, a, prime_limit)
        diff = abs(s.value - p.value)
        combined = s.tail_bound + p.tail_bound
        if diff > combined:
            return False, (
                f"(k={k}, a={a}): |series - product| = {diff:.3e} exceeds "
                f"combined tail bound {combined:.3e}"
            )
        if k == 2 and combined > k2_cap:
            return False, (
                f"(k={k}, a={a}): combined tail bound {combined:.3e} exceeds "
                f"{k2_cap:.0e}"
            )
        details.append(f"(k={k},a={a}): diff {diff:.2e} <= bound {combined:.2e}")
    return True, "; ".join(details)


def pillai_series_identity(m_limit=10**4, prime_limit=10**7):
    """cf_series(Pillai rule) == b_2 within combined bounds, preceded by
    the per-prime symbolic local-factor oracle at p <= 100."""
    for p in primes_up_to(100).primes:
        p = int(p)
        core = p * p - p + 1
        ratio = 1 + Fraction(p - 1, core)
        if ratio != Fraction(p * p, core):
            return False, f"felix local factor mismatch at p={p}"
        if 1 - ratio / p**2 != 1 - Fraction(1, core):
            return False, f"k=2 product local factor mismatch at p={p}"
        if 1 - ratio / p**3 != 1 - Fraction(1, p * core):
            return False, f"k=3 product local factor mismatch at p={p}"
    s = cf_series(CfSpec.pillai_rule(), 1, m_limit)
    b = bk_product(2, 1, prime_limit)
    diff = abs(s.value - b.value)
    combined = s.tail_bound + b.tail_bound
    ok = diff <= combined
    return ok, (
        f"local factors verified symbolically to p=100; "
        f"|c_P - b_2| = {diff:.3e} vs combined bound {combined:.3e}"
    )


_ANCHORS = (
    (DIVISOR, 1, 20, 31),
    (UNITARY_DIVISOR, 1, 20, 23),
    (k_free_divisor(3), 1, 20, 29),
)


def hand_anchors():
    """Tiny sums checked against hand enumeration."""
    for kind, a, x, want in _ANCHORS:
        got = shifted_prime_sum(kind, a, x, [x])[0].sum
        if got != want:
            return False, f"sum({kind.label}, a={a}, x={x}) = {got}, expected {want}"
    got = felix_partial_sum(2, 1, 20).t_sum
    if got != 18:
        return False, f"felix T_2(20) = {got}, expected 18"
    return True, "d/2^omega/dk3 sums at x=20 and felix T_2(20) all match hand sums"


# Runs are cached on all their arguments, always passed positionally,
# so a later check reuses what an earlier one computed.
@lru_cache(maxsize=None)
def _decompose_run(workers, width, x):
    return decompose_s1_s2(2, 1, x, 2.0, segment_width=width, workers=workers)


def partition_exactness(x=10**6):
    """s1 + s2 == total, and total equals the plain dk2 sweep."""
    rep = _decompose_run(CANONICAL_WORKERS, CANONICAL_WIDTH, x)
    if rep.s1 + rep.s2 != rep.total:
        return False, f"s1 + s2 = {rep.s1 + rep.s2} != total = {rep.total}"
    ref = shifted_prime_sum(
        k_free_divisor(2), 1, x, [x], segment_width=CANONICAL_WIDTH, workers=CANONICAL_WORKERS
    )[0].sum
    if rep.total != ref:
        return False, f"decompose total {rep.total} != dk2 sweep {ref}"
    return True, (
        f"s1 {rep.s1} + s2 {rep.s2} = total {rep.total} at x={x}, "
        f"threshold {rep.threshold:.1f}, {len(rep.per_m)} S1 moduli"
    )


@lru_cache(maxsize=None)
def _tracking_run(kind, workers, width, checkpoints):
    return tuple(
        shifted_prime_sum(
            kind, 1, checkpoints[-1], list(checkpoints), segment_width=width, workers=workers
        )
    )


def _deviations(records):
    return [abs(float(r.sum) / r.main_term - 1.0) for r in records]


def tracking_improves():
    """Deviation |S(X)/(C X) - 1| strictly smaller at 10^8 than at 10^4
    for d, dk2, and Pillai (a = 1); deviations must reproduce the pilot
    fixtures bit for bit."""
    pilots = _pilots()
    if pilots is None or "tracking" not in pilots:
        return False, "pilot fixtures missing (data/pilots.json)"
    details = []
    for kind in TRACKING_KINDS:
        recs = _tracking_run(kind, CANONICAL_WORKERS, CANONICAL_WIDTH, TRACKING_CHECKPOINTS)
        devs = _deviations(recs)
        if not devs[-1] < devs[0]:
            return False, (
                f"{kind.label}: deviation at 10^8 ({devs[-1]:.3e}) not below "
                f"deviation at 10^4 ({devs[0]:.3e})"
            )
        stored = pilots["tracking"][kind.label]
        got = [d.hex() for d in devs]
        if got != stored:
            return False, f"{kind.label}: deviations differ from pilot fixtures"
        details.append(f"{kind.label}: {devs[0]:.2e} -> {devs[-1]:.2e}")
    return True, "; ".join(details) + "; bit-exact vs pilots"


@lru_cache(maxsize=None)
def _felix_run(m, workers, width, x):
    return felix_partial_sum(m, 1, x, segment_width=width, workers=workers)


def felix_tracking():
    """T_m(X) m/(c_m X) within 0.1 of 1 for m in {2,3,5} at X = 10^7,
    and within 0.02 of the pilot ratio."""
    pilots = _pilots()
    if pilots is None or "felix" not in pilots:
        return False, "pilot fixtures missing (data/pilots.json)"
    details = []
    for m in FELIX_MODULI:
        rec = _felix_run(m, CANONICAL_WORKERS, CANONICAL_WIDTH, FELIX_X)
        ratio = rec.t_sum / rec.predicted
        if abs(ratio - 1.0) > 0.1:
            return False, f"m={m}: ratio {ratio:.4f} outside 1 +/- 0.1"
        pilot = float.fromhex(pilots["felix"][str(m)])
        if abs(ratio - pilot) > 0.02:
            return False, f"m={m}: ratio {ratio:.4f} drifted from pilot {pilot:.4f}"
        details.append(f"m={m}: ratio {ratio:.4f}")
    return True, "; ".join(details)


def felix_matches_split(x=10**6, moduli=(4, 9, 25)):
    """felix T_m at a = 1, swept over its class, equals decompose's per_m
    column, counted on the line with q = m, for S1 moduli m.  felix with
    m = 1 is the d sum's own code, so this is felix's independent route."""
    per_m = {m: t for m, _, t in _decompose_run(CANONICAL_WORKERS, CANONICAL_WIDTH, x).per_m}
    for m in moduli:
        t = _felix_run(m, CANONICAL_WORKERS, CANONICAL_WIDTH, x).t_sum
        if t != per_m[m]:
            return False, f"felix T_{m}({x}) = {t}, decompose per_m = {per_m[m]}"
    return True, f"felix T_m({x}) = decompose per_m for m in {list(moduli)}"


def determinism(configs=_DETERMINISM_CONFIGS, checkpoints=TRACKING_CHECKPOINTS,
                felix_x=FELIX_X, decompose_x=10**6):
    """Criteria 7-9 outputs identical across the (workers, width)
    configurations: the decomposition at decompose_x, the tracking
    records at the checkpoints and the felix records at felix_x."""

    def outputs(workers, width):
        out = {"decomposition": _decompose_run(workers, width, decompose_x)}
        for kind in TRACKING_KINDS:
            out[f"{kind.label} records"] = _tracking_run(kind, workers, width, checkpoints)
        for m in FELIX_MODULI:
            out[f"felix m={m}"] = _felix_run(m, workers, width, felix_x)
        return out

    ref = outputs(*configs[-1])
    for workers, width in configs[:-1]:
        got = outputs(workers, width)
        for name, want in ref.items():
            if got[name] != want:
                return False, f"{name} not identical at workers={workers}, width={width}"
    return True, (
        "decomposition, tracking records, and felix records identical across "
        f"(workers, width) in {list(configs)}"
    )


# ---------------------------------------------------------------------------
# fast-level reductions


def _felix_coincides_fast():
    # T_1 against a flat divisor table read at p - 1, not another sweep
    x = 10**3
    t = felix_partial_sum(1, 1, x).t_sum
    s = int(function_table(DIVISOR, x)[primes_up_to(x).primes - 1].sum())
    return t == s, f"felix T_1({x}) = {t}, divisor table at p - 1 = {s}"


# (name, check, budget): a passing check that takes its budget in wall
# seconds or more fails (``_run_check``); inf where a check has none
_FAST_CHECKS = (
    ("convolution", lambda: convolution_identity(10**4, 10**5), 10.0),
    ("pillai-oracle", lambda: pillai_oracle_equality(300), 5.0),
    ("zeta-identity", lambda: zeta_identity(10**6), math.inf),
    ("series-product", lambda: series_product_identity(((2, 1),), 10**3, 10**6, k2_cap=2e-3), 30.0),
    ("pillai-series", lambda: pillai_series_identity(10**3, 10**6), math.inf),
    ("hand-anchors", hand_anchors, math.inf),
    ("partition", lambda: partition_exactness(10**5), math.inf),
    ("felix-coincides", _felix_coincides_fast, math.inf),
    ("felix-split", lambda: felix_matches_split(10**5), math.inf),
    (
        "determinism",
        lambda: determinism(((1, 1 << 16), (4, 1 << 14)), (10**4, 10**5), 10**5, 10**5),
        math.inf,
    ),
)

_FULL_CHECKS = (
    ("1 convolution", convolution_identity, 10.0),
    ("2 pillai-oracle", pillai_oracle_equality, 5.0),
    ("3 zeta-identity", zeta_identity, math.inf),
    ("4 series-product", series_product_identity, 30.0),
    ("5 pillai-series", pillai_series_identity, math.inf),
    ("6 hand-anchors", hand_anchors, math.inf),
    ("7 partition", partition_exactness, math.inf),
    ("8 tracking", tracking_improves, 900.0),
    ("9 felix-tracking", felix_tracking, math.inf),
    ("10 determinism", determinism, math.inf),
)


def _run_check(name, check, budget):
    """The CheckResult of one row of a check table, with the wall seconds
    the check took.  A check that raises fails with the exception named;
    one that passes but takes its budget or more fails with both times."""
    start = time.perf_counter()
    try:
        ok, detail = check()
    except Exception as exc:  # a check must never take down the suite
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if ok and seconds >= budget:
        ok, detail = False, f"took {seconds:.1f} s, budget {budget:g} s: {detail}"
    return CheckResult(name, ok, detail, seconds)


def run(level="fast"):
    """Execute the named checks for a level; returns list of CheckResult,
    each with the wall seconds its check took."""
    if level not in {"fast", "full"}:
        raise ValueError("level must be 'fast' or 'full'")
    return [_run_check(*row) for row in (_FAST_CHECKS if level == "fast" else _FULL_CHECKS)]
