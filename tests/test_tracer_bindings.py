"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name.  It is loaded here as it stands, so a refactor that renames or drops
a name it binds fails tier-1 instead of ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import titchmarsh
from titchmarsh.functions import DIVISOR
from titchmarsh.sums import shifted_prime_sum

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_name_the_tracer_binds_resolves():
    tracing = _tracing()
    for owner, attr, _ in tracing._targets():
        assert callable(getattr(owner, attr, None)), (owner, attr)
    assert titchmarsh.BACKEND == "numpy"


def test_a_traced_sum_equals_the_untraced_one_and_restores_the_package():
    tracing = _tracing()
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing._targets()]
    want = [r.to_dict() for r in shifted_prime_sum(DIVISOR, 1, 10**5)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        got = [r.to_dict() for r in shifted_prime_sum(DIVISOR, 1, 10**5)]
    assert got == want
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
    for name in ("sieve.segments", "sums.terms", "kernels.primality_calls"):
        assert tracer.counts[name] > 0, name
