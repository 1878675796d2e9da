"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, and its runner (perfbench/run.py) calls the kernels by position.
Both are loaded here as they stand, so a refactor that renames or drops a
name they bind, or changes a kernel's call shape, fails tier-1 instead of
``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import titchmarsh
from titchmarsh.functions import DIVISOR
from titchmarsh.sums import decompose_s1_s2, felix_partial_sum, shifted_prime_sum

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracing():
    return _load("tracing")


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


def test_traced_felix_and_decompose_equal_the_untraced_ones():
    # narrow windows on two workers, so both sweeps run their jobs on the
    # pool, each job in a span under the map that submitted it
    tracing = _tracing()
    runs = (lambda: felix_partial_sum(3, 1, 10**5, segment_width=1 << 12, workers=2),
            lambda: decompose_s1_s2(2, 1, 10**5, segment_width=1 << 12, workers=2))
    want = [run() for run in runs]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        got = [run() for run in runs]
    assert got == want
    maps = {s.id for s in tracer.spans if s.name == "pool.map"}
    jobs = [s for s in tracer.spans if s.name == "pool.job"]
    assert len(maps) == 2 and len(jobs) > 2 and all(s.parent in maps for s in jobs)


def test_the_benchmarks_kernel_calls_resolve():
    # ``run.py --trace 1`` calls the ACTIVE kernels by their positional
    # shapes: primality without ``first``, kfree with k = 2, fixed_parts
    # on the pillai arrays; here on two narrow windows
    run = _load("run")
    run.WINDOW_WIDTH = 1 << 10
    run.WINDOW_LOS = {"lo1e8": 10**8, "lo2p39": 2**39}
    kernels = ("primality", "divisor", "kfree", "omega", "mu", "pillai", "fixed_parts")
    assert set(run.kernel_windows()) == {f"kernels.{k}.{label}_ms" for k in kernels
                                         for label in run.WINDOW_LOS}
