"""Self-tests of the benchmark's own arithmetic and checks.

Run: python3 -m pytest -q perfbench/test_perfbench.py
"""

import threading
import time

import run

run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from titchmarsh import sieve, sums  # noqa: E402
from titchmarsh.functions import DIVISOR  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(3.0, 6.0), (1.0, 4.0), (8.0, 9.0), (8.5, 8.7)]) == 6.0


def test_self_time_with_overlapping_children_on_two_threads():
    spans = [
        tracing.Span(1, "sums.call", 0.0, 10.0, None, 100),
        # two worker threads overlap on [3, 4]; a third child runs past the parent
        tracing.Span(2, "pool.job", 1.0, 4.0, 1, 200),
        tracing.Span(3, "pool.job", 3.0, 6.0, 1, 300),
        tracing.Span(4, "kernels.divisor", 8.0, 12.0, 1, 100),
        # a grandchild does not count against the grandparent twice
        tracing.Span(5, "kernels.divisor", 1.5, 3.5, 2, 200),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 10.0 - ((6.0 - 1.0) + (10.0 - 8.0))
    assert selfs[2] == 3.0 - 2.0
    assert selfs[3] == 3.0
    assert selfs[5] == 2.0


def test_tracer_parents_spans_across_threads():
    tracer = tracing.Tracer()
    with tracer.span("root", m=7) as root:
        seen = []

        def worker():
            with tracer.span("child", parent=root):
                seen.append(tracer.lookup("m"))
                time.sleep(0.01)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    children = [s for s in tracer.spans if s.name == "child"]
    assert seen == [7, 7]
    assert {s.parent for s in children} == {root}
    assert len({s.thread for s in children}) == 2
    selfs = tracing.self_times(tracer.spans)
    (top,) = [s for s in tracer.spans if s.name == "root"]
    cover = tracing.union_length([(s.start, s.end) for s in children])
    assert abs(selfs[root] - (top.duration - cover)) < 1e-12


def test_installed_counts_one_sweep_and_restores_the_package():
    before = (sums.shifted_prime_sum, sums.iter_segments, sieve.primes_up_to)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        rec = sums.shifted_prime_sum(DIVISOR, 1, 10**5, [10**5], workers=2)[0]
    assert (sums.shifted_prime_sum, sums.iter_segments, sieve.primes_up_to) == before
    c = tracer.counts
    assert c["sieve.sweeps"] == 1 and c["sieve.segments"] == 1
    assert c["sums.terms"] == 9592  # pi(10**5); every prime p > a = 1 contributes
    assert c["kernels.ints_factored"] == 10**5 - 1  # the window n = p - 1 in [1, 10**5)
    assert c["kernels.divisor_calls"] == 1 and c["kernels.primality_calls"] == 1
    names = {s.name for s in tracer.spans}
    assert {"sums.shifted_prime_sum", "pool.map", "pool.job", "kernels.divisor"} <= names
    assert rec.sum == sums.shifted_prime_sum(DIVISOR, 1, 10**5, [10**5])[0].sum


def test_wrong_pinned_value_counts_as_one_failed_operation():
    expected = workloads.load_expected()
    expected["pinned"]["split"]["felix"]["5"] += 1
    ops = workloads.ops("split", expected, workers=2)
    tally = run.Tally()
    tally.run_pass(ops)
    assert (tally.attempted, tally.failed) == (len(ops), 1)
    assert tally.errors[0].startswith("felix m=5: T_5")


def test_layer_counts_that_differ_count_as_one_failed_operation():
    first = {k: (7, "count") for k in run.COUNTS}
    tally = run.Tally()
    assert run.check_counts_repeat([first, dict(first)], tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    second = dict(first, **{"sieve.sweeps": (8, "count")})
    assert not run.check_counts_repeat([first, second], tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.errors == ["layer counts differ between traced passes"]


def test_result_line_carries_the_declared_per_layer_metrics():
    assert len(run.PER_LAYER) == len(set(run.PER_LAYER))
    assert set(run.COUNTS) <= set(run.PER_LAYER)
