"""Benchmark of the titchmarsh package through its public Python API.

Usage:
  python3 perfbench/run.py --workload {tracking,split,high_shift}
                           --seed N --seconds S --trace {0,1}

One process drives the workload as a closed loop: each call waits for
the previous one, and the package's own thread pool gets one worker per
available core.  A run measures set-up time in fresh processes, repeats
passes over the workload's calls for ``--seconds`` (the first fills the
package's constant caches and is not counted), reads the process's peak
memory, and last checks the seed-chosen oracle terms.  Every call's
output is checked; an operation is one call plus its check.

With ``--trace 0`` the run reports the end-to-end metrics, untraced.
With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics from the traced ones, the set-up layers from a traced
cold set-up, and kernel timings at fixed 2**20 windows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine.  Results and traces are also written under
``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh set-up processes per run; the result is their minimum, the set-up
# time least disturbed by the rest of the machine
SETUP_SAMPLES = 9
WINDOW_WIDTH = 1 << 20
WINDOW_LOS = {"lo1e8": 10**8, "lo1e10": 10**10, "lo2p39": 2**39}


def _import_package():
    if not (SRC / "titchmarsh" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _setup_child(name):
    # runs in a fresh interpreter: the import is part of what is timed
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workloads.setup(name)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name):
    """Set-up seconds of each of SETUP_SAMPLES fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", name]
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _last_level_cache():
    best = (0, "unknown")
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for d in cache.glob("index*"):
            level = int((d / "level").read_text())
            if level > best[0]:
                best = (level, f"L{level} {(d / 'size').read_text().strip()}")
    except (OSError, ValueError):
        pass
    return best[1]


def machine_facts():
    import numpy

    import titchmarsh

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "backend": titchmarsh.BACKEND,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "llc": _last_level_cache(),
    }


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_pass(self, ops):
        """Run each op once; returns summed wall and CPU seconds of the calls."""
        wall = cpu = 0.0
        for op in ops:
            self.attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.call()
            except Exception as exc:  # a failing call is a failed operation
                err = f"raised {type(exc).__name__}: {exc}"
            else:
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                try:
                    err = op.check(result)
                except Exception as exc:  # so is a check that cannot run
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                self.add(0, 1, [f"{op.name}: {err}"])
        return wall, cpu

    def add(self, attempted, failed, errors):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[: 10 - len(self.errors)])


def timed_passes(ops, seconds, tally):
    """Wall and CPU seconds of each pass in a window of ``seconds``.  The
    first pass fills the package's constant caches and is not returned."""
    walls, cpus = [], []
    start = time.perf_counter()
    tally.run_pass(ops)
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        wall, cpu = tally.run_pass(ops)
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus


def end_to_end(name, ops, seconds, tally):
    setups = measure_setup(name)
    walls, cpus = timed_passes(ops, seconds, tally)
    # the high-water mark of this process, whose passes ran with every worker
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"passes": len(walls), "walls": walls, "cpus": cpus, "setups": setups}


def kernel_windows():
    """Milliseconds per 2**20 window at fixed lo, for each kernel."""
    from math import isqrt

    import numpy as np

    from titchmarsh import _kernels
    from titchmarsh.sieve import primes_up_to

    impl = _kernels.ACTIVE
    out = {}
    for label, lo in WINDOW_LOS.items():
        hi = lo + WINDOW_WIDTH
        base = primes_up_to(isqrt(hi) + 1).primes
        # fixed_parts reads the positions where n + 1 is prime (a = 1)
        idx = np.nonzero(impl.primality(lo + 1, hi + 1, base))[0]
        pillai = None
        calls = {
            "primality": lambda: impl.primality(lo, hi, base),
            "divisor": lambda: impl.divisor(lo, hi, base),
            "kfree": lambda: impl.kfree(lo, hi, base, 2),
            "omega": lambda: impl.omega(lo, hi, base),
            "mu": lambda: impl.mu(lo, hi, base),
            "pillai": lambda: impl.pillai(lo, hi, base),
            "fixed_parts": lambda: impl.fixed_parts(*pillai, idx),
        }
        for k, call in calls.items():
            t0 = time.perf_counter()
            result = call()
            out[f"kernels.{k}.{label}_ms"] = ((time.perf_counter() - t0) * 1e3, "ms")
            if k == "pillai":
                pillai = result
    return out


def span_totals(tracer):
    """Per span name: number of spans, summed durations, summed self times."""
    import tracing

    selfs = tracing.self_times(tracer.spans)
    calls, dur, own = {}, {}, {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
    return calls, dur, own


def layer_metrics(tracer, wall, workers):
    """Per-layer metrics of one traced pass."""
    import tracing

    calls, dur, own = span_totals(tracer)
    c = tracer.counts
    ints = c["kernels.ints_factored"]
    value_s = sum(dur.get(f"kernels.{k}", 0.0) for k in tracing.VALUE_KERNELS)
    m = {}
    for k in tracing.KERNELS:
        m[f"kernels.{k}_s"] = (dur.get(f"kernels.{k}", 0.0), "s")
        m[f"kernels.{k}_calls"] = (c[f"kernels.{k}_calls"], "count")
    m["kernels.value_s"] = (value_s, "s")
    m["kernels.ints_factored"] = (ints, "count")
    m["kernels.ns_per_int"] = (value_s / ints * 1e9 if ints else 0.0, "ns")
    m["kernels.base_primes_struck"] = (c["kernels.base_primes_struck"], "count")
    m["sieve.sweeps"] = (c["sieve.sweeps"], "count")
    m["sieve.segments"] = (c["sieve.segments"], "count")
    m["functions.value_range_self_s"] = (own.get("functions.value_range", 0.0), "s")
    m["functions.function_table_s"] = (dur.get("functions.function_table", 0.0), "s")
    m["functions.function_table_calls"] = (calls.get("functions.function_table", 0), "count")
    m["sums.terms"] = (c["sums.terms"], "count")
    m["sums.used_ratio"] = (c["sums.terms"] / ints if ints else 0.0, "ratio")
    m["sums.serial_s"] = (sum(v for n, v in own.items() if n.startswith("sums.")), "s")
    m["sums.decompose_self_s"] = (own.get("sums.decompose_s1_s2", 0.0), "s")
    # computed, not measured: the materialized S2 prime list is 8 * pi(x) bytes
    m["sums.primes_array_bytes"] = (c["sums.primes_array_bytes"], "B")
    m["pool.busy_frac"] = (dur.get("pool.job", 0.0) / (wall * workers), "ratio")
    return m


# the per-layer metrics on the result line are those BENCHMARK.json declares:
# the ones that are nonzero on every workload.  A layer a workload never
# enters reads exactly 0 there; such metrics go to the trace file only.
PER_LAYER = tuple(m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"])

# counts that must repeat exactly from one traced pass to the next
COUNTS = ("kernels.ints_factored", "kernels.base_primes_struck", "sieve.sweeps",
          "sieve.segments", "sums.terms")


def check_counts_repeat(layer_passes, tally):
    """One operation: the layer counts of every traced pass are the same."""
    same = all(m[k] == layer_passes[0][k] for m in layer_passes for k in COUNTS)
    tally.add(1, int(not same), [] if same else ["layer counts differ between traced passes"])
    return same


def traced(name, ops, seconds, workers, tally):
    import tracing
    import workloads

    cold = tracing.Tracer()
    with tracing.installed(cold):
        workloads.setup(name)
    setup_calls, setup_dur, setup_own = span_totals(cold)

    start = time.perf_counter()
    tally.run_pass(ops)  # fills the constant caches; untraced and not counted
    plain_walls, passes, first = [], [], None
    while not passes or time.perf_counter() - start < seconds:
        if len(plain_walls) <= len(passes):
            plain_walls.append(tally.run_pass(ops)[0])
        else:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                wall, _ = tally.run_pass(ops)
            passes.append((wall, layer_metrics(tracer, wall, workers)))
            first = first or tracer

    # median_low keeps a measured value, so counts stay whole numbers
    metrics = {}
    for key, (_, unit) in passes[0][1].items():
        metrics[key] = (statistics.median_low(p[1][key][0] for p in passes), unit)
    for fn in ("titchmarsh_factor", "bk_product", "cf_series"):
        metrics[f"constants.{fn}_s"] = (setup_dur.get(f"constants.{fn}", 0.0), "s")
        metrics[f"constants.{fn}_calls"] = (setup_calls.get(f"constants.{fn}", 0), "count")
    metrics["constants.self_s"] = (
        sum(v for n, v in setup_own.items() if n.startswith("constants.")), "s")
    metrics["sieve.primes_up_to_s"] = (setup_dur.get("sieve.primes_up_to", 0.0), "s")
    traced_wall = statistics.median_low(p[0] for p in passes)
    plain_wall = statistics.median_low(plain_walls)
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    metrics.update(kernel_windows())
    counts_repeat = check_counts_repeat([p[1] for p in passes], tally)
    extra = {
        "traced_passes": len(passes), "untraced_passes": len(plain_walls),
        "counts_repeat": counts_repeat, "layers": {k: v for k, (v, _) in metrics.items()},
        "setup_trace": cold.to_dict(), "pass_trace": first.to_dict(),
    }
    return {k: metrics[k] for k in PER_LAYER}, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description="titchmarsh benchmark")
    ap.add_argument("--workload", choices=("tracking", "split", "high_shift"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        _setup_child(args.setup_child)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_package()
    import workloads

    workers = len(os.sched_getaffinity(0))
    ops = workloads.ops(args.workload, workloads.load_expected(), workers)
    tally = Tally()
    if args.trace:
        metrics, extra = traced(args.workload, ops, args.seconds, workers, tally)
    else:
        metrics, extra = end_to_end(args.workload, ops, args.seconds, tally)
    tally.run_pass(workloads.oracle_ops(args.workload, args.seed))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": workers, "machine": machine_facts(),
        "failed_frac": tally.failed / tally.attempted, "errors": tally.errors,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"info": info, "result": result, **extra}, indent=1) + "\n")
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
