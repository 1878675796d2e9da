"""In-memory spans and counts around the package's layer boundaries.

A ``Tracer`` records spans (name, start, end, parent, thread) and named
counts.  ``installed(tracer)`` swaps wrappers in for the functions the
benchmark observes, in every ``titchmarsh`` module that binds them, and
restores the originals on exit, so an untraced run executes the package
exactly as shipped.  Nothing under ``src/`` knows about the tracer.

Self time of a span is its duration minus the length of the union of its
direct children's intervals, clipped to the span.  Children may run on
other threads (segment jobs on the ``sums`` thread pool), so they can
overlap one another; the union counts each instant once.
"""

import itertools
import sys
import threading
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from math import isqrt
from time import perf_counter

import numpy as np

# value kernels factor every integer of their window; primality only sieves
VALUE_KERNELS = ("divisor", "kfree", "omega", "mu", "pillai")
KERNELS = ("primality",) + VALUE_KERNELS + ("fixed_parts",)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Thread-aware span and count recorder; all state lives in memory."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._attrs = {}  # span id -> (parent, attrs), kept while the span is open
        self.spans = []
        self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name, parent=None, **attrs):
        """Record a span; ``parent`` defaults to this thread's open span."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
            self._attrs[sid] = (parent, attrs)
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                del self._attrs[sid]
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def lookup(self, key):
        """Nearest open ancestor attribute ``key``, across threads."""
        sid = self.current()
        with self._lock:
            while sid is not None and sid in self._attrs:
                parent, attrs = self._attrs[sid]
                if key in attrs:
                    return attrs[key]
                sid = parent
        return None

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def to_dict(self):
        return {
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread}
                for s in sorted(self.spans, key=lambda s: s.start)
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - union_length(clipped)
    return out


# ---------------------------------------------------------------------------
# wrappers


def _plain(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _iter_segments(tracer, fn):
    def wrapper(*args, **kwargs):
        with tracer.span("sieve.iter_segments"):
            segs = fn(*args, **kwargs)
        tracer.count("sieve.sweeps")
        tracer.count("sieve.segments", len(segs))
        return segs

    return wrapper


def _kernel(tracer, name, fn):
    value = name in VALUE_KERNELS

    def wrapper(*args):
        with tracer.span(f"kernels.{name}"):
            out = fn(*args)
        tracer.count(f"kernels.{name}_calls")
        if name != "fixed_parts":
            lo, hi, primes = args[:3]
            if value:
                tracer.count("kernels.ints_factored", hi - lo)
            struck = int(np.searchsorted(primes, isqrt(hi - 1), side="right"))
            tracer.count("kernels.base_primes_struck", struck)
        return out

    return wrapper


def _progression_sum(tracer, fn):
    def wrapper(m, a, *args, **kwargs):
        with tracer.span("sums._progression_sum", m=m, a=a):
            return fn(m, a, *args, **kwargs)

    return wrapper


def _eligible_primes(tracer, fn):
    # the terms a segment job sums: every eligible prime for S_g, and the
    # primes in the class p = a (mod m) for a progression sum T_m
    def wrapper(seg, base, a):
        p, nskip = fn(seg, base, a)
        m = tracer.lookup("m")
        terms = p.size if m is None else int(np.count_nonzero((p - a) % m == 0))
        tracer.count("sums.terms", terms)
        return p, nskip

    return wrapper


def _primes_array(tracer, fn):
    def wrapper(*args, **kwargs):
        with tracer.span("sums._primes_array"):
            arr = fn(*args, **kwargs)
        tracer.count("sums.primes_array_bytes", arr.nbytes)
        return arr

    return wrapper


def _run_ordered(tracer, fn):
    # each segment job becomes a "pool.job" span whose parent is the
    # submitting thread's "pool.map" span, whichever worker thread runs it
    def wrapper(jobs, job, workers):
        with tracer.span("pool.map") as parent:
            def traced(j):
                with tracer.span("pool.job", parent=parent):
                    return job(j)

            return fn(jobs, traced, workers)

    return wrapper


def _targets():
    """(owner, attribute, wrapper factory) for each traced boundary; an
    owner is a module, or the kernel namespace the package dispatches to."""
    from titchmarsh import _kernels, constants, functions, sieve, sums

    out = []
    for mod, names in (
        (constants, ("titchmarsh_factor", "bk_product", "cf_series", "felix_cm")),
        (sieve, ("primes_up_to",)),
        (functions, ("value_range", "function_table", "pillai_range")),
        (sums, ("shifted_prime_sum", "felix_partial_sum", "decompose_s1_s2")),
    ):
        layer = mod.__name__.rsplit(".", 1)[1]
        for n in names:
            out.append((mod, n, lambda t, f, name=f"{layer}.{n}": _plain(t, name, f)))
    out.append((sieve, "iter_segments", _iter_segments))
    out.append((sums, "_progression_sum", _progression_sum))
    out.append((sums, "_eligible_primes", _eligible_primes))
    out.append((sums, "_primes_array", _primes_array))
    out.append((sums, "_run_ordered", _run_ordered))
    for k in KERNELS:
        out.append((_kernels.ACTIVE, k, lambda t, f, k=k: _kernel(t, k, f)))
    return out


@contextmanager
def installed(tracer):
    """Wrap every traced boundary for the duration of the block.

    A function imported by name into several modules is replaced in
    each of them, so calls are seen whichever module makes them.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "titchmarsh" or name.startswith("titchmarsh."))]
    saved = []
    try:
        for owner, attr, factory in _targets():
            original = getattr(owner, attr)
            wrapper = factory(tracer, original)
            if isinstance(owner, types.ModuleType):
                holders = [m for m in modules if getattr(m, attr, None) is original]
            else:
                holders = [owner]
            for h in holders:
                saved.append((h, attr, original))
                setattr(h, attr, wrapper)
        yield tracer
    finally:
        for h, attr, original in reversed(saved):
            setattr(h, attr, original)
