"""Command-line front end.

Subcommands: constants, sum, felix, decompose, verify.  Output formats
csv (17-significant-digit reals), json (round-trips into the record
types), and table (human-readable).  Exit codes: 0 success, 1 usage
error, 2 domain error (message serialized in the chosen format),
3 verification failure.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import verify as verify_mod
from .constants import (
    DEFAULT_PRIME_LIMIT,
    DEFAULT_SERIES_LIMIT,
    MAX_PRODUCT_LIMIT,
    MAX_SERIES_LIMIT,
    CfSpec,
    bk_product,
    cf_series,
    felix_cm,
    titchmarsh_factor,
)
from .functions import DIVISOR, PILLAI, UNITARY_DIVISOR, k_free_divisor
from .sieve import DEFAULT_SEGMENT_WIDTH
from .sums import decompose_s1_s2, felix_partial_sum, shifted_prime_sum

_SMALL_M = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs for one CLI invocation."""

    cmd: str
    a: int = 1
    k: int = 2
    x: int = 0
    m: int = 1
    B: float = 2.0
    prime_limit: int = DEFAULT_PRIME_LIMIT
    series_limit: int = DEFAULT_SERIES_LIMIT
    checkpoints: tuple | None = None
    segment_width: int = DEFAULT_SEGMENT_WIDTH
    workers: int | None = None
    fn: str = "d"
    level: str = "fast"
    fmt: str = "table"
    output: str | None = None


class _Parser(argparse.ArgumentParser):
    # spec'd exit-code contract: usage errors are 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")
    p.add_argument("--output", metavar="PATH", default=None, help="write here instead of stdout")


def build_parser():
    p = _Parser(prog="titchmarsh", description="Shifted-prime divisor sums and their constants.")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("constants", help="emit the constants with tail bounds")
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--a", type=int, default=1)
    c.add_argument("--prime-limit", type=int, default=DEFAULT_PRIME_LIMIT,
                   help=f"Euler product cut, in [100, {MAX_PRODUCT_LIMIT}]")
    c.add_argument("--series-limit", type=int, default=DEFAULT_SERIES_LIMIT,
                   help=f"sieved series cut, in [10, {MAX_SERIES_LIMIT}]")
    _add_common(c)

    s = sub.add_parser("sum", help="checkpointed shifted-prime sums")
    s.add_argument("--fn", choices=("d", "dk", "unitary", "pillai"), required=True)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--a", type=int, default=1)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--checkpoints", type=int, nargs="+", default=None)
    s.add_argument("--segment-width", type=int, default=DEFAULT_SEGMENT_WIDTH)
    s.add_argument("--workers", type=int, default=None)
    _add_common(s)

    f = sub.add_parser("felix", help="progression partial sum T_m(x)")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--a", type=int, default=1)
    f.add_argument("--x", type=int, required=True)
    f.add_argument("--segment-width", type=int, default=DEFAULT_SEGMENT_WIDTH)
    f.add_argument("--workers", type=int, default=None)
    _add_common(f)

    d = sub.add_parser("decompose", help="S1/S2 split of the dk sum")
    d.add_argument("--k", type=int, default=2)
    d.add_argument("--a", type=int, default=1)
    d.add_argument("--x", type=int, required=True)
    d.add_argument("--B", type=float, default=2.0)
    d.add_argument("--segment-width", type=int, default=DEFAULT_SEGMENT_WIDTH)
    d.add_argument("--workers", type=int, default=None)
    _add_common(d)

    v = sub.add_parser("verify", help="run the invariant checks")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    _add_common(v)
    return p


def _config(ns):
    kw = {"cmd": ns.cmd, "fmt": ns.format, "output": ns.output}
    for field in ("a", "k", "x", "m", "B", "fn", "level", "workers"):
        if hasattr(ns, field):
            kw[field] = getattr(ns, field)
    if hasattr(ns, "prime_limit"):
        kw["prime_limit"] = ns.prime_limit
    if hasattr(ns, "series_limit"):
        kw["series_limit"] = ns.series_limit
    if hasattr(ns, "segment_width"):
        kw["segment_width"] = ns.segment_width
    if getattr(ns, "checkpoints", None) is not None:
        kw["checkpoints"] = tuple(ns.checkpoints)
    return RunConfig(**kw)


def _real(v):
    return format(float(v), ".17g")


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return _real(v)
    return str(v)


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _table_text(header, rows):
    cells = [[_cell(v) if not isinstance(v, float) else f"{v:.10g}" for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render(fmt, header, rows, json_obj):
    if fmt == "csv":
        return _csv_text(header, rows)
    if fmt == "json":
        return json.dumps(json_obj, indent=2) + "\n"
    return _table_text(header, rows)


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sum_kind(cfg):
    if cfg.fn == "d":
        return DIVISOR
    if cfg.fn == "dk":
        return k_free_divisor(cfg.k)
    if cfg.fn == "unitary":
        return UNITARY_DIVISOR
    return PILLAI


_SUM_HEADER = ("x", "a", "fn", "k", "sum", "main_term", "normalized_error", "skipped_primes")


def _run_sum(cfg):
    records = shifted_prime_sum(
        _sum_kind(cfg),
        cfg.a,
        cfg.x,
        list(cfg.checkpoints) if cfg.checkpoints else None,
        segment_width=cfg.segment_width,
        workers=cfg.workers,
        prime_limit=cfg.prime_limit,
        series_limit=cfg.series_limit,
    )
    rows = [
        (r.x, r.a, r.kind.tag, r.kind.k, r.sum, r.main_term, r.normalized_error, r.skipped_primes)
        for r in records
    ]
    return _SUM_HEADER, rows, [r.to_dict() for r in records]


_CONST_HEADER = ("name", "k", "a", "m", "value", "truncation", "tail_bound", "rounding_bound")


def _run_constants(cfg):
    rows = []

    def add(name, res, k=None, m=None):
        rows.append((name, k, cfg.a, m, res.value, res.truncation, res.tail_bound, res.rounding_bound))

    add("titchmarsh_factor", titchmarsh_factor(cfg.a))
    for m in _SMALL_M:
        add("felix_cm", felix_cm(m, cfg.a), m=m)
    add("bk_product", bk_product(cfg.k, cfg.a, cfg.prime_limit), k=cfg.k)
    add("cf_series_mu_k", cf_series(CfSpec.mu_k_rule(cfg.k), cfg.a, cfg.series_limit), k=cfg.k)
    add("cf_series_pillai", cf_series(CfSpec.pillai_rule(), cfg.a, cfg.series_limit))
    json_obj = [
        {
            "name": n,
            "k": k,
            "a": a,
            "m": m,
            "value": v,
            "truncation": t,
            "tail_bound": tb,
            "rounding_bound": rb,
        }
        for n, k, a, m, v, t, tb, rb in rows
    ]
    return _CONST_HEADER, rows, json_obj


_FELIX_HEADER = ("m", "a", "x", "t_sum", "predicted")


def _run_felix(cfg):
    rec = felix_partial_sum(
        cfg.m, cfg.a, cfg.x, segment_width=cfg.segment_width, workers=cfg.workers
    )
    return _FELIX_HEADER, [(rec.m, rec.a, rec.x, rec.t_sum, rec.predicted)], rec.to_dict()


_DECOMP_HEADER = ("row", "m", "mu", "t_m", "k", "a", "x", "B", "threshold", "s1", "s2", "total")


def _run_decompose(cfg):
    rep = decompose_s1_s2(
        cfg.k,
        cfg.a,
        cfg.x,
        cfg.B,
        segment_width=cfg.segment_width,
        workers=cfg.workers,
    )
    rows = [
        (
            "summary",
            None,
            None,
            None,
            rep.k,
            rep.a,
            rep.x,
            rep.B,
            rep.threshold,
            rep.s1,
            rep.s2,
            rep.total,
        )
    ]
    for m, mu, t_m in rep.per_m:
        rows.append(("term", m, mu, t_m, None, None, None, None, None, None, None, None))
    return _DECOMP_HEADER, rows, rep.to_dict()


def _run_verify(cfg):
    results = verify_mod.run(cfg.level)
    header = ("check", "status", "seconds", "detail")
    rows = [(r.name, "PASS" if r.ok else "FAIL", f"{r.seconds:.2f}", r.detail) for r in results]
    json_obj = [
        {"check": r.name, "ok": r.ok, "seconds": r.seconds, "detail": r.detail} for r in results
    ]
    failed = any(not r.ok for r in results)
    return header, rows, json_obj, failed


def _error_text(fmt, message):
    if fmt == "json":
        return json.dumps({"error": message}) + "\n"
    if fmt == "csv":
        return _csv_text(("error",), [(message,)])
    return f"error: {message}\n"


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits; keep main returning codes
        return int(exc.code or 0)
    cfg = _config(ns)
    try:
        if cfg.cmd == "verify":
            header, rows, json_obj, failed = _run_verify(cfg)
            _emit(_render(cfg.fmt, header, rows, json_obj), cfg.output)
            return 3 if failed else 0
        handler = {
            "sum": _run_sum,
            "constants": _run_constants,
            "felix": _run_felix,
            "decompose": _run_decompose,
        }[cfg.cmd]
        header, rows, json_obj = handler(cfg)
    except ValueError as exc:
        _emit(_error_text(cfg.fmt, str(exc)), cfg.output)
        return 2
    _emit(_render(cfg.fmt, header, rows, json_obj), cfg.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
