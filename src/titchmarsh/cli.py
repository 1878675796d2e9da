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
from dataclasses import asdict

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
from .functions import _TABLE, FunctionKind, _accepted
from .sieve import DEFAULT_SEGMENT_WIDTH
from .sums import decompose_s1_s2, felix_partial_sum, shifted_prime_sum

_SMALL_M = (1, 2, 3, 4, 5, 6)
_WIDTH_HELP = f"integers per segment, in [1, {DEFAULT_SEGMENT_WIDTH}]"


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
    s.add_argument("--fn", choices=_accepted("shifted_prime_sum"), required=True)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--a", type=int, default=1)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--checkpoints", type=int, nargs="+", default=None)
    s.add_argument("--segment-width", type=int, default=DEFAULT_SEGMENT_WIDTH, help=_WIDTH_HELP)
    s.add_argument("--workers", type=int, default=None)
    _add_common(s)

    f = sub.add_parser("felix", help="progression partial sum T_m(x)")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--a", type=int, default=1)
    f.add_argument("--x", type=int, required=True)
    f.add_argument("--segment-width", type=int, default=DEFAULT_SEGMENT_WIDTH, help=_WIDTH_HELP)
    f.add_argument("--workers", type=int, default=None)
    _add_common(f)

    d = sub.add_parser("decompose", help="S1/S2 split of the dk sum")
    d.add_argument("--k", type=int, default=2)
    d.add_argument("--a", type=int, default=1)
    d.add_argument("--x", type=int, required=True)
    d.add_argument("--B", type=float, default=2.0)
    d.add_argument("--segment-width", type=int, default=DEFAULT_SEGMENT_WIDTH, help=_WIDTH_HELP)
    d.add_argument("--workers", type=int, default=None)
    _add_common(d)

    v = sub.add_parser("verify", help="run the invariant checks")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    _add_common(v)
    return p


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


def _dict_rows(dicts):
    # table header and rows of records from their to_dict(), in key order
    return tuple(dicts[0]), [tuple(d.values()) for d in dicts]


def _run_sum(ns):
    kind = FunctionKind(ns.fn, ns.k if _TABLE[ns.fn].takes_k else None)
    records = shifted_prime_sum(
        kind, ns.a, ns.x, ns.checkpoints, segment_width=ns.segment_width, workers=ns.workers
    )
    dicts = [r.to_dict() for r in records]
    return (*_dict_rows(dicts), dicts)


def _run_constants(ns):
    dicts = []

    def add(name, res, k=None, m=None):
        dicts.append({"name": name, "k": k, "a": ns.a, "m": m, **asdict(res)})

    add("titchmarsh_factor", titchmarsh_factor(ns.a))
    for m in _SMALL_M:
        add("felix_cm", felix_cm(m, ns.a), m=m)
    add("bk_product", bk_product(ns.k, ns.a, ns.prime_limit), k=ns.k)
    add("cf_series_mu_k", cf_series(CfSpec.mu_k_rule(ns.k), ns.a, ns.series_limit), k=ns.k)
    add("cf_series_pillai", cf_series(CfSpec.pillai_rule(), ns.a, ns.series_limit))
    return (*_dict_rows(dicts), dicts)


def _run_felix(ns):
    rec = felix_partial_sum(ns.m, ns.a, ns.x, segment_width=ns.segment_width, workers=ns.workers)
    d = rec.to_dict()
    return (*_dict_rows([d]), d)


def _run_decompose(ns):
    rep = decompose_s1_s2(ns.k, ns.a, ns.x, ns.B, segment_width=ns.segment_width,
                          workers=ns.workers).to_dict()
    # one summary row, then a term row per S1 modulus (m = 1 is always
    # one), each blank in the other's columns
    summary = {k: v for k, v in rep.items() if k != "per_m"}
    rows = [{"row": "summary", **dict.fromkeys(rep["per_m"][0]), **summary}]
    rows += [{"row": "term", **t, **dict.fromkeys(summary)} for t in rep["per_m"]]
    return (*_dict_rows(rows), rep)


def _run_verify(ns):
    results = verify_mod.run(ns.level)
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
    try:  # refused before a run that may be long; "a" truncates nothing
        if ns.output:
            open(ns.output, "a").close()
    except OSError as exc:
        _emit(_error_text(ns.format, f"cannot write {ns.output}: {exc.strerror}"), None)
        return 2
    try:
        if ns.cmd == "verify":
            header, rows, json_obj, failed = _run_verify(ns)
            _emit(_render(ns.format, header, rows, json_obj), ns.output)
            return 3 if failed else 0
        handler = {
            "sum": _run_sum,
            "constants": _run_constants,
            "felix": _run_felix,
            "decompose": _run_decompose,
        }[ns.cmd]
        header, rows, json_obj = handler(ns)
    except ValueError as exc:
        _emit(_error_text(ns.format, str(exc)), ns.output)
        return 2
    _emit(_render(ns.format, header, rows, json_obj), ns.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
