"""CLI contract: subcommands, formats, exit codes, file output."""

import csv
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import titchmarsh
from titchmarsh import cli
from titchmarsh.sums import FelixRecord, SumRecord
from titchmarsh.verify import CheckResult


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sum_csv_hand_anchor(capsys):
    code, out = _run(capsys, ["sum", "--fn", "d", "--a", "1", "--x", "20",
                              "--checkpoints", "20", "--format", "csv"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["x"] == "20"
    assert row["sum"] == "31"
    assert row["fn"] == "d"
    assert row["k"] == ""
    # reals carry 17 significant digits
    assert row["main_term"] == "38.871928736415185"


def test_sum_json_round_trips(capsys):
    code, out = _run(capsys, ["sum", "--fn", "dk", "--k", "3", "--a", "1",
                              "--x", "20", "--checkpoints", "20",
                              "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    recs = [SumRecord.from_dict(d) for d in payload]
    assert recs[0].sum == 29
    assert recs[0].kind.label == "dk3"


def test_sum_default_checkpoints(capsys):
    code, out = _run(capsys, ["sum", "--fn", "d", "--a", "1", "--x", "10000",
                              "--format", "csv"])
    assert code == 0
    assert [r["x"] for r in _rows(out)] == ["1000", "10000"]


def test_felix_json(capsys):
    code, out = _run(capsys, ["felix", "--m", "2", "--a", "1", "--x", "20",
                              "--format", "json"])
    assert code == 0
    rec = FelixRecord.from_dict(json.loads(out))
    assert rec.t_sum == 18
    assert rec.m == 2


def test_constants_table_lists_bk_tail(capsys):
    code, out = _run(capsys, ["constants", "--k", "2", "--a", "1",
                              "--prime-limit", "100"])
    assert code == 0
    assert "bk_product" in out
    line = next(l for l in out.splitlines() if "bk_product" in l)
    tail = float(line.split()[-2])
    assert tail >= 2 / 100  # declared truncation envelope at P = 100


def test_constants_csv_names(capsys):
    code, out = _run(capsys, ["constants", "--k", "2", "--a", "1",
                              "--prime-limit", "1000", "--series-limit", "100",
                              "--format", "csv"])
    assert code == 0
    names = {r["name"] for r in _rows(out)}
    assert {"titchmarsh_factor", "felix_cm", "bk_product",
            "cf_series_mu_k", "cf_series_pillai"} <= names


def test_decompose_csv_partition(capsys):
    code, out = _run(capsys, ["decompose", "--k", "2", "--a", "1",
                              "--x", "100000", "--format", "csv"])
    assert code == 0
    rows = _rows(out)
    summary = rows[0]
    assert summary["row"] == "summary"
    assert int(summary["s1"]) + int(summary["s2"]) == int(summary["total"])
    terms = [r for r in rows if r["row"] == "term"]
    assert {int(r["m"]) for r in terms} == {1, 4, 9, 25, 36, 49, 100, 121}


def test_decompose_json(capsys):
    code, out = _run(capsys, ["decompose", "--k", "2", "--a", "1",
                              "--x", "10000", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["s1"] + rep["s2"] == rep["total"]
    assert rep["per_m"][0]["m"] == 1


def test_output_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _ = _run(capsys, ["sum", "--fn", "d", "--a", "1", "--x", "20",
                            "--checkpoints", "20", "--format", "csv",
                            "--output", str(path)])
    assert code == 0
    assert _rows(path.read_text())[0]["sum"] == "31"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", ["missing/out.csv", "."])
def test_unwritable_output_exits_2_before_the_run(tmp_path, capsys, monkeypatch, fmt, where):
    # a missing directory and a directory itself; the sum never starts
    path = str(tmp_path / where)
    monkeypatch.setattr(cli, "shifted_prime_sum", lambda *a, **k: pytest.fail("the sum ran"))
    code, out = _run(capsys, ["sum", "--fn", "d", "--x", "1000", "--format", fmt, "--output", path])
    assert code == 2
    message = json.loads(out)["error"] if fmt == "json" else _rows(out)[0]["error"]
    assert message.startswith(f"cannot write {path}: ")


def test_usage_error_exit_1(capsys):
    assert cli.main(["sum", "--fn", "bogus", "--a", "1", "--x", "20"]) == 1
    capsys.readouterr()
    assert cli.main(["sum", "--fn", "d", "--a", "1"]) == 1  # missing --x
    capsys.readouterr()
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()


def test_domain_error_exit_2_serialized(capsys):
    code, out = _run(capsys, ["sum", "--fn", "d", "--a", "0", "--x", "20",
                              "--format", "json"])
    assert code == 2
    assert "nonzero" in json.loads(out)["error"]


def test_domain_error_csv_format(capsys):
    code, out = _run(capsys, ["felix", "--m", "4", "--a", "2", "--x", "100",
                              "--format", "csv"])
    assert code == 2
    assert _rows(out)[0]["error"]


def test_verify_failure_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.verify_mod, "run",
                        lambda level: (CheckResult("forced", False, "broken"),))
    code, out = _run(capsys, ["verify", "--level", "fast"])
    assert code == 3
    assert "FAIL" in out


def test_verify_pass_exit_0(capsys, monkeypatch):
    monkeypatch.setattr(cli.verify_mod, "run",
                        lambda level: (CheckResult("forced", True, "fine"),))
    code, out = _run(capsys, ["verify", "--level", "fast"])
    assert code == 0
    assert "PASS" in out


def test_verify_level_is_validated(capsys):
    assert cli.main(["verify", "--level", "extreme"]) == 1
    capsys.readouterr()


def test_table_format_alignment(capsys):
    code, out = _run(capsys, ["felix", "--m", "2", "--a", "1", "--x", "20"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["m", "a", "x", "t_sum", "predicted"]
    assert "18" in lines[1]


def test_workers_and_width_flags(capsys):
    code, out = _run(capsys, ["sum", "--fn", "pillai", "--a", "1",
                              "--x", "10000", "--checkpoints", "10000",
                              "--segment-width", str(1 << 14), "--workers", "2",
                              "--format", "csv"])
    assert code == 0
    baseline, out2 = _run(capsys, ["sum", "--fn", "pillai", "--a", "1",
                                   "--x", "10000", "--checkpoints", "10000",
                                   "--format", "csv"])
    assert baseline == 0
    assert _rows(out)[0]["sum"] == _rows(out2)[0]["sum"]


# Runs each argv through cli.main in a child and prints [[code, out], ...],
# so an input that hangs or grows without bound fails the test instead of
# stalling the suite.
_CHILD = """
import contextlib, io, json, sys
from titchmarsh import cli
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    results.append([code, buf.getvalue()])
print(json.dumps(results))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_bounded(argvs, timeout=60):
    src = str(Path(titchmarsh.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=_limit_address_space, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_WIDTH_CASES = [
    ["sum", "--fn", "d", "--x", "1000"],
    ["felix", "--m", "2", "--x", "1000"],
    ["decompose", "--x", "1000"],
]


@pytest.mark.parametrize("argv", _WIDTH_CASES, ids=lambda a: a[0])
def test_zero_segment_width_is_a_domain_error(capsys, argv):
    code, out = _run(capsys, argv + ["--segment-width", "0", "--format", "json"])
    assert code == 2
    assert "segment width" in json.loads(out)["error"]


def test_negative_segment_width_is_a_domain_error():
    argvs = [a + ["--segment-width", "-1", "--format", "json"] for a in _WIDTH_CASES]
    for code, out in _run_bounded(argvs):
        assert code == 2
        assert "segment width" in json.loads(out)["error"]


def test_segment_width_above_the_cap_is_a_domain_error():
    # one window of width 10**10 would need a 9.3 GiB bitmap
    huge = ["--segment-width", "10000000000", "--format", "json"]
    argvs = [a + huge for a in _WIDTH_CASES]
    argvs.append(["felix", "--m", "3", "--x", "10000000000"] + huge)
    argvs.append(["sum", "--fn", "d", "--x", "10000000000"] + huge)
    for code, out in _run_bounded(argvs):
        assert code == 2
        assert "segment width" in json.loads(out)["error"]


def test_large_k_is_a_domain_error():
    # at the default cuts (10**7)**49 in the tail envelope overflows a double
    argvs = [
        ["constants", "--k", "50", "--format", "json"],
        ["sum", "--fn", "dk", "--k", "50", "--x", "1000", "--format", "json"],
    ]
    for code, out in _run_bounded(argvs, timeout=30):
        assert code == 2
        assert "k = 50" in json.loads(out)["error"]


_GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("argv", sorted(_GOLDEN))
def test_output_matches_golden_text(capsys, argv):
    # full texts recorded before the rows were built from to_dict()
    code, out = _run(capsys, argv.split())
    assert code == 0
    assert out == _GOLDEN[argv]


def test_shift_beyond_max_range_is_rejected_at_once():
    huge = "1000000000000000003"
    argvs = [
        ["sum", "--fn", "d", "--x", "1000", "--a", huge, "--format", "json"],
        ["felix", "--m", "2", "--x", "1000", "--a", huge, "--format", "json"],
        ["decompose", "--x", "1000", "--a", huge, "--format", "json"],
    ]
    for code, out in _run_bounded(argvs, timeout=30):
        assert code == 2
        assert "|a|" in json.loads(out)["error"]


def test_modulus_beyond_max_range_is_rejected_at_once():
    argv = ["felix", "--m", "1000000000000000003", "--x", "1000", "--format", "json"]
    [(code, out)] = _run_bounded([argv], timeout=30)
    assert code == 2
    assert "modulus" in json.loads(out)["error"]


@pytest.mark.parametrize("argv", [
    ["felix", "--m", "1001", "--x", "1000"],  # m > x - a: no r >= 1
    ["felix", "--m", "10", "--a", "-9", "--x", "3"],  # r = 1 is p = 1
])
def test_empty_class_is_answered_with_zero(capsys, argv):
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out)["t_sum"] == 0


def test_narrow_width_the_class_fits_is_answered(capsys):
    # [2, 10**8] spans more than 2**20 widths of 64; the class p = 1
    # (mod 1000), 10**5 values of r, does not
    argv = ["felix", "--m", "1000", "--x", "100000000", "--format", "json"]
    code, out = _run(capsys, argv + ["--segment-width", "64"])
    assert code == 0
    assert out == _run(capsys, argv)[1]
    code, out = _run(capsys, ["sum", "--fn", "d", "--x", "100000000", "--segment-width", "64",
                              "--format", "json"])
    assert code == 2
    assert "too narrow" in json.loads(out)["error"]


def test_too_many_segments_is_a_domain_error():
    argv = ["sum", "--fn", "d", "--x", "100000000", "--segment-width", "1", "--format", "json"]
    [(code, out)] = _run_bounded([argv], timeout=30)
    assert code == 2
    assert "segment" in json.loads(out)["error"]


def test_series_limit_beyond_bound_is_a_domain_error():
    argv = ["constants", "--series-limit", "10000000", "--format", "json"]
    [(code, out)] = _run_bounded([argv], timeout=30)
    assert code == 2
    assert "series limit" in json.loads(out)["error"]


def test_prime_limit_beyond_bound_is_a_domain_error():
    argv = ["constants", "--prime-limit", "4294967296", "--format", "json"]
    [(code, out)] = _run_bounded([argv], timeout=30)
    assert code == 2
    assert "prime_limit" in json.loads(out)["error"]


def test_decompose_far_shift_stays_bounded():
    # S2 once tabulated d up to (x - a) / j1**k: 152 GiB at this shift
    argv = ["decompose", "--x", "1000", "--a", "-1000000000000", "--format", "json"]
    [(code, out)] = _run_bounded([argv], timeout=60)
    assert code in (0, 2)
    rep = json.loads(out)
    if code == 0:
        assert rep["s1"] + rep["s2"] == rep["total"]
    else:
        assert rep["error"]


def test_decompose_any_k_is_answered():
    # k = 10**12 once built (r + 1)**k in integer_kth_root: a MemoryError
    argv = ["decompose", "--x", "1000", "--k", "1000000000000", "--format", "json"]
    [(code, out)] = _run_bounded([argv], timeout=30)
    assert code == 0
    rep = json.loads(out)
    assert rep["s1"] + rep["s2"] == rep["total"]


def test_decompose_k_from_2_63_is_a_domain_error():
    # j**k over the int64 moduli overflowed with a traceback from 2**63 on
    argvs = [["decompose", "--x", "1000", "--k", str(k), "--format", "json"]
             for k in (2**63, 10**20, 2**63 - 1)]
    (c1, o1), (c2, o2), (c3, o3) = _run_bounded(argvs, timeout=30)
    assert c1 == c2 == 2
    assert "k = 9223372036854775808" in json.loads(o1)["error"]
    assert "k = 100000000000000000000" in json.loads(o2)["error"]
    assert c3 == 0
    rep = json.loads(o3)
    assert rep["s1"] + rep["s2"] == rep["total"]


def test_decompose_with_no_n_answers_zero():
    # a >= x leaves no n = p - a >= 1; the S1 moduli still start at m = 1
    argvs = [["decompose", "--x", "100", "--a", a, "--format", fmt]
             for a in ("100", "1000") for fmt in ("csv", "json", "table")]
    header = {fmt: _GOLDEN[f"decompose --x 1000 --format {fmt}"].split("\n")[0].split()
              for fmt in ("csv", "table")}
    for argv, (code, out) in zip(argvs, _run_bounded(argvs, timeout=30)):
        assert code == 0, (argv, out)
        fmt = argv[-1]
        if fmt == "json":
            rep = json.loads(out)
            assert rep["s1"] == rep["s2"] == rep["total"] == 0
            assert rep["per_m"] == [{"m": 1, "mu": 1, "t_m": 0}]
            continue
        lines = out.split("\n")
        assert lines[0].split() == header[fmt]
        if fmt == "csv":
            summary, term = _rows(out)
            assert summary["s1"] == summary["s2"] == summary["total"] == "0"
            assert (term["m"], term["t_m"]) == ("1", "0")


# Each flag is drawn from typical values or, one time in four, from the
# edges of its domain: the bounds and one past them, zero, negatives,
# 2**63 and a long digit string.  Valid sizes stay at most 10**5 and
# valid widths keep a sweep to at most 10 windows, so every accepted
# input answers in a moment.  ``verify``, whose one flag is a choice, is
# left out.
_BIG = [str(2**63), "9" * 200]
_EDGE = ["-1", "0", "1", "2", "3", *_BIG]
_FLAGS = {  # flag: (typical, edges)
    "--x": (["100", "1000", "100000"], _EDGE + ["99", str(2**40 + 1)]),
    "--a": (["1", "-2", "2", "100", "1000"],
            _EDGE + ["100000", str(-(2**40)), str(2**40), str(2**40 + 1), "-" + "9" * 200]),
    "--k": (["2", "3"], _EDGE + ["49", "50", str(2**63 - 1)]),
    "--m": (["2", "3", "5"], _EDGE + ["6", str(2**40), str(2**40 + 1)]),
    "--B": (["1", "2", "10"], ["-1", "0", "0.5", "10.5", "nan", "inf", "1e400"]),
    "--prime-limit": (["100", "1000", "100000"], _EDGE + ["10", "99", str(10**8 + 1)]),
    "--series-limit": (["10", "100", "1000"], _EDGE + ["9", str(10**6 + 1)]),
    "--segment-width": (["64", "4096", str(1 << 20)], _EDGE + [str((1 << 20) + 1)]),
    "--workers": (["1", "2", "4"], ["-1", "0", "3", "257"]),
}
_OPTIONAL = {
    "constants": ["--k", "--a"],
    "sum": ["--k", "--a", "--segment-width", "--workers"],
    "felix": ["--a", "--segment-width", "--workers"],
    "decompose": ["--k", "--a", "--B", "--segment-width", "--workers"],
}


def _value(draw, flag, keep=lambda v: True):
    typical, edges = ([v for v in pool if keep(v)] for pool in _FLAGS[flag])
    return draw(st.sampled_from(edges if draw(st.integers(0, 3)) == 0 or not typical else typical))


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(sorted(_OPTIONAL)))
    argv = [cmd]
    if cmd == "sum":
        argv += ["--fn", draw(st.sampled_from(["d", "dk", "unitary", "pillai"]))]
    if cmd == "felix":
        argv += ["--m", _value(draw, "--m")]
    for flag in draw(st.lists(st.sampled_from(_OPTIONAL[cmd]), unique=True)):
        argv += [flag, _value(draw, flag)]
    if cmd == "constants":
        # the default cuts are 10**7 primes and 10**4 series terms
        argv += ["--prime-limit", _value(draw, "--prime-limit")]
        argv += ["--series-limit", _value(draw, "--series-limit")]
    else:
        width = int(argv[argv.index("--segment-width") + 1]) if "--segment-width" in argv else 1 << 20
        refused = not 0 < width <= 1 << 20
        argv += ["--x", _value(draw, "--x", lambda x: refused or abs(int(x)) <= 10 * width)]
        if cmd == "sum" and draw(st.booleans()):
            cuts = draw(st.lists(st.sampled_from(["3", "100", "1000"] + _EDGE), min_size=1, max_size=3))
            argv += ["--checkpoints", *cuts]
    return argv + ["--format", draw(st.sampled_from(["csv", "json", "table"]))]


def _error_message(fmt, out):
    if fmt == "json":
        return json.loads(out)["error"]
    if fmt == "csv":
        [row] = _rows(out)
        return row["error"]
    assert out.startswith("error: ") and out.endswith("\n")
    return out[len("error: "):]


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs=st.lists(_argvs(), min_size=2, max_size=8))
@example(argvs=[["decompose", "--x", "100", "--a", "100", "--format", "table"]])
def test_generated_argv_is_answered_or_refused(argvs):
    # every argv answers (exit 0) or is refused with a serialized message
    # (exit 2), in a child bounded to 1 GiB, with no traceback or hang
    for argv, (code, out) in zip(argvs, _run_bounded(argvs, timeout=60)):
        assert code in (0, 2), (argv, code, out)
        if code == 2:
            assert _error_message(argv[-1], out).strip(), argv


def test_workers_above_the_ceiling_are_a_domain_error(capsys, monkeypatch):
    # refused before the sweep starts a pool, from the flag or the
    # environment alike
    over = ["--workers", str(titchmarsh.sums._MAX_WORKERS + 1)]
    for argv in (["sum", "--fn", "d", "--x", "1000"] + over,
                 ["felix", "--m", "2", "--x", "1000"] + over,
                 ["decompose", "--x", "1000"] + over):
        code, out = _run(capsys, argv + ["--format", "json"])
        assert code == 2
        assert "workers" in json.loads(out)["error"]
    monkeypatch.setenv("TITCHMARSH_WORKERS", over[1])
    code, out = _run(capsys, ["sum", "--fn", "d", "--x", "1000", "--format", "json"])
    assert code == 2
    assert "workers" in json.loads(out)["error"]


@pytest.mark.parametrize("env", ["abc", "0", "-5", "1.5"])
def test_workers_from_the_environment_follow_the_flag_rule(capsys, monkeypatch, env):
    # TITCHMARSH_WORKERS is refused where --workers would be, by name
    monkeypatch.setenv("TITCHMARSH_WORKERS", env)
    code, out = _run(capsys, ["sum", "--fn", "d", "--x", "1000", "--format", "json"])
    assert code == 2
    assert f"TITCHMARSH_WORKERS={env!r}" in json.loads(out)["error"]
    monkeypatch.setenv("TITCHMARSH_WORKERS", " 2 ")
    code, out = _run(capsys, ["sum", "--fn", "d", "--x", "1000", "--format", "json"])
    assert code == 0


def test_verify_reports_seconds_per_check(capsys, monkeypatch):
    monkeypatch.setattr(cli.verify_mod, "run",
                        lambda level: (CheckResult("forced", True, "fine", 1.25),))
    code, out = _run(capsys, ["verify", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [{"check": "forced", "ok": True, "seconds": 1.25, "detail": "fine"}]
    code, out = _run(capsys, ["verify"])
    assert out.splitlines()[0].split() == ["check", "status", "seconds", "detail"]
    assert "1.25" in out.splitlines()[1]


def test_verify_run_times_each_check(monkeypatch):
    from titchmarsh import verify

    monkeypatch.setattr(verify, "_FAST_CHECKS", (("nap", lambda: (time.sleep(0.05), (True, "ok"))[1], 5.0),))
    [result] = verify.run("fast")
    assert result.ok and 0.05 <= result.seconds < 5


def test_verify_fails_a_passing_check_over_its_budget():
    from titchmarsh import verify

    r = verify._run_check("nap", lambda: (time.sleep(0.05), (True, "ok"))[1], 0.01)
    assert not r.ok and r.seconds >= 0.05
    # one clock: the time it took and its budget, then the check's own detail
    assert r.detail == f"took {r.seconds:.1f} s, budget 0.01 s: ok"
    assert verify._run_check("quick", lambda: (True, "ok"), 5.0).ok


def test_verify_reports_a_failing_or_raising_check_as_it_is():
    from titchmarsh import verify

    # over budget too, but the check's own verdict is what is reported
    r = verify._run_check("bad", lambda: (time.sleep(0.02), (False, "1 != 2"))[1], 0.01)
    assert (r.ok, r.detail) == (False, "1 != 2") and r.seconds >= 0.02
    r = verify._run_check("boom", lambda: 1 // 0, 5.0)
    assert (r.ok, r.detail) == (False, "raised ZeroDivisionError: integer division or modulo by zero")
