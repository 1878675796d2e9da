"""CLI contract: subcommands, formats, exit codes, file output."""

import csv
import io
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_too_many_segments_is_a_domain_error():
    argv = ["sum", "--fn", "d", "--x", "100000000", "--segment-width", "1", "--format", "json"]
    [(code, out)] = _run_bounded([argv], timeout=30)
    assert code == 2
    assert "segment" in json.loads(out)["error"]
