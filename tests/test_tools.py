"""The scripts under tools/ run against the package they measure."""

import importlib.util
import json
from pathlib import Path

from titchmarsh.sieve import primes_up_to

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_window_times_reads_the_windows_it_names(capsys):
    wt = _load("window_times")
    assert [wt._int(t) for t in ("123", "3e8", "2^39", "-2^39")] == [123, 3 * 10**8, 2**39, -(2**39)]
    # n = p - 1 over the primes p in [10**6, 10**6 + 2**12)
    wt.main(["--json", "--runs", "1", "--width", "2^12", "10^6:1", "2:-2^39"])
    table = json.loads(capsys.readouterr().out)
    primes = primes_up_to(10**6 + 2**12).primes
    assert table["1000000:1"]["eligible n"] == int((primes >= 10**6).sum())
    # the sweep reads p = 2 apart, in no window, so the window at 2 holds
    # the odd primes below 2 + 2**12
    assert table["2:-549755813888"]["eligible n"] == int((primes < 2 + 2**12).sum()) - 1
    for rows in table.values():
        assert all(v >= 0 for v in rows.values())
        assert rows["dense table"] > 0
        assert rows["dk2 views/int"] <= rows["dk2 pairs/int"]
    # T_2 is read only at the odd shift
    assert table["1000000:1"]["felix class"] > 0 and table["1000000:1"]["felix line"] > 0
    assert "felix class" not in table["2:-549755813888"]


def test_every_mutant_names_text_and_tests_that_exist():
    # the mutant gate itself is not run here; its entries must not rot
    mutants = _load("mutants")
    assert len(mutants.MUTANTS) >= 6
    for file, old, new, ids in mutants.MUTANTS:
        assert (mutants.ROOT / file).read_text().count(old) == 1, (file, old)
        assert old != new and ids
        for test in ids:
            path, name = test.split("::")
            assert f"def {name}(" in (mutants.ROOT / path).read_text(), test
