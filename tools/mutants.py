"""Mutant gate: each entry puts a known bug back, and the tests it names
must catch it.

Usage:
  python3 tools/mutants.py

An entry is (file, old text, new text, test ids): the file is a path
from the repository root, and the old text occurs in it exactly once.
First the named tests of every entry run once on an unchanged copy of
src/ and tests/, and must pass.  Then, for each entry alone, a fresh
copy under a temporary directory gets the old text replaced by the new
one, and only the entry's tests run on it, under a timeout of TIMEOUT
seconds.  A failing test or a timeout kills the mutant; a mutant
whose tests pass survives.  One line is printed per mutant, and the
exit status is 1 if any mutant survives or the unchanged copy fails.

A survivor is a gap in the tests, to be reported and closed by a test;
the entry itself stays as it is.  A change that adds a route or fixes a
bug adds its mutants here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 120  # seconds for one mutant's tests

MUTANTS = [
    # bk_product for k >= 3 as a running float product of the 1 - u_p,
    # off by 1.3e-14 of b_3 at 10**5 primes
    ("src/titchmarsh/constants.py",
     "    value = t.value * math.exp(logs)\n",
     "    value = t.value * math.exp(logs)\n"
     "    if k != 2:\n"
     "        pf = primes_up_to(prime_limit).primes.astype(np.float64)\n"
     "        with np.errstate(over=\"ignore\"):\n"
     "            u = 1.0 / (np.power(pf, k - 2) * (pf * pf - pf + 1.0))\n"
     "        value = t.value * float(np.prod(1.0 - u))\n",
     ["tests/test_constants.py::test_bk_product_is_the_exact_log_sum"]),
    # the fixed-point Pillai parts in 23-bit shifts, which overflow int64
    # once den = rad(n) reaches 2**40
    ("src/titchmarsh/_kernels.py",
     "    for shift, weight in ((22, 42), (22, 20), (20, 0)):\n",
     "    for shift, weight in ((23, 41), (23, 18), (18, 0)):\n",
     ["tests/test_kernels.py::test_fixed_parts_are_exact_for_den_up_to_2_41"]),
    # _divide keeps the positions with q = 0, where q % p == 0 never ends
    ("src/titchmarsh/_kernels.py",
     "    hit = hit[q[hit] > 0]  # a positive q shrinks each pass, so the loop ends\n",
     "",
     ["tests/test_kernels.py::test_divide_returns_where_its_prime_does_not_divide"]),
    # p = 2 never read, though it lies in the class
    ("src/titchmarsh/sums.py",
     "    two = least <= 2 <= x and (2 - a) % m == 0\n",
     "    two = False\n",
     ["tests/test_sums.py::test_p_2_is_read_once_beside_the_odd_class"]),
    # TITCHMARSH_WORKERS=0 (or --workers 0) accepted
    ("src/titchmarsh/sums.py",
     "    if w < 1:\n",
     "    if w < 0:\n",
     ["tests/test_cli.py::test_workers_from_the_environment_follow_the_flag_rule"]),
    # decompose takes k >= 2**63, beyond its int64 moduli
    ("src/titchmarsh/sums.py",
     "    if k >= 1 << 63:\n",
     "    if False:\n",
     ["tests/test_cli.py::test_decompose_k_from_2_63_is_a_domain_error"]),
    # the sweep leaves the flags of p <= a set, so a window that straddles
    # p = a hands its parts bits of n <= 0
    ("src/titchmarsh/sums.py",
     "    low[:] = False\n",
     "",
     ["tests/test_sums.py::test_the_sweep_hands_each_part_the_bitmap_of_its_n",
      "tests/test_sums.py::test_a_factored_window_that_straddles_p_a_equals_its_oracle"]),
    # the grid's parity fixed at 0, wrong for the odd n of an even a
    ("src/titchmarsh/sums.py",
     "    pi = -k % g\n",
     "    pi = 0\n",
     ["tests/test_sums.py::test_the_sweep_hands_each_part_the_bitmap_of_its_n",
      "tests/test_sums.py::test_a_factored_window_that_straddles_p_a_equals_its_oracle"]),
    # mu_k's local factor -1 at every multiple of k, so mu_k(p**(2k)) = -1
    ("src/titchmarsh/_kernels.py",
     "(e != k) - 1",
     "(e % k != 0) - 1",
     ["tests/test_functions.py::test_mu_k_agrees_with_evaluate",
      "tests/test_table.py::test_evaluate_equals_the_kernel_of_every_row"]),
    # mu's local factor -1 also at p**2, so mu(12) = 1
    ("src/titchmarsh/_kernels.py",
     "(e > 1) - 1",
     "(e > 2) - 1",
     ["tests/test_functions.py::test_evaluate_examples",
      "tests/test_functions.py::test_mu_k_examples"]),
    # the unitary row reads the dk rule at k = 3
    ("src/titchmarsh/functions.py",
     '"unitary": _Row("kfree", False, 2,',
     '"unitary": _Row("kfree", False, 3,',
     ["tests/test_functions.py::test_evaluate_examples",
      "tests/test_table.py::test_every_kernel_row_goes_through_its_active_name"]),
    # the dk rule hands numpy the whole k - 1, which overflows from k = 2**63 + 1 on
    ("src/titchmarsh/_kernels.py",
     "np.minimum(e, min(k, 1 << 63) - 1)",
     "np.minimum(e, k - 1)",
     ["tests/test_functions.py::test_value_range_matches_evaluate",
      "tests/test_functions.py::test_function_table_of_a_k_past_int64_is_the_divisor_table"]),
    # integer Newton started at 2**floor(bits / k), below the root of
    # most n, where its first step rises and it stops at once
    ("src/titchmarsh/functions.py",
     "    r = 1 << -(-bits // k)\n",
     "    r = 1 << bits // k\n",
     ["tests/test_functions.py::test_integer_kth_root_near_perfect_powers",
      "tests/test_functions.py::test_integer_kth_root_is_exact_past_double_precision"]),
    # the value kernels' old order, grid before k: the sweep's bitmap is
    # read as a k and dk's k as a grid
    ("src/titchmarsh/_kernels.py",
     "def _fold(rule, lo, hi, primes, k=None, grid=None):",
     "def _fold(rule, lo, hi, primes, grid=None, k=None):",
     ["tests/test_sums.py::test_sums_factor_only_the_eligible_n",
      "tests/test_table.py::test_evaluate_equals_the_kernel_of_every_row"]),
]


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(tree, tests, timeout):
    """'pass', 'fail' or 'timeout' for the tests run on the copy ``tree``;
    an error of pytest itself (no such test, say) raises."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return "pass" if proc.returncode == 0 else "fail"


def _mutate(tree, file, old, new):
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise RuntimeError(f"{file}: the old text occurs {text.count(old)} times, not once:\n{old}")
    path.write_text(text.replace(old, new))


def main():
    t0 = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = sorted({t for *_, ids in MUTANTS for t in ids})
        if _pytest(base, tests, TIMEOUT * len(MUTANTS)) != "pass":
            print("the named tests do not pass on the unchanged copy")
            return 1
        for i, (file, old, new, ids) in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            _mutate(tree, file, old, new)
            t = time.perf_counter()
            outcome = _pytest(tree, ids, TIMEOUT)
            shutil.rmtree(tree)
            verdict = "survived" if outcome == "pass" else f"killed ({outcome})"
            print(f"{i}  {file}: {old.strip().splitlines()[0]!r}  {verdict}  {time.perf_counter() - t:.1f} s")
            if outcome == "pass":
                survivors.append(i)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived {survivors}, {time.perf_counter() - t0:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
