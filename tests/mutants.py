"""Mutation census: swap comparison operators in one module and list the
swaps that the named tests do not catch.

Run from the repository root:

    python3 tests/mutants.py src/relaymarket/verify.py tests/test_verify.py
    python3 tests/mutants.py src/relaymarket/radio.py tests/test_verify.py \\
        tests/test_acceptance.py -k "test_02 or test_03" \\
        --functions licensed_gain relay_gain

Every comparison operator in the module (or in the named top-level
functions) is one site, and each site gives one mutant: < and <=, > and
>=, == and !=, is and is not, in and not in swap. A mutant is the
module's ast.unparse with that one swap, written into a copy of the
repository; the tests then run there under pytest -x with a timeout of TIMEOUT seconds. A
failing or timed-out run kills the mutant. Every run starts without the
copy's hypothesis example database and with the fixed HYPOTHESIS_SEED, so
a property test draws the same examples for every mutant and a verdict
repeats from one census to the next. A control run of the unmutated
ast.unparse must pass first. The survivors and the kill ratio
are printed at the end. Standard library only; pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0   # seconds per pytest run; a slower mutant counts as killed
HYPOTHESIS_SEED = 0
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in"}


def sites(tree, functions):
    """(Compare node, operator index) of every comparison in the module, or
    in the top-level functions named, in source order."""
    roots = [node for node in tree.body
             if not functions or (isinstance(node, ast.FunctionDef) and node.name in functions)]
    found = [(node, k) for root in roots for node in ast.walk(root)
             if isinstance(node, ast.Compare) for k in range(len(node.ops))]
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))


def run_tests(copy, pytest_args):
    """'passed', 'failed' or 'timeout' for one pytest -x run in the copy,
    from a fresh hypothesis database and the fixed seed."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               f"--hypothesis-seed={HYPOTHESIS_SEED}", *pytest_args],
                              cwd=copy, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module file to mutate, relative to the repository root")
    parser.add_argument("tests", nargs="+", help="test files (or pytest options) to run")
    parser.add_argument("-k", dest="keyword", help="pytest -k expression")
    parser.add_argument("--functions", nargs="+", help="mutate only these top-level functions")
    args = parser.parse_args(argv)
    pytest_args = [*args.tests, *(["-k", args.keyword] if args.keyword else [])]
    source = (ROOT / args.module).read_text()
    count = len(sites(ast.parse(source), args.functions))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        target = copy / args.module
        target.write_text(ast.unparse(ast.parse(source)))
        if run_tests(copy, pytest_args) != "passed":
            print("control run of the unmutated ast.unparse failed; no census", file=sys.stderr)
            return 1
        survivors = []
        for n in range(count):
            tree = ast.parse(source)
            node, k = sites(tree, args.functions)[n]
            before = ast.get_source_segment(source, node)
            old = type(node.ops[k])
            node.ops[k] = SWAPS[old]()
            target.write_text(ast.unparse(tree))
            start = time.perf_counter()
            verdict = run_tests(copy, pytest_args)
            swap = f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
            print(f"{args.module}:{node.lineno}  {swap:14} {verdict:8} "
                  f"{time.perf_counter() - start:6.1f} s  {before}", flush=True)
            if verdict == "passed":
                survivors.append(f"{args.module}:{node.lineno}  {swap}  {before}")
    print(f"killed {count - len(survivors)} of {count}")
    for line in survivors:
        print("survived:", line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
