"""Mutation sweep over the guards of socbench modules: their ``raise``
statements, or the ``if`` tests that guard a ``raise``.

Usage: python3 tools/raise_sweep.py [--kind raise|guard] [--workdir DIR]
           MODULE.py [MODULE.py ...]

``--kind raise`` (the default) makes one mutant per ``raise`` in each
module, which replaces that statement with ``pass``. ``--kind guard`` takes
the test of every ``if`` whose body (or ``else``) raises, and makes one
mutant per comparison operator in it, flipped (``<``/``<=``, ``>``/``>=``,
``==``/``!=``), and one per operand of an ``and``/``or`` in it, dropped.
Each mutant runs the fast test suite (every ``tests/test_*.py`` but
``tests/test_acceptance.py``, the module's own test file first) with
``pytest -x``. A mutant that makes a test fail is *killed*; one that passes
every test *survived*: no test notices the guard is gone or changed. A
guard mutant listed in EQUIVALENT is not run: no input can tell it from
the original, and the line gives the reason. Each line of output is
``killed``, ``survived`` or ``equivalent``, the mutant's file and line, the
raise's first source line or the mutated test, and the seconds the run
took. The exit status is 1 when any mutant survived, and 2 when the suite
fails before any mutation.

Mutants are written into a copy of the repository (in ``--workdir``, or a
fresh temporary directory), never into the tree the modules came from. A
survivor takes as long as the whole fast suite, about a minute; the sweep
is not part of the test suite.
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
from copy import deepcopy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"
)


FLIPPED = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}

# Guard mutants that no input can tell from the original, by (module file,
# mutated test as ast.unparse writes it), with the reason. The sweeps of
# network.py, data.py, harness.py and optimizers.py found none: a test
# kills each of their survivors.
EQUIVALENT: dict[tuple[str, str], str] = {}


def raise_spans(source: str) -> list[ast.Raise]:
    """Every raise statement in ``source``, in line order."""
    nodes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
    return sorted(nodes, key=lambda n: (n.lineno, n.col_offset))


def replace_span(source: str, node: ast.AST, text: str) -> str:
    """``source`` with the text of ``node`` replaced by ``text``."""
    lines = source.splitlines(keepends=True)
    first, last = lines[node.lineno - 1], lines[node.end_lineno - 1]
    replaced = first[: node.col_offset] + text + last[node.end_col_offset :]
    return "".join(lines[: node.lineno - 1] + [replaced] + lines[node.end_lineno :])


def raise_mutants(source: str):
    """(line, description, mutated source): each raise replaced by pass."""
    for node in raise_spans(source):
        text = source.splitlines()[node.lineno - 1].strip()
        yield node.lineno, text, replace_span(source, node, "pass")


def guard_tests(source: str) -> list[ast.expr]:
    """The test of every ``if`` that raises in its body or ``else``."""
    tests = [
        n.test for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.If)
        and any(isinstance(s, ast.Raise) for s in n.body + n.orelse)
    ]
    return sorted(tests, key=lambda n: (n.lineno, n.col_offset))


def guard_variants(test: ast.expr):
    """Copies of ``test`` with one comparison flipped or one and/or operand
    dropped (a BoolOp left with one operand unparses as that operand)."""
    for index, node in enumerate(ast.walk(test)):
        if isinstance(node, ast.Compare):
            changes = [("op", k) for k, op in enumerate(node.ops)
                       if type(op) in FLIPPED]
        elif isinstance(node, ast.BoolOp):
            changes = [("drop", k) for k in range(len(node.values))]
        else:
            continue
        for kind, k in changes:
            variant = deepcopy(test)
            target = list(ast.walk(variant))[index]
            if kind == "op":
                target.ops[k] = FLIPPED[type(target.ops[k])]()
            else:
                del target.values[k]
            yield variant


def guard_mutants(source: str):
    """(line, mutated test, mutated source) for every guard mutant."""
    for test in guard_tests(source):
        for variant in guard_variants(test):
            text = ast.unparse(variant)
            yield test.lineno, text, replace_span(source, test, f"({text})")


def suite_files(copy: Path, module: Path) -> list[str]:
    """The fast suite's files, the module's own ``test_<name>.py`` first."""
    files = sorted(
        p for p in (copy / "tests").glob("test_*.py") if p.name != "test_acceptance.py"
    )
    own = [p for p in files if p.name == f"test_{module.stem}.py"]
    return [str(p.relative_to(copy)) for p in own + [p for p in files if p not in own]]


def killed(copy: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode != 0


def sweep(copy: Path, module: Path, kind: str) -> int:
    """Run every mutant of ``kind`` of ``module`` (a path inside ``copy``);
    the number that survived."""
    source = module.read_text(encoding="utf-8")
    tests = suite_files(copy, module)
    mutants = raise_mutants if kind == "raise" else guard_mutants
    survivors = 0
    try:
        for line, text, mutated in mutants(source):
            where = f"{module.relative_to(copy)}:{line}"
            reason = EQUIVALENT.get((module.name, text))
            if reason:
                print(f"{'equivalent':10} {where:32} {text}  ({reason})", flush=True)
                continue
            module.write_text(mutated, encoding="utf-8")
            started = time.perf_counter()
            outcome = "killed" if killed(copy, tests) else "survived"
            survivors += outcome == "survived"
            print(f"{outcome:10} {where:32} {text}  "
                  f"({time.perf_counter() - started:.0f} s)", flush=True)
    finally:
        module.write_text(source, encoding="utf-8")
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="module files under src/socbench/ to sweep")
    parser.add_argument("--kind", choices=["raise", "guard"], default="raise",
                        help="mutate raise statements (default) or the if "
                             "tests that guard them")
    parser.add_argument("--workdir", type=Path,
                        help="empty or absent directory for the repository copy "
                             "(default: a new temporary directory)")
    args = parser.parse_args(argv)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="raise-sweep-"))
    copy = workdir / "repo"
    shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
    if killed(copy, suite_files(copy, Path("none.py"))):
        print("the fast suite fails without any mutant; nothing to sweep")
        return 2
    survivors = 0
    for module in args.modules:
        relative = module.resolve().relative_to(ROOT)
        survivors += sweep(copy, copy / relative, args.kind)
    print(f"{survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
