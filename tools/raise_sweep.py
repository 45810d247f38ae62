"""Mutation sweep over the ``raise`` statements of socbench modules.

Usage: python3 tools/raise_sweep.py [--workdir DIR] MODULE.py [MODULE.py ...]

For each ``raise`` in each module, one mutant replaces that statement with
``pass`` and runs the fast test suite (every ``tests/test_*.py`` but
``tests/test_acceptance.py``, the module's own test file first) with
``pytest -x``. A mutant that makes a test fail is *killed*; one that passes
every test *survived*: no test notices the guard is gone. Each line of
output is ``killed`` or ``survived``, the raise's file and line, its first
source line and the seconds the run took. The exit status is 1 when any
mutant survived, and 2 when the suite fails before any mutation.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"
)


def raise_spans(source: str) -> list[ast.Raise]:
    """Every raise statement in ``source``, in line order."""
    nodes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
    return sorted(nodes, key=lambda n: (n.lineno, n.col_offset))


def mutate(source: str, node: ast.Raise) -> str:
    """``source`` with the statement ``node`` replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    first, last = lines[node.lineno - 1], lines[node.end_lineno - 1]
    replaced = first[: node.col_offset] + "pass" + last[node.end_col_offset :]
    return "".join(lines[: node.lineno - 1] + [replaced] + lines[node.end_lineno :])


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


def sweep(copy: Path, module: Path) -> int:
    """Run every mutant of ``module`` (a path inside ``copy``); the number
    that survived."""
    source = module.read_text(encoding="utf-8")
    tests = suite_files(copy, module)
    survivors = 0
    try:
        for node in raise_spans(source):
            module.write_text(mutate(source, node), encoding="utf-8")
            started = time.perf_counter()
            outcome = "killed" if killed(copy, tests) else "survived"
            survivors += outcome == "survived"
            text = source.splitlines()[node.lineno - 1].strip()
            where = f"{module.relative_to(copy)}:{node.lineno}"
            print(f"{outcome:8} {where:32} {text}  "
                  f"({time.perf_counter() - started:.0f} s)", flush=True)
    finally:
        module.write_text(source, encoding="utf-8")
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="module files under src/socbench/ to sweep")
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
        survivors += sweep(copy, copy / relative)
    print(f"{survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
