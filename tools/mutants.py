"""Mutation harness: which flipped comparison or dropped append do the
tests of one src/cycloforge module miss?

    python3 tools/mutants.py verify_suites

It copies the repository to a temporary directory and edits only that
copy. It parses the named module with ast and makes one mutant per site:

- each comparison operator flipped to its negation: == and !=, < and >=,
  > and <=, in and not in, is and is not;
- each `.append(...)` expression statement replaced by `pass`.

Each mutant is the module's source with that one span rewritten, so every
other byte, and every line number, stays. For each mutant it runs the test
modules that import the module (the module's own test file first) through
`python -m pytest -x -q -p no:cacheprovider`, one process at a time and
with bytecode writing off, so that no stale .pyc hides a same-size edit.
A run passes only when pytest exits 0 and its own junit report counts at
least one test and no failure or error, so a mutant that makes pytest leave
early through os._exit(0) is killed. A mutant is killed when its run does
not pass; one whose run outlives SLOWDOWN times the unmutated run is killed
too, and counted apart. It prints the survivors as `line: before -> after`,
those the EQUIVALENT ledger lists apart from the others, then the counts and
the wall time.

Stdlib only, besides pytest itself.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SLOWDOWN = 3  # a mutant's run may take this many times the unmutated run
FLIP = {
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Lt: ("<", ">="),
    ast.GtE: (">=", "<"),
    ast.Gt: (">", "<="),
    ast.LtE: ("<=", ">"),
    ast.In: ("in", "not in"),
    ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
}
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-work")

# Survivors that no test can kill, by module:line: the comparison the site
# holds, and why flipping it changes no value. Each flips a switch between
# two routes that compute the same value; only a benchmark can see them.
EQUIVALENT = {
    "cyclotomic:135": (
        "len(c) < 32 * period",
        "_series_accumulate's block pass and residue-class pass give the same sums",
    ),
    "cyclotomic:231": (
        "height > _COUNTED",
        "_byte_scan's one sum(u) and its per-value counts give the same value at 1",
    ),
}


class Mutant(NamedTuple):
    line: int
    start: int  # byte offsets of the rewritten span in the source
    end: int
    after: bytes


def _offsets(source: bytes) -> list[int]:
    starts = [0]
    for i, byte in enumerate(source):
        if byte == ord("\n"):
            starts.append(i + 1)
    return starts


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of the source, in source order. ast gives column
    offsets in UTF-8 bytes, so the source stays bytes throughout."""
    starts = _offsets(source)
    tree = ast.parse(source)

    def at(line: int, col: int) -> int:
        return starts[line - 1] + col

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                before, after = FLIP[type(op)]
                lo = at(left.end_lineno, left.end_col_offset)
                hi = at(right.lineno, right.col_offset)
                # between the operands: the operator, blanks and brackets
                gap = source[lo:hi]
                words = gap.replace(b"(", b" ").replace(b")", b" ").split()
                if words != before.encode().split():
                    raise ValueError(f"line {left.end_lineno}: no {before!r} in {gap!r}")
                first = gap.index(words[0])
                last = gap.rindex(words[-1]) + len(words[-1])
                out.append(Mutant(left.end_lineno, lo + first, lo + last, after.encode()))
        elif (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "append"
        ):
            lo = at(node.lineno, node.col_offset)
            hi = at(node.end_lineno, node.end_col_offset)
            # blank lines keep a call that spans lines from moving the rest
            blank = b"\n" * source.count(b"\n", lo, hi)
            out.append(Mutant(node.lineno, lo, hi, b"pass" + blank))
    return sorted(out)


def apply(source: bytes, m: Mutant) -> bytes:
    return source[: m.start] + m.after + source[m.end :]


def comparisons(source: bytes, line: int) -> list[str]:
    """The source text of each comparison that starts on the line."""
    text = source.decode()
    return [
        ast.get_source_segment(text, node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and node.lineno == line
    ]


def describe(source: bytes, m: Mutant) -> str:
    starts = _offsets(source)
    line_start = starts[m.line - 1]
    line = source[line_start : source.index(b"\n", line_start)]
    mutated = apply(source, m)[line_start:]
    mutated = mutated[: mutated.index(b"\n")]
    return f"{m.line}: {line.decode().strip()} -> {mutated.decode().strip()}"


def importers(tests: Path, module: str) -> list[Path]:
    """The test modules that import cycloforge.<module>, its own first."""
    dotted = f"cycloforge.{module}"
    found = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.Import):
                hit = any(alias.name == dotted for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == dotted or (
                    node.module == "cycloforge"
                    and any(alias.name == module for alias in node.names)
                )
            else:
                continue
            if hit:
                found.append(path)
                break
    found.sort(key=lambda path: path.name != f"test_{module}.py")
    return found


def _report_passed(report: Path) -> bool:
    # pytest's own count: at least one test, and no failure or error
    try:
        suites = list(ET.parse(report).getroot().iter("testsuite"))
    except (OSError, ET.ParseError):
        return False
    tests, failures, errors = (
        sum(int(s.get(key, 0)) for s in suites) for key in ("tests", "failures", "errors")
    )
    return tests > 0 and failures == errors == 0


def run_tests(copy: Path, tests: list[Path], limit: float | None = None) -> str:
    """'passed', 'failed' or 'timeout' after limit seconds (None: no limit).
    It passes only when pytest exits 0 and the junit report it writes to a
    fresh path says so. The run gets its own session, and every process
    left in it is killed when the run ends, so no stray fork outlives it."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    with tempfile.TemporaryDirectory(prefix="junit-") as tmp:
        report = Path(tmp) / "report.xml"
        proc = subprocess.Popen(
            argv + [f"--junitxml={report}"] + [str(t.relative_to(copy)) for t in tests],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            code = None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the session had no process left
        proc.wait()
        if code is None:
            return "timeout"
        return "passed" if code == 0 and _report_passed(report) else "failed"


def summary(module: str, source: bytes, outcomes: list, seconds: float) -> list[str]:
    """The survivors, the ones the EQUIVALENT ledger lists after the rest,
    then one line of counts."""
    survivors = [m for m, outcome in outcomes if outcome == "passed"]
    listed = [m for m in survivors if f"{module}:{m.line}" in EQUIVALENT]
    lines = [describe(source, m) for m in survivors if m not in listed]
    lines += [
        f"equivalent, {EQUIVALENT[f'{module}:{m.line}'][1]}: {describe(source, m)}"
        for m in listed
    ]
    timeouts = sum(outcome == "timeout" for _, outcome in outcomes)
    lines.append(
        f"{module}: {len(outcomes)} mutants, "
        f"{len(outcomes) - len(survivors)} killed ({timeouts} by timeout), "
        f"{len(survivors)} survivors ({len(listed)} listed as equivalent), {seconds:.0f} s"
    )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/cycloforge, e.g. verify_suites")
    args = parser.parse_args()

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / "src" / "cycloforge" / f"{args.module}.py"
        source = target.read_bytes()
        tests = importers(copy / "tests", args.module)
        if not tests:
            print(f"no test module imports cycloforge.{args.module}", file=sys.stderr)
            return 2
        names = ", ".join(t.name for t in tests)
        clean = time.monotonic()
        if run_tests(copy, tests) != "passed":
            print(f"the unmutated tests do not pass: {names}", file=sys.stderr)
            return 2
        limit = SLOWDOWN * (time.monotonic() - clean)
        sites = mutants(source)
        print(f"{args.module}: {len(sites)} mutants against {names}", file=sys.stderr)
        outcomes = []
        for i, m in enumerate(sites, 1):
            target.write_bytes(apply(source, m))
            outcome = run_tests(copy, tests, limit)
            outcomes.append((m, outcome))
            print(f"[{i}/{len(sites)}] {outcome}: {describe(source, m)}", file=sys.stderr)
    for line in summary(args.module, source, outcomes, time.monotonic() - t0):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
