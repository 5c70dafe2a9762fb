"""Print the lines of src/cycloforge that no benchmark workload runs.

    python3 tools/workload_linemap.py

It builds one cycle of rounds of each workload (oneshot, scan and verify)
with perfbench/workloads.py, which it reads and never edits, from seed 1,
the benchmark's default. Every argv then runs in this process through
cycloforge.cli.main, under the stdlib trace module with counting on, with
a fresh scan journal and working directory per round. For each module of
src/cycloforge it prints how many executable lines no call ran, and which.
Code that a test reaches but no workload does is where a speed claim has
no evidence.

The tracer starts before cycloforge is imported, so module bodies (def,
class and import lines) count as run. What a forked child runs is out of
its reach: the children of `scan --jobs 2` compute every chunk of those
calls, and their lines read as unexecuted unless another call runs them.
`verify`, which forks one worker per usable CPU by default, runs here with
`--jobs 1`, which computes the same chunks in this process.
Memos stay warm from call to call, unlike the benchmark's fresh processes;
a memoised body still counts once, from its first call.

Stdlib only. One seed-1 cycle of the three workloads takes about 30 s on
a 2-vCPU host.
"""

from __future__ import annotations

import io
import os
import random
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cycloforge"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("oneshot", "scan", "verify")
SEED = 1  # perfbench/run.py's default


def build_rounds() -> list[list]:
    """The rounds of one cycle of each workload, seeded as perfbench/run.py
    seeds them."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is, as run.py does
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    rounds = []
    for name in WORKLOADS:
        rounds += workloads.ROUNDS[name](random.Random(f"{name}:{SEED}"))
    return rounds


def run_rounds(rounds: list[list], journal_mark: str) -> list[tuple]:
    """Run every call in process; return (call, exit code, stdout) each."""
    from cycloforge.cli import main

    outcomes = []
    saved = sys.stdout, sys.stderr, os.getcwd()
    try:
        for calls in rounds:
            with tempfile.TemporaryDirectory(prefix="linemap-") as tmp:
                os.chdir(tmp)
                for call in calls:
                    argv = [
                        os.path.join(tmp, f"{call.journal}.jsonl") if a == journal_mark else a
                        for a in call.argv
                    ]
                    if argv[0] == "verify":
                        argv += ["--jobs", "1"]
                    # UTF-8 streams, as a terminal or a pipe gives: a stream
                    # with no encoding would send echo through click
                    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                    sys.stdout = out
                    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                    try:
                        main(argv)
                        code = 0
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    finally:
                        out.flush()
                        sys.stdout, sys.stderr = saved[:2]
                    outcomes.append((call, code, out.buffer.getvalue().decode("utf-8")))
                os.chdir(saved[2])
    finally:
        sys.stdout, sys.stderr = saved[:2]
        os.chdir(saved[2])
    return outcomes


def unexecuted(results: trace.CoverageResults) -> dict[str, list[int] | None]:
    """Per module of the package, the executable lines never counted, read
    off the .cover files that trace writes with show_missing."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="linemap-cover-") as coverdir:
        results.write_results(show_missing=True, summary=False, coverdir=coverdir)
        for path in sorted(PACKAGE.glob("*.py")):
            cover = Path(coverdir) / f"cycloforge.{path.stem}.cover"
            if not cover.exists():
                out[path.name] = None  # never imported
                continue
            lines = cover.read_text(encoding="utf-8").splitlines()
            out[path.name] = [i for i, line in enumerate(lines, 1) if line.startswith(">>>>>>")]
    return out


def spans(numbers: list[int]) -> str:
    parts, start = [], None
    for i, n in enumerate(numbers):
        if start is None:
            start = n
        if i + 1 == len(numbers) or numbers[i + 1] != n + 1:
            parts.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(parts)


def main() -> int:
    rounds = build_rounds()
    from workloads import JOURNAL

    # cycloforge is first imported inside the traced run
    sys.path.insert(0, str(SRC))
    # Every module is traced: trace's ignore list caches its verdict by a
    # module's last name, so an ignored package's __init__ would hide ours.
    tracer = trace.Trace(count=1, trace=0)
    outcomes = tracer.runfunc(run_rounds, rounds, JOURNAL)
    missing = unexecuted(tracer.results())
    # checked after the run, so the reference answers stay untraced
    bad = 0
    for call, code, stdout in outcomes:
        problem = f"exit {code}" if code else call.check(stdout)
        if problem:
            bad += 1
            print(f"unexpected: {' '.join(call.argv)}: {problem}", file=sys.stderr)
    print(f"{len(outcomes)} calls of {', '.join(WORKLOADS)}, seed {SEED}")
    for name, numbers in missing.items():
        if numbers is None:
            print(f"{name}: never imported")
        else:
            listed = f": {spans(numbers)}" if numbers else ""
            print(f"{name}: {len(numbers)} lines no workload ran{listed}")
    print(f"total: {sum(len(n) for n in missing.values() if n)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
