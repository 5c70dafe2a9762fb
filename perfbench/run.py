"""cycloforge benchmark: drives the CLI from outside, one process per call.

    python3 perfbench/run.py --workload {oneshot,scan,verify} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --reference

Run it from the root of a checkout. Every invocation is a fresh
`python -m cycloforge.cli ...` with PYTHONPATH=src, its own temporary
working directory, an address-space cap and a timeout, in a closed loop
with one client. Each workload repeats a seeded cycle of rounds, as many
whole cycles as its nominal cycle length fits into --seconds (at least
one), and checks every stdout. Between calls it samples set-up time and a host-speed probe, and
scales the end-to-end times by the probe (see PROBE_CODE). With --trace 1 it runs one cycle with every call untraced and then
traced, and prints per-layer metrics instead of end-to-end ones. The last
stdout line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import LAYERS, SPAWN_ENV, layer_name  # noqa: E402
from workloads import JOURNAL, Call  # noqa: E402

MEMORY_CAP = 1 << 30  # bytes of address space per invocation
CALL_TIMEOUT = 120.0  # seconds, wall clock and CPU, per invocation
RUN_DEADLINE = 165.0  # seconds; calls not started by then count as failed
SETUP_REPEATS = 7
GAUGE_EVERY_S = 1.5  # seconds of calls between set-up and probe samples
TRACER = Path(__file__).resolve().parent / "tracer.py"

# Host-speed probe: a fresh interpreter running a fixed pure-Python loop.
# A VM on a shared host changes speed by up to 40% in stretches of seconds
# to minutes, and start-up and CPU work slow together. Timing this
# probe between calls and scaling the end-to-end times by PROBE_REF_S over
# it about halves their spread from run to run. The probe does not touch
# cycloforge, so a change to the program moves the scaled times as much as
# the raw ones.
PROBE_CODE = """\
s = 0
for i in range(150000):
    s += i * i % 7
d = {i: str(i) for i in range(20000)}
print(s, len(d))
"""
PROBE_OUT = "299999 20000\n"
# Probe median on an Intel Xeon 2-vCPU VM at its usual speed; scaled times
# read as seconds on that machine.
PROBE_REF_S = 0.130


@dataclass
class Outcome:
    call: Call
    latency: float
    rss_mb: float
    code: int | None
    stdout: str
    stderr: str
    problem: str | None = None
    trace: dict | None = None


@dataclass
class Round:
    wall: float
    outcomes: list[Outcome]


class Runner:
    """Spawns CLI processes with limits and reaps them with wait4."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()
        self.serial = 0
        self._victim = 0
        self._timed_out = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        self._timed_out = True
        self._kill(self._victim)

    @staticmethod
    def _kill(pgid: int) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    @staticmethod
    def _limits() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
        cpu = int(CALL_TIMEOUT)
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 5))

    def fresh_dir(self, prefix: str) -> Path:
        self.serial += 1
        return Path(tempfile.mkdtemp(prefix=f"{prefix}{self.serial}-", dir=self.work))

    def spawn(self, cmd: list[str], timeout: float) -> tuple[float, float, int | None, str, str, str | None]:
        """(latency s, max rss MB, exit code, stdout, stderr, problem)."""
        cwd = self.fresh_dir("call")
        err_path = cwd.parent / f"{cwd.name}.err"
        self._timed_out = False
        env = dict(self.env)
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            env[SPAWN_ENV] = str(time.perf_counter_ns())  # root span start for the tracer
            proc = subprocess.Popen(
                cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, preexec_fn=self._limits,
                start_new_session=True,
            )
            self._victim = proc.pid
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.stdout.close()
                self._kill(proc.pid)  # any worker left behind in its session
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        err_path.unlink()
        shutil.rmtree(cwd, ignore_errors=True)
        code = proc.returncode
        problem = None
        if self._timed_out:
            problem = "timeout"
        elif code == -signal.SIGXCPU:
            problem = "cpu cap"
        elif code < 0:
            problem = f"signal {-code}"
        elif code != 0:
            problem = "memory cap" if "MemoryError" in stderr else f"exit {code}"
        text = out.decode("utf-8", errors="replace")
        return t1 - t0, usage.ru_maxrss / 1024, code, text, stderr, problem

    def remaining(self) -> float:
        return RUN_DEADLINE - (time.perf_counter() - self.started)

    def cli(self, argv: list[str], traced_to: Path | None = None) -> tuple:
        head = [sys.executable, str(TRACER), str(traced_to)] if traced_to else [
            sys.executable, "-m", "cycloforge.cli"]
        return self.spawn(head + argv, min(CALL_TIMEOUT, self.remaining()))

    def probe(self) -> Outcome:
        return Outcome(PROBE, *self.spawn([sys.executable, "-c", PROBE_CODE], CALL_TIMEOUT))


def run_call(runner: Runner, call: Call, journals: Path, traced: bool) -> Outcome:
    argv = [str(journals / f"{call.journal}.jsonl") if a == JOURNAL else a for a in call.argv]
    if runner.remaining() <= 0:
        return Outcome(call, 0.0, 0.0, None, "", "", "not started: run deadline")
    span_file = journals / "spans.json" if traced and call.traceable else None
    outcome = Outcome(call, *runner.cli(argv, span_file))
    if span_file is not None and span_file.exists():
        outcome.trace = json.loads(span_file.read_text())
        span_file.unlink()
    return outcome


def run_round(runner: Runner, calls: list[Call], gauge: "Gauge") -> Round:
    """Calls in order on one journal directory, with gauge samples between
    them; the round's wall is its calls' summed latency."""
    journals = runner.fresh_dir("journals")
    outcomes = []
    for call in calls:
        outcomes.append(run_call(runner, call, journals, traced=False))
        gauge.tick()
    shutil.rmtree(journals, ignore_errors=True)
    return Round(sum(o.latency for o in outcomes), outcomes)


def run_paired_round(runner: Runner, calls: list[Call]) -> tuple[Round, Round]:
    """Each call untraced, then at once traced, on separate journals, so
    both sides see the same machine load; walls are summed latencies."""
    plain, traced = runner.fresh_dir("journals"), runner.fresh_dir("journals")
    pairs = [
        (run_call(runner, call, plain, traced=False), run_call(runner, call, traced, traced=True))
        for call in calls
    ]
    shutil.rmtree(plain, ignore_errors=True)
    shutil.rmtree(traced, ignore_errors=True)
    sides = list(zip(*pairs))
    return tuple(Round(sum(o.latency for o in side), list(side)) for side in sides)


# ---------------------------------------------------------------------------
# checking


def judge(call: Call, stdout: str) -> str | None:
    try:
        return call.check(stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable stdout: {exc!r}"[:200]


def check_outcomes(outcomes: list[Outcome]) -> None:
    """Fill in `problem` for every wrong stdout; identical argv and stdout
    are checked once."""
    verdicts: dict[tuple, str | None] = {}
    groups: dict[str, set[str]] = {}
    for o in outcomes:
        if o.problem is None:
            key = (o.call.argv, o.stdout)
            if key not in verdicts:
                verdicts[key] = judge(o.call, o.stdout)
            o.problem = verdicts[key]
        if o.call.same_as and o.code == 0:
            groups.setdefault(o.call.same_as, set()).add(o.stdout)
    for o in outcomes:
        if o.problem is None and o.call.same_as and len(groups.get(o.call.same_as, ())) > 1:
            o.problem = f"stdout differs across passes of {o.call.same_as}"


def corrupt(text: str) -> str:
    """Bump the last digit; without digits, drop the last character."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]
    return text[:-1]


def self_test(outcomes: list[Outcome]) -> list[str]:
    """For one correct stdout per group, a corrupted copy must fail its
    check. Returns the groups where it did not."""
    missed, seen = [], set()
    for o in outcomes:
        if o.problem is None and o.call.group not in seen:
            seen.add(o.call.group)
            if judge(o.call, corrupt(o.stdout)) is None:
                missed.append(o.call.group)
    return missed


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of the order statistics. Steadier than one order
    statistic when the sample has gaps between kinds of command."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per order statistic
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def layer_metrics(traced: list[Outcome]) -> dict[str, tuple[float, str]]:
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    imports, hits, lookups, spans = [], 0, 0, 0
    for o in traced:
        t = o.trace
        if not t:
            continue
        sp = t["spans"]
        spans += len(sp)
        dur = [max(0, s[2] - s[1]) for s in sp]
        child = [0] * len(sp)
        for i, s in enumerate(sp):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        for i, (name, _, _, parent) in enumerate(sp):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur[i] - child[i]
            j = parent
            while j >= 0 and sp[j][0] != name:
                j = sp[j][3]
            if j < 0:
                total[name] = total.get(name, 0) + dur[i]
            if name == "cli.import":
                imports.append(dur[i])
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
        hits += t["phi_cache"][0]
        lookups += t["phi_cache"][0] + t["phi_cache"][1]
    out: dict[str, tuple[float, str]] = {
        "cli.import_s": (statistics.median(imports) / 1e9 if imports else 0.0, "s"),
    }
    names = ["cli.main"] + [
        layer_name(mod, fn) for mod, fns in LAYERS.items() for fn in fns
    ]
    for name in names:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.total_s"] = (total.get(name, 0) / 1e9, "s")
        out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
    for key in (
        "cyclotomic.phi.degree_sum",
        "pseudocyclo.pseudo_phi.degree_sum",
        "intpoly.poly_mod_monic.degree_sum",
        "journal.bytes_read",
        "journal.bytes_written",
    ):
        out[key] = (counts.get(key, 0), "bytes" if key.startswith("journal") else "count")
    out["cyclotomic.phi.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    windows = counts.get("flatness.scan.windows", 0)
    skipped = windows - counts.get("flatness.scan.chunks_computed", 0)
    out["flatness.scan.chunk_reuse_ratio"] = (skipped / windows if windows else 0.0, "ratio")
    out["trace.spans"] = (spans, "count")
    return out


def phase_sum(outcomes: list[Outcome], group: str) -> float:
    return sum(o.latency for o in outcomes if o.call.group == group)


# ---------------------------------------------------------------------------
# provenance


def provenance(root: Path, workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "commit": git_commit(root),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py")
        ),
    }


def git_commit(root: Path) -> str:
    """HEAD read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# driver


def check_help(out: str) -> str | None:
    for word in ("Usage:", "phi", "height", "scan", "verify"):
        if word not in out:
            return f"--help lacks {word!r}"
    return None


HELP = Call(("--help",), "setup", check_help)
PROBE = Call(("-c", "<probe>"), "probe",
             lambda out: None if out == PROBE_OUT else f"probe printed {out[:40]!r}")


class Gauge:
    """Set-up time (fresh interpreter to cycloforge.cli imported and --help
    printed) and host-speed probe samples, taken in pairs at the start and
    between calls about every GAUGE_EVERY_S seconds."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.setup: list[Outcome] = []
        self.probes: list[Outcome] = []
        self.last = 0.0
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.last < GAUGE_EVERY_S:
            return
        self.setup.append(Outcome(HELP, *self.runner.cli(list(HELP.argv))))
        self.probes.append(self.runner.probe())
        self.last = time.perf_counter()

    def speed(self) -> float:
        """Factor that turns this run's call times into reference-host times."""
        return PROBE_REF_S / statistics.median(o.latency for o in self.probes)

    def setup_s(self) -> float:
        """Median set-up time in reference-host seconds, each sample scaled
        by the probe taken straight after it."""
        return PROBE_REF_S * statistics.median(
            s.latency / p.latency for s, p in zip(self.setup, self.probes))


def run_workload(runner: Runner, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    cycle = workloads.ROUNDS[workload](random.Random(f"{workload}:{seed}"))
    runner.cli(list(HELP.argv))  # warm-up: bytecode compilation is not measured
    rounds: list[Round] = []
    traced: list[Round] = []
    gauge = Gauge(runner)
    if trace:
        for calls in cycle:
            plain, with_spans = run_paired_round(runner, calls)
            rounds.append(plain)
            traced.append(with_spans)
    else:
        for _ in range(max(1, round(seconds / workloads.CYCLE_S[workload]))):
            for calls in cycle:
                rounds.append(run_round(runner, calls, gauge))
        while len(gauge.setup) < SETUP_REPEATS:
            gauge.tick(force=True)
    timed = [o for r in rounds for o in r.outcomes]
    traced_calls = [o for r in traced for o in r.outcomes]
    everything = gauge.setup + gauge.probes + timed + traced_calls
    check_outcomes(everything)
    missed = self_test(timed)
    failed = [o for o in everything if o.problem]
    for o in failed[:20]:
        tail = o.stderr.strip().splitlines()[-1:] if o.stderr.strip() else []
        print(f"FAILED {' '.join(o.call.argv)}: {o.problem} {tail}", file=sys.stderr)
    for group in missed:
        print(f"SELF-TEST: a corrupted {group} stdout passed its check", file=sys.stderr)

    by_group: dict[str, list[Outcome]] = {}
    for o in timed:
        by_group.setdefault(o.call.group, []).append(o)
    for group, outs in sorted(by_group.items()):
        lat = [o.latency * 1000 for o in outs]
        print(f"  {group:<20} n={len(lat):<4} median {statistics.median(lat):9.1f} ms"
              f"  max {max(lat):9.1f} ms  rss {max(o.rss_mb for o in outs):7.1f} MB",
              file=sys.stderr)
    prov = provenance(root, workload, seed)
    prov.update(rounds=len(rounds), invocations=len(timed), run_s=round(time.perf_counter() - runner.started, 3))
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        overhead = sum(r.wall for r in traced) - sum(r.wall for r in rounds)
        prov["tracing_overhead_s"] = overhead
        metrics = layer_metrics(traced_calls)
        gaps = [  # paired rounds keep the calls in the same order
            (u.latency - (t.trace["spans"][0][2] - t.trace["spans"][0][1]) / 1e9) * 1000
            for u, t in zip(timed, traced_calls) if t.trace
        ]
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.root_gap_ms"] = (statistics.median(gaps) if gaps else 0.0, "ms")
        metrics["scan.extend_s"] = (phase_sum(timed, "scan.extend"), "s")
        metrics["scan.resume_s"] = (phase_sum(timed, "scan.resume"), "s")
    else:
        lat = [o.latency for o in timed]
        cycles = len(rounds) // len(cycle)
        raw = {
            "setup_s": statistics.median(o.latency for o in gauge.setup),
            "wall_s": sum(lat) / cycles,
            "op_p50_ms": quantile(lat, 0.5) * 1000,
            "op_p90_ms": quantile(lat, 0.9) * 1000,
        }
        speed = gauge.speed()
        metrics = {k: (v * speed, "ms" if k.endswith("_ms") else "s") for k, v in raw.items()}
        metrics["setup_s"] = (gauge.setup_s(), "s")
        metrics["peak_rss_mb"] = (max(o.rss_mb for o in timed), "MB")
        prov.update(extend_s=phase_sum(timed, "scan.extend") / cycles,
                    resume_s=phase_sum(timed, "scan.resume") / cycles,
                    probe_s=statistics.median(o.latency for o in gauge.probes),
                    speed=speed, unscaled=raw, gauge_samples=len(gauge.probes))
    prov["fail_ratio"] = len(failed) / len(everything)
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not failed and not missed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# reference mode: the ROADMAP baseline commands, once each, not gated

REFERENCE = (
    (["phi", "--n", "255255"], 7057),
    (["phi", "--n", "437437"], 8215),
    (["phi", "--n", "540897"], 71),
    (["scan", "--conjecture", "notflat", "--bound", "100000", "--no-cache"], 51708),
    (["scan", "--conjecture", "pqrsallflat", "--bound", "100000", "--no-cache"], 27014),
    (["scan", "--conjecture", "height_drop_p3", "--bound", "20000", "--no-cache"], 7698),
    (["verify", "--suite", "fj"], 88105),
    (["verify", "--suite", "pseudo"], 15807),
)


def run_reference(runner: Runner, root: Path) -> int:
    global CALL_TIMEOUT, RUN_DEADLINE
    CALL_TIMEOUT, RUN_DEADLINE = 600.0, float("inf")
    runner.cli(list(HELP.argv))
    rows = []
    for argv, roadmap_ms in REFERENCE:
        latency, rss, code, out, err, problem = runner.cli(["--timing"] + argv)
        timing = re.search(r"timing: ([0-9.]+) ms", err)
        row = {
            "command": " ".join(argv),
            "roadmap_ms": roadmap_ms,
            "timing_ms": float(timing.group(1)) if timing else None,
            "wall_ms": round(latency * 1000, 1),
            "peak_rss_mb": round(rss, 1),
            "problem": problem,
        }
        rows.append(row)
        print(f"{row['command']:<60} roadmap {roadmap_ms:>7} ms  now {row['timing_ms']} ms"
              f" (wall {row['wall_ms']} ms){'  ' + problem if problem else ''}", flush=True)
    print(json.dumps({"reference": rows, "provenance": provenance(root, "reference", 0)}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="time the ROADMAP baseline commands once (slow, not gated)")
    args = parser.parse_args()
    if not args.reference and not args.workload:
        parser.error("--workload is required")
    root = Path.cwd()
    if not (root / "src" / "cycloforge" / "cli.py").is_file():
        print("perfbench: run from the root of a cycloforge checkout (src/cycloforge missing)",
              file=sys.stderr)
        return 2
    base = root / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        runner = Runner(root, work)
        if args.reference:
            return run_reference(runner, root)
        return run_workload(runner, root, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
