"""Seeded end-to-end benchmark of the ``invsys`` CLI, with a traced layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid_q --seed 7 --seconds 20 --trace 0

``--trace 0`` runs the workload's command sequence through the CLI, one fresh
interpreter per command, serially (a closed loop with one client), repeating
the whole sequence while the time budget lasts, and reports the end-to-end
metrics.  ``--trace 1`` runs the same commands in this process through
``invsys.cli.run``, alternating untraced and traced sessions, and reports the
per-layer metrics.  Every command's exit code and stdout are checked.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A results file with
provenance goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
SETUP_BATCH = 3
SETUP_EVERY_S = 4.0
SETUP_MIN_BATCHES = 5

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Command, Session  # noqa: E402


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def verdict(cmd: Command, code: Optional[int], stdout: str, expected: Optional[dict]) -> list[str]:
    """Reasons the command's result is wrong; empty when it is right.

    ``code`` is None for a command that did not finish.  ``expected`` is the
    recorded ``{"exit", "sha256"}`` of the default seed, or None.
    """
    if code is None:
        return ["did not finish"]
    problems = []
    if code not in cmd.exits:
        problems.append(f"exit {code} not in {list(cmd.exits)}")
    if cmd.check is not None and not cmd.check(stdout):
        problems.append("math check failed")
    if expected is not None:
        if code != expected["exit"]:
            problems.append(f"exit {code} != recorded {expected['exit']}")
        if digest(stdout) != expected["sha256"]:
            problems.append("stdout digest differs from the recorded one")
    return problems


def load_expected(session: Session) -> Optional[dict]:
    """Recorded results per command label for the default seed, else None."""
    if session.seed != DEFAULT_SEED:
        return None
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh).get(session.workload, {})


def expectation(expected: Optional[dict], cmd: Command) -> Optional[dict]:
    if expected is None:
        return None
    # A command without a recorded result fails the digest check.
    return expected.get(cmd.label, {"exit": None, "sha256": None})


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def resolve(argv: list[str], work: Path) -> list[str]:
    return [str(work / a[1:]) if a.startswith("@") else a for a in argv]


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def run_subprocess(cmd: Command, work: Path, deadline: Deadline) -> tuple[Optional[int], str, float]:
    """Run one command in a fresh interpreter; (exit code, stdout, wall s)."""
    argv = [sys.executable, "-m", "invsys", *resolve(cmd.argv, work)]
    stdin = open(work / cmd.stdin, "rb") if cmd.stdin else subprocess.DEVNULL
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env(), cwd=work, timeout=max(deadline.left(), 1.0),
        )
        code, out = proc.returncode, proc.stdout.decode("utf-8", "replace")
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code, out = None, ""
    finally:
        if cmd.stdin:
            stdin.close()
    return code, out, time.perf_counter() - t0


def run_inprocess(cli_run, cmd: Command, work: Path) -> tuple[int, str, float]:
    """Run one command through ``invsys.cli.run`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = open(work / cmd.stdin, "r", encoding="utf-8") if cmd.stdin else io.StringIO("")
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_run(resolve(cmd.argv, work))
    finally:
        sys.stdin.close()
        sys.stdin = saved_stdin
    return code, out.getvalue(), time.perf_counter() - t0


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self, expected: Optional[dict]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, cmd: Command, code: Optional[int], stdout: str) -> bool:
        self.attempted += 1
        problems = verdict(cmd, code, stdout, expectation(self.expected, cmd))
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{cmd.label}: {'; '.join(problems)}")
        return not problems


def write_inputs(session: Session, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, text in session.inputs.items():
        (work / name).write_text(text, encoding="utf-8")


def save_output(cmd: Command, stdout: str, work: Path) -> None:
    if cmd.out:
        (work / cmd.out).write_text(stdout, encoding="utf-8")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


class SetupProbe:
    """Wall seconds for a fresh interpreter to ``import invsys.cli``.

    Each sample is the mean of a batch of imports, and batches are spread
    over the whole run, so that the median follows the run's average machine
    state rather than a short burst.  The first import compiles bytecode and
    is not counted.  The child's output goes to pipes, so that its end is seen
    when the pipes close: without them ``subprocess.run`` with a timeout polls
    for the exit at intervals of up to 50 ms, and the samples would snap to
    that grid.
    """

    def __init__(self, deadline: Deadline):
        self.deadline = deadline
        self.samples: list[float] = []
        self.next_due = 0.0
        self._import()

    def _import(self) -> None:
        subprocess.run([sys.executable, "-c", "import invsys.cli"], env=child_env(), cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       check=True, timeout=max(self.deadline.left(), 1.0))

    def batch(self) -> None:
        t0 = time.perf_counter()
        for _ in range(SETUP_BATCH):
            self._import()
        self.samples.append((time.perf_counter() - t0) / SETUP_BATCH)
        self.next_due = time.perf_counter() + SETUP_EVERY_S

    def maybe(self) -> None:
        if time.perf_counter() >= self.next_due:
            self.batch()


def end_to_end(session: Session, work: Path, seconds: float, tally: Tally, deadline: Deadline) -> dict:
    """Repeat the session through the CLI while the time budget lasts.

    A session's time is the sum of its commands' wall times, so the set-up
    probes run between commands do not count in it.  ``command_s`` holds each
    command's wall times, one per session, keyed by its label.
    """
    setup = SetupProbe(deadline)
    sessions: list[float] = []
    per_command: dict[str, list[float]] = {cmd.label: [] for cmd in session.commands}
    start = time.perf_counter()
    while True:
        walls = []
        for cmd in session.commands:
            setup.maybe()
            code, out, wall = run_subprocess(cmd, work, deadline)
            tally.add(cmd, code, out)
            save_output(cmd, out, work)
            per_command[cmd.label].append(wall)
            walls.append(wall)
            if code is None:
                break
        sessions.append(sum(walls))
        # Stop at the session boundary nearest the budget.
        elapsed = time.perf_counter() - start
        if code is None or elapsed + statistics.median(sessions) / 2 > seconds:
            break
    while len(setup.samples) < SETUP_MIN_BATCHES:
        setup.batch()
    return {"session_s": sessions, "command_s": per_command, "setup_s": setup.samples}


def traced(session: Session, work: Path, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process sessions; per-layer metrics."""
    import invsys.cli as cli
    from layertrace import Tracer, layer_metrics

    def one_session() -> float:
        t0 = time.perf_counter()
        for cmd in session.commands:
            code, out, _ = run_inprocess(cli.run, cmd, work)
            tally.add(cmd, code, out)
            save_output(cmd, out, work)
        return time.perf_counter() - t0

    plain, timed, layer_runs = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(one_session())
        with Tracer() as tr:
            timed.append(one_session())
        layer_runs.append(layer_metrics(tr))
        elapsed = time.perf_counter() - start
        if elapsed + (statistics.median(plain) + statistics.median(timed)) / 2 > seconds:
            break
    metrics = {}
    for name, (_, unit) in layer_runs[0].items():
        metrics[name] = (statistics.median_low(run[name][0] for run in layer_runs), unit)
    overhead = statistics.median(timed) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    detail = {"untraced_session_s": plain, "traced_session_s": timed, "spans": tr.report()}
    return metrics, detail


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where git or the repository is missing."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def query_p50(command_s: dict[str, list[float]]) -> float:
    """Median over the commands of each command's median wall time, in seconds.

    Taking each command's median over the sessions first keeps the value on
    one command's time when the sequence mixes commands of different cost.
    """
    return statistics.median(statistics.median(walls) for walls in command_s.values() if walls)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invsys" / "cli.py").is_file():
        print(f"error: no invsys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = Deadline(RUN_DEADLINE_S)
    load_before = os.getloadavg()
    session = workloads.build(args.workload, args.seed)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    write_inputs(session, work)
    tally = Tally(load_expected(session))
    try:
        if args.trace:
            values, detail = traced(session, work, args.seconds, tally)
            runs = len(detail["traced_session_s"])
        else:
            detail = end_to_end(session, work, args.seconds, tally, deadline)
            runs = len(detail["session_s"])
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            values = {
                "session_s": (statistics.median(detail["session_s"]), "s"),
                "query_p50_ms": (query_p50(detail["command_s"]) * 1e3, "ms"),
                "setup_s": (statistics.median(detail["setup_s"]), "s"),
                "peak_rss_mb": (rss_kb / 1024.0, "MB"),
                "ok_frac": (1.0 - tally.failed / max(tally.attempted, 1), "ratio"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "load_before": list(load_before),
        "load_after": list(os.getloadavg()),
        "runs": runs,
        "commands_per_session": len(session.commands),
        "query_samples": sum(len(w) for w in detail.get("command_s", {}).values()),
        "failures": tally.failures,
        "result": result,
        "detail": detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for line in tally.failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
