"""fmgame benchmark: one workload per invocation, a closed loop of checked ops.

Run from the repository root:

    python3 bench/run.py --workload {verify,oracle-corpus,closed-form} \\
        --seed N --seconds S --trace {0,1}

The workload runs in this one process with numeric libraries held to one
thread. One client sends the next op only after the previous one returned.
The op list is fixed by the seed and sized from --seconds (see
workloads.py), so a run does the same work on every commit and its wall
time is the time to a checked answer. Every output is checked; an op that
raises, returns a wrong output or passes its deadline counts as failed.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
runs the op list once untraced and once with every traced function wrapped
(tracing.py), and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it name each metric
with its unit and sample count, the environment and every failed op.
"""

from __future__ import annotations

import os

# Hold numeric libraries to one thread; must happen before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 9          # set-ups per run (this process plus 8 children)
RUN_BUDGET_S = 150.0       # ops not started by then count as failed
CHILD_TIMEOUT_S = 20.0


class OpDeadline(BaseException):
    """Raised by SIGALRM when an op passes its deadline.

    A BaseException so that the program's own ``except Exception`` and
    ``except OSError`` handlers cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpDeadline()


def check_layout() -> str | None:
    """What is missing from the checkout, or None."""
    for rel in ("src/fmgame/__init__.py", "src/fmgame/cli.py",
                "configs/set_a.cfg", "configs/set_b.cfg", "bench/digests.json"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}"
    return None


def import_fmgame():
    """Import fmgame from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fmgame
    import fmgame.cli

    if Path(fmgame.__file__).resolve().parent != src / "fmgame":
        raise ImportError(f"fmgame loaded from {fmgame.__file__}, not {src}")
    return fmgame


def set_up(workload: str, seed: int, seconds: float):
    """Import fmgame, build the op list and run the warm-up op; timed."""
    start = time.perf_counter()
    fm = import_fmgame()
    ops = workloads.build(workload, seed, seconds, fm, ROOT, OUT)
    problem = workloads.warm_up(workload, fm, ROOT)
    if problem is not None:
        raise RuntimeError(f"warm-up op failed: {problem}")
    return fm, ops, time.perf_counter() - start


def child_set_ups(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes doing the same set-up."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_ops(ops, stop_at: float, tracer=None) -> tuple[list, float]:
    """Run every op in order; returns ((op, seconds, error, ended) per op, wall s).

    ``ended`` is False for an op stopped by its deadline or never started.
    """
    records = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    loop_start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            remaining = stop_at - time.monotonic()
            if remaining <= 0:
                records.append((op, 0.0, f"not started: run budget of {RUN_BUDGET_S:g} s spent",
                                False))
                continue
            limit = min(op.deadline_s, remaining)
            if tracer is not None:
                tracer.begin_op(i)
            ended = True
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    error = op.check(op.call())
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpDeadline:
                error, ended = f"deadline of {limit:g} s passed", False
            except Exception as exc:  # a raising op is a failed op, never a crash
                error = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(keep=ended)
            records.append((op, seconds, error, ended))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records, time.perf_counter() - loop_start


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method (every run has at least 2 ops)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed}


def summarize(records) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, failure lines).

    ``correct`` is False when an op fails that is not one of the known
    seed-commit defects; those still count in ``failed``.
    """
    failures, correct = [], True
    for op, _, error, _ in records:
        if error is not None:
            note = f" [known: {op.known_defect}]" if op.known_defect else ""
            failures.append(f"failed {op.name}: {error}{note}")
            correct = correct and bool(op.known_defect)
    return len(records), len(failures), correct, failures


def end_to_end(records, wall: float, setup: list[float]) -> tuple[dict, list[str]]:
    latencies = [1e3 * s for _, s, _, _ in records if s > 0]
    completed = sum(1 for *_, ended in records if ended)
    attempted, failed, _, _ = summarize(records)
    values = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        "run_s": (wall, "s", f"{attempted} ops"),
        "ops_per_s": (completed / wall, "ops/s", f"{completed} completed ops"),
        "op_ms_p50": (quantile(latencies, 50), "ms", f"n={len(latencies)}"),
        "op_ms_p90": (quantile(latencies, 90), "ms", f"n={len(latencies)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
    }
    lines = [f"metric {name} {v:.6g} {unit} ({note})" for name, (v, unit, note) in values.items()]
    lines.append(f"metric failed_share {failed / attempted:.6g} fraction ({failed}/{attempted} ops)")
    return {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()}, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit (used for the setup_s samples)")
    args = ap.parse_args(argv)

    missing = check_layout()
    if missing:
        print(f"error: {missing}; run from a full checkout of the repository", file=sys.stderr)
        return 2
    stop_at = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        print(f"setup_s {set_up(args.workload, args.seed, args.seconds)[2]!r}")
        return 0

    # setup_s is an end-to-end metric, so the traced run needs one set-up only.
    setup = [] if args.trace else child_set_ups(args, SETUP_SAMPLES - 1)
    fm, ops, own_setup = set_up(args.workload, args.seed, args.seconds)
    setup.append(own_setup)

    records, wall = run_ops(ops, stop_at)
    attempted, failed, correct, failures = summarize(records)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_ops(ops, stop_at, tracer)
        finally:
            tracer.restore()
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
        attempted, failed, traced_correct, failures = summarize(traced)
        correct = correct and traced_correct
        values = tracer.layer_metrics()
        values.update({"trace.untraced_run_s": wall, "trace.traced_run_s": traced_wall,
                       "trace.overhead_s": traced_wall - wall,
                       "trace.overhead_share": (traced_wall - wall) / wall})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.metric_names()}
        lines = [f"metric {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        metrics, lines = end_to_end(records, wall, setup)

    env = environment(args.seed)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  environment=env, failures=failures)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    print("\n".join(lines + failures))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
