"""treeq benchmark: one workload per invocation, a closed loop with one client.

    python3 perfbench/run.py --workload cdf-join --seed 1 --seconds 25 --trace 0

The parent process generates the workload's inputs from ``--seed`` under
``.bench_build/perfbench/`` (not timed), then measures them in a child
process of its own, so that peak memory and garbage belong to this workload
alone. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with
times scaled to a quiet machine (see speed.py); ``--trace 1`` replays the operations with a span around every call into
treeq and reports the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedClock
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
# set-up is repeated until both minimums are met; its median is setup_s
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 5000
DEADLINE_S = 175  # a run must end within 180 s
MIN_SAMPLES = 110  # so that at least ten samples lie beyond p90
SHOWN_ERRORS = 5


def _import_treeq() -> None:
    src = ROOT / "src"
    if not (src / "treeq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no treeq sources under {src}")
    sys.path.insert(0, str(src))


def _benchmark() -> dict:
    """BENCHMARK.json: the workload names and the metrics a run must report."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Child: set-up, the timed loop and the traced replay


def _setup(wl, clock: SpeedClock) -> list[tuple[float, int]]:
    """(ms, reference index) of each set-up."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS
    ):
        ms, k, _ = clock.call(wl.setup)
        times.append((ms, k))
    return times


class _Failures:
    def __init__(self) -> None:
        self.count = 0

    def note(self, where: str, problem: str) -> None:
        self.count += 1
        if self.count <= SHOWN_ERRORS:
            print(f"perfbench: {where} failed: {problem}", file=sys.stderr)


def _guarded(fn, *args):
    """(value, problem): an operation that raises is counted as failed, never ends the run."""
    try:
        return fn(*args), None
    except Exception as exc:  # the run must go on and count it
        return None, "".join(traceback.format_exception_only(exc)).strip()


def _checked(wl, i: int, out) -> str | None:
    problem, raised = _guarded(wl.check, i, out)
    return raised or problem


def _loop(wl, clock: SpeedClock, seconds: float, failures: _Failures, min_samples: int):
    """Untraced passes over operations 0 .. ``wl.distinct_ops`` - 1, back to back,
    until ``seconds`` pass, one pass is complete and ``min_samples`` runs are done.

    Returns ((ms, reference index) of every run, one list per operation; the
    digest of each operation's first output). Every later output of an
    operation must have the same digest as its first.
    """
    k = wl.distinct_ops
    runs: list[list[tuple[float, int]]] = [[] for _ in range(k)]
    digests: list = [None] * k
    start = time.perf_counter()
    passes = done = 0
    while True:
        for i in range(k):
            ms, ref, (out, problem) = clock.call(_guarded, wl.run, i)
            if problem is None:
                problem = _checked(wl, i, out)
            digest = None if out is None else wl.digest(out)
            if passes == 0:
                digests[i] = digest
            elif problem is None and digest != digests[i]:
                problem = "output differs from the first output of the same operation"
            if problem:
                failures.note(f"operation {i}, pass {passes}", problem)
            runs[i].append((ms, ref))
            done += 1
            if passes >= 1 and done >= min_samples and time.perf_counter() - start >= seconds:
                return runs, digests
        passes += 1


def _end_to_end(wl, clock: SpeedClock, seconds: float, setup_times: list) -> dict:
    failures = _Failures()
    runs, _ = _loop(wl, clock, seconds, failures, MIN_SAMPLES)
    raw = [ms for r in runs for ms, _ in r]
    scaled = [clock.scaled(ms, ref) for r in runs for ms, ref in r]
    n = len(raw)
    metrics = {
        "latency_ms.p50": statistics.median(scaled),
        "latency_ms.p90": statistics.quantiles(scaled, n=10)[-1],
        "throughput_ops": 1000 * len(scaled) / sum(scaled),
        "setup_s": statistics.median(clock.scaled(ms, ref) for ms, ref in setup_times) / 1000,
        "ok_frac": (n - failures.count) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = {
        "latency_ms.p50": statistics.median(raw),
        "latency_ms.p90": statistics.quantiles(raw, n=10)[-1],
        "throughput_ops": 1000 * len(raw) / sum(raw),
        "setup_s": statistics.median(ms for ms, _ in setup_times) / 1000,
    }
    return {"attempted": n, "failed": failures.count, "samples": n, "metrics": metrics, "unscaled": unscaled}


def _per_layer(wl, clock: SpeedClock, seconds: float, setup_times: list, work: Path) -> dict:
    failures = _Failures()
    runs, digests = _loop(wl, clock, seconds / 2, failures, 0)
    attempted = sum(len(r) for r in runs)
    tracer = Tracer()
    refs = []
    for i in range(wl.distinct_ops):
        refs.append(clock.calibrate())
        with tracer.operation(i):
            out, problem = _guarded(wl.replay, i, tracer)
        if problem is None:
            problem = _checked(wl, i, out)
            if problem is None and wl.digest(out) != digests[i]:
                problem = "traced replay and the untraced operation gave different outputs"
        if problem:
            failures.note(f"traced operation {i}", problem)
    attempted += wl.distinct_ops
    cli_ms = 0.0
    if wl.cli_run is not None:
        attempted += 1
        outcome, raised = _guarded(wl.cli_run)
        cli_ms, problem = outcome if outcome else (0.0, raised)
        if problem:
            failures.note("treeq run", problem)
    metrics = tracer.layer_metrics(wl.count_ops)
    # both sides scaled, so that a change in the machine's speed between the
    # untraced loop and the replay does not read as tracing overhead
    traced = tracer.op_latencies_ms()
    untraced = sum(statistics.median(clock.scaled(ms, ref) for ms, ref in r) for r in runs)
    metrics["trace.overhead_frac"] = sum(clock.scaled(traced[i], refs[i]) for i in traced) / untraced - 1
    metrics["cli.run_ms"] = cli_ms
    metrics["graph.load_ms"] = statistics.median(ms for ms, _ in setup_times)
    tracer.write(work / "spans.jsonl")
    return {"attempted": attempted, "failed": failures.count, "samples": attempted, "metrics": metrics}


def _child(work: Path, seconds: float, trace: int) -> int:
    _import_treeq()
    from workloads import WORKLOADS as CLASSES

    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    wl = CLASSES[spec["workload"]](spec, work)
    clock = SpeedClock()
    setup_times = _setup(wl, clock)
    if trace:
        result = _per_layer(wl, clock, seconds, setup_times, work)
    else:
        result = _end_to_end(wl, clock, seconds, setup_times)
    result["setup_reps"] = len(setup_times)
    result["reference_ms"] = [min(clock.kernel_ms), statistics.median(clock.kernel_ms), len(clock.kernel_ms)]
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: inputs, the child process, the report


def _parent(args: argparse.Namespace, bench: dict) -> int:
    started = time.monotonic()
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    _import_treeq()
    from inputs import generate

    work = WORK / f"{args.workload}-seed{args.seed}"
    spec = generate(args.workload, args.seed, work)
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    # no search budget, so outcomes and search counts never depend on timing
    env = {k: v for k, v in os.environ.items() if k != "CTP_DEFAULT_TIMEOUT_MS"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--child", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        print("perfbench: the measuring process ran out of time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: the measuring process exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"client=1 closed-loop")
    print("generator " + json.dumps(spec["generator"], sort_keys=True))
    print(f"samples {result['samples']}, set-up reps {result['setup_reps']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, fail_frac {result['failed'] / result['attempted']}")
    best, median, count = result["reference_ms"]
    print(f"reference kernel: best {best:.3f} ms, median {median:.3f} ms over {count} runs")
    unscaled = result.get("unscaled", {})
    for name in sorted(metrics):
        wall = f"  (unscaled {unscaled[name]:.6f})" if name in unscaled else ""
        print(f"  {name:32s} {metrics[name]:14.6f} {declared[name]}{wall}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in sorted(metrics)},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    bench = _benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(Path(args.child), args.seconds, args.trace)
    return _parent(args, bench)


if __name__ == "__main__":
    sys.exit(main())
