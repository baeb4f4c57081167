"""Benchmark of the avsearch CLI: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

The run makes its inputs from the seed, drives `avsearch.cli.main` in this
process for every stage, checks each stage's output against float64
references, and prints a summary followed by one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` passes
repeat for `--seconds` and the metrics are the end-to-end ones, pooled over
the passes.
With `--trace 1` a traced set-up is followed by an untraced, a traced and an
untraced pass, and the metrics are per-layer totals of the traced set-up and
pass.
The exit code is 1 when any stage failed or produced a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# One thread. On a shared 2-vCPU host each vCPU's speed changes on its own
# (up to 2x, for seconds at a time), and a second BLAS thread would tie
# every parallel call to whichever vCPU is slower at the moment.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "AVSEARCH_WORKERS")


def pin_environment() -> dict:
    """Fix BLAS/OpenMP threads and the manifest pool size before NumPy loads."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    return {var: THREADS for var in THREAD_VARS}


def import_program():
    """Import the package from this checkout's `src`, and nothing else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import avsearch.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import avsearch from {src}: {exc}")
    if Path(avsearch.cli.__file__).resolve().parent != src / "avsearch":
        sys.exit(f"perfbench: avsearch was imported from {avsearch.cli.__file__}, not {src}")
    return avsearch.cli


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def describe_environment(threads: dict, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.25 prints its config instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "threads": threads,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checked(workload, runner) -> tuple[dict, bool]:
    """One pass plus its output checks; True when every stage is correct."""
    results = workload.run_pass(runner)
    try:
        problems = workload.check(results)
    except Exception as exc:  # a crash while checking is a failed check
        problems = [f"check crashed: {type(exc).__name__}: {exc}"]
    for problem in problems:
        runner.fail(problem)
    return results, not problems and all(r.ok for r in results.values())


def aggregate(passes: list[dict], name: str) -> float:
    """Sum of a figure's numerators over sum of its denominators."""
    return sum(p[name][0] for p in passes) / sum(p[name][1] for p in passes)


def end_to_end(workload, passes: list[dict], setup_times: list[float]) -> dict:
    """Rates and times pool every pass: the host's speed changes for
    seconds at a time, and pooling averages over those changes where a
    median of two or three passes would jump between them."""
    measured = [workload.measures(p) for p in passes]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "pipeline_s": (statistics.mean(sum(r.seconds for r in p.values()) for p in passes), "s", len(passes)),
        "throughput_per_s": (aggregate(measured, workload.THROUGHPUT), "1/s", len(passes)),
        "mAP": (aggregate(measured, workload.QUALITY), "mAP", len(passes)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_environment()
    cli = import_program()
    from perfbench import layers
    from perfbench.stages import StageRunner
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = describe_environment(threads, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    runner = StageRunner(cli, tracer)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        # Set-up repeats; the last copy of the inputs is the one measured.
        setup_times = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            start = perf_counter()
            with tracer.patched() if tracer else nullcontext():
                workload.setup(runner)
            setup_times.append(perf_counter() - start)
            if runner.failures:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
        workload.prepare()

        passes = []
        clean = []
        if tracer:
            # Untraced passes on both sides of the traced one give the overhead.
            before, ok_before = run_checked(workload, runner)
            tracer.run = "pass-1"
            with tracer.patched():
                traced, ok_traced = run_checked(workload, runner)
            after, ok_after = run_checked(workload, runner)
            passes = [before, traced, after]
            ok = ok_before and ok_traced and ok_after
        else:
            # Stop before a pass would end past the time budget (one at least).
            start = perf_counter()
            last = 0.0
            while not passes or perf_counter() - start + last <= args.seconds:
                began = perf_counter()
                results, ok = run_checked(workload, runner)
                last = perf_counter() - began
                passes.append(results)
                if ok:
                    clean.append(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = min(len(runner.failures), runner.attempted)
    if tracer:
        before, traced, after = passes
        trace_path = ROOT / ".perfbench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        layers.write_spans(trace_path, tracer.spans, env)
        metrics = layers.per_layer(tracer.spans, [before, after], traced) if ok else {}
    else:
        metrics = end_to_end(workload, clean, setup_times) if clean else {}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(workload.info(), sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name:<40} {value:>12.6g} {unit:<6} n={n}")
    measured = [workload.measures(results) for results in clean]
    for name, (_, _, unit) in (measured[0] if measured else {}).items():
        print(f"stage  {name:<40} {aggregate(measured, name):>12.6g} {unit:<6} n={len(measured)}")
    if tracer and ok:
        layers.print_report(tracer.spans, [before, after], traced)
    print(f"stage  {'fail_frac':<40} {failed / runner.attempted:>12.6g} ({failed}/{runner.attempted})")
    for problem in runner.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
