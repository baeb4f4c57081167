"""Run the benchmark on two revisions in alternating pairs and write a
trajectory file.

    python3 .github/scripts/bench_pairs.py --parent HEAD~1 --pairs 10 \\
        --workloads train search --seconds 30 --out BENCH.json

The parent and the change (`--change`, default HEAD) are checked out as
two `git worktree`s under one temporary directory, at paths of equal
length, since train speed and search memory move with the checkout path's
length. Both are removed on exit, also when a run fails or the script is
interrupted or terminated. For each workload, pair i runs
`perfbench/run.py --trace 0` once in each checkout, the parent first in
even pairs and the change first in odd ones, and reads the JSON record
that the run prints last.

The metrics, their directions and bounds are `end_to_end` of the change's
`BENCHMARK.json`. For each workload and metric the file holds both sides'
per-pair values, medians and quartiles (inclusive method), the relative
change of the median, and the pairs in which the change read better. Two
verdicts follow:
- `gain`: the change read better in at least 9 of 10 pairs (90%), and its
  median beats the parent's by more than the parent's quartile spread.
- `within_bound`: the change's median is no worse than the parent's by more
  than the metric's relative bound.

The script exits 1 when a run exits non-zero or prints no JSON record (each
run's outcome is in the file), and 2 when a revision does not resolve.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
GAIN_SHARE = 0.9


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its exit code and, from the JSON record it printed
    last, whether it was correct, its failed and attempted operations and
    its metrics' values (an operation failed and no metrics without one)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    records = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not records:
        print(f"bench_pairs: {workload} in {checkout.name} exited {proc.returncode}"
              f"{'' if records else ' without a JSON record'}:\n{proc.stderr}", file=sys.stderr)
    if not records:
        return {"exit": proc.returncode, "correct": False, "failed": 1, "attempted": 1, "metrics": {}}
    record = json.loads(records[-1])
    return {
        "exit": proc.returncode,
        "correct": record["correct"],
        "failed": record["failed"],
        "attempted": record["attempted"],
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
    }


def summary(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def judge(metric: dict, parent: list, change: list) -> dict:
    """Both sides' figures for one metric over the pairs that gave both
    values, and the two verdicts."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = summary(parent), summary(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (c["median"] - p["median"])
    worst = p["median"] * (1.0 - sign * metric["bound"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "median_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= GAIN_SHARE * len(parent) and gap > p["q3"] - p["q1"],
        "within_bound": sign * (c["median"] - worst) >= 0,
    }


def bench(args, checkouts: dict, revs: dict) -> tuple[dict, bool]:
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {
        "parent": revs["parent"],
        "change": revs["change"],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        # The CPUs the runs may use, which fusion.WORKERS counts too.
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "workloads": {},
    }
    ok = True
    for workload in args.workloads:
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            outcome = {side: run_once(checkouts[side], workload, args.seed, args.seconds)
                       for side in order}
            runs.append({"pair": pair, "first": order[0], **outcome})
            ok = ok and all(o["exit"] == 0 and o["metrics"] for o in outcome.values())
        metrics = {}
        for metric in spec["end_to_end"]:
            both = [r for r in runs if all(metric["name"] in r[side]["metrics"] for side in SIDES)]
            if both:
                parent, change = ([r[side]["metrics"][metric["name"]] for r in both] for side in SIDES)
                metrics[metric["name"]] = judge(metric, parent, change)
        for r in runs:
            for side in SIDES:
                del r[side]["metrics"]  # kept per metric above
        result["workloads"][workload] = {
            **{f"{key}_{side}": sum(r[side][key] for r in runs)
               for key in ("failed", "attempted") for side in SIDES},
            "metrics": metrics,
            "runs": runs,
        }
    return result, ok


def terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test (default HEAD)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", default=["train", "search", "postsearch"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="the trajectory file to write")
    parser.add_argument("--repo", default=".", help="the git repository (default: here)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    repo = Path(git(Path(args.repo), "rev-parse", "--show-toplevel"))
    revs = {}
    for side in SIDES:
        try:
            revs[side] = git(repo, "rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}")
        except subprocess.CalledProcessError:
            print(f"bench_pairs: --{side} {getattr(args, side)!r} is not a revision", file=sys.stderr)
            return 2

    signal.signal(signal.SIGTERM, terminate)
    base = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    checkouts = {side: base / side for side in SIDES}  # "parent" and "change": equal lengths
    try:
        for side in SIDES:
            git(repo, "worktree", "add", "--detach", str(checkouts[side]), revs[side])
        result, ok = bench(args, checkouts, revs)
    finally:
        # Pruning after the directories are gone drops the worktrees' records.
        shutil.rmtree(base, ignore_errors=True)
        subprocess.run(["git", "-C", str(repo), "worktree", "prune"], capture_output=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
