"""`.github/scripts/bench_pairs.py` on a throwaway git repository whose
stub `perfbench/run.py` prints a fixed record per revision."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "bench_pairs.py"

# Prints the speed in speed.txt as throughput and 100 / speed as time, and
# logs the speed and workload of each run; a negative speed fails the run.
STUB = """\
import json, os, sys
from pathlib import Path
speed = float((Path(__file__).resolve().parent.parent / "speed.txt").read_text())
with open(os.environ["BENCH_STUB_LOG"], "a") as log:
    log.write(f"{speed:g} {sys.argv[sys.argv.index('--workload') + 1]}\\n")
if speed < 0:
    sys.exit(1)
print("metric lines")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "pipeline_s": {"value": 100.0 / speed, "unit": "s"},
    "throughput_per_s": {"value": speed, "unit": "1/s"},
}}))
"""

SPEC = {
    "end_to_end": [
        {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout


@pytest.fixture
def repo(tmp_path):
    """A repository of two commits: the parent at speed 100, the change at
    120."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    git(repo, "init", "-q")
    for speed in ("100", "120"):
        (repo / "speed.txt").write_text(speed)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", f"speed {speed}")
    return repo


def bench_pairs(repo, tmp_path, *args):
    env_tmp = tmp_path / "tmp"
    env_tmp.mkdir(exist_ok=True)
    env = {"PATH": "/usr/bin:/bin", "TMPDIR": str(env_tmp), "BENCH_STUB_LOG": str(tmp_path / "log")}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--seconds", "1", "--out", str(tmp_path / "BENCH.json"), *args],
        cwd=repo, env=env, capture_output=True, text=True,
    )
    # Both worktrees are gone, from the repository and from the disk.
    assert git(repo, "worktree", "list").count("\n") == 1
    assert list(env_tmp.iterdir()) == []
    return proc


def test_pairs_alternate_and_verdicts(repo, tmp_path):
    proc = bench_pairs(repo, tmp_path, "--parent", "HEAD~1", "--pairs", "3",
                       "--workloads", "train", "search")
    assert proc.returncode == 0, proc.stderr
    # Parent first in even pairs, change first in odd ones, workload by workload.
    order = ["100", "120", "120", "100", "100", "120"]
    assert (tmp_path / "log").read_text().split("\n")[:-1] == (
        [f"{s} train" for s in order] + [f"{s} search" for s in order]
    )
    out = json.loads((tmp_path / "BENCH.json").read_text())
    assert out["parent"] == git(repo, "rev-parse", "HEAD~1").strip()
    assert out["change"] == git(repo, "rev-parse", "HEAD").strip()
    train = out["workloads"]["train"]
    assert [r["first"] for r in train["runs"]] == ["parent", "change", "parent"]
    assert train["failed_parent"] == train["failed_change"] == 0
    assert train["attempted_change"] == 12
    faster = train["metrics"]["throughput_per_s"]
    assert faster["parent"] == {"values": [100.0] * 3, "median": 100.0, "q1": 100.0, "q3": 100.0}
    assert faster["change"]["values"] == [120.0] * 3
    assert faster["median_change"] == pytest.approx(0.2)
    assert (faster["wins"], faster["gain"], faster["within_bound"]) == (3, True, True)
    # 100/120 of the parent's time is better, not worse, by 16.7%.
    quicker = train["metrics"]["pipeline_s"]
    assert (quicker["wins"], quicker["gain"], quicker["within_bound"]) == (3, True, True)


def test_a_worse_change_is_out_of_bound(repo, tmp_path):
    proc = bench_pairs(repo, tmp_path, "--parent", "HEAD", "--change", "HEAD~1", "--pairs", "2",
                       "--workloads", "postsearch")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["postsearch"]["metrics"]
    slower = metrics["throughput_per_s"]
    # 100 against 120 is 16.7% worse: within the 25% bound, but no gain.
    assert (slower["wins"], slower["gain"], slower["within_bound"]) == (0, False, True)
    assert metrics["pipeline_s"]["median_change"] == pytest.approx(0.2)


def test_failed_run_exits_1_and_removes_the_worktrees(repo, tmp_path):
    (repo / "speed.txt").write_text("-1")
    git(repo, "commit", "-q", "-am", "broken")
    proc = bench_pairs(repo, tmp_path, "--parent", "HEAD~1", "--pairs", "1", "--workloads", "train")
    assert proc.returncode == 1
    assert "train in change exited 1 without a JSON record" in proc.stderr
    train = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["train"]
    assert (train["failed_parent"], train["failed_change"]) == (0, 1)
    assert train["metrics"] == {}


def test_unknown_revision_exits_2(repo, tmp_path):
    proc = bench_pairs(repo, tmp_path, "--parent", "no-such-rev", "--pairs", "1")
    assert proc.returncode == 2
    assert "--parent 'no-such-rev' is not a revision" in proc.stderr
    assert not (tmp_path / "BENCH.json").exists()
