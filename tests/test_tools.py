"""Smoke tests of the timing tools under tools/: each runs once, small."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tool(*args, cwd=ROOT) -> str:
    return subprocess.run([sys.executable, *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout


def test_abtime_times_a_tree_against_itself():
    src = str(ROOT / "src")
    out = tool("tools/abtime.py", src, src, "--workload", "multistart",
               "--seeds", "1", "--rounds", "1").splitlines()
    assert out[0] == "multistart, seeds 1, best of 1 rounds, unscaled"
    assert out[1].startswith("old: cycle ") and out[2].startswith("new: ")
    assert all(line.endswith(", 0 labels failed a check")
               for line in out[1:3])
    assert "median per-op ratio" in out[3] and "over 144 ops" in out[3]
    # the 25th, 50th and 75th percentiles of the ratios, the 50th being
    # the median the line before gives
    head, _, values = out[4].partition(": ")
    assert head == "per-op ratio quartiles"
    q1, q2, q3 = map(float, values.split(", "))
    assert 0 < q1 <= q2 <= q3
    assert out[3].split("median per-op ratio ")[1].startswith(f"{q2:.4f} ")
    # one line per label of the ladder, both algorithms
    assert out[5] == "median per-op ratio by label:"
    assert len(out[6:]) == 24


def test_abtime_groups_cli_small_by_call():
    # one line per call in place of one per (call, factor method, n, d)
    src = str(ROOT / "src")
    out = tool("tools/abtime.py", src, src, "--workload", "cli-small",
               "--seeds", "1", "--rounds", "1").splitlines()
    assert "over 960 ops" in out[3]
    assert out[5] == "median per-op ratio by call:"
    calls = [line.split()[:-2] for line in out[6:]]
    assert calls == [["decompose"], ["predict"], ["run"],
                     ["run", "--no-trace"]]
    assert all(line.endswith("(240)") for line in out[6:])


def test_bench_point_writes_the_records(tmp_path):
    out = tool("tools/bench_point.py", "smoke", "--seeds", "1",
               "--seconds", "0.05", "--workloads", "multistart",
               "--out", str(tmp_path))
    path = tmp_path / "BENCH_smoke.json"
    assert out.strip() == str(path)
    doc = json.loads(path.read_text())
    assert doc["label"] == "smoke" and doc["seeds"] == [1]
    (record,) = doc["records"]["multistart"]
    assert record["stamps"]["workload"] == "multistart"
    assert record["stamps"]["seed"] == 1
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert doc["median_over_seeds"]["multistart"] == metrics
    assert {"ops_per_s", "op_ms_p50", "peak_rss_mb"} <= metrics.keys()
