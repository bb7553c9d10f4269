"""Smoke tests of the timing tools under tools/, each run once, small;
and the comparison rule of tools/exactness.py, on hand-built outcomes."""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "exactness", ROOT / "tools" / "exactness.py")
exactness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exactness)


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
    labels = [line.split()[-1] for line in out[6:31]]
    assert labels == ["(6)"] * 24 + ["algorithm:"]


def test_abtime_gives_multistart_ratios_by_algorithm():
    # after the per-label lines, one line per algorithm over its 12 labels
    src = str(ROOT / "src")
    out = tool("tools/abtime.py", src, src, "--workload", "multistart",
               "--seeds", "1", "--rounds", "1").splitlines()
    assert out[30] == "median per-op ratio by algorithm:"
    algorithms = [line.split() for line in out[31:]]
    assert [a[0] for a in algorithms] == ["expanded", "reduced"]
    assert all(a[2] == "(72)" and float(a[1]) > 0 for a in algorithms)


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


# one op of each kind of output, keyed as exactness.collect keys them
RUN = ("run", 1, 0, "run eigen n=3 d=2")
VERIFY = ("verify --all-presets", 1, 0, "verify --all-presets")
MULTI = ("multistart", 2, 5, "sequential n=6 d=6 reduced")
LARGE = ("predict-large", 3, 7, "complete n=16 d=12")


def outcomes() -> dict:
    """Hand-built outcomes of a tree, each built from an output of its
    kind by ``exactness.outcome``."""
    ns = types.SimpleNamespace
    run = {"algorithm": "reduced", "converged": True, "stop_reason": "tol",
           "iterations": 83, "v_final": [[0.5, 1.5], [0.25, -1.0]]}
    case = {"preset": "sequential", "dim_E": 3,
            "reduced": {"iterations": 52, "v_err": 2.3e-16, "pass": True},
            "pass": True}
    report = {"tol": 1e-6, "cases": [case, dict(case, preset="complete")],
              "pass": True}
    pred = ns(u_bar=np.ones(2), e_bar=np.zeros((3, 2)), v_bar=np.eye(3, 2))
    e = ns(dim=2, basis=np.eye(6)[:, :2])
    trace = ns(converged=True, stop_reason="tol", k_final=40,
               v=np.full((4, 4), 0.5))
    out = {RUN: ((0, json.dumps(run)), b"trace bytes"),
           VERIFY: ((0, json.dumps(report)), b""),
           MULTI: (trace, b""),
           LARGE: ((ns(u_common=ns(dim=1)), e, e, pred, pred), b"")}
    return {key: dict(exactness.outcome(result, exactness.digest(trace)),
                      check="ok")
            for key, (result, trace) in out.items()}


def compare(old, new, capsys):
    status = exactness.compare(old, new)
    return status, capsys.readouterr().out.splitlines()


def test_outcome_fields_by_output_type():
    out = outcomes()
    assert list(out[RUN]) == ["exit", "trace", "stdout", "algorithm",
                              "converged", "stop_reason", "iterations",
                              "v_final", "check"]
    assert out[RUN]["v_final"].shape == (2, 2)
    assert out[VERIFY]["cases[1].reduced.v_err"] == 2.3e-16
    assert out[VERIFY]["cases[1].preset"] == "complete"
    assert list(out[MULTI]) == ["converged", "stop_reason", "iterations",
                                "v_final", "check"]
    assert list(out[LARGE]) == [f"alg{k}.{name}" for k in (1, 2)
                                for name in ("u_bar", "e_bar", "v_bar")] + [
        "dim_E", "dim_U", "projector", "check"]


def test_identical_trees_read_byte_identical(capsys):
    status, lines = compare(outcomes(), outcomes(), capsys)
    assert status == 0
    assert lines == ["4 ops; flags moved: 0"] + [
        f"{call}: every field byte-identical (1 ops)"
        for call in ("run", "verify --all-presets", "multistart",
                     "predict-large")]


@pytest.mark.parametrize("key, name, value", [
    (RUN, "iterations", 84),
    (MULTI, "iterations", 41),
    (VERIFY, "cases[1].reduced.pass", False),
    (VERIFY, "cases[0].dim_E", 4),
    (LARGE, "dim_E", 3),
    (RUN, "check", "oracle"),
    (MULTI, "check", "budget"),
    (RUN, "stop_reason", "max_iters"),
    (RUN, "v_final", np.zeros((3, 2))),
])
def test_a_moved_flag_is_listed_and_exits_1(key, name, value, capsys):
    old, new = outcomes(), outcomes()
    new[key][name] = value
    status, lines = compare(old, new, capsys)
    assert status == 1
    assert lines[0] == "4 ops; flags moved: 1"
    call, seed, i, label = key
    assert lines[1].startswith(f"  {call} seed {seed} op {i} ({label}) "
                               f"{name}: ")
    group = name.replace("[1]", "[]").replace("[0]", "[]")
    assert f"{call} {group}: moved in 1 ops" in lines


def test_a_rounding_move_reports_its_worst_difference(capsys):
    old, new = outcomes(), outcomes()
    new[VERIFY]["cases[0].reduced.v_err"] += 1e-16
    new[VERIFY]["cases[1].reduced.v_err"] += 5e-17
    new[MULTI]["v_final"] = old[MULTI]["v_final"].copy()
    new[MULTI]["v_final"][2, 1] += 2.0 ** -48
    status, lines = compare(old, new, capsys)
    assert status == 0
    assert ("verify --all-presets cases[].reduced.v_err: "
            "worst relative difference 1e-16") in lines
    # ||v|| = 2, so the difference 2^-48 reads as 2^-49
    assert "multistart v_final: worst relative difference 1.78e-15" in lines
    assert "run: every field byte-identical (1 ops)" in lines


def test_a_changed_digest_reads_not_identical(capsys):
    old, new = outcomes(), outcomes()
    new[RUN]["trace"] = exactness.digest(b"other trace")
    new[LARGE]["projector"] = exactness.digest(b"other projector")
    status, lines = compare(old, new, capsys)
    assert status == 0
    assert "run trace: not identical in 1 ops" in lines
    assert "predict-large projector: not identical in 1 ops" in lines


def test_a_field_in_one_tree_only_is_named(capsys):
    old, new = outcomes(), outcomes()
    new[LARGE]["rank"] = 2
    del old[RUN]["algorithm"]
    del new[MULTI]
    status, lines = compare(old, new, capsys)
    assert status == 0
    assert "predict-large rank: in the new tree only in 1 ops" in lines
    assert "run algorithm: in the new tree only in 1 ops" in lines
    assert "multistart converged: in the old tree only in 1 ops" in lines


def test_a_non_zero_exit_without_json_is_compared(capsys):
    failed = exactness.outcome((2, "error: no such preset\n"),
                               exactness.digest(b""))
    assert failed == {"exit": 2, "trace": exactness.digest(b""),
                      "stdout": "error: no such preset\n"}
    old, new = outcomes(), outcomes()
    old[RUN] = new[RUN] = dict(failed, check="exit")
    assert compare(old, new, capsys)[0] == 0
    new[RUN] = dict(failed, stdout="", check="exit")
    status, lines = compare(old, new, capsys)
    assert status == 1
    assert lines[1].endswith("stdout: 'error: no such preset\\n' -> ''")


@pytest.mark.parametrize("tables", [
    {"thetas": {1.0: [70, None], 0.5: [3, None]}},
    # an older tree's two tables, both cleared
    {"powers": {1.0: "P"}, "counts": {1.0: 70}},
])
def test_cold_rerun_clears_and_restores_the_map_caches(tables):
    # a stub package whose run reads what its problem's map holds
    lin = types.SimpleNamespace(**{k: dict(v) for k, v in tables.items()})
    problem = types.SimpleNamespace(_linear_map=lin)
    gs = types.SimpleNamespace(run_alg1=None, run_alg2=lambda p: {
        k: dict(v) for k, v in vars(p._linear_map).items()})
    op = types.SimpleNamespace(run=lambda: gs.run_alg2(problem))
    run = gs.run_alg2
    first, cold = exactness.cold_rerun(gs, op)
    assert first == tables and cold == {k: {} for k in tables}
    assert vars(lin) == tables and gs.run_alg2 is run


def test_cold_rerun_refuses_a_map_without_caches():
    # clearing nothing would read the old tree's spread as 0
    problem = types.SimpleNamespace(
        _linear_map=types.SimpleNamespace(cache={1.0: [70, None]}))
    gs = types.SimpleNamespace(run_alg1=None, run_alg2=lambda p: 0)
    op = types.SimpleNamespace(run=lambda: gs.run_alg2(problem))
    with pytest.raises(RuntimeError, match="none of"):
        exactness.cold_rerun(gs, op)
