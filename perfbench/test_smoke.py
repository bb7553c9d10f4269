"""Smoke test of the benchmark itself: every workload at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
LAYERS = ("graphs", "factor", "operators", "presets", "analysis", "engine",
          "cli")

TINY = {
    "multistart": {"ladder": (("generalized_ryu", 3, 4, True),
                              ("complete", 3, 4, False)),
                   "starts": 1},
    "predict-large": {"ladder": (("complete", 4, 3, 1),
                                 ("malitsky_tam", 4, 2, 2))},
    "cli-small": {"specs": 5},
}


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Tiny workloads writing under tmp_path; afterwards the graphsplit
    modules the rest of the session imported are put back."""
    saved = {k: m for k, m in sys.modules.items() if k.startswith("graphsplit")}
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, functools.partial(
            workloads.WORKLOADS[name], **sizes))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    yield tmp_path
    for k in [k for k in sys.modules if k.startswith("graphsplit")]:
        del sys.modules[k]
    sys.modules.update(saved)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                     "0.05", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workload_names_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(bench, capsys, workload, trace):
    record, result = _run(capsys, workload, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert record["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    assert record["stamps"]["seed"] == 3
    assert record["stamps"]["backend"] in ("numpy", "numba")


def test_an_op_failing_its_oracle_counts_in_fail_frac(bench, capsys,
                                                      monkeypatch):
    real = workloads.fresh_import

    def broken_engine():
        gs = real()
        good = gs.run_alg2

        def off_by_one(*args, **kwargs):
            trace = good(*args, **kwargs)
            trace.v = trace.v + 1.0
            return trace

        gs.run_alg2 = off_by_one
        return gs

    monkeypatch.setattr(workloads, "fresh_import", broken_engine)
    record, result = _run(capsys, "multistart", 0)
    reduced = result["attempted"] // 2
    assert not result["correct"]
    assert result["failed"] == reduced > 0
    assert record["fail_frac"]["value"] == pytest.approx(
        reduced / result["attempted"])
    assert record["failures_by_kind"] == {"oracle": reduced}


def test_traced_runs_emit_spans_for_every_layer(bench, capsys):
    seen = {}
    for workload in NAMES:
        record, result = _run(capsys, workload, 1)
        spans = json.loads(
            (bench / f"spans-{workload}-seed3.json").read_text())["spans"]
        seen[workload] = {name.split(".")[0] for name, *_ in spans}
        assert "op" in seen[workload]
    assert set(LAYERS) <= set().union(*seen.values())
    # each workload loads the layer it was chosen for
    assert "engine" in seen["multistart"]
    assert {"analysis", "operators"} <= seen["predict-large"]
    assert "cli" in seen["cli-small"]



@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("n", [0, 1, 300])
def test_json_trace_oracle_counts_records_one_at_a_time(tmp_path, indent, n):
    doc = {"converged": True, "stop_reason": "tol", "iterations": n,
           "records": [{"k": k, "residual": 0.5 ** k, "x": [[1.0, 2.0]],
                        "v": [[0.5]], "w": None} for k in range(1, n + 1)]}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc, indent=indent) + "\n")
    assert workloads._json_trace_rows(path, chunk=97) == (n, n)
    if n:
        path.write_text(json.dumps(doc, indent=indent)[:-40])
        with pytest.raises(ValueError):
            workloads._json_trace_rows(path, chunk=97)
