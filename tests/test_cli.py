"""Boundary checks of the command-line front end: bad input exits with
the documented config code and a message, never a traceback."""

import json

import pytest

from graphsplit import cli


def write_config(tmp_path, text: str):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_spanner_exits_with_config_code(bad, tmp_path, capsys):
    # Python's json reads NaN and Infinity, so a config can carry them
    path = write_config(tmp_path, (
        '{"problem": {"preset": "douglas_rachford"}, "d": 2, '
        f'"subspaces": [[[1.0, 0.0]], [[0.0, 1.0], [{bad}, 1.0]]]}}'))
    assert cli.main(["predict", "--config", path]) == cli.EXIT_CONFIG
    assert "spanner 1 is not finite" in capsys.readouterr().err


def test_non_integer_node_label_exits_with_config_code(capsys):
    graph = json.dumps({"n": 3, "edges": [[1.5, 2], [2, 3]]})
    assert cli.main(["decompose", "--graph", graph]) == cli.EXIT_CONFIG
    assert "integer node labels" in capsys.readouterr().err


def test_finite_config_predicts(tmp_path, capsys):
    path = write_config(tmp_path, json.dumps({
        "problem": {"preset": "douglas_rachford"}, "d": 2,
        "subspaces": [[[1.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]}))
    assert cli.main(["predict", "--config", path]) == cli.EXIT_OK
    assert '"dim_U": 1' in capsys.readouterr().out


VALID = {"problem": {"preset": "sequential", "n": 3}, "d": 2,
         "subspaces": {"random": {"dim": 1}}, "max_iters": 50}


@pytest.mark.parametrize("change", [
    {"subspaces": 5},
    {"problem": {"graph": {"n": 3, "edges": [1, 2]}}},
    {"subspaces": {"random": {"dims": 5}}},
    {"subspaces": None, "operators": [5, {"callback": "zero"}, {"callback": "zero"}]},
    {"d": 2.7},
    {"d": True},
    {"d": 0, "subspaces": {"random": {"dim": 0}}},
    {"problem": {"preset": "sequential", "n": 3.9}},
    {"max_iters": 2.9},
    {"seed": 2.5},
    {"subspaces": {"random": {"dim": 1, "seed": 1.5}}},
], ids=["subspaces-int", "edges-not-pairs", "dims-int", "operator-not-object",
        "d-fraction", "d-bool", "d-zero", "n-fraction", "max-iters-fraction",
        "seed-fraction", "random-seed-fraction"])
def test_malformed_config_exits_with_config_code(change, tmp_path, capsys):
    cfg = {k: v for k, v in {**VALID, **change}.items() if v is not None}
    path = write_config(tmp_path, json.dumps(cfg))
    assert cli.main(["run", "--no-trace", "--config", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_decompose_preset_order_zero_exits_with_config_code(capsys):
    assert cli.main(["decompose", "--preset", "sequential", "-n", "0"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_integer_valued_floats_accepted(tmp_path, capsys):
    path = write_config(tmp_path, json.dumps({
        **VALID, "problem": {"preset": "sequential", "n": 3.0}, "d": 2.0,
        "max_iters": 50.0}))
    assert cli.main(["run", "--no-trace", "--config", path]) == cli.EXIT_OK
    assert '"converged": true' in capsys.readouterr().out
