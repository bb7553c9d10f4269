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
