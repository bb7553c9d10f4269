"""Boundary checks of the command-line front end (bad input exits with
the documented config code and a message, never a traceback), and the
reports of ``verify`` and ``list-presets``."""

import json
import sys

import pytest

from graphsplit import cli
from graphsplit.presets import PRESET_NAMES


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


#: a change that removes its field from the config
DROP = object()
#: the path 1 - 2 - 3 as graph JSON
PATH = {"n": 3, "edges": [[1, 2], [2, 3]]}
STRINGS = [["1", "0"], ["0", "1"], ["1", "1"]]
#: an integer literal beyond the float range
HUGE = 10 ** 400


@pytest.mark.parametrize("change, flags", [
    ({"subspaces": 5}, []),
    ({"problem": {"graph": {"n": 3, "edges": [1, 2]}}}, []),
    ({"subspaces": {"random": {"dims": 5}}}, []),
    ({"subspaces": DROP,
      "operators": [5, {"callback": "zero"}, {"callback": "zero"}]}, []),
    ({"d": 2.7}, []),
    ({"d": True}, []),
    ({"d": 0, "subspaces": {"random": {"dim": 0}}}, []),
    ({"problem": {"preset": "sequential", "n": 3.9}}, []),
    ({"max_iters": 2.9}, []),
    ({"seed": 2.5}, []),
    ({"subspaces": {"random": {"dim": 1, "seed": 1.5}}}, []),
    ({"tol": None}, []),
    ({"tol": [1]}, []),
    ({"problem": 5}, []),
    ({"theta": [[1, 2]]}, []),
    ({"tol": "1e-3"}, []),
    ({"theta": "1.5"}, []),
    ({"w0": STRINGS}, []),
    ({"tol": float("nan")}, []),
    ({"tol": -1}, []),
    ({}, ["--tol", "-1"]),
    ({"subspaces": [5, 5, 5]}, []),
    ({"subspaces": [[["1", "0"]], [[1, 0]], [[0, 1]]]}, []),
    ({"subspaces": [[[[1], [0]]], [[1, 0]], [[0, 1]]]}, []),
    ({"subspaces": [[[1, 0]], [[1]], [[0, 1]]]}, []),
    ({"subspaces": DROP, "operators": [{"spanners": [["1", "0"]]},
                                       {"callback": "zero"},
                                       {"callback": "zero"}]}, []),
    ({"subspaces": DROP, "operators": [{"spanners": 5}, {"callback": "zero"},
                                       {"callback": "zero"}]}, []),
    ({"subspaces": [[[HUGE, 0]], [[1, 0]], [[0, 1]]]}, []),
    ({"tol": HUGE}, []),
    ({"theta": HUGE}, []),
    ({"theta": [1, HUGE]}, []),
    ({"w0": [[1, 0], [0, HUGE], [1, 1]]}, []),
    ({"v0": [[HUGE, 0], [1, 1]]}, []),
    ({"subspaces": {"random": {"common": [HUGE, 0]}}}, []),
    ({"max_iter": 5, "thta": 3}, []),
    ({"subspaces": DROP, "operators": [{"spanners": [[1, 0]],
                                        "callback": "zero"},
                                       {"callback": "zero"},
                                       {"callback": "zero"}]}, []),
    ({"subspaces": DROP, "operators": [{}, {"callback": "zero"},
                                       {"callback": "zero"}]}, []),
    ({"problem": {"preset": "sequential", "n": 3, "graph": PATH}}, []),
    ({"problem": {"preset": "sequential", "n": 3, "method": "eigen"}}, []),
    ({"problem": {"graph": PATH, "n": 3}}, []),
    ({"problem": {"graph": {**PATH, "directed": True}}}, []),
    ({"operators": [{"callback": "zero"}] * 3}, []),
    ({"subspaces": {"random": {"dim": 1}, "planted": True}}, []),
    ({"subspaces": {"random": {"dim": 1, "dimension": 2}}}, []),
    ({"subspaces": {"random": {"dim": 2, "dims": [1, 1, 1]}}}, []),
    ({"subspaces": {"random": {"dims": None}}}, []),
], ids=["subspaces-int", "edges-not-pairs", "dims-int", "operator-not-object",
        "d-fraction", "d-bool", "d-zero", "n-fraction", "max-iters-fraction",
        "seed-fraction", "random-seed-fraction", "tol-null", "tol-list",
        "problem-int", "theta-nested", "tol-str", "theta-str", "w0-str",
        "tol-nan", "tol-negative", "tol-flag-negative", "subspaces-ints",
        "spanner-str", "spanner-nested", "spanner-short",
        "operator-spanner-str", "operator-spanners-int", "spanner-huge-int",
        "tol-huge-int", "theta-huge-int", "theta-list-huge-int",
        "w0-huge-int", "v0-huge-int", "common-huge-int",
        "config-unknown-fields", "operator-spanners-and-callback",
        "operator-empty", "problem-preset-and-graph",
        "problem-preset-and-method", "problem-graph-and-n",
        "graph-unknown-field", "subspaces-and-operators",
        "subspaces-unknown-field", "random-unknown-field",
        "random-dim-and-dims", "random-dims-null"])
def test_malformed_config_exits_with_config_code(change, flags, tmp_path, capsys):
    cfg = {k: v for k, v in {**VALID, **change}.items() if v is not DROP}
    path = write_config(tmp_path, json.dumps(cfg))
    argv = ["run", "--no-trace", "--config", path, *flags]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [2 ** 40, HUGE])
@pytest.mark.parametrize("name", ["sequential", "complete", "malitsky_tam"])
def test_huge_preset_order_exits_with_config_code(name, n, tmp_path, capsys):
    # the preset's graphs are refused before any edge list is built
    cfg = {**VALID, "problem": {"preset": name, "n": n}}
    path = write_config(tmp_path, json.dumps(cfg))
    assert cli.main(["run", "--no-trace", "--config", path]) == cli.EXIT_CONFIG
    assert cli.main(["decompose", "--preset", name, "-n", str(n)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("error: ") for e in err)


def test_huge_budget_runs(tmp_path, capsys):
    # the budget bounds the run; nothing of its size is allocated
    path = write_config(tmp_path, json.dumps({**VALID, "max_iters": 10 ** 12}))
    assert cli.main(["run", "--no-trace", "--config", path]) == cli.EXIT_OK
    assert '"converged": true' in capsys.readouterr().out


def test_budget_beyond_maxsize_exits_with_config_code(tmp_path, capsys):
    path = write_config(tmp_path, json.dumps({**VALID, "max_iters": 10 ** 31}))
    assert cli.main(["run", "--no-trace", "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: max_iters") and str(sys.maxsize) in err


def test_huge_graph_order_exits_with_config_code(capsys):
    graph = json.dumps({"n": 10 ** 12, "edges": [[1, 2]]})
    assert cli.main(["decompose", "--graph", graph]) == cli.EXIT_CONFIG
    assert "disconnected" in capsys.readouterr().err


@pytest.mark.parametrize("change, field", [
    ({"max_iter": 5, "thta": 3}, "'max_iter'"),
    ({"problem": {"preset": "sequential", "n": 3, "graph": PATH}}, "'graph'"),
    ({"problem": {"graph": {**PATH, "directed": True}}}, "'directed'"),
    ({"operators": [{"callback": "zero"}] * 3}, "'operators'"),
])
def test_rejected_field_is_named(change, field, tmp_path, capsys):
    path = write_config(tmp_path, json.dumps({**VALID, **change}))
    assert cli.main(["predict", "--config", path]) == cli.EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decompose", "--preset", "sequential", "-n", "3",
     "--graph", json.dumps(PATH)],
    ["verify", "--all-presets", "--config", json.dumps(VALID)],
], ids=["decompose-preset-and-graph", "verify-config-and-all-presets"])
def test_conflicting_flags_exit_with_config_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--graph", json.dumps(PATH), "-n", "3"],
                                   ["--preset", "sequential", "-n", "3",
                                    "--method", "eigen"]],
                         ids=["graph-and-n", "preset-and-method"])
def test_decompose_flag_outside_its_problem_exits_with_config_code(flags, capsys):
    assert cli.main(["decompose", *flags]) == cli.EXIT_CONFIG
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


#: a config whose runs take about 150 iterations
SLOW = {"problem": {"preset": "generalized_ryu", "n": 5}, "d": 3,
        "subspaces": {"random": {"dim": 2, "common": True}},
        "w0": "random", "v0": "random"}


def verify(argv, capsys):
    code = cli.main(["verify", *argv])
    return code, capsys.readouterr().out


def test_verify_all_presets_passes_every_preset(capsys):
    code, out = verify(["--all-presets"], capsys)
    report = json.loads(out)
    assert code == cli.EXIT_OK and report["pass"]
    assert [case["preset"] for case in report["cases"]] == list(PRESET_NAMES)
    assert all(case["pass"] and {"dim_U", "dim_E"} <= case.keys()
               for case in report["cases"])


def test_verify_all_presets_renders_identical_bytes(capsys):
    assert verify(["--all-presets"], capsys) == verify(["--all-presets"], capsys)


@pytest.mark.parametrize("source", ["all-presets", "config"])
def test_verify_honours_max_iters(source, tmp_path, capsys):
    argv = (["--all-presets"] if source == "all-presets"
            else ["--config", write_config(tmp_path, json.dumps(SLOW))])
    code, out = verify([*argv, "--max-iters", "1"], capsys)
    assert code == cli.EXIT_VERIFY
    assert not json.loads(out)["pass"]


def test_verify_tol_only_compares(tmp_path, capsys):
    path = write_config(tmp_path, json.dumps(SLOW))
    counts = []
    for flags in ([], ["--tol", "1e-3"]):
        code, out = verify(["--config", path, *flags], capsys)
        assert code == cli.EXIT_OK
        counts.append([(case["reduced"]["iterations"],
                        case["expanded"]["iterations"])
                       for case in json.loads(out)["cases"]])
    assert counts[0] == counts[1]


def test_verify_needs_a_source(capsys):
    assert cli.main(["verify"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_list_presets_prints_every_name(capsys):
    assert cli.main(["list-presets"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == list(PRESET_NAMES)


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    # every call on the one parser of the process gives what a freshly
    # built parser gives, a failed parse included
    cfg = write_config(tmp_path, json.dumps(VALID))
    trace = tmp_path / "x.json"
    calls = [["run", "--no-trace", "--config", cfg],
             ["run", "--config", cfg, "--out", str(trace)],
             ["predict", "--config", cfg],
             ["decompose", "--preset", "sequential", "-n", "3"],
             ["verify", "--all-presets", "--max-iters", "1"],
             ["run", "--no-such-flag"]]
    calls.append(calls[0])

    def outcome(argv):
        trace.unlink(missing_ok=True)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return (code, captured.out, captured.err,
                trace.read_bytes() if trace.exists() else None)

    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build_parser())
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert len(builds) == len(calls)
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert len(builds) == len(calls) + 1
    assert [code for code, *_ in fresh] == [0, 0, 0, 0, cli.EXIT_VERIFY, 2, 0]
    assert fresh[1][3].startswith(b"{")
