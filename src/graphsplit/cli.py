"""Command-line front end.

Subcommands: ``decompose``, ``run``, ``predict``, ``verify`` and
``list-presets``.  Experiments are described by a JSON config (one file
per experiment).  Reports are written by ``json.dumps``, which writes each
float as its ``repr``, the shortest text that reads back as the same
float64 (``0.1``, ``1.0``, ``-0.0``), so reports round-trip losslessly and
are byte-identical across runs for a fixed seed.  The environment variable
GRAPH_SPLIT_LOG in {error, info, debug} controls log verbosity.

A config is a JSON object, inline or in a file, with the fields (default):

* ``problem`` (required): ``{"preset": name, "n": integer (2 for
  douglas_rachford only)}`` or ``{"graph": G, "subgraph": G' (G),
  "method": factor method (the subgraph's)}``, a graph being ``{"n":
  integer, "edges": [[i, j], ...]}``;
* ``d`` (required): integer >= 1, the dimension of each block;
* ``subspaces``: n lists of spanners of d numbers, or ``{"random": {"dim":
  integer (1) or "dims": n integers, "seed": integer (the config's),
  "common": true or d numbers, not all zero}}``; or else ``operators``: n
  objects ``{"spanners": [...]}`` or ``{"callback": "identity" |
  "zero"}``;
* ``algorithm``: "reduced" (default) or "expanded"; ``theta``: a number
  or a list of numbers (1.0); ``tol``: a number (1e-10); ``max_iters``:
  integer in [1, sys.maxsize] (100000); ``seed``: integer >= 0 (0);
* ``w0`` (n x d), ``v0`` ((n-1) x d): numbers, "zero" (default) or
  "random" (drawn from ``seed``); ``run`` and ``verify`` refuse a start
  whose squared norm overflows float64.

Numbers must be finite; bool, str and null are rejected, never coerced,
by ``operators.real_array``, the check the library applies to every
real-number input.  Each object takes only the fields listed for it, and
the alternatives separated by "or" exclude each other; any other field is
rejected.  ``predict`` reads no theta or tol and takes no --theta, --tol
or --max-iters.  The flags --algorithm, --theta, --tol, --max-iters and
--seed replace the field of the same name before the config is read.
``verify`` runs both algorithms (with --all-presets, on one problem per
preset drawn from --seed, an integer >= 0, 42); its --tol is only the
tolerance of the comparison with the predicted limits (1e-6) and leaves
the stop rule to the config.

Exit codes: 0 ok, 2 config or validation failure (also a problem too
large for memory, or an output file that cannot be written), 3 numeric
divergence, 4 verification failure.

``main`` may be called many times in one process: the argument parser is
built at its first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import analysis, engine, factor, graphs, operators, presets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4

#: order n used per preset by ``verify --all-presets``
VERIFY_N = {**dict.fromkeys(presets.PRESET_NAMES, 4),
            "douglas_rachford": 2, "generalized_ryu": 3}

#: config fields that the flag of the same name replaces
FLAG_FIELDS = ("algorithm", "theta", "tol", "max_iters", "seed")

#: named resolvent callbacks available to configs (resolvents of gamma*A)
CALLBACKS = {
    "identity": lambda x, gamma: x / (1.0 + gamma),  # A = Id
    "zero": lambda x, gamma: x,                      # A = 0
}


class ConfigError(ValueError):
    pass


def _integer(value, what: str, minimum: int) -> int:
    """A config integer of at least ``minimum``; integer-valued floats such
    as 3.0 are accepted, fractional values and bool are not."""
    if not graphs._is_label(value):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {value!r}")
    return int(value)


def _object(value, what: str, fields: tuple | None = None) -> dict:
    """``value`` as a JSON object, with no field outside ``fields`` when
    they are given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    for key in value:
        if fields is not None and key not in fields:
            raise ConfigError(f"{what} does not take the field {key!r}; its "
                              f"fields are {', '.join(fields)}")
    return value


def _tolist(value):
    """A numpy array or scalar in a report as the Python lists and
    numbers ``json.dumps`` writes."""
    return value.tolist()


def _read_json(text_or_path: str, what: str) -> dict:
    """A JSON object given inline or as the path of a file; text that
    starts with ``{`` or ``[`` is inline."""
    raw = text_or_path
    if not raw.lstrip().startswith(("{", "[")):
        try:
            with open(raw) as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {what} file: {exc}") from exc
    try:
        return _object(json.loads(raw), what)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# config -> problem

def _build_pair_and_dec(problem_spec: dict):
    if "preset" in problem_spec:
        _object(problem_spec, "a preset problem", ("preset", "n"))
        name = problem_spec["preset"]
        n = problem_spec.get("n", 2 if name == "douglas_rachford" else None)
        if n is None:
            raise ConfigError(f"n is required for preset {name!r}")
        ps = presets.preset(name, _integer(n, "n", 2))
        return ps.pair, ps.dec
    if "graph" not in problem_spec:
        raise ConfigError("problem must give either 'preset' or 'graph'")
    _object(problem_spec, "a graph problem", ("graph", "subgraph", "method"))
    g = graphs.AlgorithmicGraph.from_dict(problem_spec["graph"])
    sub = (graphs.AlgorithmicGraph.from_dict(problem_spec["subgraph"])
           if "subgraph" in problem_spec else g)
    pair = graphs.validate_pair(g, sub)
    return pair, factor.factorize(pair.sub, problem_spec.get("method"))


def random_spanners(rng: np.random.Generator, d: int, dims,
                    common: np.ndarray | None = None) -> list:
    """Draw the spanners of one random subspace per node with the given
    dimensions.

    When ``common`` is given, that vector is planted as a spanner of every
    node's subspace, so the intersection is nontrivial by construction.
    """
    spanners = []
    for r in dims:
        r = _integer(r, "subspace dimension", 0)
        if r > d:
            raise ConfigError(f"subspace dimension {r} outside [0, {d}]")
        planted = [common] if common is not None and r >= 1 else []
        spanners.append(planted + [rng.standard_normal(d)
                                   for _ in range(r - len(planted))])
    return spanners


def _random_spec_spanners(opts: dict, n: int, d: int, seed: int) -> list:
    _object(opts, "subspaces.random", ("dim", "dims", "seed", "common"))
    rng = np.random.default_rng(_integer(opts.get("seed", seed), "seed", 0))
    if "dim" in opts and "dims" in opts:
        raise ConfigError("subspaces.random takes 'dim' or 'dims', not both")
    dims = opts.get("dims", [opts.get("dim", 1)] * n)
    if not isinstance(dims, list) or len(dims) != n:
        raise ConfigError(f"need a list of {n} subspace dims, got {dims!r}")
    common = opts.get("common", False)
    if isinstance(common, bool):
        common = rng.standard_normal(d) if common else None
    else:
        common = operators.real_array(common, "common", (d,))
        if not common.any():
            # a zero spanner is dropped: each node would lose a dimension
            raise ConfigError("subspaces.random.common must be a nonzero "
                              "vector, got all zeros")
    return random_spanners(rng, d, dims, common)


def _spanners(value, what: str):
    """A config's list of spanners; the node build checks them, and an
    error names the first bad one and its node."""
    if not isinstance(value, list):
        raise ConfigError(f"the spanners of {what} must be a list, got "
                          f"{value!r}")
    return value


def _subspace(d: int, spanners, label: str):
    """One node's subspace; an error names the node by ``label``, as
    "node 3" or "operator 3"."""
    try:
        return operators.subspace_from_spanners(d, spanners)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _node_subspaces(d: int, nodes: list) -> list:
    """The subspaces of a config's nodes: as one stack by
    ``operators._subspaces`` (one check, one scaling and one SVD) when
    every node has as many spanners and none is all zero, else node by
    node, where an error names the node ("node 3: ...")."""
    subs = operators._subspaces(d, nodes)
    if subs is None:
        subs = [_subspace(d, s, f"node {i + 1}") for i, s in enumerate(nodes)]
    return subs


def _build_operators(cfg: dict, n: int, d: int, seed: int):
    """The n node operators of a config.  Both ``subspaces`` forms build
    their nodes together, by :func:`_node_subspaces`.  The ``operators``
    form, whose spanner entries sit between callbacks, builds node by node
    and names the operator in an error ("operator 3: ...")."""
    if "subspaces" in cfg:
        if "operators" in cfg:
            raise ConfigError("config gives both 'subspaces' and 'operators'; "
                              "give one")
        spec = cfg["subspaces"]
        if isinstance(spec, dict) and isinstance(spec.get("random"), dict):
            _object(spec, "subspaces", ("random",))
            spec = _random_spec_spanners(spec["random"], n, d, seed)
        elif isinstance(spec, list) and len(spec) == n:
            spec = [_spanners(s, f"node {i + 1}")
                    for i, s in enumerate(spec)]
        else:
            raise ConfigError(f"subspaces must be a list of {n} spanner "
                              f"lists or {{'random': {{...}}}}, got {spec!r}")
        return [operators.NormalConeOp(u) for u in _node_subspaces(d, spec)]
    if "operators" in cfg:
        if not isinstance(cfg["operators"], list) or len(cfg["operators"]) != n:
            raise ConfigError(f"operators must be a list of {n} objects")
        ops = []
        for i, entry in enumerate(cfg["operators"]):
            entry = _object(entry, f"operator {i + 1}",
                            ("spanners", "callback"))
            if len(entry) != 1:
                raise ConfigError(f"operator {i + 1} needs exactly one of "
                                  "'spanners' or 'callback'")
            if "spanners" in entry:
                label = f"operator {i + 1}"
                spanners = _spanners(entry["spanners"], label)
                ops.append(operators.NormalConeOp(
                    _subspace(d, spanners, label)))
            else:
                name = entry["callback"]
                if not isinstance(name, str) or name not in CALLBACKS:
                    raise ConfigError(
                        f"unknown callback {name!r} at operator {i + 1}; "
                        f"available: {sorted(CALLBACKS)}"
                    )
                ops.append(operators.CallbackOp(CALLBACKS[name]))
        return ops
    raise ConfigError("config must give 'subspaces' or 'operators'")


def _initial_blocks(spec, rows: int, d: int, rng: np.random.Generator,
                    name: str) -> np.ndarray:
    if spec == "zero":
        return np.zeros((rows, d))
    if spec == "random":
        return rng.standard_normal((rows, d))
    return operators.real_array(spec, name, (rows, d))


def problem_from_config(cfg: dict, flags: argparse.Namespace | None = None):
    """Build (SplittingProblem, run options dict) from a parsed config.

    The flags named in ``FLAG_FIELDS`` that are set in ``flags`` replace
    their config fields before any field is read, so they pass the same
    checks.
    """
    if flags is not None:
        cfg = {**cfg, **{k: v for k in FLAG_FIELDS
                         if (v := getattr(flags, k, None)) is not None}}
    _object(cfg, "config", ("problem", "d", "subspaces", "operators",
                            *FLAG_FIELDS, "w0", "v0"))
    for key in ("problem", "d"):
        if key not in cfg:
            raise ConfigError(f"config is missing the {key!r} field")
    pair, dec = _build_pair_and_dec(_object(cfg["problem"], "problem"))
    n, d = pair.g.n, _integer(cfg["d"], "d", 1)
    seed = _integer(cfg.get("seed", 0), "seed", 0)
    prob = engine.SplittingProblem(pair, dec,
                                   _build_operators(cfg, n, d, seed), d)
    algorithm = cfg.get("algorithm", "reduced")
    if algorithm not in ("expanded", "reduced"):
        raise ConfigError(f"algorithm must be 'expanded' or 'reduced', "
                          f"got {algorithm!r}")
    rng = np.random.default_rng(seed)
    return prob, {
        "algorithm": algorithm,
        "theta": cfg.get("theta", 1.0),
        "stop": engine.StopRule(
            tol=cfg.get("tol", engine.DEFAULT_TOL),
            max_iters=_integer(cfg.get("max_iters", engine.DEFAULT_MAX_ITERS),
                               "max_iters", 1)),
        "w0": _initial_blocks(cfg.get("w0", "zero"), n, d, rng, "w0"),
        "v0": _initial_blocks(cfg.get("v0", "zero"), n - 1, d, rng, "v0"),
    }


def _preset_configs(seed: int):
    """``(planted, config)`` per preset for ``verify --all-presets``:
    random node subspaces in R^4, through a common vector on every other
    preset, and random start blocks, all drawn from ``(seed, index)``."""
    d = 4
    for idx, name in enumerate(presets.PRESET_NAMES):
        n = VERIFY_N[name]
        rng = np.random.default_rng([seed, idx])
        planted = idx % 2 == 0
        common = rng.standard_normal(d) if planted else None
        spanners = random_spanners(rng, d, rng.integers(1, d, size=n), common)
        yield planted, {
            "problem": {"preset": name, "n": n}, "d": d,
            "subspaces": [[s.tolist() for s in node] for node in spanners],
            "w0": rng.standard_normal((n, d)).tolist(),
            "v0": rng.standard_normal((n - 1, d)).tolist(),
        }


# ---------------------------------------------------------------------------
# subcommands

def cmd_decompose(args) -> int:
    # the flags form a problem object, so -n with --graph, or --subgraph
    # or --method with --preset, fail its field check
    spec = {key: value for key in ("preset", "n", "graph", "subgraph", "method")
            if (value := getattr(args, key)) is not None}
    if not spec.keys() & {"preset", "graph"}:
        raise ConfigError("decompose needs --preset or --graph")
    for key in ("graph", "subgraph"):
        if key in spec:
            spec[key] = _read_json(spec[key], key)
    pair, dec = _build_pair_and_dec(spec)
    delta = graphs.degree_balance(pair.g)
    a = factor.alpha(dec, delta)
    doc = {
        "Z": dec.z,
        "Z_dagger": dec.z_dagger,
        "alpha": a.alpha,
        "delta": delta.delta,
        "method": dec.method,
    }
    _output(json.dumps(doc, default=_tolist), args.out)
    return EXIT_OK


def _run(prob, opts: dict, algorithm: str, record: bool = False):
    if algorithm == "expanded":
        return engine.run_alg1(prob, opts["w0"], opts["v0"], opts["theta"],
                               opts["stop"], record_states=record)
    return engine.run_alg2(prob, opts["v0"], opts["theta"], opts["stop"],
                           record_states=record)


def _predict(sp, opts: dict, algorithm: str):
    if algorithm == "expanded":
        return analysis.predict_limits_alg1(sp, opts["w0"], opts["v0"])
    return analysis.predict_limits_alg2(sp, opts["v0"])


def cmd_run(args) -> int:
    prob, opts = problem_from_config(_read_json(args.config, "config"), args)
    record = not args.no_trace
    trace = _run(prob, opts, opts["algorithm"], record)
    out = args.out or "trace.csv"
    if record:
        try:
            if out.endswith(".json"):
                engine.trace_to_json(trace, out)
            else:
                engine.trace_to_csv(trace, out, prob.n, prob.d)
        except OSError as exc:
            raise ConfigError(f"cannot write trace file: {exc}") from exc
    summary = {
        "algorithm": opts["algorithm"],
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": trace.k_final,
        "final_residual": (float(trace.residuals[-1])
                           if trace.k_final else None),
        "v_final": trace.v,
    }
    print(json.dumps(summary, default=_tolist))
    return EXIT_OK


def cmd_predict(args) -> int:
    prob, opts = problem_from_config(_read_json(args.config, "config"), args)
    sp = analysis.SubspaceProblem.from_problem(prob)
    pred = _predict(sp, opts, opts["algorithm"])
    doc = {
        "u_bar": pred.u_bar,
        "e_bar": pred.e_bar,
        "v_bar": pred.v_bar,
        "alpha": sp.alpha.alpha,
        "dim_E": sp.e_basis.dim,
        "dim_U": sp.u_common.dim,
    }
    _output(json.dumps(doc, default=_tolist), args.out)
    return EXIT_OK


def _verify_case(prob, sp, opts: dict, tol: float) -> dict:
    """Run both iterations and compare against the predicted limits."""
    out = {}
    for algorithm in ("reduced", "expanded"):
        pred = _predict(sp, opts, algorithm)
        tr = _run(prob, opts, algorithm)
        v_err = float(np.linalg.norm(tr.v - pred.v_bar))
        x_err = float(max(np.linalg.norm(x - pred.u_bar) for x in tr.x))
        out[algorithm] = {
            "converged": tr.converged, "iterations": tr.k_final,
            "v_err": v_err, "x_err": x_err,
            "pass": tr.converged and v_err <= tol and x_err <= tol,
        }
    return out


def cmd_verify(args) -> int:
    if args.all_presets:
        seed = 42 if args.seed is None else _integer(args.seed, "seed", 0)
        cases = [({"preset": cfg["problem"]["preset"]}, cfg, planted)
                 for planted, cfg in _preset_configs(seed)]
    elif args.config:
        cases = [({"config": args.config},
                  _read_json(args.config, "config"), None)]
    else:
        raise ConfigError("verify needs --config or --all-presets")
    report = {"tol": args.compare_tol, "cases": []}
    for label, cfg, planted in cases:
        prob, opts = problem_from_config(cfg, args)
        theta = operators.real_array(opts["theta"], "the theta of verify", ())
        if not 0.0 < theta < 2.0:
            raise ConfigError(f"verify requires a constant theta in (0, 2), "
                              f"got {theta}")
        sp = analysis.SubspaceProblem.from_problem(prob)
        case = {**label, "n": prob.n, "d": prob.d, "theta": float(theta)}
        if planted is not None:
            case.update(planted_intersection=planted,
                        dim_U=sp.u_common.dim, dim_E=sp.e_basis.dim)
        case.update(_verify_case(prob, sp, opts, args.compare_tol))
        case["pass"] = case["reduced"]["pass"] and case["expanded"]["pass"]
        report["cases"].append(case)
    report["pass"] = all(case["pass"] for case in report["cases"])
    _output(json.dumps(report, default=_tolist), args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_list_presets(args) -> int:
    rows = presets.preset_table()
    widths = [max(len(r[c]) for r in rows + [_HEADER]) for c in range(4)]
    lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(_HEADER))]
    lines.append("  ".join("-" * widths[c] for c in range(4)))
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(4)))
    _output("\n".join(lines), args.out)
    return EXIT_OK


_HEADER = ("name", "G", "G'", "alpha_j")


def _output(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    else:
        print(text)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsplit",
        description="Graph splitting methods: decompose, run, predict, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="emit Z, Z^+, alpha, delta")
    source = p_dec.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=presets.PRESET_NAMES)
    source.add_argument("--graph", help="graph JSON (inline or path)")
    p_dec.add_argument("-n", type=int)
    p_dec.add_argument("--subgraph", help="subgraph JSON (inline or path)")
    p_dec.add_argument("--method", choices=factor.METHODS)
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decompose)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    iterate = argparse.ArgumentParser(add_help=False)
    iterate.add_argument("--theta", type=float)
    iterate.add_argument("--max-iters", type=int, dest="max_iters")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    config.add_argument("--algorithm", choices=("expanded", "reduced"))

    p_run = sub.add_parser("run", parents=[iterate, common, config],
                           help="run an experiment, write its trace")
    p_run.add_argument("--tol", type=float, help="stop tolerance")
    p_run.add_argument("--no-trace", action="store_true",
                       help="skip per-iteration recording and the trace file")
    p_run.set_defaults(func=cmd_run)

    p_pred = sub.add_parser("predict", parents=[common, config],
                            help="closed-form limit prediction")
    p_pred.set_defaults(func=cmd_predict)

    p_ver = sub.add_parser("verify", parents=[iterate, common],
                           help="run and compare against predicted limits")
    source = p_ver.add_mutually_exclusive_group()
    source.add_argument("--config")
    source.add_argument("--all-presets", action="store_true")
    p_ver.add_argument("--tol", type=float, default=1e-6, dest="compare_tol",
                       metavar="TOL",
                       help="largest distance of a run's limits from the "
                            "predicted ones that passes (default 1e-6); only "
                            "a comparison tolerance, the stop rule keeps the "
                            "config's tol")
    p_ver.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-presets", help="print the preset table")
    p_list.add_argument("--out")
    p_list.set_defaults(func=cmd_list_presets)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("GRAPH_SPLIT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built at the first call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except engine.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
