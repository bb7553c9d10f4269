"""Command-line front end.

Subcommands: ``decompose``, ``run``, ``predict``, ``verify`` and
``list-presets``.  Experiments are described by a JSON config (one file
per experiment); all floats are emitted with 17 significant digits so
reports round-trip losslessly and are byte-identical across runs for a
fixed seed.  The environment variable GRAPH_SPLIT_LOG in {error, info,
debug} controls log verbosity.

Exit codes: 0 ok, 2 config or validation failure, 3 numeric divergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import analysis, engine, factor, graphs, operators, presets

log = logging.getLogger("graphsplit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4

#: order n used per preset by ``verify --all-presets``
VERIFY_N = {
    "douglas_rachford": 2,
    "generalized_ryu": 3,
    "malitsky_tam": 4,
    "parallel_up": 4,
    "parallel_down": 4,
    "sequential": 4,
    "complete": 4,
}

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


# ---------------------------------------------------------------------------
# deterministic JSON with fixed float formatting

def render_json(obj) -> str:
    """Serialize with floats at 17 significant digits, keys in insertion
    order."""
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {render_json(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist())
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _load_json_arg(text_or_path: str, what: str) -> dict:
    """Accept either inline JSON or a path to a JSON file."""
    raw = text_or_path
    if not raw.lstrip().startswith("{"):
        try:
            with open(raw) as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# config -> problem

def _build_pair_and_dec(problem_spec: dict):
    if "preset" in problem_spec:
        name = problem_spec["preset"]
        n = problem_spec.get("n", 2 if name == "douglas_rachford" else None)
        if n is None:
            raise ConfigError(f"problem.n is required for preset {name!r}")
        ps = presets.preset(name, _integer(n, "problem.n", 2))
        return ps.pair, ps.dec, ps
    if "graph" not in problem_spec:
        raise ConfigError("problem must give either 'preset' or 'graph'")
    g = graphs.AlgorithmicGraph.from_dict(problem_spec["graph"])
    sub = (graphs.AlgorithmicGraph.from_dict(problem_spec["subgraph"])
           if "subgraph" in problem_spec else g)
    pair = graphs.validate_pair(g, sub)
    dec = factor.factorize(pair.sub, problem_spec.get("method"))
    return pair, dec, None


def random_subspaces(rng: np.random.Generator, n: int, d: int, dims,
                     common: np.ndarray | None = None):
    """Draw one random subspace per node with the given dimensions.

    When ``common`` is given, that vector is planted as a spanner of every
    node's subspace, so the intersection is nontrivial by construction.
    """
    subs = []
    for i in range(n):
        r = _integer(dims[i], "subspace dimension", 0)
        if r > d:
            raise ConfigError(f"subspace dimension {r} outside [0, {d}]")
        spanners = []
        if common is not None and r >= 1:
            spanners.append(common)
            r -= 1
        spanners += [rng.standard_normal(d) for _ in range(r)]
        subs.append(operators.subspace_from_spanners(d, spanners))
    return subs


def _build_operators(cfg: dict, n: int, d: int, seed):
    if "subspaces" in cfg:
        spec = cfg["subspaces"]
        if isinstance(spec, dict) and isinstance(spec.get("random"), dict):
            opts = spec["random"]
            rng = np.random.default_rng(_integer(opts.get("seed", seed), "seed", 0))
            dims = opts.get("dims")
            if dims is None:
                dims = [opts.get("dim", 1)] * n
            if not isinstance(dims, list) or len(dims) != n:
                raise ConfigError(f"need a list of {n} subspace dims, got {dims!r}")
            common = None
            if opts.get("common"):
                common = (np.asarray(opts["common"], dtype=np.float64)
                          if not isinstance(opts["common"], bool)
                          else rng.standard_normal(d))
            subs = random_subspaces(rng, n, d, dims, common)
        else:
            if not isinstance(spec, list) or len(spec) != n:
                raise ConfigError(f"subspaces must be a list of {n} spanner "
                                  f"lists or {{'random': {{...}}}}, got {spec!r}")
            subs = [operators.subspace_from_spanners(d, spanners)
                    for spanners in spec]
        return [operators.NormalConeOp(u) for u in subs]
    if "operators" in cfg:
        if not isinstance(cfg["operators"], list) or len(cfg["operators"]) != n:
            raise ConfigError(f"operators must be a list of {n} objects")
        ops = []
        for i, entry in enumerate(cfg["operators"]):
            if not isinstance(entry, dict):
                raise ConfigError(f"operator {i + 1} must be an object, got {entry!r}")
            if "spanners" in entry:
                ops.append(operators.NormalConeOp(
                    operators.subspace_from_spanners(d, entry["spanners"])))
            elif "callback" in entry:
                name = entry["callback"]
                if name not in CALLBACKS:
                    raise ConfigError(
                        f"unknown callback {name!r} at operator {i + 1}; "
                        f"available: {sorted(CALLBACKS)}"
                    )
                ops.append(operators.CallbackOp(CALLBACKS[name]))
            else:
                raise ConfigError(
                    f"operator {i + 1} needs 'spanners' or 'callback'"
                )
        return ops
    raise ConfigError("config must give 'subspaces' or 'operators'")


def _initial_blocks(spec, rows: int, d: int, rng: np.random.Generator,
                    name: str) -> np.ndarray:
    if spec is None or spec == "zero":
        return np.zeros((rows, d))
    if spec == "random":
        return rng.standard_normal((rows, d))
    arr = np.asarray(spec, dtype=np.float64)
    if arr.shape != (rows, d):
        raise ConfigError(f"{name} must have shape ({rows}, {d}), got {arr.shape}")
    return arr


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from exc
    if "problem" not in cfg:
        raise ConfigError("config is missing the 'problem' field")
    if "d" not in cfg:
        raise ConfigError("config is missing the ambient dimension 'd'")
    return cfg


def problem_from_config(cfg: dict, overrides: argparse.Namespace | None = None):
    """Build (SplittingProblem, run options dict) from a parsed config."""
    pair, dec, _ = _build_pair_and_dec(cfg["problem"])
    d = _integer(cfg["d"], "d", 1)
    seed = _integer(cfg.get("seed", 0), "seed", 0)
    if overrides is not None and getattr(overrides, "seed", None) is not None:
        seed = overrides.seed
    ops = _build_operators(cfg, pair.g.n, d, seed)
    prob = engine.SplittingProblem(pair, dec, ops, d)

    opts = {
        "theta": cfg.get("theta", 1.0),
        "max_iters": _integer(cfg.get("max_iters", engine.DEFAULT_MAX_ITERS),
                              "max_iters", 1),
        "tol": float(cfg.get("tol", engine.DEFAULT_TOL)),
        "seed": seed,
    }
    if overrides is not None:
        if getattr(overrides, "theta", None) is not None:
            opts["theta"] = overrides.theta
        if getattr(overrides, "max_iters", None) is not None:
            opts["max_iters"] = overrides.max_iters
        if getattr(overrides, "tol", None) is not None:
            opts["tol"] = overrides.tol
    rng = np.random.default_rng(opts["seed"])
    n = pair.g.n
    opts["w0"] = _initial_blocks(cfg.get("w0"), n, d, rng, "w0")
    opts["v0"] = _initial_blocks(cfg.get("v0"), n - 1, d, rng, "v0")
    return prob, opts


# ---------------------------------------------------------------------------
# subcommands

def cmd_decompose(args) -> int:
    if args.preset:
        if args.n is None and args.preset != "douglas_rachford":
            raise ConfigError("-n is required with --preset")
        n = 2 if args.n is None else _integer(args.n, "-n", 2)
        ps = presets.preset(args.preset, n)
        pair, dec = ps.pair, ps.dec
    elif args.graph:
        spec = {"graph": _load_json_arg(args.graph, "graph")}
        if args.subgraph:
            spec["subgraph"] = _load_json_arg(args.subgraph, "subgraph")
        if args.method:
            spec["method"] = args.method
        pair, dec, _ = _build_pair_and_dec(spec)
    else:
        raise ConfigError("decompose needs --preset or --graph")
    delta = graphs.degree_balance(pair.g)
    a = factor.alpha(dec, delta)
    doc = {
        "Z": dec.z,
        "Z_dagger": dec.z_dagger,
        "alpha": a.alpha,
        "delta": [int(x) for x in delta.delta],
        "method": dec.method,
    }
    _output(render_json(doc), args.out)
    return EXIT_OK


def _run_from_config(args):
    cfg = load_config(args.config)
    prob, opts = problem_from_config(cfg, args)
    stop = engine.StopRule(tol=opts["tol"], max_iters=opts["max_iters"])
    algorithm = args.algorithm or cfg.get("algorithm", "reduced")
    if algorithm not in ("expanded", "reduced"):
        raise ConfigError(f"algorithm must be 'expanded' or 'reduced', "
                          f"got {algorithm!r}")
    return cfg, prob, opts, stop, algorithm


def cmd_run(args) -> int:
    _, prob, opts, stop, algorithm = _run_from_config(args)
    record = not args.no_trace
    if algorithm == "expanded":
        trace = engine.run_alg1(prob, opts["w0"], opts["v0"], opts["theta"],
                                stop, record_states=record)
    else:
        trace = engine.run_alg2(prob, opts["v0"], opts["theta"], stop,
                                record_states=record)
    out = args.out or "trace.csv"
    if record:
        if out.endswith(".json"):
            engine.trace_to_json(trace, out)
        else:
            engine.trace_to_csv(trace, out, prob.n, prob.d)
    summary = {
        "algorithm": algorithm,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": trace.k_final,
        "final_residual": (float(trace.residuals[-1])
                           if trace.k_final else None),
        "v_final": trace.v,
    }
    print(render_json(summary))
    return EXIT_OK


def cmd_predict(args) -> int:
    _, prob, opts, _, algorithm = _run_from_config(args)
    try:
        sp = analysis.SubspaceProblem.from_problem(prob)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if algorithm == "expanded":
        pred = analysis.predict_limits_alg1(sp, opts["w0"], opts["v0"])
    else:
        pred = analysis.predict_limits_alg2(sp, opts["v0"])
    doc = {
        "u_bar": pred.u_bar,
        "e_bar": pred.e_bar,
        "v_bar": pred.v_bar,
        "alpha": sp.alpha.alpha,
        "dim_E": sp.e_basis.dim,
        "dim_U": sp.u_common.dim,
    }
    _output(render_json(doc), args.out)
    return EXIT_OK


def _theta_constant(theta) -> float:
    if not np.isscalar(theta):
        raise ConfigError("verify requires a constant relaxation parameter")
    th = float(theta)
    if not 0.0 < th < 2.0:
        raise ConfigError(
            f"verify requires constant theta in (0, 2), got {th}"
        )
    return th


def _verify_case(prob, sp, w0, v0, theta, stop, tol):
    """Run both iterations and compare against the predicted limits."""
    n = prob.n
    out = {}
    ok = True
    pred2 = analysis.predict_limits_alg2(sp, v0)
    tr2 = engine.run_alg2(prob, v0, theta, stop)
    v_err2 = float(np.linalg.norm(tr2.v - pred2.v_bar))
    x_err2 = float(max(np.linalg.norm(tr2.x[i] - pred2.u_bar)
                       for i in range(n)))
    pass2 = tr2.converged and v_err2 <= tol and x_err2 <= tol
    out["reduced"] = {
        "converged": tr2.converged, "iterations": tr2.k_final,
        "v_err": v_err2, "x_err": x_err2, "pass": pass2,
    }
    ok = ok and pass2

    pred1 = analysis.predict_limits_alg1(sp, w0, v0)
    tr1 = engine.run_alg1(prob, w0, v0, theta, stop)
    v_err1 = float(np.linalg.norm(tr1.v - pred1.v_bar))
    x_err1 = float(max(np.linalg.norm(tr1.x[i] - pred1.u_bar)
                       for i in range(n)))
    pass1 = tr1.converged and v_err1 <= tol and x_err1 <= tol
    out["expanded"] = {
        "converged": tr1.converged, "iterations": tr1.k_final,
        "v_err": v_err1, "x_err": x_err1, "pass": pass1,
    }
    return out, ok and pass1


def cmd_verify(args) -> int:
    tol = args.tol if args.tol is not None else 1e-6
    report = {"tol": tol, "cases": []}
    all_ok = True

    if args.all_presets:
        seed = args.seed if args.seed is not None else 42
        d = 4
        theta = _theta_constant(args.theta if args.theta is not None else 1.0)
        stop = engine.StopRule()
        for idx, name in enumerate(presets.PRESET_NAMES):
            n = VERIFY_N[name]
            rng = np.random.default_rng([seed, idx])
            planted = idx % 2 == 0  # alternate trivial / nontrivial U
            common = rng.standard_normal(d) if planted else None
            dims = rng.integers(1, d, size=n)
            subs = random_subspaces(rng, n, d, dims, common)
            ps = presets.preset(name, n)
            sp = analysis.subspace_problem(ps.pair, ps.dec, subs)
            w0 = rng.standard_normal((n, d))
            v0 = rng.standard_normal((n - 1, d))
            case_out, ok = _verify_case(sp.base, sp, w0, v0, theta, stop, tol)
            report["cases"].append({
                "preset": name, "n": n, "d": d, "theta": theta,
                "planted_intersection": planted,
                "dim_U": sp.u_common.dim, "dim_E": sp.e_basis.dim,
                **case_out, "pass": ok,
            })
            all_ok = all_ok and ok
    else:
        if not args.config:
            raise ConfigError("verify needs --config or --all-presets")
        cfg, prob, opts, stop, _ = _run_from_config(args)
        try:
            sp = analysis.SubspaceProblem.from_problem(prob)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        theta = _theta_constant(opts["theta"])
        case_out, ok = _verify_case(prob, sp, opts["w0"], opts["v0"], theta,
                                    stop, tol)
        report["cases"].append({
            "config": args.config, "n": prob.n, "d": prob.d, "theta": theta,
            **case_out, "pass": ok,
        })
        all_ok = ok

    report["pass"] = all_ok
    _output(render_json(report), args.out)
    return EXIT_OK if all_ok else EXIT_VERIFY


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
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
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
    p_dec.add_argument("--preset", choices=presets.PRESET_NAMES)
    p_dec.add_argument("-n", type=int)
    p_dec.add_argument("--graph", help="graph JSON (inline or path)")
    p_dec.add_argument("--subgraph", help="subgraph JSON (inline or path)")
    p_dec.add_argument("--method", choices=factor.METHODS)
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decompose)

    common_run = argparse.ArgumentParser(add_help=False)
    common_run.add_argument("--config", required=True)
    common_run.add_argument("--algorithm", choices=("expanded", "reduced"))
    common_run.add_argument("--theta", type=float)
    common_run.add_argument("--max-iters", type=int, dest="max_iters")
    common_run.add_argument("--tol", type=float)
    common_run.add_argument("--seed", type=int)
    common_run.add_argument("--out")

    p_run = sub.add_parser("run", parents=[common_run],
                           help="run an experiment, write its trace")
    p_run.add_argument("--no-trace", action="store_true",
                       help="skip per-iteration recording and the trace file")
    p_run.set_defaults(func=cmd_run)

    p_pred = sub.add_parser("predict", parents=[common_run],
                            help="closed-form limit prediction")
    p_pred.set_defaults(func=cmd_predict)

    p_ver = sub.add_parser("verify",
                           help="run and compare against predicted limits")
    p_ver.add_argument("--config")
    p_ver.add_argument("--all-presets", action="store_true")
    p_ver.add_argument("--algorithm", choices=("expanded", "reduced"))
    p_ver.add_argument("--theta", type=float)
    p_ver.add_argument("--max-iters", type=int, dest="max_iters")
    p_ver.add_argument("--tol", type=float)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--out")
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


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except engine.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, graphs.GraphError, factor.FactorError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
