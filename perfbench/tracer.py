"""Spans around the calls into each graphsplit layer, recorded from the
benchmark's side.

``install`` wraps every public function of every layer and binds the
wrapper at each name where the package looks the function up: the module
that defines it, each module that imported it by name (``analysis``
imports ``orthonormalize`` and ``complement`` from ``operators``, for
instance), and the package namespace.  Class-level entry points are
patched on their class.  A span is ``[name, start_ns, end_ns, parent,
info]``; spans stay in memory until the run ends.

A layer is named after its module.  ``busy`` time of a layer is the time
covered by its outermost spans (a span with no ancestor in the same
layer); ``self`` time subtracts the time covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time

#: (layer, module, public functions); ``Class.method`` names patch the class
SHIMS = (
    ("graphs", "graphsplit.graphs", (
        "new_graph", "named_graph", "validate_pair", "degrees",
        "degree_balance", "incidence", "laplacian", "p_matrix", "is_tree",
        "is_complete", "is_circulant", "AlgorithmicGraph.from_dict")),
    ("factor", "graphsplit.factor", (
        "factorize", "default_factor", "factor_tree", "factor_circulant",
        "factor_complete_sparse", "factor_eigen", "complete_t_values",
        "alpha")),
    ("operators", "graphsplit.operators", (
        "orthonormalize", "complement", "subspace_from_spanners")),
    ("presets", "graphsplit.presets", (
        "preset", "ryu_norm_sq", "preset_table")),
    ("analysis", "graphsplit.analysis", (
        "subspace_problem", "SubspaceProblem.from_problem", "intersection",
        "build_E", "closed_form_E", "predict_limits_alg1",
        "predict_limits_alg2", "proj_fix_T_tilde", "m_proj_fix_T",
        "x_from_v", "assemble_fix_basis")),
    ("engine", "graphsplit.engine", (
        "SplittingProblem.__init__", "run_alg1", "run_alg2", "apply_T",
        "apply_T_tilde", "solve_m_plus_a", "trace_to_csv", "trace_to_json")),
    # the sweeps are engine work; engine looks them up as _kernels attributes
    ("engine", "graphsplit._kernels", ("alg1_sweep", "alg2_sweep")),
    ("cli", "graphsplit.cli", ("main",)),
)

RUNS = ("engine.run_alg1", "engine.run_alg2")
SWEEPS = ("engine.alg1_sweep", "engine.alg2_sweep")
TRACE_IO = ("engine.trace_to_csv", "engine.trace_to_json")


def sweep_cost(alg: int, n: int, d: int, e_g: int, e_sub: int):
    """Floating-point operations and bytes of one iteration of the subspace
    sweep, computed (not measured) from the shapes the kernel touches.

    With m = (n-1)d, per node the reduced sweep forms Z_i v (2m), scales
    it (d), adds 2d per incoming G-edge and projects (2d^2); then Z^T x
    (2nm), the residual and ||v|| reductions and the v update (2m each).
    The expanded sweep also couples w over the 2|E(G')| neighbour entries
    (d each), adds two d-vectors per node, forms w - 2x (2nd) and relaxes
    w (3nd).  Bytes count every array operand read and every result
    written once, 8 bytes a word, with no cache reuse.
    """
    m = (n - 1) * d
    if alg == 2:
        flops = n * (2 * m + d + 2 * d * d) + 2 * d * e_g + 2 * n * m + 6 * m
        # per node: Z_i, v, P_i, x_i; then x_h per edge; Z^T, x, g; 5 passes
        # over g or v
        words = (n * ((n - 1) + m + d * d + d) + e_g * d
                 + n * (n - 1) + n * d + m + 5 * m)
    else:
        flops = (n * (2 * m + 3 * d + 2 * d * d) + 2 * d * (e_g + e_sub)
                 + 2 * n * m + 6 * m + 5 * n * d)
        # as above plus w_i per node, w_h per neighbour entry, w - 2x (3nd)
        # and the w update (3nd)
        words = (n * ((n - 1) + m + d * d + 2 * d) + (e_g + 2 * e_sub) * d
                 + n * (n - 1) + n * d + m + 5 * m + 6 * n * d)
    return flops, 8 * words


def _run_info(args, kwargs, result):
    p = args[0]
    return {"iters": len(result.residuals), "converged": bool(result.converged),
            "n": p.n, "d": p.d, "eg": len(p.pair.g.edges),
            "es": len(p.pair.sub.edges), "subspace": p.all_subspace}


def _trace_io_info(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


_INFO = {
    "engine.run_alg1": _run_info,
    "engine.run_alg2": _run_info,
    "engine.trace_to_csv": _trace_io_info,
    "engine.trace_to_json": _trace_io_info,
    "analysis.build_E": lambda a, k, r: {"dim": r.dim},
    "cli.main": lambda a, k, r: {"exit": r},
}


class Recorder:
    """In-memory span list with the stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1,
                           None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx][1] = t0
        self.spans[idx][2] = t1

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        idx = self._open(name)
        self.spans[idx][4] = info
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0)

    def wrap(self, name: str, fn):
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][4] = {"error": type(exc).__name__}
                raise
            finally:
                self._close(idx, t0)
            if info_of is not None:
                self.spans[idx][4] = info_of(args, kwargs, result)
            return result

        return shim

    def install(self):
        """Patch every layer function at every binding; returns an undo
        callable that restores the originals."""
        undo = []
        package = [m for name, m in sys.modules.items()
                   if name == "graphsplit" or name.startswith("graphsplit.")]
        for layer, modname, funcs in SHIMS:
            mod = sys.modules[modname]
            for qual in funcs:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    shim = self.wrap(f"{layer}.{cls_name}.{attr}"
                                     if attr != "__init__"
                                     else f"{layer}.{cls_name}", fn)
                    setattr(cls, attr, staticmethod(shim) if is_static else shim)
                    undo.append((cls, attr, raw))
                    continue
                fn = getattr(mod, qual)
                shim = self.wrap(f"{layer}.{qual}", fn)
                for m in package:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, shim)
                            undo.append((m, key, fn))

        def restore():
            for obj, key, val in reversed(undo):
                setattr(obj, key, val)

        return restore

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "info"], "spans": self.spans}, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], timed_wall_s: float) -> dict:
    """Per-layer metrics from the spans that descend from an ``op`` span.

    Spans outside ops (oracle checks, set-up) are left out, so every
    figure is a share of the timed operations.
    """
    n = len(spans)
    root = [0] * n
    layers_above: list[frozenset] = [frozenset()] * n
    child_ns = [0] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            root[i] = root[parent]
            layers_above[i] = layers_above[parent] | {layer_of(spans[parent][0])}
            child_ns[parent] += t1 - t0
    in_op = [spans[root[i]][0] == "op" for i in range(n)]

    def select(pred):
        return [i for i in range(n) if in_op[i] and pred(spans[i][0])]

    def ms(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx) / 1e6

    def busy_ms(layers):
        return ms([i for i in select(lambda s: layer_of(s) in layers)
                   if not layers_above[i] & layers])

    def self_ms(layer):
        idx = select(lambda s: layer_of(s) == layer)
        return sum(spans[i][2] - spans[i][1] - child_ns[i] for i in idx) / 1e6

    runs = select(lambda s: s in RUNS)
    run_ok = [i for i in runs if spans[i][4] and "iters" in spans[i][4]]
    iters = sum(spans[i][4]["iters"] for i in run_ok)
    run_ms = ms(runs)
    flops = words_bytes = sub_iters = 0
    sub_ms = 0.0
    for i in run_ok:
        info = spans[i][4]
        if info["subspace"]:
            alg = 1 if spans[i][0].endswith("alg1") else 2
            f, b = sweep_cost(alg, info["n"], info["d"], info["eg"], info["es"])
            flops += f * info["iters"]
            words_bytes += b * info["iters"]
            sub_iters += info["iters"]
            sub_ms += (spans[i][2] - spans[i][1]) / 1e6
    trace_io = select(lambda s: s in TRACE_IO)
    builds = select(lambda s: s == "analysis.build_E")
    mains = select(lambda s: s == "cli.main")
    wall_ms = timed_wall_s * 1e3

    def count(layer):
        return len(select(lambda s: layer_of(s) == layer))

    return {
        "engine.runs": (len(runs), "count"),
        "engine.iterations": (iters, "count"),
        "engine.run_ms": (run_ms, "ms"),
        "engine.us_per_iter": (run_ms * 1e3 / iters if iters else 0.0, "us"),
        "engine.kernel_share": (len(select(lambda s: s in SWEEPS)) / len(runs)
                                if runs else 0.0, "ratio"),
        "engine.not_converged": (sum(not spans[i][4]["converged"]
                                     for i in run_ok), "count"),
        "engine.diverged": (sum(1 for i in runs if spans[i][4]
                                and spans[i][4].get("error")
                                == "DivergenceError"), "count"),
        "engine.flops_computed": (flops, "flop"),
        "engine.gflops_computed": (flops / sub_ms / 1e6 if sub_ms else 0.0,
                                   "GFLOP/s"),
        "engine.bytes_per_iter_computed": (
            words_bytes / sub_iters if sub_iters else 0.0, "B"),
        "engine.trace_io_ms": (ms(trace_io), "ms"),
        "engine.trace_bytes": (sum(spans[i][4]["bytes"] for i in trace_io
                                   if spans[i][4] and "bytes" in spans[i][4]),
                               "B"),
        "engine.wall_share": (run_ms / wall_ms if wall_ms else 0.0, "ratio"),
        "analysis.u_ms": (ms(select(lambda s: s == "analysis.intersection")),
                          "ms"),
        "analysis.e_ms": (ms(builds), "ms"),
        "analysis.e_closed_ms": (
            ms(select(lambda s: s == "analysis.closed_form_E")), "ms"),
        "analysis.predict_ms": (ms(select(
            lambda s: s.startswith("analysis.predict_limits"))), "ms"),
        "analysis.self_ms": (self_ms("analysis"), "ms"),
        "analysis.dim_e": (sum(spans[i][4]["dim"] for i in builds
                               if spans[i][4] and "dim" in spans[i][4])
                           / len(builds) if builds else 0.0, "count"),
        "analysis.wall_share": (busy_ms({"analysis", "operators"}) / wall_ms
                                if wall_ms else 0.0, "ratio"),
        "operators.calls": (count("operators"), "count"),
        "operators.busy_ms": (busy_ms({"operators"}), "ms"),
        "graphs.calls": (count("graphs"), "count"),
        "graphs.busy_ms": (busy_ms({"graphs"}), "ms"),
        "factor.calls": (count("factor"), "count"),
        "factor.busy_ms": (busy_ms({"factor"}), "ms"),
        "presets.calls": (count("presets"), "count"),
        "presets.self_ms": (self_ms("presets"), "ms"),
        "cli.calls": (len(mains), "count"),
        "cli.self_ms": (self_ms("cli"), "ms"),
        "cli.nonzero_exit": (sum(1 for i in mains if not spans[i][4]
                                 or spans[i][4].get("exit") != 0), "count"),
    }


def per_label_ms(spans: list[list], names) -> dict:
    """Median time per op label spent in each named span (summed within
    an op), for the ops that called it at all."""
    op_of = [-1] * len(spans)
    totals: dict[int, dict[str, float]] = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        op_of[i] = i if name == "op" else (op_of[parent] if parent >= 0 else -1)
        if name in names and op_of[i] >= 0:
            per_op = totals.setdefault(op_of[i], {})
            per_op[name] = per_op.get(name, 0.0) + (t1 - t0) / 1e6
    out: dict[str, dict[str, list[float]]] = {}
    for op, per_op in totals.items():
        row = out.setdefault(spans[op][4], {})
        for name, value in per_op.items():
            row.setdefault(name, []).append(value)
    return {label: {name: statistics.median(vals) for name, vals in row.items()}
            for label, row in sorted(out.items())}
