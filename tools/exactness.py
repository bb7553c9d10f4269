"""Compare the outputs of two graphsplit source trees on the benchmark's
corpora.

    python tools/exactness.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``graphsplit`` package,
such as the ``src`` of two checkouts.  Each tree runs in a fresh process
of its own, on inputs built by ``perfbench/workloads.py`` (imported, not
changed):

- the cli-small corpora of seeds 1 and 77: every ``run`` (with its trace
  file), ``run --no-trace``, ``predict`` and ``decompose`` call;
- ``verify --all-presets`` at seeds 1 and 77, whose configs draw each
  node's dimension at random, so their nodes differ in spanner count;
- the multistart runs of seeds 1, 2 and 3;
- the predict-large ops of seeds 1, 2 and 3, whose spanners are float64
  ndarrays rather than the JSON lists of the cli-small configs.

The report gives the calls whose exit code moved, the runs whose
``converged``, ``stop_reason`` or iteration count moved (each count that
moved is listed), the worst difference of the final v relative to
max(1, ||v||), as the stop rule scales it, per corpus, and whether run
stdout, traces, predict, decompose and ``verify --all-presets`` output are
byte for byte the same.
When some predict output is not, it also gives the worst difference of
``u_bar``, ``e_bar`` and ``v_bar``, each relative to max(1, ||old||), and
whether every ``dim_E`` and ``dim_U`` matched.  For predict-large it
gives whether ``u_bar``, ``e_bar`` and ``v_bar`` of both predictions and
the projector onto E are byte for byte the same, the worst difference of
each predicted array that is not, whether every ``dim_E`` and ``dim_U``
matched, and per tree the worst loss of orthogonality, the largest entry
of |Q^T Q - I|, of each of the op's two E bases (``sp.e_basis`` and
``closed_form_E``'s).

A multistart run's final v depends on what the problem's residual map has
cached from the runs before it (its powers of I - theta g, and the step
counts that decide when one is built), so OLD_SRC alone runs each
multistart op a second time with those caches cleared, then restores
them.  Next to the worst old-against-new difference on multistart, the
report gives the worst difference of OLD_SRC's cold run against its run
in the corpus order, under the same normalisation: the rounding spread of
the old tree itself, which a change of rounding path should not much
exceed.  The exit status is 1 when
an exit code, ``converged``, a stop reason or an iteration count moved,
else 0.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CLI_SEEDS = (1, 77)
MULTISTART_SEEDS = (1, 2, 3)
PREDICT_SEEDS = (1, 2, 3)
#: the cli-small calls of one graph pair, in the corpus's order
CLI_KINDS = ("run", "run --no-trace", "predict", "decompose")
#: the call run at each of ``CLI_SEEDS``, beside the cli-small corpora
VERIFY = "verify --all-presets"
#: the predicted arrays of ``predict`` output, and its dimensions
PREDICTED = ("u_bar", "e_bar", "v_bar")
DIMS = ("dim_E", "dim_U")
#: the arrays of a predict-large op: both predictions, then E's projector,
#: kept as a digest (1416 x 1416 on the n=60 d=24 rung)
LARGE = tuple(f"{alg} {name}" for alg in ("alg1", "alg2")
              for name in PREDICTED) + ("E projector",)
#: the two E bases of a predict-large op, by the call that builds them
E_BASES = ("sp.e_basis", "closed_form_E")
#: what a residual map caches from one run for the next, where the tree
#: has it
CACHES = ("powers", "counts")


def cold_rerun(gs, op):
    """Run ``op`` and then run it again on its problem's residual map with
    ``CACHES`` cleared, restoring them after; returns both traces."""
    problems = []
    calls = {name: getattr(gs, name) for name in ("run_alg1", "run_alg2")}

    def spy(call):
        def run(p, *args, **kwargs):
            problems.append(p)
            return call(p, *args, **kwargs)
        return run

    for name, call in calls.items():
        setattr(gs, name, spy(call))
    try:
        first = op.run()
        lin = problems[0]._linear_map
        tables = [getattr(lin, name) for name in CACHES if hasattr(lin, name)]
        saved = [dict(t) for t in tables]
        for t in tables:
            t.clear()
        cold = op.run()
        for t, kept in zip(tables, saved):
            t.clear()
            t.update(kept)
    finally:
        for name, call in calls.items():
            setattr(gs, name, call)
    return first, cold


def collect(src: str, spread: bool = False):
    """Every outcome of the tree at ``src``, keyed by (corpus, seed, op
    index, op label):
    ``(kind, exit code, stdout, trace digest)`` for a cli call (``verify``
    writes no trace: its digest is empty),
    ``(converged, stop_reason, iterations, v)`` for a multistart run and
    ``("predict-large", arrays, (dim_E, dim_U), losses)`` for a
    predict-large op, with the arrays named as in ``LARGE`` and the
    orthogonality losses of its E bases as in ``E_BASES``; and with
    ``spread``, the final v of each multistart op's cold rerun (see
    :func:`cold_rerun`), by the same keys."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import workloads

    gs = workloads.fresh_import()
    if Path(gs.__file__).resolve().parent.parent != Path(src).resolve():
        raise RuntimeError(f"graphsplit came from {gs.__file__}, not {src}")
    out, cold = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in CLI_SEEDS:
            work = Path(tmp) / f"cli{seed}"
            for i, op in enumerate(workloads.cli_small(seed, work)):
                code, stdout = op.run()
                trace = hashlib.sha256()
                for path in work.glob("trace*"):
                    trace.update(path.read_bytes())
                    path.unlink()
                out["cli-small", seed, i, op.label] = (
                    CLI_KINDS[i % 4], code, stdout, trace.digest())
        for seed in CLI_SEEDS:
            argv = [*VERIFY.split(), "--seed", str(seed)]
            code, stdout = workloads._cli_call(gs, argv)()
            out["verify", seed, 0, VERIFY] = VERIFY, code, stdout, b""
        for seed in MULTISTART_SEEDS:
            ops = workloads.multistart(seed, Path(tmp))
            # the package the ops look their calls up in
            gs = sys.modules["graphsplit"]
            for i, op in enumerate(ops):
                key = "multistart", seed, i, op.label
                if spread:
                    tr, again = cold_rerun(gs, op)
                    cold[key] = again.v
                else:
                    tr = op.run()
                out[key] = tr.converged, tr.stop_reason, tr.k_final, tr.v
        for seed in PREDICT_SEEDS:
            for i, op in enumerate(workloads.predict_large(seed, Path(tmp))):
                sp, e, e_closed, pred1, pred2 = op.run()
                arrays = [getattr(pred, name) for pred in (pred1, pred2)
                          for name in PREDICTED]
                arrays.append(hashlib.sha256(
                    (e.basis @ e.basis.T).tobytes()).digest())
                losses = tuple(
                    float(np.abs(b.basis.T @ b.basis - np.eye(b.dim)).max(
                        initial=0.0)) for b in (e, e_closed))
                out["predict-large", seed, i, op.label] = (
                    "predict-large", arrays, (e.dim, sp.u_common.dim), losses)
    return out, cold


def in_own_process(src: str, spread: bool = False):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(collect, (src, spread))


def run_facts(value):
    """``(converged, stop_reason, iterations, v)`` of a run, or None."""
    if value[0] in ("run", "run --no-trace"):
        _, code, stdout, _ = value
        if code:
            return None
        doc = json.loads(stdout)
        return (doc["converged"], doc["stop_reason"], doc["iterations"],
                np.array(doc["v_final"]))
    if isinstance(value[0], str):
        return None
    return value


def rel_diff(a, b) -> float:
    """||b - a|| relative to max(1, ||a||)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(b - a)) / max(1.0, float(np.linalg.norm(a)))


def compare(old: dict, new: dict, cold: dict) -> int:
    """Print the report on the outcomes ``old`` and ``new`` of two trees,
    with ``cold`` the final v of the old tree's cold reruns; returns the
    exit status."""
    if old.keys() != new.keys():
        raise RuntimeError("the two trees ran different corpora")
    codes, flags, counts = [], [], []
    worst = {}
    predicted, dims_match = dict.fromkeys(PREDICTED, 0.0), True
    same = dict.fromkeys(["run stdout", "traces", "predict", "decompose",
                          VERIFY], True)
    large_same, large_diff = dict.fromkeys(LARGE, True), {}
    large_dims = True
    # per tree, the worst orthogonality loss of each E basis
    large_loss = np.zeros((2, len(E_BASES)))
    for key in old:
        a, b = old[key], new[key]
        if a[0] == "predict-large":
            for name, x, y in zip(LARGE, a[1], b[1]):
                if isinstance(x, bytes):
                    large_same[name] &= x == y
                elif x.tobytes() != y.tobytes():
                    large_same[name] = False
                    large_diff[name] = max(large_diff.get(name, 0.0),
                                           rel_diff(x, y))
            large_dims &= a[2] == b[2]
            large_loss = np.maximum(large_loss, [a[3], b[3]])
            continue
        if isinstance(a[0], str):
            if a[1] != b[1]:
                codes.append((key, a[1], b[1]))
            kind = "run stdout" if a[0].startswith("run") else a[0]
            same[kind] &= a[2] == b[2]
            same["traces"] &= a[3] == b[3]
            if a[0] == "predict" and a[1] == b[1] == 0 and a[2] != b[2]:
                da, db = json.loads(a[2]), json.loads(b[2])
                for name in PREDICTED:
                    predicted[name] = max(predicted[name],
                                          rel_diff(da[name], db[name]))
                dims_match &= all(da[k] == db[k] for k in DIMS)
        fa, fb = run_facts(a), run_facts(b)
        if fa is None or fb is None:
            continue
        if fa[:2] != fb[:2]:
            flags.append((key, fa[:2], fb[:2]))
        if fa[2] != fb[2]:
            counts.append((key, fa[2], fb[2]))
        worst[key[0]] = max(worst.get(key[0], 0.0), rel_diff(fa[3], fb[3]))
    runs = sum(run_facts(v) is not None for v in old.values())
    print(f"{len(old)} ops, {runs} of them runs")
    for title, moved in [("exit codes", codes),
                         ("converged or stop_reason", flags),
                         ("iteration counts", counts)]:
        print(f"{title} moved: {len(moved)}")
        for (corpus, seed, i, label), a, b in moved:
            print(f"  {corpus} seed {seed} op {i} ({label}): {a} -> {b}")
    spread = max((rel_diff(old[key][3], v) for key, v in cold.items()),
                 default=None)
    for corpus, diff in worst.items():
        line = f"worst relative difference in v_final, {corpus}: {diff:.3g}"
        if corpus == "multistart" and spread is not None:
            line += f" (old tree, cold rerun against its run: {spread:.3g})"
        print(line)
    for kind, equal in same.items():
        print(f"{kind} byte-identical: {'yes' if equal else 'no'}")
    if not same["predict"]:
        for name, diff in predicted.items():
            print(f"worst relative difference in predict {name}: {diff:.3g}")
        print(f"predict {' and '.join(DIMS)} all match: "
              f"{'yes' if dims_match else 'no'}")
    for name, equal in large_same.items():
        print(f"predict-large {name} byte-identical: "
              f"{'yes' if equal else 'no'}")
    for name, diff in large_diff.items():
        print(f"worst relative difference in predict-large {name}: "
              f"{diff:.3g}")
    print(f"predict-large {' and '.join(DIMS)} all match: "
          f"{'yes' if large_dims else 'no'}")
    for name, (x, y) in zip(E_BASES, large_loss.T):
        print(f"predict-large worst |Q^T Q - I| of {name}, old / new: "
              f"{x:.3g} / {y:.3g}")
    return 1 if codes or flags or counts else 0


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/exactness.py OLD_SRC NEW_SRC",
              file=sys.stderr)
        return 2
    # as the benchmark runs: one BLAS thread, inherited by the workers
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    (old, cold), (new, _) = (in_own_process(os.path.abspath(src), i == 0)
                             for i, src in enumerate(argv))
    return compare(old, new, cold)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
