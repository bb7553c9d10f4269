"""Compare the outputs of two graphsplit source trees on the benchmark's
corpora, every field by one rule.

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

Each op's outcome is one flat dict of named fields, built by the type of
its output (see :func:`outcome`), plus ``check``, the status the op's own
benchmark check gives (``ok``, ``budget``, ``oracle`` or ``exit``).  A
field is compared by the type of its value:

- bool, int, str and None are flags, which must not move.  Each moved
  flag is listed with its op and makes the exit status 1; so does a field
  whose type or array shape moved.
- Floats and arrays are compared byte for byte.  Where they differ, the
  report gives the worst difference relative to max(1, ||old||), as the
  stop rule scales it, per call and path with its indices dropped
  (``cases[].expanded.v_err``).
- Digests (bytes) read identical or not.
- A field present in one tree only is named, with its count of ops.

So a field a later change adds is compared with no new code.  The report
gives one line per call whose every field is byte-identical, and one line
per differing field of any other call.  A call is a cli-small op's label
up to its graph kind, as ``tools/abtime.py`` groups them, or the corpus
for every other op.

Two readings are not old-against-new comparisons.  A multistart run's
final v depends on what the problem's residual map has cached from the
runs before it (its powers of I - theta g, and the step counts that
decide when one is built, in one record per theta or, in older trees, in
two tables), so OLD_SRC alone runs each multistart op a
second time with those caches cleared, then restores them; the report
gives the worst difference of that cold run's v against its run in the
corpus order, under the same normalisation: the rounding spread of the
old tree itself, which a change of rounding path should not much exceed.
And per tree it gives the worst loss of orthogonality, the largest entry
of |Q^T Q - I|, of each of a predict-large op's two E bases
(``sp.e_basis`` and ``closed_form_E``'s).
"""

from __future__ import annotations

import collections
import hashlib
import json
import multiprocessing
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
VERIFY = "verify --all-presets"
#: each corpus with its seeds, in the order they run
CORPORA = (("cli-small", (1, 77)), (VERIFY, (1, 77)),
           ("multistart", (1, 2, 3)), ("predict-large", (1, 2, 3)))
#: what a residual map caches from one run for the next: one record per
#: theta, or in older trees the two tables it replaced
CACHES = ("thetas", "powers", "counts")


def cold_rerun(gs, op):
    """Run ``op`` and then run it again on its problem's residual map with
    ``CACHES`` cleared, restoring them after; returns both traces.  A map
    with none of ``CACHES`` raises, since clearing nothing would read a
    spread of 0."""
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
        if not tables:
            raise RuntimeError(f"the residual map has none of {CACHES}")
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


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def numbers(value):
    """A list that nests numbers regularly as a float64 array, else
    None."""
    try:
        arr = np.array(value)
    except ValueError:  # a ragged nest
        return None
    return arr.astype(float) if arr.dtype.kind in "iuf" else None


def flatten(value, path: str, out: dict) -> dict:
    """``out`` with the leaves of the JSON value ``value`` added by path;
    a list of numbers is one leaf, a float64 array."""
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and (arr := numbers(value)) is not None:
        out[path] = arr
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def outcome(result, trace: bytes) -> dict:
    """The fields of an op's output, by its type:

    - a cli call, ``(exit code, stdout)``: ``exit``, ``trace`` (the digest
      of the trace files it wrote), ``stdout`` (its digest, or the text
      itself when it is not JSON, as after most non-zero exits) and the
      stdout JSON flattened by path (``v_final``, ``cases[3].pass``),
      whatever the exit code: a failing ``verify`` exits 4 with its
      report on stdout;
    - predict-large's ``(sp, e, e_closed, pred1, pred2)``: the six
      predicted arrays (``alg1.u_bar`` to ``alg2.v_bar``), ``dim_E``,
      ``dim_U`` and ``projector``, the digest of E's projector;
    - a ``Trace``: ``converged``, ``stop_reason``, ``iterations`` and
      ``v_final``."""
    if isinstance(result, tuple) and len(result) == 2:
        code, stdout = result
        fields = {"exit": code, "trace": trace}
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return dict(fields, stdout=stdout)
        return flatten(doc, "", dict(fields, stdout=digest(stdout.encode())))
    if isinstance(result, tuple):
        sp, e, _, pred1, pred2 = result
        fields = {f"{alg}.{name}": getattr(pred, name)
                  for alg, pred in (("alg1", pred1), ("alg2", pred2))
                  for name in ("u_bar", "e_bar", "v_bar")}
        return dict(fields, dim_E=e.dim, dim_U=sp.u_common.dim,
                    projector=digest((e.basis @ e.basis.T).tobytes()))
    return {"converged": result.converged, "stop_reason": result.stop_reason,
            "iterations": result.k_final, "v_final": result.v}


def orthogonality_loss(e) -> float:
    """The largest entry of |Q^T Q - I| of E's basis Q."""
    q = e.basis
    return float(np.abs(q.T @ q - np.eye(e.dim)).max(initial=0.0))


def exit_status(result):
    """The check of a ``verify`` call, which the benchmark does not run."""
    return ("exit" if result[0] else "ok"), None


def corpora(workloads, tmp: Path):
    """``(corpus, seed, work directory, ops)`` per corpus and seed, in
    order; the ops of a seed are built when it is reached, since each
    workload imports graphsplit afresh."""
    for corpus, seeds in CORPORA:
        for seed in seeds:
            work = tmp / f"{corpus}-{seed}"
            if corpus == VERIFY:
                call = workloads._cli_call(
                    sys.modules["graphsplit"],
                    [*VERIFY.split(), "--seed", str(seed)])
                ops = [workloads.Op(VERIFY, call, exit_status)]
            else:
                ops = workloads.WORKLOADS[corpus](seed, work)
            yield corpus, seed, work, ops


def collect(src: str, spread: bool = False):
    """The outcomes of the tree at ``src``, keyed by (call, seed, op
    index, op label); with ``spread``, the final v of each multistart op's
    cold rerun (see :func:`cold_rerun`), by the same keys; and the worst
    orthogonality loss of each predict-large E basis."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import workloads

    gs = workloads.fresh_import()
    if Path(gs.__file__).resolve().parent.parent != Path(src).resolve():
        raise RuntimeError(f"graphsplit came from {gs.__file__}, not {src}")
    out, cold, losses = {}, {}, np.zeros(2)
    with tempfile.TemporaryDirectory() as tmp:
        for corpus, seed, work, ops in corpora(workloads, Path(tmp)):
            for i, op in enumerate(ops):
                call = (op.label.rsplit(" ", 3)[0] if corpus == "cli-small"
                        else corpus)
                key = call, seed, i, op.label
                if spread and corpus == "multistart":
                    result, again = cold_rerun(sys.modules["graphsplit"], op)
                    cold[key] = again.v
                else:
                    result = op.run()
                # before the check, which unlinks a run's trace
                traces = list(work.glob("trace*"))
                fields = outcome(result, digest(
                    b"".join(path.read_bytes() for path in traces)))
                out[key] = dict(fields, check=op.check(result)[0])
                for path in traces:
                    path.unlink(missing_ok=True)
                if corpus == "predict-large":
                    losses = np.maximum(losses, [orthogonality_loss(e)
                                                 for e in result[1:3]])
    return out, cold, losses


def in_own_process(src: str, spread: bool = False):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(collect, (src, spread))


def rel_diff(a, b) -> float:
    """||b - a|| relative to max(1, ||a||)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(b - a)) / max(1.0, float(np.linalg.norm(a)))


def kind(value) -> str:
    """``digest`` for bytes, ``number`` for a float or an array, else
    ``flag``."""
    if isinstance(value, bytes):
        return "digest"
    return "number" if isinstance(value, (float, np.ndarray)) else "flag"


def show(value) -> str:
    """A moved value, shortened: an array by its shape, else its repr."""
    if isinstance(value, np.ndarray):
        return f"an array of shape {value.shape}"
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:57]}..."


def compare(old: dict, new: dict) -> int:
    """Print the report on the outcomes ``old`` and ``new`` of two trees,
    each {(call, seed, op index, label): {field: value}}; returns the exit
    status, 1 when a flag moved, else 0."""
    keys = list(old) + [key for key in new if key not in old]
    moved, worst, counts = [], {}, collections.Counter()
    for key in keys:
        a, b = old.get(key, {}), new.get(key, {})
        for name in list(a) + [name for name in b if name not in a]:
            # the field's group: its call, and its path without indices
            group = key[0], re.sub(r"\[\d+\]", "[]", name)
            if (name in a) != (name in b):
                tree = "old" if name in a else "new"
                counts[group, f"in the {tree} tree only"] += 1
                continue
            x, y = a[name], b[name]
            kinds = {kind(x), kind(y)}
            if kinds == {"number"} and np.shape(x) == np.shape(y):
                if np.asarray(x).tobytes() != np.asarray(y).tobytes():
                    worst[group] = max(worst.get(group, 0.0), rel_diff(x, y))
            elif kinds == {"digest"}:
                if x != y:
                    counts[group, "not identical"] += 1
            elif kinds != {"flag"} or x != y:
                moved.append((key, name, show(x), show(y)))
                counts[group, "moved"] += 1
    print(f"{len(keys)} ops; flags moved: {len(moved)}")
    for (call, seed, i, label), name, x, y in moved:
        print(f"  {call} seed {seed} op {i} ({label}) {name}: {x} -> {y}")
    lines = [(group, f"worst relative difference {diff:.3g}")
             for group, diff in worst.items()]
    lines += [(group, f"{what} in {n} ops")
              for (group, what), n in counts.items()]
    for call, n in collections.Counter(key[0] for key in keys).items():
        found = [f"{call} {path}: {text}" for (c, path), text in lines
                 if c == call]
        print(*found or [f"{call}: every field byte-identical ({n} ops)"],
              sep="\n")
    return 1 if moved else 0


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/exactness.py OLD_SRC NEW_SRC",
              file=sys.stderr)
        return 2
    # as the benchmark runs: one BLAS thread, inherited by the workers
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    (old, cold, old_loss), (new, _, new_loss) = (
        in_own_process(os.path.abspath(src), i == 0)
        for i, src in enumerate(argv))
    status = compare(old, new)
    spread = max(rel_diff(old[key]["v_final"], v) for key, v in cold.items())
    print(f"multistart v_final, old tree's cold rerun against its run: "
          f"{spread:.3g}")
    for name, x, y in zip(("sp.e_basis", "closed_form_E"), old_loss, new_loss):
        print(f"predict-large worst |Q^T Q - I| of {name}, old / new: "
              f"{x:.3g} / {y:.3g}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
