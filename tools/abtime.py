"""Time the benchmark's ops of two graphsplit source trees, interleaved in
one process.

    python tools/abtime.py OLD_SRC NEW_SRC --workload W [--seeds 1 2 3]
                           [--rounds 5]

OLD_SRC and NEW_SRC are directories that hold the ``graphsplit`` package,
such as the ``src`` of two checkouts.  Each tree's package is copied into a
temporary directory under a name of its own, ``old_graphsplit`` and
``new_graphsplit`` (the package imports itself only relatively), so both
load side by side.  The ops of workload W are built per seed by
``perfbench/workloads.py``, imported and not changed: while a tree's ops
are built, ``workloads.fresh_import`` hands out that tree's copy, and for
cli-small each tree writes its configs and traces in a work directory of
its own.

Each op of the cycle then runs once per tree and round, old and new next
to each other, with the order of the two alternating from op to op and
from round to round; an op's time is its best over the rounds, on
``time.perf_counter`` and unscaled.  The oracle checks run outside the
timed calls.  The report gives, per tree, the sum of the best times (one
cycle), their 50th and 90th percentiles and the ops whose check did not
pass, and the median over ops of the ratio new / old, overall (with the
quartiles of the ratios beside it, their spread) and per label.  The
labels of cli-small name the call, the factor method and (n, d), which
gives 120 labels of 3 or 6 ops each; its ops are grouped by call
instead (``run``, ``run --no-trace``, ``predict`` and ``decompose``), so
each line shows one call that a change may or may not reach.  For
multistart the per-label lines are followed by the median per-op ratio of
each algorithm, ``expanded`` and ``reduced``, over all its labels.  Timing on
one host in one process takes the host's speed out of the comparison,
which a pair of benchmark runs cannot do.

Read predict-large by the median per-op ratio, with at least 10 rounds:
about 45% of its cycle is one complete n=60 d=24 op per seed, whose best
of 5 rounds moves by several percent in a noisy spell, and that moves the
cycle sum and the 90th percentile with it.  A bound near 1% on that ratio
needs 20 or more rounds: at 10, two runs of the same two trees read
1.0014 and 1.0074.

As the benchmark runs, numpy gets one BLAS thread.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

TREES = ("old", "new")


def load(src: str, name: str, tmp: Path):
    """The ``graphsplit`` package of ``src``, copied to ``tmp`` and
    imported as ``name``, with its cli module."""
    shutil.copytree(Path(src) / "graphsplit", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if str(tmp) not in sys.path:
        sys.path.insert(0, str(tmp))
    pkg = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    return pkg


@contextlib.contextmanager
def serving(pkg):
    """``workloads.fresh_import`` returns ``pkg`` inside the block."""
    saved = workloads.fresh_import
    workloads.fresh_import = lambda: pkg
    try:
        yield
    finally:
        workloads.fresh_import = saved


def build(pkgs, workload: str, seeds, tmp: Path) -> list[list]:
    """Per tree, the ops of ``workload`` over ``seeds``, in one list."""
    make = workloads.WORKLOADS[workload]
    cycles = []
    for tree, pkg in zip(TREES, pkgs):
        ops = []
        with serving(pkg):
            for seed in seeds:
                ops += make(seed, tmp / f"work-{tree}-{seed}")
        cycles.append(ops)
    if [op.label for op in cycles[0]] != [op.label for op in cycles[1]]:
        raise RuntimeError("the two trees built different cycles")
    return cycles


def time_ops(cycles, rounds: int):
    """The best time of each op per tree, in seconds, and per tree the
    labels of the ops whose check did not pass."""
    n = len(cycles[0])
    best = np.full((2, n), np.inf)
    failed = [set(), set()]
    for r in range(rounds):
        for i in range(n):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for t in order:
                op = cycles[t][i]
                t0 = time.perf_counter()
                out = op.run()
                dt = time.perf_counter() - t0
                best[t, i] = min(best[t, i], dt)
                if op.check(out)[0] != "ok":
                    failed[t].add(op.label)
    return best, failed


def cli_call(label: str) -> str:
    """The call of a cli-small op, from its label "CALL KIND n=N d=D"."""
    return label.rsplit(" ", 3)[0]


def algorithm(label: str) -> str:
    """The algorithm of a multistart op, from its label "PRESET n=N d=D
    ALGORITHM"."""
    return label.rsplit(" ", 1)[1]


def by_group(groups, ratio, title: str) -> list[str]:
    """The median per-op ratio of each group, under ``title``."""
    ratios = {}
    for group, x in zip(groups, ratio):
        ratios.setdefault(group, []).append(x)
    width = max(map(len, ratios))
    return [f"{title}:"] + [
        f"  {group:<{width}}  {statistics.median(xs):.4f}  ({len(xs)})"
        for group, xs in sorted(ratios.items())]


def report(labels, best, failed, group: str = "label") -> list[str]:
    """The report on the best times; ``labels`` holds each op's ``group``
    (its label, or its call), by which the ratios are summarised."""
    ms = best * 1e3
    ratio = ms[1] / ms[0]
    lines = []
    for tree, row, bad in zip(TREES, ms, failed):
        p50, p90 = np.percentile(row, [50, 90])
        lines.append(f"{tree}: cycle {row.sum():.2f} ms, p50 {p50:.4f} ms, "
                     f"p90 {p90:.4f} ms, {len(bad)} labels failed a check")
        lines += [f"  failed: {label}" for label in sorted(bad)]
    p50s, p90s = (np.percentile(ms, q, axis=1) for q in (50, 90))
    lines.append(f"new / old: cycle {ms[1].sum() / ms[0].sum():.4f}, "
                 f"p50 {p50s[1] / p50s[0]:.4f}, p90 {p90s[1] / p90s[0]:.4f}, "
                 f"median per-op ratio {np.median(ratio):.4f} "
                 f"over {len(ratio)} ops")
    quartiles = np.percentile(ratio, [25, 50, 75])
    lines.append("per-op ratio quartiles: "
                 + ", ".join(f"{q:.4f}" for q in quartiles))
    return lines + by_group(labels, ratio, f"median per-op ratio by {group}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time two graphsplit trees' benchmark ops interleaved.")
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        pkgs = [load(src, f"{tree}_graphsplit", tmp)
                for tree, src in zip(TREES, (args.old_src, args.new_src))]
        cycles = build(pkgs, args.workload, args.seeds, tmp)
        best, failed = time_ops(cycles, args.rounds)
    print(f"{args.workload}, seeds {' '.join(map(str, args.seeds))}, "
          f"best of {args.rounds} rounds, unscaled")
    labels, group = [op.label for op in cycles[0]], "label"
    if args.workload == "cli-small":
        labels, group = list(map(cli_call, labels)), "call"
    lines = report(labels, best, failed, group)
    if args.workload == "multistart":
        lines += by_group(map(algorithm, labels), best[1] / best[0],
                          "median per-op ratio by algorithm")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
