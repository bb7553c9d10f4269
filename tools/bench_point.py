"""Write one benchmark point of the checkout it runs in: BENCH_<LABEL>.json.

    python tools/bench_point.py LABEL [--seeds 1 2 3] [--seconds S]
                                [--workloads W ...] [--out DIR]

For each workload of BENCHMARK.json and each seed, it runs
``perfbench/run.py --workload W --seed S --seconds S --trace 0`` in a
process of its own from the repository root, one after the other, and
keeps the full record that run prints on the line before its last: the
environment stamps (backend, versions, core count, BLAS, commit and
source digest), the sample counts, the host-speed percentiles, the
unscaled times, the per-rung figures and the end-to-end metrics.  The
point holds those records per workload, in seed order, and per workload
the median over the seeds of each end-to-end metric.  ``--seconds``
defaults to the benchmark's ``run_seconds``; the point is written to
``DIR/BENCH_<LABEL>.json``, by default at the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def run_record(workload: str, seed: int, seconds: float) -> dict:
    """The full record of one benchmark run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no record in "
                           f"{out.stdout!r}")
    return json.loads(lines[-2])


def point(label: str, workloads, seeds, seconds: float) -> dict:
    records, medians = {}, {}
    for workload in workloads:
        recs = [run_record(workload, seed, seconds) for seed in seeds]
        records[workload] = recs
        medians[workload] = {
            name: statistics.median(r["metrics"][name]["value"] for r in recs)
            for name in recs[0]["metrics"]}
    return {"label": label, "seeds": list(seeds), "seconds": seconds,
            "median_over_seeds": medians, "records": records}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Write BENCH_<LABEL>.json from benchmark runs.")
    parser.add_argument("label")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    doc = point(args.label, args.workloads, args.seeds, args.seconds)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
