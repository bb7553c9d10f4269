"""graphsplit benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload multistart --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; graphsplit is imported from its
``src/`` directory.  The loop has a single caller and no threads: it
repeats the workload's cycle of ops, and stops at the end of the first
cycle at which the timed wall time (op time plus loop overhead, oracle
checks excluded) has reached ``--seconds``.  Between ops, with the
clock stopped, it times a fixed numpy reference loop; the end-to-end times
are scaled by the reference loop's time around each op (see
``host_speed``).

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
with the timing shims of ``tracer.py`` installed, the same ops then run
again without them, and the last line carries the per-layer metrics
and the tracing overhead.  The line before it is the full record (the
environment stamps, the sample counts, per-rung figures and the
failures), which is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: the loop is a single caller, and on a two-core host a
# second BLAS thread made mid-size QR and SVD calls slower.  Set before
# numpy loads OpenBLAS; the record stamps the thread count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# No transparent huge pages.  numpy asks for them on large arrays, and how
# many the kernel grants depends on the host's memory at the time: runs of
# the same code read peak_rss_mb 98 MB on predict-large in one half hour
# and 113 MB in the next, and the process's huge pages went from 14 MB to
# 0 between two runs.  The switch exists on Linux only.
PR_SET_THP_DISABLE = 41
THP_DISABLED = (sys.platform == "linux"
                and ctypes.CDLL(None).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0)

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
#: Other tenants of a shared host slow this process by up to 2x, in spells
#: from milliseconds to minutes long.  The reference loop below, timed after
#: every op, slows with it; each op's time is divided by the mean reference
#: time of the 2 * REF_WINDOW + 1 ops around it and multiplied by REF_MS,
#: the reference loop's time on a quiet host.
REF_MS = 0.4
REF_WINDOW = 5

# ---------------------------------------------------------------------------
# the closed loop

class Measurement:
    def __init__(self):
        self.latency: list[float] = []
        self.labels: list[str] = []
        self.status: list[str] = []
        self.iters: list[int | None] = []
        self.errors: list[str] = []
        self.ref: list[float] = []
        self.wall = 0.0


_REF_A = np.random.default_rng(0).standard_normal((16, 16)) * 0.1


def reference_loop(steps: int = 200) -> float:
    """Time a fixed loop of small numpy calls that uses no graphsplit
    code: about REF_MS on a quiet host (x86-64, 2 vCPUs)."""
    t0 = time.perf_counter()
    x = _REF_A
    for _ in range(steps):
        x = np.tanh(x @ _REF_A)
    return time.perf_counter() - t0


def host_speed(ref: list[float], window: int = REF_WINDOW) -> np.ndarray:
    """Per op, the mean reference time around it over REF_MS: 1 on a quiet
    host, 2 when the host runs this process at half speed."""
    ref = np.asarray(ref)
    csum = np.concatenate(([0.0], np.cumsum(ref)))
    idx = np.arange(len(ref))
    lo = np.maximum(idx - window, 0)
    hi = np.minimum(idx + window + 1, len(ref))
    return (csum[hi] - csum[lo]) / (hi - lo) * 1e3 / REF_MS


def measure(ops, seconds: float | None = None, count: int | None = None,
            whole_cycles: bool = False, recorder=None) -> Measurement:
    """Run ops in cycle order until the timed wall reaches ``seconds`` (at
    the end of a cycle, with ``whole_cycles``) or ``count`` ops have run.
    An op that raises counts as failed.  After each op, outside the timed
    wall, the oracle checks it and the reference loop is timed.

    Whole cycles give every run the same mix of ops: the cycles hold ops of
    very different cost, so a run cut inside a cycle would report a mix
    that depends on where the cut fell."""
    span = recorder.span if recorder else (lambda *a: contextlib.nullcontext())
    m = Measurement()
    oracle = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        i += 1
        error = None
        t0 = time.perf_counter()
        with span("op", op.label):
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - the loop must go on
                error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        with span("oracle"):
            if error is None:
                try:
                    status, k = op.check(out)
                except Exception as exc:  # noqa: BLE001 - a failed oracle
                    status, k = "oracle", None
                    error = f"oracle {type(exc).__name__}: {exc}"
            else:
                status, k = "raised", None
        m.ref.append(reference_loop())
        t2 = time.perf_counter()
        oracle += t2 - t1
        m.latency.append(t1 - t0)
        m.labels.append(op.label)
        m.status.append(status)
        m.iters.append(k)
        if status != "ok":
            m.errors.append(f"{op.label}: {status} {error or ''}".strip())
        if count is not None:
            if i >= count:
                break
        elif (t2 - start - oracle >= seconds
              and not (whole_cycles and i % len(ops))):
            break
    m.wall = time.perf_counter() - start - oracle
    return m


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3


def rungs(m: Measurement, lat: list[float]) -> dict:
    """Median op time per label, and time per iteration where ops report
    iterations (for ROADMAP's per-iteration baselines), from the op times
    ``lat`` of ``m``."""
    out = {}
    for label in sorted(set(m.labels)):
        idx = [i for i, lab in enumerate(m.labels) if lab == label]
        row = {"ops": len(idx),
               "op_ms_p50": percentile_ms([lat[i] for i in idx], 50)}
        its = [m.iters[i] for i in idx if m.iters[i]]
        if len(its) == len(idx):
            row["us_per_iter"] = (sum(lat[i] for i in idx) * 1e6
                                  / sum(its))
            row["iterations_p50"] = float(np.median(its))
        out[label] = row
    return out


# ---------------------------------------------------------------------------
# stamps

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "graphsplit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "env": {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS") if k in os.environ}}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        info["threads"] = fn()
    return info


def stamps(gs, workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "backend": "numba" if gs._kernels.USING_NUMBA else "numpy",
        "using_numba": bool(gs._kernels.USING_NUMBA),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "blas": _blas(),
        "thp_disabled": THP_DISABLED,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> tuple[dict, dict]:
    build = workloads.WORKLOADS[workload]
    work = out_dir / f"work-{workload}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = [reference_loop() for _ in range(REF_WINDOW)]
        t0 = time.perf_counter()
        ops = build(seed, work)
        setup_raw.append(time.perf_counter() - t0)
        ref += [reference_loop() for _ in range(REF_WINDOW)]
        setup.append(setup_raw[-1] / host_speed(ref, len(ref))[0])
    gs = sys.modules["graphsplit"]
    if Path(gs.__file__).resolve().parent != SRC / "graphsplit":
        raise RuntimeError(f"graphsplit imported from {gs.__file__}, not {SRC}")

    record = {"stamps": stamps(gs, workload, seed, seconds, int(trace)),
              "setup_s_samples": setup, "setup_s_raw": setup_raw,
              "ops_per_cycle": len(ops)}
    if trace:
        rec = tracer.Recorder()
        restore = rec.install()
        try:
            m = measure(ops, seconds=seconds / 2, recorder=rec)
        finally:
            restore()
        plain = measure(ops, count=len(m.latency))
        # both passes at quiet-host speed, or host drift between them
        # outweighs the overhead
        traced_s, plain_s = (float(np.sum(np.asarray(x.latency)
                                          / host_speed(x.ref)))
                             for x in (m, plain))
        overhead = traced_s - plain_s
        metrics = tracer.layer_metrics(rec.spans, m.wall)
        metrics.update({
            "trace.spans": (len(rec.spans), "count"),
            "trace.timed_wall_ms": (m.wall * 1e3, "ms"),
            "trace.overhead_ms": (overhead * 1e3, "ms"),
            "trace.overhead_pct": (100 * overhead / plain_s, "%"),
        })
        record["rungs_traced"] = tracer.per_label_ms(
            rec.spans, ("analysis.intersection", "analysis.build_E",
                        "analysis.closed_form_E", "engine.run_alg2",
                        "engine.run_alg1"))
        spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
        rec.dump(spans_path)
        record["spans_file"] = spans_path.name
        statuses = m.status + plain.status
        errors = m.errors + plain.errors
    else:
        m = measure(ops, seconds=seconds, whole_cycles=True)
        speed = host_speed(m.ref)
        lat = (np.asarray(m.latency) / speed).tolist()
        p90 = percentile_ms(lat, 90)
        metrics = {
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_ms_p50": (percentile_ms(lat, 50), "ms"),
            "op_ms_p90": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        record["samples"] = {
            "op_ms_p50": len(lat), "op_ms_p90": len(lat),
            "above_op_ms_p90": sum(1 for x in lat if x * 1e3 > p90),
            "setup_s": len(setup)}
        record["cycles"] = len(lat) / len(ops)
        record["timed_wall_s"] = m.wall
        record["host_speed"] = {q: float(np.percentile(speed, q))
                                for q in (10, 50, 90)}
        record["unscaled"] = {
            "ops_per_s": len(lat) / m.wall,
            "op_ms_p50": percentile_ms(m.latency, 50),
            "op_ms_p90": percentile_ms(m.latency, 90),
            "setup_s": statistics.median(setup_raw)}
        record["rungs"] = rungs(m, lat)
        statuses = m.status
        errors = m.errors

    failed = sum(s != "ok" for s in statuses)
    record["fail_frac"] = {"value": failed / len(statuses), "unit": "ratio"}
    record["failures_by_kind"] = {s: statuses.count(s) for s in set(statuses)
                                  if s != "ok"}
    record["failures"] = errors[:20]
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    result = {
        # a run that used its budget is reported as failed, not as wrong
        "correct": all(s in ("ok", "budget") for s in statuses),
        "attempted": len(statuses),
        "failed": failed,
        "metrics": record["metrics"],
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphsplit" / "__init__.py").is_file():
        print(f"perfbench: no graphsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), OUT_DIR)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
