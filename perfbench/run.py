#!/usr/bin/env python3
"""Benchmark of nscontrol's regret experiments, closed loops, filtering and
identification CLI, run from the root of a source checkout:

    python3 perfbench/run.py --workload regret-b747 --seed 1 --seconds 20 --trace 0

One process, one caller, runs back to back (a closed loop).  After an
untimed warm-up pass at a short horizon, the workload's passes repeat until
``--seconds`` have elapsed (at least ``MIN_PASSES``).  Every run's output is
checked (``workloads.check``).

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:
the median pass wall time, the median set-up time of ``SETUP_SAMPLES``
fresh interpreters, the process's peak RSS, and the share of runs that
passed.  Pass and set-up times are scaled to a nominal host speed by a
reference loop timed before and after each of them (``SpeedScale``); the
unscaled medians and the reference time are printed on the
``perfbench-unscaled`` line.  BLAS threads are capped at the CPUs this process may use, unless
the environment sets them.  ``--trace 1`` alternates traced and untraced passes (traced first)
and prints the per-layer metrics, medians over the traced passes (spans in
unscaled seconds); the spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the
``perfbench-env`` line records the environment.  ``failed`` counts runs
that raised, exited nonzero or failed their output check.  ``correct`` is
false when any run failed other than by its workload's listed known
defect.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_SAMPLES = 8
#: Seconds the reference loop takes on an idle host of the kind these
#: numbers were first taken on (2-CPU Xeon VM); see ``reference_seconds``.
REFERENCE_NOMINAL_S = 0.1
REFERENCE_STEPS = 6000
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Run in a fresh interpreter: time importing nscontrol and building the
#: workload's configs, print the seconds.
SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import nscontrol, nscontrol.cli, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - start)
"""


def reference_seconds() -> float:
    """Time a fixed loop of small numpy operations in Python, the
    instruction mix of the online learners, without calling nscontrol.

    The host's speed drifts by tens of percent over minutes when other
    tenants load its cores, and it slows this loop and the workloads
    alike.  Each pass time is scaled by ``REFERENCE_NOMINAL_S`` over
    the mean of the reference times taken just before and just after it.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    A = rng.standard_normal((4, 4)) / 4
    B = rng.standard_normal((4, 2))
    M = rng.standard_normal((8, 2, 4)) / 8
    window, x = np.zeros((8, 4)), np.zeros(4)
    start = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        u = np.einsum("iab,ib->a", M, window) + 0.1 * x[:2]
        w = np.sin(0.1 * i + np.arange(4))
        x = A @ x + B @ u + w
        window = np.concatenate([w[None], window[:-1]], axis=0)
        gradient = np.outer(u, x)
        M -= 1e-4 * gradient[None]
        norm = float(np.linalg.norm(M))
        if norm > 10.0:
            M *= 10.0 / norm
    return time.perf_counter() - start


class SpeedScale:
    """Scales intervals timed between reference loops to the nominal speed."""

    def __init__(self):
        self.references = [reference_seconds()]

    def scaled(self, seconds: float) -> float:
        """``seconds`` of the interval since the last reference, scaled;
        times the next reference."""
        self.references.append(reference_seconds())
        host = 0.5 * (self.references[-2] + self.references[-1])
        return seconds * REFERENCE_NOMINAL_S / host


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, out_dir: Path) -> tuple:
    """Median over fresh interpreters, scaled and unscaled; one unmeasured
    probe first, so bytecode compilation in a fresh checkout is not
    counted."""
    command = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
               workload, str(seed), str(out_dir)]

    def probe() -> float:
        done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
        return float(done.stdout.strip().splitlines()[-1])

    probe()
    scale = SpeedScale()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(probe())
        scaled.append(scale.scaled(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def blas_info(np) -> dict:
    """BLAS library name and its thread count, read from the loaded library."""
    import ctypes
    import glob

    info = {"name": None, "threads": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                info["threads"] = int(getter())
                return info
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment(np) -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = blas_info(np)
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_threads": blas["threads"],
        "blas_threads_exceed_nproc": blas["threads"] is not None and blas["threads"] > nproc,
        "git_commit": git_commit(),
    }


class Pass:
    """One timed pass: wall and CPU seconds, growth of the process's peak
    RSS, and each run's problems.  ``bases`` pairs a kept spectral basis
    file with the problem list its deferred check appends to."""

    def __init__(self, wall, cpu, rss_rise_mb, results, bases):
        self.wall, self.cpu, self.rss_rise_mb = wall, cpu, rss_rise_mb
        self.results, self.bases = results, bases
        self.scaled_wall = None


def bases_dir(out_dir: Path) -> Path:
    """Where spectral basis files wait for their deferred check."""
    return out_dir.with_name(out_dir.name + "-bases")


def run_pass(workloads, name, seed, out_dir: Path, tracer=None, warmup=False) -> Pass:
    """Build the pass's configs, make its runs (traced when a tracer is
    given), then check their outputs outside the timed region."""
    shutil.rmtree(out_dir, ignore_errors=True)
    keep_dir = bases_dir(out_dir)
    keep_dir.mkdir(parents=True, exist_ok=True)
    runs = workloads.build(name, seed, str(out_dir), warmup=warmup)
    instrumented = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
    with instrumented:
        rss0, cpu0, wall0 = tracing.maxrss_mb(), time.process_time(), time.perf_counter()
        outcomes = [workloads.execute(run, tracer) for run in runs]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        rss_rise_mb = tracing.maxrss_mb() - rss0
    results = [(outcome.run, workloads.check(outcome)) for outcome in outcomes]
    bases = []
    for run, problems in results:
        path = workloads.basis_file(run)
        if path is None or problems:
            continue
        if not os.path.exists(path):
            problems.append("spectral basis cache file not written")
            continue
        kept = keep_dir / f"{len(list(keep_dir.iterdir()))}.txt"
        os.replace(path, kept)
        bases.append((str(kept), problems))
    shutil.rmtree(out_dir, ignore_errors=True)
    return Pass(wall, cpu, rss_rise_mb, results, bases)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "nscontrol" / "__init__.py").is_file():
        print(f"perfbench: no nscontrol sources under {SRC}", file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, nproc)

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    setup_s = raw_setup_s = None
    if args.trace == 0:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed, out_dir)

    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np

    import nscontrol
    import workloads

    if Path(nscontrol.__file__).resolve().parent != (SRC / "nscontrol").resolve():
        print(f"perfbench: imported nscontrol from {nscontrol.__file__}", file=sys.stderr)
        return 2
    env = environment(np)
    if env["blas_threads_exceed_nproc"]:
        print(f"perfbench: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs",
              file=sys.stderr)
    print("perfbench-env " + json.dumps(env, sort_keys=True))

    run_pass(workloads, args.workload, args.seed, out_dir, warmup=True)
    tracer = tracing.Tracer() if args.trace else None
    timed, traced, untraced, spans = [], [], [], []
    scale = SpeedScale()
    start = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        if tracer is not None and len(traced) == len(untraced):
            done = run_pass(workloads, args.workload, args.seed, out_dir, tracer)
            pass_spans, counts = tracer.take()
            spans.append(pass_spans)
            traced.append((done, tracing.layer_metrics(pass_spans, counts)))
        else:
            done = run_pass(workloads, args.workload, args.seed, out_dir)
            untraced.append(done)
        done.scaled_wall = scale.scaled(done.wall)
        timed.append(done)

    peak_rss_mb = tracing.maxrss_mb()
    bases = [kept for p in timed for kept in p.bases]
    for (_, problems), found in zip(bases, workloads.check_bases([path for path, _ in bases])):
        problems.extend(found)
    shutil.rmtree(bases_dir(out_dir), ignore_errors=True)

    attempted = sum(len(p.results) for p in timed)
    failures = [(run, problems) for p in timed for run, problems in p.results if problems]
    for run, problems in failures:
        note = f" [known defect: {run.known_defect}]" if run.known_defect else ""
        print(f"perfbench: {run.workload} {run.label} failed: {'; '.join(problems)}{note}",
              file=sys.stderr)

    if tracer is None:
        values = {
            "wall_s": statistics.median(p.scaled_wall for p in timed),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - len(failures) / attempted,
        }
        wanted = spec["end_to_end"]
    else:
        values = {
            name: statistics.median(metrics[name] for _, metrics in traced)
            for name in traced[0][1]
        }
        untraced_wall = statistics.median(p.scaled_wall for p in untraced)
        values["trace.overhead_frac"] = (
            statistics.median(p.scaled_wall for p, _ in traced) / untraced_wall - 1.0
        )
        values["process.cpu_s"] = statistics.median(p.cpu for p in untraced)
        values["process.peak_rss_mb"] = peak_rss_mb
        # Share of the growth of the peak RSS during traced passes that
        # happened inside spectral basis builds.
        rise = sum(p.rss_rise_mb for p, _ in traced)
        values["filtering.spectral_basis.peak_rss_share"] = (
            sum(m["filtering.spectral_basis.rss_rise_mb"] for _, m in traced) / rise
            if rise else 0.0
        )
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"),
                            spans, start)
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    raw = {
        "wall_s": statistics.median(p.wall for p in timed),
        "setup_s": raw_setup_s,
        "reference_s": statistics.median(scale.references),
    }
    print("perfbench-unscaled " + json.dumps(raw))
    result = {
        "correct": all(run.known_defect for run, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
