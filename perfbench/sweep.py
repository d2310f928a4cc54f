#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and keep the results.

    python3 perfbench/sweep.py --seeds 1-10 --out .perfbench_out/set.jsonl
    python3 perfbench/sweep.py --seeds 1 --seconds 20    # one run per workload

Each run is ``perfbench/run.py`` in its own process, one after another;
seeds are the outer loop so that slow drift of the machine spreads over
all workloads.  Every run's result line is appended to ``--out`` with its
workload, seed and environment, and the table of ``compare.py`` (median,
quartiles, spread against the bound, and ``failed_frac``) is printed at
the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "sweep.jsonl"))
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("")
    for seed in seed_list(args.seeds):
        for workload in args.workloads.split(","):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
            took = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            tagged = dict(line.split(" ", 1) for line in lines[:-1] if line.startswith("perfbench-"))
            result = json.loads(lines[-1])
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "env": json.loads(tagged["perfbench-env"]),
                      "unscaled": json.loads(tagged.get("perfbench-unscaled", "null")),
                      "result": result}
            with out.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} ({took:.0f} s): correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    print(f"results in {out}")
    compare.summarise(compare.load_set(str(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
