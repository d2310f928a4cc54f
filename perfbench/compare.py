#!/usr/bin/env python3
"""Summarise one result set, or compare two.

A result set is a JSON-lines file written by ``perfbench/sweep.py``: one
record per run with its ``workload``, ``seed``, ``trace``, ``env`` and the
run's ``result`` line.

    python3 perfbench/compare.py SET.jsonl              # spread of each metric
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

The summary gives, per workload and metric, the median, the quartiles and
the spread (quartile distance over the median) against the metric's bound
in ``BENCHMARK.json``.  The comparison adds pairwise wins (runs paired by
seed) and a verdict:

* ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  quartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (metrics without a bound: the parent wins nine tenths of the
  pairs by more than its quartile distance);
* ``unresolved``: the parent's own spread is wider than the bound, unless
  every change run is better than every parent run;
* ``within bound`` / ``no clear change`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(path: str) -> dict:
    """``{(workload, metric): {seed: value}}`` plus failure counts."""
    values = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        workload, seed, result = record["workload"], record["seed"], record["result"]
        for name, metric in result["metrics"].items():
            values[(workload, name)][seed] = metric["value"]
        failed = values[(workload, "failed_frac")]
        failed[seed] = result["failed"] / result["attempted"]
    return values


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def metric_specs() -> dict:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(base: dict, change: dict, better: str, bound) -> tuple:
    """Pairwise wins of ``change`` over ``base`` and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    seeds = sorted(set(base) & set(change))
    if seeds:
        pairs = [(base[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(base.values(), change.values()))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, c_med, _ = quartiles(list(change.values()))
    iqr = b_q3 - b_q1
    shift = sign * (b_med - c_med)  # positive: the change is better
    if pairs and wins >= 0.9 * len(pairs) and shift > iqr:
        result = "better"
    elif bound is None:
        worse = pairs and losses >= 0.9 * len(pairs) and -shift > iqr
        result = "worse" if worse else "no clear change"
    else:
        all_better = all(sign * (b - c) > 0 for b in base.values() for c in change.values())
        if b_med and spread(list(base.values())) > bound and not all_better:
            result = "unresolved"
        elif b_med and -shift > bound * abs(b_med):
            result = "worse"
        else:
            result = "within bound"
    return wins, losses, len(pairs), result


def fmt(x: float) -> str:
    return f"{x:.6g}"


def summarise(values: dict) -> bool:
    """Print each metric's spread; true when every bounded spread except
    ``setup_s``'s is below a third of its bound."""
    specs = metric_specs()
    steady = True
    print(f"{'workload':18} {'metric':40} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), by_seed in sorted(values.items()):
        data = list(by_seed.values())
        q1, median, q3 = quartiles(data)
        bound = specs.get(name, {}).get("bound")
        s = spread(data)
        flag = ""
        if bound is not None and name != "setup_s":
            if s > bound:
                flag, steady = "  OVER BOUND", False
            elif s > bound / 3:
                flag, steady = "  over bound/3", False
        print(f"{workload:18} {name:40} {len(data):3d} {fmt(median):>12} {fmt(q1):>12} "
              f"{fmt(q3):>12} {s:8.4f} {'' if bound is None else bound:>6}{flag}")
    return steady


def compare(base: dict, change: dict) -> None:
    specs = metric_specs()
    print(f"{'workload':18} {'metric':40} {'parent med':>12} {'[q1, q3]':>25} "
          f"{'change med':>12} {'[q1, q3]':>25} {'wins':>7}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        spec = specs.get(name, {"better": "lower"})
        wins, losses, pairs, result = verdict(base[key], change[key], spec["better"],
                                              spec.get("bound"))
        bq1, bmed, bq3 = quartiles(list(base[key].values()))
        cq1, cmed, cq3 = quartiles(list(change[key].values()))
        print(f"{workload:18} {name:40} {fmt(bmed):>12} {f'[{fmt(bq1)}, {fmt(bq3)}]':>25} "
              f"{fmt(cmed):>12} {f'[{fmt(cq1)}, {fmt(cq3)}]':>25} {f'{wins}/{pairs}':>7}  "
              f"{result}")


def main(argv: list) -> int:
    if len(argv) == 1:
        return 0 if summarise(load_set(argv[0])) else 1
    if len(argv) == 2:
        compare(load_set(argv[0]), load_set(argv[1]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
