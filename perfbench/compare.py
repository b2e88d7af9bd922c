"""Compare two results.jsonl files, one row per (workload, metric).

Each row gives the median and quartiles of both files' runs and a
verdict for end-to-end metrics, against the bound in BENCHMARK.json:

- worse: the head median is worse than the base median by more than the bound;
- better / same: it improved by more than the bound, or moved less than it;
- unresolved: either side's run-to-run spread (quartile distance over
  median) is wider than the bound, and not every head run beats every
  base run.

Per-layer metrics have no bound; their rows show the change only.
The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _load(path: Path) -> dict:
    """{(workload, metric): [values]} over every run in the file."""
    values: dict = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, m in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
    return values


def _summary(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def _spread(xs) -> float:
    q1, med, q3 = _summary(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, head, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    worse_by = sign * (h_med - b_med) / abs(b_med) if b_med else sign * (h_med - b_med)
    if max(_spread(base), _spread(head)) > bound:
        all_better = all(sign * (h - b) < 0 for h in head for b in base)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def main(base_path: Path, head_path: Path, benchmark_path: Path) -> int:
    spec = json.loads(benchmark_path.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, head = _load(base_path), _load(head_path)
    print(f"{'workload':<8} {'metric':<44} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'change':>8}  verdict")
    worse = 0
    for key in sorted(set(base) & set(head)):
        workload, name = key
        b, h = base[key], head[key]
        bq1, bmed, bq3 = _summary(b)
        hq1, hmed, hq3 = _summary(h)
        change = (hmed - bmed) / abs(bmed) if bmed else 0.0
        if name in bounds:
            v = verdict(b, h, bounds[name]["better"], bounds[name]["bound"])
            worse += v == "worse"
        else:
            v = "-"
        print(f"{workload:<8} {name:<44} {bmed:>12.6g} [{bq1:.4g}, {bq3:.4g}]".ljust(87)
              + f"{hmed:>12.6g} [{hq1:.4g}, {hq3:.4g}]".ljust(33)
              + f"{change:>+8.2%}  {v}")
    for key in sorted(set(base) ^ set(head)):
        print(f"{key[0]:<8} {key[1]:<44} only in {'base' if key in base else 'head'}")
    return 1 if worse else 0
