"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the run records that ``run.py --out FILE`` appends, one
per run, typically ten seeds per workload.  For every (end-to-end metric,
workload) the report prints each side's median and quartiles and a
verdict under the benchmark's bounds:

- improved: the change wins at least nine tenths of the runs paired by
  seed, and the medians differ by more than the base's own quartile spread
  (or every run of the change beats every run of the base);
- worse: the change's median is worse than the base's by more than the
  bound;
- unresolved: either side's quartile spread exceeds the bound, so the
  runs cannot tell a change within the bound from noise;
- unchanged: none of the above.

The metrics are the end-to-end metrics of BENCHMARK.json and the stage
metrics of each workload (``workloads.STAGE_METRICS``), plus the unscaled
times ``wall_raw_s`` and ``setup_raw_s``.  The stage rates and
``wall_raw_s`` take the bound of ``wall_s``, ``setup_raw_s`` that of
``setup_s``; a solution-quality metric is deterministic for a seed and
takes a bound of 0.  It is a report, not a gate.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from workloads import STAGE_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUALITY = ("val_acc", "hybrid_gap", "tabu_f_best", "sab_f_best")


def metric_table() -> dict[str, tuple[str, float]]:
    """name -> (better, bound) for every compared metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    rate_bound = declared["wall_s"][1]
    declared["wall_raw_s"] = ("lower", rate_bound)
    declared["setup_raw_s"] = declared["setup_s"]
    for name, (_, better) in STAGE_METRICS.items():
        declared[name] = (better, 0.0 if name in QUALITY else rate_bound)
    return declared


def load(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over the untraced runs of a file."""
    runs: dict[tuple[str, str], dict[int, float]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, value in record["e2e"].items():
                runs.setdefault((record["workload"], name), {})[record["seed"]] = value
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cell(values: dict[int, float]) -> str:
    q1, med, q3 = quartiles(list(values.values()))
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def verdict(base: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict and the relative change of the median (positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(base.values()), list(change.values())
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    scale = abs(a_med) or 1.0
    worse_by = sign * (b_med - a_med) / scale
    paired = sorted(set(base) & set(change))
    if paired and all(base[s] == change[s] for s in paired):
        return "unchanged", worse_by
    pairs = [(base[s], change[s]) for s in paired] or [(x, y) for x in a for y in b]
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    b_beats_all = sign * (max(b, key=lambda v: sign * v) - min(a, key=lambda v: sign * v)) < 0
    spread = max((a3 - a1) / scale, (b3 - b1) / (abs(b_med) or 1.0))
    if b_beats_all or (wins >= 0.9 and -worse_by * scale > a3 - a1 and spread <= bound):
        return "improved", worse_by
    if worse_by > bound and spread <= bound:
        return "worse", worse_by
    if spread > bound:
        return "unresolved", worse_by
    return "unchanged", worse_by


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    table = metric_table()
    print(f"{'metric':26s} {'workload':17s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'worse by':>9s}  verdict")
    for name, (better, bound) in table.items():
        for workload in sorted({w for w, m in base if m == name}):
            a, b = base.get((workload, name)), change.get((workload, name))
            if not b:
                print(f"{name:26s} {workload:17s} missing from {argv[1]}")
                continue
            verdict_name, worse_by = verdict(a, b, better, bound)
            print(f"{name:26s} {workload:17s} {cell(a):>34s} {cell(b):>34s} "
                  f"{100 * worse_by:8.2f}%  {verdict_name} (bound {bound:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
