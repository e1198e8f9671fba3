"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

A run is a sequence of repeats of the workload, each in a fresh worker
process (``worker.py``), one at a time, with BLAS and OpenMP pinned to one
thread.  Every repeat of a run gets the same inputs, derived from --seed.
Repeats continue until the next one would end after --seconds.  Each
end-to-end metric is a median over the repeats, and times are scaled to a
reference machine speed measured in every repeat (see worker.calibrate).

With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json.  With --trace 1 the run spends half its time on untraced
repeats and then makes one traced repeat, whose spans give the per-layer
metrics of BENCHMARK.json; the traced repeat's artifacts must be
byte-identical to the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment.  --out appends the full run record (every stage metric, the
per-layer metrics, the environment) to FILE, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import ROOT, SRC  # importing worker pins the thread variables
from workloads import FULL, STAGE_METRICS, WHY

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")
SPANS = os.path.join(ROOT, ".bench_out")
MIN_REPEATS = 3
# Times are reported as they would be on a machine where worker.calibrate()
# takes this long, which takes out most of the shared host's speed drift.
CALIBRATION_REF_S = 0.025
# Every run must end well within 180 s, whatever --seconds says.
RUN_LIMIT_S = 150.0


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=20, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


class Run:
    """One run: its repeats, one worker process at a time, and its operation count."""

    def __init__(self, workload: str, seed: int, sizes: dict):
        self.workload, self.seed, self.sizes = workload, seed, sizes
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")

    def repeat(self, index: int, trace: bool, spans_path: str | None = None) -> dict | None:
        """One worker process; returns its result, or None when it failed."""
        workdir = os.path.join(self.dir, "repeat")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        spec_path = os.path.join(self.dir, "spec.json")
        result_path = os.path.join(self.dir, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        spec = {"workload": self.workload, "seed": self.seed, "sizes": self.sizes,
                "workdir": workdir, "trace": trace,
                "run_id": f"{self.workload}-{self.seed}-{index}", "spans_path": spans_path}
        timeout = max(1.0, RUN_LIMIT_S + 20.0 - self.elapsed())
        spec["t_spawn"] = time.monotonic()
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run([sys.executable, WORKER, spec_path, result_path],
                                  capture_output=True, text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.fail(f"repeat {index} timed out after {timeout:.0f} s")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.fail(f"repeat {index} exited with {proc.returncode}: {proc.stderr[-800:]}")
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        self.attempted += result["operations"]
        self.failures += result["failures"]
        return result if not result["failures"] else None

    def repeats(self, budget: float) -> list[dict]:
        """Untraced repeats until the next one would end after budget seconds."""
        done, durations = [], []
        while len(durations) < MIN_REPEATS or (
                self.elapsed() + statistics.median(durations) <= budget
                and self.elapsed() < RUN_LIMIT_S / 2):
            t0 = time.monotonic()
            result = self.repeat(len(durations), trace=False)
            durations.append(time.monotonic() - t0)
            if result is not None:
                done.append(result)
        for later in done[1:]:
            self.check("every repeat writes the same artifacts",
                       later["digests"] == done[0]["digests"])
        return done


def end_to_end(results: list[dict]) -> dict[str, float]:
    """Medians over the untraced repeats: the gated metrics and every stage metric.

    Times and rates are scaled to the reference machine speed, by the factor
    CALIBRATION_REF_S / calibration_s of their repeat; the unscaled times are
    kept as setup_raw_s and wall_raw_s.  wall_s sums each command's median,
    so a slow spell that hits one command in one repeat does not move it.
    """
    median = statistics.median
    scale = [CALIBRATION_REF_S / r["calibration_s"] for r in results]
    commands = results[0]["walls"]
    e2e = {
        "setup_s": median(r["setup_s"] * f for r, f in zip(results, scale)),
        "wall_s": sum(median(r["walls"][cmd] * f for r, f in zip(results, scale))
                      for cmd in commands),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        "setup_raw_s": median(r["setup_s"] for r in results),
        "wall_raw_s": sum(median(r["walls"][cmd] for r in results) for cmd in commands),
        "calibration_s": median(r["calibration_s"] for r in results),
    }
    for name, (unit, _) in STAGE_METRICS.items():
        values = [r["stages"][name] / f if unit == "1/s" else r["stages"][name]
                  for r, f in zip(results, scale) if name in r["stages"]]
        if values:
            e2e[name] = median(values)
    return e2e


def per_layer(run: Run, untraced: list[dict], traced: dict, e2e: dict) -> dict[str, float]:
    layers = dict(traced["layers"])
    layers["runtime.import_s"] = statistics.median(
        [r["import_s"] for r in untraced] + [traced["import_s"]])
    layers["trace.overhead_s"] = (traced["wall_s"] * CALIBRATION_REF_S / traced["calibration_s"]
                                  - e2e["wall_s"])
    layers["runtime.calibration_s"] = e2e["calibration_s"]
    layers["e2e.wall_raw_s"] = e2e["wall_raw_s"]
    for name in STAGE_METRICS:
        layers[f"e2e.{name}"] = e2e.get(name, 0.0)
    run.check("traced artifacts are byte-identical to untraced ones",
              traced["digests"] == untraced[0]["digests"])
    # Bypass predictions: the solver suite never reaches autodiff or the data
    # factory, and the pipelines never enumerate exhaustively.
    spans = traced["spans_per_layer"]
    if run.workload == "solver-suite":
        run.check("no autodiff or datagen spans on the solver suite",
                  not spans.get("autodiff") and not spans.get("datagen"))
    else:
        run.check("no exhaustive_solve spans on a pipeline",
                  layers["solvers.exhaustive_solve.calls"] == 0)
    return layers


def main(argv: list[str] | None = None, sizes: dict | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=None, help="append the full run record here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qubolab", "cli.py")):
        sys.exit(f"error: no qubolab sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed, sizes or FULL[args.workload])
    os.makedirs(run.dir, exist_ok=True)
    try:
        untraced = run.repeats(args.seconds / 2 if args.trace else args.seconds)
        if not untraced:
            print("\n".join(run.failures), file=sys.stderr)
            sys.exit("error: no repeat of the workload completed")
        e2e = end_to_end(untraced)
        computed = dict(e2e)
        layers = None
        if args.trace:
            os.makedirs(SPANS, exist_ok=True)
            spans_path = os.path.join(SPANS, f"spans-{args.workload}.jsonl")
            traced = run.repeat(len(untraced), trace=True, spans_path=spans_path)
            if traced is None:
                print("\n".join(run.failures), file=sys.stderr)
                sys.exit("error: the traced repeat failed")
            computed = layers = per_layer(run, untraced, traced, e2e)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    metrics = {}
    for entry in declared:
        if entry["name"] in computed:
            metrics[entry["name"]] = {"value": computed[entry["name"]], "unit": entry["unit"]}
        else:
            run.fail(f"metric {entry['name']} was not measured")
    environment = dict(untraced[0]["environment"], **git_state(), workload=args.workload,
                       seed=args.seed, sizes=run.sizes)
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "repeats": len(untraced), "e2e": e2e, "layers": layers,
                  "fail_frac": len(run.failures) / run.attempted,
                  "samples": {key: [r[key] for r in untraced]
                              for key in ("setup_s", "wall_s", "peak_rss_mb",
                                          "calibration_s", "walls")},
                  "environment": environment, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    for failure in run.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
