"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced.  Run with ``python3 -m pytest -q bench/test_smoke.py``."""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import TINY, WHY  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)

STAGES = {
    "dense-pipeline": ("gen_data_pairs_per_s", "train_examples_per_s",
                       "eval_examples_per_s", "val_acc", "hybrid_gap"),
    "solver-suite": ("probe_cells_per_s", "sweep_samples_per_s",
                     "exhaustive_states_per_s", "tabu_steps_per_s", "sab_steps_per_s",
                     "tabu_f_best", "sab_f_best"),
}
STAGES["lattice-pipeline"] = STAGES["dense-pipeline"]


def test_declared_workloads_are_the_ones_defined():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WHY)
    assert all(w["why"] == WHY[w["name"]] for w in DECLARED["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WHY))
def test_workload_emits_every_metric_without_failures(workload, trace, tmp_path, capsys):
    out = tmp_path / "runs.jsonl"
    result = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                       "--trace", str(trace), "--out", str(out)], sizes=TINY[workload])
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] > 0
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result

    record = json.loads(out.read_text())
    assert set(record["e2e"]) == {"setup_s", "wall_s", "peak_rss_mb", "setup_raw_s",
                                  "wall_raw_s", "calibration_s", *STAGES[workload]}
    env = record["environment"]
    assert env["seed"] == 7 and env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(n == 1 for n in env["blas"]["threads"].values())
    if trace:
        layers = record["layers"]
        if workload == "solver-suite":
            assert layers["solvers.exhaustive_solve.calls"] > 0
            assert layers["autodiff.matmul.calls"] == 0
        else:
            assert layers["autodiff.matmul.calls"] > 0
            assert layers["solvers.exhaustive_solve.calls"] == 0
