"""The benchmark's workloads: which CLI commands each runs, at what sizes,
which outputs it checks, and why it was chosen.

Every workload is a closed loop with one client: each CLI command starts
when the previous one returns.  All seeds (instance, data, model, train,
probe, solver) and every generated input (instances, ``b`` vectors) derive
from the workload seed through ``np.random.SeedSequence([seed, purpose])``,
so no two inputs share a random stream; the program only ever receives the
generated files.

A workload function runs inside one repeat (see ``worker.py``).  It writes
its inputs with setup commands, runs its timed commands, then - outside the
timed region - checks the outputs and returns the stage metrics of the
repeat and the artifacts that must be byte-identical across repeats.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Index of each purpose in SeedSequence([workload_seed, index]).
PURPOSES = ("instance", "data", "model", "train", "probe-instance", "probe",
            "exhaustive-instance", "exhaustive-b", "heuristic-instance",
            "heuristic-b", "sab")

WHY = {
    "dense-pipeline": (
        "small dense k=10 instance: per-pair, per-batch and per-example Python "
        "dispatch in the data factory, autodiff and predict; no exhaustive calls"),
    "lattice-pipeline": (
        "sparse 8x8 lattice (k=64): training dominates through spmm on "
        "block-diagonal operators, and memory is set by the autodiff tapes"),
    "solver-suite": (
        "solvers only: many small exhaustive solves (probe, sweep), one 2^20 "
        "enumeration, one long tabu run and the only simulated-bifurcation run"),
}

# Sizes for the measured runs, scaled so that one repeat takes a few seconds
# on a 2-core machine and a run holds several repeats.
FULL = {
    "dense-pipeline": {"k": 10, "scale": 0.2, "n": 2000, "sigma": 0.7,
                       "width": 32, "layers": 4, "eps_step": 0.5, "epochs": 3},
    "lattice-pipeline": {"side": 8, "n": 600, "sigma": 2.0, "width": 32,
                         "layers": 4, "eps_step": 0.1, "epochs": 2},
    "solver-suite": {"probe_k": 12, "probe_resolution": 7, "sweep_side": 4,
                     "sweep_samples": 6, "exhaustive_k": 20, "heuristic_k": 400,
                     "tabu_steps": 5000, "sab_steps": 2000},
}

# Sizes for the smoke test: every command and check runs, in well under a
# second per repeat.
TINY = {
    "dense-pipeline": {"k": 6, "scale": 0.2, "n": 40, "sigma": 0.7,
                       "width": 4, "layers": 1, "eps_step": 0.5, "epochs": 1},
    "lattice-pipeline": {"side": 3, "n": 40, "sigma": 2.0, "width": 4,
                         "layers": 1, "eps_step": 0.1, "epochs": 1},
    "solver-suite": {"probe_k": 6, "probe_resolution": 3, "sweep_side": 2,
                     "sweep_samples": 3, "exhaustive_k": 8, "heuristic_k": 12,
                     "tabu_steps": 20, "sab_steps": 20},
}

EVAL_METHODS = ("bpgnn", "bpgnn+ts")
SPLIT = (0.8, 0.2)


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _without_column(path: str, column: str) -> bytes:
    """The CSV's bytes with one (timing) column removed."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(column)
    return "\n".join(",".join(c for i, c in enumerate(r) if i != drop)
                     for r in rows).encode()


def _without_key(path: str, key: str) -> bytes:
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop(key)
    return json.dumps(doc, sort_keys=True).encode()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Pipelines: gen-data -> train -> eval on one instance
# ---------------------------------------------------------------------------


def _pipeline(r, sz: dict, kind_args: list[str]) -> tuple[dict, dict]:
    from qubolab import datagen, io

    inst, data = r.path("inst.mtx"), r.path("data.jsonl")
    ckpt, history, evals = r.path("model.json"), r.path("model.history.csv"), r.path("eval.csv")
    r.cli(["gen-instance", *kind_args, "--out", inst])
    n = sz["n"]
    r.cli(["gen-data", "--instance", inst, "--n", str(n), "--sigma", str(sz["sigma"]),
           "--split", ",".join(map(str, SPLIT)),
           "--seed", str(r.seed("data")), "--out", data], timed=True)
    r.cli(["train", "--instance", inst, "--data", data, "--width", str(sz["width"]),
           "--layers", str(sz["layers"]), "--eps-step", str(sz["eps_step"]),
           "--epochs", str(sz["epochs"]), "--batch", "32",
           "--model-seed", str(r.seed("model")), "--train-seed", str(r.seed("train")),
           "--out", ckpt], timed=True)
    r.cli(["eval", "--instance", inst, "--data", data, "--model", ckpt,
           "--methods", ",".join(EVAL_METHODS), "--out", evals], timed=True)
    r.end_timed()

    instance = io.read_instance(inst)
    dataset = datagen.read_dataset(data, instance=instance)
    n_train, n_val = len(dataset.indices("train")), len(dataset.indices("val"))
    r.check("dataset re-reads with n pairs and the requested split",
            len(dataset) == n and n_train == round(n * SPLIT[0]))
    epochs_run = len(_csv_rows(history))
    r.check("history has one row per epoch run", 1 <= epochs_run <= sz["epochs"])
    rows = {row["method"]: row for row in _csv_rows(evals)}
    values = [float(row[c]) for row in rows.values()
              for c in ("accuracy", "rel_qubo", "elapsed_ms")]
    r.check("eval rows are the requested methods with finite values",
            sorted(rows) == sorted(EVAL_METHODS) and all(map(math.isfinite, values)))
    gap, hybrid_gap = float(rows["bpgnn"]["rel_qubo"]), float(rows["bpgnn+ts"]["rel_qubo"])
    r.check("the tabu polish never widens the gap", hybrid_gap <= gap)

    flips = [p.provenance["flips"] for p in dataset.pairs]
    wall = r.walls
    stages = {
        "gen_data_pairs_per_s": n / wall["gen-data"],
        "train_examples_per_s": epochs_run * n_train / wall["train"],
        "eval_examples_per_s": n_val * len(EVAL_METHODS) / wall["eval"],
        "val_acc": float(rows["bpgnn"]["accuracy"]),
        "hybrid_gap": hybrid_gap,
    }
    r.counts.update({
        "datagen.refined_frac": sum(f > 0 for f in flips) / n,
        "datagen.flips_mean": sum(flips) / n,
        "model.epochs": epochs_run,
    })
    artifacts = {
        "dataset": _read_bytes(data),
        "checkpoint": _read_bytes(ckpt),
        "history": _read_bytes(history),
        "eval": _without_column(evals, "elapsed_ms"),
    }
    return stages, artifacts


def dense_pipeline(r, sz: dict) -> tuple[dict, dict]:
    return _pipeline(r, sz, ["--kind", "random-dense", "--k", str(sz["k"]),
                             "--scale", str(sz["scale"]),
                             "--seed", str(r.seed("instance"))])


def lattice_pipeline(r, sz: dict) -> tuple[dict, dict]:
    return _pipeline(r, sz, ["--kind", "lattice-laplacian", "--side", str(sz["side"])])


# ---------------------------------------------------------------------------
# Solver suite: probe, sweep, exhaustive, tabu and SB through `solve`
# ---------------------------------------------------------------------------


def brute_force(a: np.ndarray, b: np.ndarray, chunk_bits: int = 16) -> tuple[np.ndarray, float]:
    """Independent exact minimum of x^T A x + b^T x over {0,1}^k.

    Scores the states in lexicographic order (x_0 most significant), one
    chunk of 2^chunk_bits states per matrix product.  Among states within
    1e-9 of the minimum the lexicographically smallest is returned, which
    is the tie rule of the Gray-code solver.
    """
    k = b.size
    size = 1 << min(k, chunk_bits)
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    f_all = np.empty(1 << k)
    for lo in range(0, 1 << k, size):
        x = ((np.arange(lo, lo + size, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.float64)
        f_all[lo:lo + size] = np.einsum("ij,ij->i", x @ a, x) + x @ b
    f_min = float(f_all.min())
    first = int(np.flatnonzero(f_all <= f_min + 1e-9)[0])
    return ((first >> shifts) & 1).astype(np.int8), f_min


def solver_suite(r, sz: dict) -> tuple[dict, dict]:
    from qubolab import io

    probe_inst, probe_csv = r.path("probe.mtx"), r.path("probe.csv")
    sweep_inst, sweep_csv = r.path("ising.mtx"), r.path("sweep.csv")
    ex_inst, ex_b, ex_out = r.path("exhaustive.mtx"), r.path("exhaustive.b.txt"), r.path("exhaustive.json")
    h_inst, h_b = r.path("heuristic.mtx"), r.path("heuristic.b.txt")
    tabu_out, sab_out = r.path("tabu.json"), r.path("sab.json")
    k_ex, k_h = sz["exhaustive_k"], sz["heuristic_k"]

    r.cli(["gen-instance", "--kind", "random-dense", "--k", str(sz["probe_k"]),
           "--scale", "0.3", "--seed", str(r.seed("probe-instance")), "--out", probe_inst])
    r.cli(["gen-instance", "--kind", "ising", "--side", str(sz["sweep_side"]), "--out", sweep_inst])
    r.cli(["gen-instance", "--kind", "random-dense", "--k", str(k_ex), "--scale", "0.3",
           "--seed", str(r.seed("exhaustive-instance")), "--out", ex_inst])
    r.write_vector(ex_b, r.rng("exhaustive-b").standard_normal(k_ex))
    r.cli(["gen-instance", "--kind", "random-dense", "--k", str(k_h), "--scale", "0.3",
           "--seed", str(r.seed("heuristic-instance")), "--out", h_inst])
    r.write_vector(h_b, r.rng("heuristic-b").standard_normal(k_h))

    res = sz["probe_resolution"]
    r.cli(["probe", "--instance", probe_inst, "--resolution", str(res),
           "--seed", str(r.seed("probe")), "--out", probe_csv], timed=True)
    samples = sz["sweep_samples"]
    r.cli(["sweep", "--instance", sweep_inst, "--b-min", "-4", "--b-max", "4",
           "--samples", str(samples), "--out", sweep_csv], timed=True)
    r.cli(["solve", "--instance", ex_inst, "--b", ex_b, "--method", "exhaustive",
           "--out", ex_out], timed=True, label="solve-exhaustive")
    r.cli(["solve", "--instance", h_inst, "--b", h_b, "--method", "tabu", "--patience", "0",
           "--steps", str(sz["tabu_steps"]), "--out", tabu_out], timed=True, label="solve-tabu")
    r.cli(["solve", "--instance", h_inst, "--b", h_b, "--method", "sab",
           "--steps", str(sz["sab_steps"]), "--solver-seed", str(r.seed("sab")),
           "--out", sab_out], timed=True, label="solve-sab")
    r.end_timed()

    solves = {}
    for name, inst_path, b_path, out in (("exhaustive", ex_inst, ex_b, ex_out),
                                         ("tabu", h_inst, h_b, tabu_out),
                                         ("sab", h_inst, h_b, sab_out)):
        with open(out) as fh:
            doc = json.load(fh)
        solves[name] = doc
        instance, b = io.read_instance(inst_path), io.read_vector(b_path)
        r.check(f"{name} f_best equals the recomputed objective",
                doc["f_best"] == instance.evaluate(b, np.array(doc["x_best"])))
    instance, b = io.read_instance(ex_inst), io.read_vector(ex_b)
    x_ref, f_ref = brute_force(instance.a_csr.toarray(), b)
    r.check("exhaustive matches an independent brute force",
            solves["exhaustive"]["x_best"] == x_ref.tolist()
            and abs(solves["exhaustive"]["f_best"] - f_ref) <= 1e-9)
    cells = _csv_rows(probe_csv)
    centre = cells[len(cells) // 2]
    r.check("probe has every cell, integer phi and phi=0 at the centre",
            len(cells) == res * res and all(c["phi"].isdigit() for c in cells)
            and float(centre["s"]) == 0.0 and float(centre["t"]) == 0.0 and centre["phi"] == "0")
    r.check("sweep writes one row per sample", len(_csv_rows(sweep_csv)) == samples)

    wall = r.walls
    stages = {
        "probe_cells_per_s": res * res / wall["probe"],
        "sweep_samples_per_s": samples / wall["sweep"],
        "exhaustive_states_per_s": 2 ** k_ex / wall["solve-exhaustive"],
        "tabu_steps_per_s": solves["tabu"]["iterations"] / wall["solve-tabu"],
        "sab_steps_per_s": solves["sab"]["iterations"] / wall["solve-sab"],
        "tabu_f_best": solves["tabu"]["f_best"],
        "sab_f_best": solves["sab"]["f_best"],
    }
    artifacts = {"probe": _read_bytes(probe_csv), "sweep": _read_bytes(sweep_csv)}
    for name, out in (("exhaustive", ex_out), ("tabu", tabu_out), ("sab", sab_out)):
        artifacts[f"solve-{name}"] = _without_key(out, "elapsed_ms")
    return stages, artifacts


WORKLOADS = {
    "dense-pipeline": dense_pipeline,
    "lattice-pipeline": lattice_pipeline,
    "solver-suite": solver_suite,
}

# The end-to-end figures of each workload's stages, with unit and direction.
# They are recorded in every untraced repeat and reported by compare.py.
STAGE_METRICS = {
    "gen_data_pairs_per_s": ("1/s", "higher"),
    "train_examples_per_s": ("1/s", "higher"),
    "eval_examples_per_s": ("1/s", "higher"),
    "val_acc": ("ratio", "higher"),
    "hybrid_gap": ("ratio", "lower"),
    "probe_cells_per_s": ("1/s", "higher"),
    "sweep_samples_per_s": ("1/s", "higher"),
    "exhaustive_states_per_s": ("1/s", "higher"),
    "tabu_steps_per_s": ("1/s", "higher"),
    "sab_steps_per_s": ("1/s", "higher"),
    "tabu_f_best": ("objective", "lower"),
    "sab_f_best": ("objective", "lower"),
}
