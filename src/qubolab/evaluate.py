"""Metrics and measurement harness: solution quality, label structure,
objective-landscape probes, and multi-method benchmarks.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .model import BpgnnModel
from .qubo import (QuboInstance, as_binary_assignment, as_observed_vector,
                   rel_gaps)
from .solvers import (EXHAUSTIVE_CAP, SabParams, SolverResult, TabuParams,
                      exhaustive_solve, refine_with_tabu, sab_solve,
                      tabu_solve)


@dataclass
class EvalRecord:
    """One method's aggregate quality on one dataset."""

    method: str
    accuracy: float
    rel_qubo: float
    elapsed_ms: float
    instance_ref: str = ""
    dataset_ref: str = ""


def accuracy(x_o, x_p) -> float:
    """Fraction of positions where the two assignments agree."""
    x_o = np.asarray(x_o)
    x_p = np.asarray(x_p)
    if x_o.shape != x_p.shape:
        raise ValueError(f"length mismatch: {x_o.shape} vs {x_p.shape}")
    return float(np.mean(x_o == x_p))


def rel_qubo(instance: QuboInstance, b, x_o, x_p) -> float:
    """Relative objective gap (f_p - f_o) / |f_o| of a prediction x_p
    against a reference solution x_o.  Zero is a perfect match; the value
    is non-negative whenever x_o is optimal."""
    gaps = rel_gaps(instance, as_observed_vector(b, instance.k)[None, :],
                    as_binary_assignment(x_o, instance.k)[None, :],
                    as_binary_assignment(x_p, instance.k)[None, :])
    if not gaps.size:
        raise ValueError("undefined reference objective: |f_o| is below 1e-12")
    return float(gaps[0])


def homophily(instance: QuboInstance, labels) -> float:
    """Fraction of connectivity edges whose endpoints share a label."""
    labels = as_binary_assignment(labels, instance.k)
    gv = instance.graph_view
    if gv.num_edges == 0:
        raise ValueError("homophily is undefined on an edgeless graph")
    same = labels[gv.edges[:, 0]] == labels[gv.edges[:, 1]]
    return float(np.mean(same))


# ---------------------------------------------------------------------------
# Landscape probe
# ---------------------------------------------------------------------------


@dataclass
class LandscapeGrid:
    """Solution-distance surface over a 2-plane of observed vectors.

    phi[i, j] is the squared Hamming distance between the minimizer at
    (s_values[i], t_values[j]) and the minimizer at the base point; the
    perturbed vector is b + t*b1 + s*b2 with b1 orthogonal to b2, both
    unit length.  method[i, j] records which solver produced each cell.
    """

    s_values: np.ndarray
    t_values: np.ndarray
    phi: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    base_b: np.ndarray
    method: np.ndarray


def _orthonormal_pair(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    b1 = rng.standard_normal(k)
    b1 /= np.linalg.norm(b1)
    b2 = rng.standard_normal(k)
    b2 -= (b2 @ b1) * b1
    b2 /= np.linalg.norm(b2)
    return b1, b2


def _solve_cell(instance: QuboInstance, b, cap: int):
    if instance.k <= cap:
        return exhaustive_solve(instance, b, cap=cap), "exhaustive"
    return tabu_solve(instance, b, TabuParams()), "tabu"


def probe_landscape(instance: QuboInstance, b, seed: int,
                    s_range: tuple[float, float] = (-3.0, 3.0),
                    t_range: tuple[float, float] = (-3.0, 3.0),
                    resolution: int = 41,
                    cap: int = EXHAUSTIVE_CAP) -> LandscapeGrid:
    """Map how the minimizer moves as b is perturbed in a random 2-plane."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    b = as_observed_vector(b, instance.k)
    rng = np.random.default_rng(seed)
    b1, b2 = _orthonormal_pair(rng, instance.k)
    s_values = np.linspace(s_range[0], s_range[1], resolution)
    t_values = np.linspace(t_range[0], t_range[1], resolution)

    base, _ = _solve_cell(instance, b, cap)
    x_base = base.x_best.astype(np.int64)
    phi = np.zeros((resolution, resolution), dtype=np.int64)
    method = np.empty((resolution, resolution), dtype=object)
    for i, s in enumerate(s_values):
        for j, t in enumerate(t_values):
            cell, name = _solve_cell(instance, b + t * b1 + s * b2, cap)
            diff = cell.x_best.astype(np.int64) - x_base
            phi[i, j] = int(diff @ diff)
            method[i, j] = name
    return LandscapeGrid(s_values=s_values, t_values=t_values, phi=phi,
                         b1=b1, b2=b2, base_b=b, method=method)


def plateau_fraction(phi: np.ndarray) -> float:
    """Fraction of grid cells equal to at least one 4-neighbor."""
    same = np.zeros(phi.shape, dtype=bool)
    same[:-1, :] |= phi[:-1, :] == phi[1:, :]
    same[1:, :] |= phi[1:, :] == phi[:-1, :]
    same[:, :-1] |= phi[:, :-1] == phi[:, 1:]
    same[:, 1:] |= phi[:, 1:] == phi[:, :-1]
    return float(np.mean(same))


def write_landscape(grid: LandscapeGrid, path: str | os.PathLike) -> None:
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "phi"])
        for i, s in enumerate(grid.s_values):
            for j, t in enumerate(grid.t_values):
                writer.writerow([repr(float(s)), repr(float(t)),
                                 int(grid.phi[i, j])])


# ---------------------------------------------------------------------------
# Scalar-field sweep
# ---------------------------------------------------------------------------


@dataclass
class IsingSweep:
    """Minimizers of x^T A x - beta * sum(x) along a sweep of beta."""

    b_values: np.ndarray
    assignments: np.ndarray  # (samples, k) int8
    change_points: np.ndarray  # sample indices where the minimizer changed
    method: str


def ising_sweep(instance: QuboInstance, b_range: tuple[float, float],
                samples: int, cap: int = EXHAUSTIVE_CAP) -> IsingSweep:
    """Sweep the constant-field strength and record where the solution jumps."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    betas = np.linspace(b_range[0], b_range[1], samples)
    ones = np.ones(instance.k)
    assignments = np.zeros((samples, instance.k), dtype=np.int8)
    method = "exhaustive" if instance.k <= cap else "tabu"
    for idx, beta in enumerate(betas):
        result, _ = _solve_cell(instance, -beta * ones, cap)
        assignments[idx] = result.x_best
    changed = np.nonzero(np.any(assignments[1:] != assignments[:-1], axis=1))[0] + 1
    return IsingSweep(b_values=betas, assignments=assignments,
                      change_points=changed, method=method)


def write_sweep(sweep: IsingSweep, path: str | os.PathLike) -> None:
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b", "changed"])
        changed = set(int(i) for i in sweep.change_points)
        for idx, beta in enumerate(sweep.b_values):
            writer.writerow([repr(float(beta)), 1 if idx in changed else 0])


# ---------------------------------------------------------------------------
# Hybrid inference and benchmarks
# ---------------------------------------------------------------------------


def hybrid_infer(model: BpgnnModel, instance: QuboInstance, b,
                 max_steps: int = 10) -> SolverResult:
    """Neural prediction polished by a short Tabu run.

    The returned trace starts at the pure-neural objective, so both the
    unrefined and refined values are available; f_best is never worse
    than the pure prediction because the search keeps its start point.
    """
    t0 = time.perf_counter()
    x_p = model.predict(b)
    refined = refine_with_tabu(instance, b, x_p, max_steps=max_steps)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return SolverResult(
        solver="bpgnn+ts",
        x_best=refined.x_best,
        f_best=refined.f_best,
        iterations=refined.iterations,
        evaluations=refined.evaluations,
        elapsed_ms=elapsed,
        termination=refined.termination,
        trace=refined.trace,
    )


BENCH_METHODS = ("exhaustive", "tabu", "sab", "bpgnn", "bpgnn+ts")
BENCH_COLUMNS = ("method", "k", "acc_mean", "acc_std", "relqubo_mean",
                 "relqubo_std", "time_ms_mean")


# Methods that solve one example per call: (instance, b, model) -> SolverResult.
_PER_EXAMPLE = {
    "exhaustive": lambda instance, b, model: exhaustive_solve(instance, b),
    "tabu": lambda instance, b, model: tabu_solve(instance, b, TabuParams()),
    "sab": lambda instance, b, model: sab_solve(instance, b, SabParams()),
    "bpgnn+ts": lambda instance, b, model: hybrid_infer(model, instance, b),
}


def evaluate_method(method: str, instance: QuboInstance, dataset: Dataset,
                    model: BpgnnModel | None = None,
                    split: str = "val") -> EvalRecord:
    """Mean accuracy/objective-gap/time of one method over a dataset split,
    referenced against the stored labels.  "bpgnn" predicts the whole
    split in one batch and reports that batch's time per example."""
    if method not in BENCH_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {BENCH_METHODS}")
    if method in ("bpgnn", "bpgnn+ts") and model is None:
        raise ValueError(f"method {method!r} needs a trained model")
    if not dataset.indices(split):
        raise ValueError(f"dataset has no {split!r} pairs")
    b = dataset.b_matrix(split)
    x_ref = dataset.x_matrix(split)
    if method == "bpgnn":
        t0 = time.perf_counter()
        x_pred = model.predict(b)
        times = [(time.perf_counter() - t0) * 1000.0 / len(b)]
    else:
        runs = [_PER_EXAMPLE[method](instance, row, model) for row in b]
        x_pred = np.array([r.x_best for r in runs])
        times = [r.elapsed_ms for r in runs]
    gaps = rel_gaps(instance, b, x_ref, x_pred)
    return EvalRecord(
        method=method,
        accuracy=float(np.mean(np.mean(x_pred == x_ref, axis=1))),
        rel_qubo=float(np.mean(gaps)) if gaps.size else float("nan"),
        elapsed_ms=float(np.mean(times)),
        instance_ref=repr(instance),
        dataset_ref=dataset.instance_ref,
    )


def benchmark(instances: list[QuboInstance], datasets: list[Dataset],
              methods: list[str], output_path: str | os.PathLike,
              models: list[BpgnnModel] | None = None) -> list[dict]:
    """Per-method mean and spread across instance realizations.

    Each (instance, dataset) pair contributes one per-instance mean; rows
    aggregate those across realizations.  The CSV ends up with columns
    method, k, acc_mean, acc_std, relqubo_mean, relqubo_std, time_ms_mean.
    """
    if len(instances) != len(datasets):
        raise ValueError(
            f"{len(instances)} instances but {len(datasets)} datasets"
        )
    if models is not None and len(models) != len(instances):
        raise ValueError(f"{len(instances)} instances but {len(models)} models")
    for method in methods:
        if method not in BENCH_METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {BENCH_METHODS}"
            )
    needs_model = [m for m in methods if m in ("bpgnn", "bpgnn+ts")]
    if needs_model and models is None:
        raise ValueError(f"method {needs_model[0]!r} needs trained models")

    ks = {inst.k for inst in instances}
    if len(ks) != 1:
        raise ValueError(f"benchmark instances must share k, got {sorted(ks)}")
    k = ks.pop()

    rows = []
    for method in methods:
        per_instance = []
        for pos, (inst, ds) in enumerate(zip(instances, datasets)):
            model = models[pos] if models is not None else None
            per_instance.append(evaluate_method(method, inst, ds, model))
        acc = np.array([r.accuracy for r in per_instance])
        rel = np.array([r.rel_qubo for r in per_instance])
        ms = np.array([r.elapsed_ms for r in per_instance])
        rows.append({
            "method": method,
            "k": k,
            "acc_mean": float(acc.mean()),
            "acc_std": float(acc.std()),
            "relqubo_mean": float(rel.mean()),
            "relqubo_std": float(rel.std()),
            "time_ms_mean": float(ms.mean()),
        })

    with open(os.fspath(output_path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_COLUMNS)
        for row in rows:
            writer.writerow([
                row["method"], row["k"],
                repr(row["acc_mean"]), repr(row["acc_std"]),
                repr(row["relqubo_mean"]), repr(row["relqubo_std"]),
                repr(row["time_ms_mean"]),
            ])
    return rows


def write_eval_records(records: list[EvalRecord], path: str | os.PathLike) -> None:
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "accuracy", "rel_qubo", "elapsed_ms",
                         "instance", "dataset"])
        for rec in records:
            writer.writerow([rec.method, repr(rec.accuracy), repr(rec.rel_qubo),
                             repr(rec.elapsed_ms), rec.instance_ref,
                             rec.dataset_ref])
