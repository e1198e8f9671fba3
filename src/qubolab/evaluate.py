"""Metrics and measurement harness: solution quality, label structure,
objective-landscape probes, and multi-method benchmarks.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .datagen import Dataset
from .io import write_csv
from .model import BpgnnModel
from .qubo import (QuboInstance, as_binary_assignment, as_observed_vector,
                   rel_gaps)
from .solvers import (EXHAUSTIVE_CAP, SabParams, SolverResult, TabuParams,
                      exhaustive_argmins, sab_solve, tabu_rows)


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
    edges = instance.edges
    if not len(edges):
        raise ValueError("homophily is undefined on an edgeless graph")
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
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
    unit length.  method names the solver that produced every cell.
    """

    s_values: np.ndarray
    t_values: np.ndarray
    phi: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    base_b: np.ndarray
    method: str


def _orthonormal_pair(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    b1 = rng.standard_normal(k)
    b1 /= np.linalg.norm(b1)
    b2 = rng.standard_normal(k)
    b2 -= (b2 @ b1) * b1
    b2 /= np.linalg.norm(b2)
    return b1, b2


def _minimizers(instance: QuboInstance, fields: np.ndarray,
                cap: int) -> tuple[np.ndarray, str]:
    """Minimizer of every row of fields (n, k), and the solver's name: one
    exact enumeration for all rows up to the cap, above it one lockstep
    Tabu run (tabu_solve with TabuParams() on every row)."""
    if instance.k <= cap:
        return exhaustive_argmins(instance, fields, cap), "exhaustive"
    return np.array([r.x_best for r in tabu_rows(instance, fields)]), "tabu"


def probe_landscape(instance: QuboInstance, b, seed: int,
                    s_range: tuple[float, float] = (-3.0, 3.0),
                    t_range: tuple[float, float] = (-3.0, 3.0),
                    resolution: int = 41,
                    cap: int = EXHAUSTIVE_CAP) -> LandscapeGrid:
    """Map how the minimizer moves as b is perturbed in a random 2-plane."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    for name, bounds in (("s_range", s_range), ("t_range", t_range)):
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"{name} must be finite, got {bounds}")
    b = as_observed_vector(b, instance.k)
    rng = np.random.default_rng(seed)
    b1, b2 = _orthonormal_pair(rng, instance.k)
    s_values = np.linspace(s_range[0], s_range[1], resolution)
    t_values = np.linspace(t_range[0], t_range[1], resolution)

    t_grid, s_grid = np.meshgrid(t_values, s_values)
    cells = b + t_grid.reshape(-1, 1) * b1 + s_grid.reshape(-1, 1) * b2
    x, name = _minimizers(instance, np.vstack([b, cells]), cap)
    phi = np.count_nonzero(x[1:] != x[0], axis=1).astype(np.int64)
    phi = phi.reshape(resolution, resolution)
    return LandscapeGrid(s_values=s_values, t_values=t_values, phi=phi,
                         b1=b1, b2=b2, base_b=b, method=name)


def plateau_fraction(phi: np.ndarray) -> float:
    """Fraction of grid cells equal to at least one 4-neighbor."""
    same = np.zeros(phi.shape, dtype=bool)
    same[:-1, :] |= phi[:-1, :] == phi[1:, :]
    same[1:, :] |= phi[1:, :] == phi[:-1, :]
    same[:, :-1] |= phi[:, :-1] == phi[:, 1:]
    same[:, 1:] |= phi[:, 1:] == phi[:, :-1]
    return float(np.mean(same))


def write_landscape(grid: LandscapeGrid, path: str | os.PathLike) -> None:
    write_csv(path, ("s", "t", "phi"),
              ([s, t, int(grid.phi[i, j])]
               for i, s in enumerate(grid.s_values)
               for j, t in enumerate(grid.t_values)))


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
    if not all(map(math.isfinite, b_range)):
        raise ValueError(f"b_range must be finite, got {b_range}")
    betas = np.linspace(b_range[0], b_range[1], samples)
    fields = -betas[:, None] * np.ones(instance.k)
    assignments, method = _minimizers(instance, fields, cap)
    changed = np.nonzero(np.any(assignments[1:] != assignments[:-1], axis=1))[0] + 1
    return IsingSweep(b_values=betas, assignments=assignments,
                      change_points=changed, method=method)


def write_sweep(sweep: IsingSweep, path: str | os.PathLike) -> None:
    changed = set(int(i) for i in sweep.change_points)
    write_csv(path, ("b", "changed"),
              ([beta, int(idx in changed)] for idx, beta in enumerate(sweep.b_values)))


# ---------------------------------------------------------------------------
# Hybrid inference and benchmarks
# ---------------------------------------------------------------------------


def _hybrid_rows(model: BpgnnModel, instance: QuboInstance, b_mat: np.ndarray,
                 max_steps: int = 10) -> list[SolverResult]:
    """hybrid_infer for every row of b_mat (n, k): one batched prediction,
    then one lockstep tabu_rows polish of every prediction, row for row
    what refine_with_tabu gives.  Each result is charged the prediction
    time plus the polish time, both divided by n."""
    t0 = time.perf_counter()
    x_pred = model.predict(b_mat)
    predict_ms = (time.perf_counter() - t0) * 1000.0 / len(b_mat)
    refined = tabu_rows(instance, b_mat, x_pred,
                        TabuParams(max_steps=max_steps, tabu_tenure=max_steps))
    return [replace(r, solver="bpgnn+ts", elapsed_ms=predict_ms + r.elapsed_ms)
            for r in refined]


def hybrid_infer(model: BpgnnModel, instance: QuboInstance, b,
                 max_steps: int = 10) -> SolverResult:
    """Neural prediction polished by a short Tabu run.

    The returned trace starts at the pure-neural objective, so both the
    unrefined and refined values are available; f_best is never worse
    than the pure prediction because the search keeps its start point.
    """
    return _hybrid_rows(model, instance,
                        as_observed_vector(b, instance.k)[None, :], max_steps)[0]


BENCH_METHODS = ("exhaustive", "tabu", "sab", "bpgnn", "bpgnn+ts")
BENCH_COLUMNS = ("method", "k", "acc_mean", "acc_std", "relqubo_mean",
                 "relqubo_std", "time_ms_mean")


def evaluate_method(method: str, instance: QuboInstance, dataset: Dataset,
                    model: BpgnnModel | None = None,
                    split: str = "val") -> EvalRecord:
    """Mean accuracy/objective-gap/time of one method over a dataset split,
    referenced against the stored labels.  "exhaustive", "bpgnn" and
    "tabu" solve the whole split in one batched call and charge each
    example that call's time divided by n ("tabu" is one lockstep
    tabu_rows run, tabu_solve with TabuParams() on every row); "bpgnn+ts"
    is hybrid_infer over the split (one batched prediction, one lockstep
    polish); "sab" runs once per row."""
    if method not in BENCH_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {BENCH_METHODS}")
    if method in ("bpgnn", "bpgnn+ts") and model is None:
        raise ValueError(f"method {method!r} needs a trained model")
    if not len(dataset.indices(split)):
        raise ValueError(f"dataset has no {split!r} pairs")
    b = dataset.b_matrix(split)
    x_ref = dataset.x_matrix(split)
    if method in ("exhaustive", "bpgnn"):
        t0 = time.perf_counter()
        x_pred = (exhaustive_argmins(instance, b) if method == "exhaustive"
                  else model.predict(b))
        elapsed_ms = (time.perf_counter() - t0) * 1000.0 / len(b)
    else:
        if method == "bpgnn+ts":
            runs = _hybrid_rows(model, instance, b)
        elif method == "tabu":
            runs = tabu_rows(instance, b)
        else:
            runs = [sab_solve(instance, row, SabParams()) for row in b]
        x_pred = np.array([r.x_best for r in runs])
        elapsed_ms = float(np.mean([r.elapsed_ms for r in runs]))
    gaps = rel_gaps(instance, b, x_ref, x_pred)
    return EvalRecord(
        method=method,
        accuracy=float(np.mean(np.mean(x_pred == x_ref, axis=1))),
        rel_qubo=float(np.mean(gaps)) if gaps.size else float("nan"),
        elapsed_ms=elapsed_ms,
        instance_ref=repr(instance),
        dataset_ref=dataset.instance_ref,
    )


def check_counts(instances: list, datasets: list, models: list | None) -> None:
    """Refuse a dataset or model list whose length is not the instance list's."""
    if len(datasets) != len(instances):
        raise ValueError(f"{len(instances)} instances but {len(datasets)} datasets")
    if models is not None and len(models) != len(instances):
        raise ValueError(f"{len(instances)} instances but {len(models)} models")


def benchmark(instances: list[QuboInstance], datasets: list[Dataset],
              methods: list[str], output_path: str | os.PathLike,
              models: list[BpgnnModel] | None = None) -> list[dict]:
    """Per-method mean and spread across instance realizations.

    Each (instance, dataset) pair contributes one per-instance mean; rows
    aggregate those across realizations.  The CSV ends up with columns
    method, k, acc_mean, acc_std, relqubo_mean, relqubo_std, time_ms_mean.
    """
    check_counts(instances, datasets, models)
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

    write_csv(output_path, BENCH_COLUMNS,
              ([row[c] for c in BENCH_COLUMNS] for row in rows))
    return rows


def write_eval_records(records: list[EvalRecord], path: str | os.PathLike) -> None:
    write_csv(path, ("method", "accuracy", "rel_qubo", "elapsed_ms", "instance",
                     "dataset"),
              ([r.method, r.accuracy, r.rel_qubo, r.elapsed_ms, r.instance_ref,
                r.dataset_ref] for r in records))
