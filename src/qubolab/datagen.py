"""Self-supervised observation-solution pair generation.

Instead of solving QUBO instances to create labels, a near-binary point
x_o is drawn first and the observed vector is manufactured so that x_o is
a stationary point of the log-barrier relaxation

    min_x  x^T A x + x^T b - mu * sum_i [log x_i + log(1 - x_i)],

whose first-order condition (A + A^T)x + b - mu/x + mu/(1-x) = 0 is
solved for b.  Gaussian noise then perturbs b, and a short Tabu polish
turns the rounded x_o into the final label.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .qubo import QuboInstance, as_binary_assignment, as_observed_vector
from .solvers import refine_with_tabu


@dataclass
class DataGenParams:
    """Knobs for pair generation.

    sigma scales the observation noise (added with variance sigma**4, i.e.
    as sigma^2 * z with z standard normal); mu is the barrier weight;
    eps_bin is the distance of the drawn x_o entries from exact 0/1;
    refine_steps is the Tabu budget spent polishing the rounded label.
    """

    sigma: float = 0.0
    mu: float = 1e-3
    eps_bin: float = 1e-3
    refine_steps: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0 < self.eps_bin < 0.5:
            raise ValueError(f"eps_bin must lie in (0, 0.5), got {self.eps_bin}")
        if self.refine_steps < 0:
            raise ValueError(f"refine_steps must be >= 0, got {self.refine_steps}")


@dataclass
class DataPair:
    """One observation b with its binary label x and generation lineage."""

    b: np.ndarray
    x: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, DataPair):
            return NotImplemented
        return (
            np.array_equal(self.b, other.b)
            and np.array_equal(self.x, other.x)
            and self.provenance == other.provenance
        )


@dataclass
class Dataset:
    """Ordered pairs for one instance, each tagged train or val."""

    instance_ref: str
    k: int
    params: dict
    pairs: list[DataPair]
    splits: list[str]

    def __post_init__(self):
        if len(self.pairs) != len(self.splits):
            raise ValueError(
                f"{len(self.pairs)} pairs but {len(self.splits)} split tags"
            )
        for s in self.splits:
            if s not in ("train", "val"):
                raise ValueError(f"split tag must be 'train' or 'val', got {s!r}")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.instance_ref == other.instance_ref
            and self.k == other.k
            and self.params == other.params
            and self.splits == other.splits
            and self.pairs == other.pairs
        )

    def __len__(self) -> int:
        return len(self.pairs)

    def indices(self, split: str) -> list[int]:
        return [i for i, s in enumerate(self.splits) if s == split]

    def b_matrix(self, split: str | None = None) -> np.ndarray:
        idx = range(len(self)) if split is None else self.indices(split)
        return np.array([self.pairs[i].b for i in idx], dtype=np.float64)

    def x_matrix(self, split: str | None = None) -> np.ndarray:
        idx = range(len(self)) if split is None else self.indices(split)
        return np.array([self.pairs[i].x for i in idx], dtype=np.int8)


def draw_near_binary(rng: np.random.Generator, k: int, eps_bin: float) -> np.ndarray:
    """Draw x_o with each entry uniformly eps_bin or 1 - eps_bin."""
    bits = rng.integers(0, 2, size=k)
    return eps_bin + bits * (1.0 - 2.0 * eps_bin)


def barrier_observed_vector(instance: QuboInstance, x_o, mu: float) -> np.ndarray:
    """Observed vector that makes x_o stationary for the barrier relaxation:

        b_o = -(A + A^T) x_o + mu / x_o - mu / (1 - x_o).
    """
    x_o = np.asarray(x_o, dtype=np.float64)
    if x_o.shape != (instance.k,):
        raise ValueError(f"x_o has shape {x_o.shape}, expected ({instance.k},)")
    if np.any(x_o <= 0) or np.any(x_o >= 1):
        raise ValueError("x_o entries must lie strictly inside (0, 1)")
    return -(instance.a_sym_csr @ x_o) + mu / x_o - mu / (1.0 - x_o)


def generate_pair(instance: QuboInstance, params: DataGenParams, pair_seed: int) -> DataPair:
    """Manufacture one observation-solution pair.

    Draws x_o near the hypercube corners, inverts the barrier stationarity
    condition for b_o, adds noise b = b_o + sigma^2 z, rounds x_o to
    binary, and polishes the rounding with up to refine_steps Tabu moves.
    """
    rng = np.random.default_rng(pair_seed)
    x_o = draw_near_binary(rng, instance.k, params.eps_bin)
    b_o = barrier_observed_vector(instance, x_o, params.mu)
    z = rng.standard_normal(instance.k)
    b = b_o + params.sigma ** 2 * z
    rounded = (x_o > 0.5).astype(np.int8)
    result = refine_with_tabu(instance, b, rounded, max_steps=params.refine_steps)
    x = result.x_best
    flips = int(np.count_nonzero(x != rounded))
    provenance = {
        "seed": int(pair_seed),
        "sigma": float(params.sigma),
        "refined": flips > 0,
        "f_value": float(result.f_best),
        "flips": flips,
    }
    return DataPair(b=b, x=x, provenance=provenance)


def generate_dataset(
    instance: QuboInstance,
    n_pairs: int,
    params: DataGenParams,
    split: tuple[float, float] = (0.8, 0.2),
    instance_ref: str | None = None,
) -> Dataset:
    """Generate n_pairs pairs with per-pair seeds seed XOR index and a
    deterministic shuffled train/val split."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if abs(split[0] + split[1] - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {split}")
    if not 0 <= split[0] <= 1:
        raise ValueError(f"train fraction must lie in [0, 1], got {split[0]}")
    pairs = [
        generate_pair(instance, params, params.seed ^ index)
        for index in range(n_pairs)
    ]
    split_rng = np.random.default_rng(np.random.SeedSequence(params.seed).spawn(1)[0])
    perm = split_rng.permutation(n_pairs)
    n_train = int(round(n_pairs * split[0]))
    splits = ["val"] * n_pairs
    for i in perm[:n_train]:
        splits[i] = "train"
    if instance_ref is None:
        gen = instance.meta.get("generator", "anonymous")
        instance_ref = f"{gen}:k={instance.k}:seed={instance.meta.get('seed')}"
    return Dataset(
        instance_ref=instance_ref,
        k=instance.k,
        params=asdict(params),
        pairs=pairs,
        splits=splits,
    )


# ---------------------------------------------------------------------------
# Persistence: JSON Lines, header line then one record per pair
# ---------------------------------------------------------------------------


def write_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    path = os.fspath(path)
    with open(path, "w") as fh:
        header = {"k": dataset.k, "instance": dataset.instance_ref,
                  "params": dataset.params}
        fh.write(json.dumps(header) + "\n")
        for pair, split in zip(dataset.pairs, dataset.splits):
            record = {
                "b": [float(v) for v in pair.b],
                "x": [int(v) for v in pair.x],
                "split": split,
                "provenance": pair.provenance,
            }
            fh.write(json.dumps(record) + "\n")


def read_dataset(path: str | os.PathLike, instance: QuboInstance | None = None) -> Dataset:
    """Read a JSONL dataset, validating every record.

    Malformed lines are reported with their line number.  When an instance
    is supplied its size must match the header.
    """
    path = os.fspath(path)

    def fail(lineno: int, why: str):
        raise ValueError(f"{path}:{lineno}: {why}")

    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected a header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        fail(1, f"invalid JSON header: {err}")
    if not isinstance(header, dict) or "k" not in header:
        fail(1, "header must be an object with a 'k' field")
    k = header["k"]
    if not isinstance(k, int) or k < 1:
        fail(1, f"header k must be a positive integer, got {k!r}")
    if instance is not None and instance.k != k:
        raise ValueError(
            f"{path}: dataset k={k} does not match instance k={instance.k}"
        )

    pairs: list[DataPair] = []
    splits: list[str] = []
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as err:
            fail(lineno, f"invalid JSON: {err}")
        if not isinstance(rec, dict):
            fail(lineno, f"record must be a JSON object, got {rec!r}")
        for key in ("b", "x", "split"):
            if key not in rec:
                fail(lineno, f"record missing field {key!r}")
        for key in ("b", "x"):
            if not isinstance(rec[key], list):
                fail(lineno, f"{key} must be a list of {k} numbers, got {rec[key]!r}")
            if len(rec[key]) != k:
                fail(lineno, f"{key} has length {len(rec[key])}, expected {k}")
        try:
            b = as_observed_vector([float(v) for v in rec["b"]], k)
            x = as_binary_assignment(rec["x"], k)
        except (TypeError, ValueError) as err:
            fail(lineno, str(err))
        if rec["split"] not in ("train", "val"):
            fail(lineno, f"split must be 'train' or 'val', got {rec['split']!r}")
        pairs.append(DataPair(b=b, x=x, provenance=rec.get("provenance", {})))
        splits.append(rec["split"])
    return Dataset(
        instance_ref=header.get("instance", ""),
        k=k,
        params=header.get("params", {}),
        pairs=pairs,
        splits=splits,
    )
