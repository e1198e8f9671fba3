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
import math
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .io import _decode_json, _lines, _read_text
from .qubo import QuboInstance, _RowError
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
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be >= 0 and finite, got {self.sigma}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
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


@dataclass(eq=False)
class Dataset:
    """Pairs for one instance, held as columns: pair i is b[i], x[i],
    split[i] and provenance[i].

    b becomes a C-contiguous (n, k) float64 array, x an (n, k) int8 array
    and split an (n,) array of 'train'/'val' tags; each is copied, checked
    once as a whole and made read-only; a refused value raises _RowError at
    its first pair, with the text read_dataset reports at that pair's line.
    provenance is one dict per pair, {} for every pair when None.
    """

    instance_ref: str
    k: int
    params: dict
    b: np.ndarray
    x: np.ndarray
    split: np.ndarray
    provenance: list[dict] | None = None

    def __post_init__(self):
        b = np.array(self.b, dtype=np.float64, order="C")
        x = np.asarray(self.x)
        # Each tag as it was given: numpy's str dtype drops trailing NULs.
        tags = np.fromiter(self.split, dtype=object)
        if b.ndim != 2 or b.shape[1] != self.k:
            raise ValueError(f"b has shape {b.shape}, expected (n, {self.k})")
        if x.shape != b.shape:
            raise ValueError(f"x has shape {x.shape}, expected {b.shape}")
        if tags.shape != (len(b),):
            raise ValueError(f"{len(b)} pairs but {tags.size} split tags")
        for bad, why in (
                (~np.isfinite(b).all(axis=1), "observed vector contains NaN or Inf entries"),
                (((x != 0) & (x != 1)).any(axis=1), "assignment entries must be exactly 0 or 1"),
                ((tags != "train") & (tags != "val"), "split must be 'train' or 'val', got {!r}")):
            if bad.any():
                pair = int(bad.argmax())
                raise _RowError(why.format(tags[pair]), pair)
        provenance = ([{} for _ in range(len(b))] if self.provenance is None
                      else list(self.provenance))
        if len(provenance) != len(b) or not all(isinstance(p, dict) for p in provenance):
            raise ValueError(f"provenance must be {len(b)} dicts, one per pair")
        x = np.array(x, dtype=np.int8, order="C")
        split = tags.astype(str)
        for a in (b, x, split):
            a.flags.writeable = False
        self.b, self.x, self.split, self.provenance = b, x, split, provenance

    def __len__(self) -> int:
        return len(self.split)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.instance_ref, self.k, self.params, self.provenance)
            == (other.instance_ref, other.k, other.params, other.provenance)
            and all(np.array_equal(a, c) for a, c in ((self.b, other.b), (self.x, other.x),
                                                      (self.split, other.split)))
        )

    @cached_property
    def pairs(self) -> tuple[DataPair, ...]:
        """The pairs as rows, each a DataPair of read-only views into the
        columns; made on first use and then kept."""
        return tuple(map(DataPair, self.b, self.x, self.provenance))

    def indices(self, split: str) -> np.ndarray:
        return np.flatnonzero(self.split == split)

    def b_matrix(self, split: str | None = None) -> np.ndarray:
        return self.b if split is None else self.b[self.split == split]

    def x_matrix(self, split: str | None = None) -> np.ndarray:
        return self.x if split is None else self.x[self.split == split]


def draw_near_binary(rng: np.random.Generator, k: int, eps_bin: float) -> np.ndarray:
    """Draw x_o with each entry uniformly eps_bin or 1 - eps_bin."""
    bits = rng.integers(0, 2, size=k)
    return eps_bin + bits * (1.0 - 2.0 * eps_bin)


def barrier_observed_vector(instance: QuboInstance, x_o, mu: float) -> np.ndarray:
    """Observed vector that makes x_o stationary for the barrier relaxation:

        b_o = -(A + A^T) x_o + mu / x_o - mu / (1 - x_o).

    x_o is one point (k,) or a stack of points (n, k), one b_o per row; a
    row of the stack gets the same bits as the point alone.
    """
    x_o = np.asarray(x_o, dtype=np.float64)
    if x_o.ndim not in (1, 2) or x_o.shape[-1] != instance.k:
        raise ValueError(f"x_o has shape {x_o.shape}, expected ({instance.k},) or (n, {instance.k})")
    if np.any(x_o <= 0) or np.any(x_o >= 1):
        raise ValueError("x_o entries must lie strictly inside (0, 1)")
    g = (instance.a_sym_csr @ x_o.T).T
    return -g + mu / x_o - mu / (1.0 - x_o)


def generate_pair(instance: QuboInstance, params: DataGenParams, pair_seed: int) -> DataPair:
    """Manufacture one observation-solution pair.

    Draws x_o near the hypercube corners, inverts the barrier stationarity
    condition for b_o, adds noise b = b_o + sigma^2 z, rounds x_o to
    binary, and polishes the rounding with up to refine_steps Tabu moves.
    This is the one-row form of the stack that generate_dataset runs.
    """
    b, x, provenance = _generate_pairs(instance, params, [pair_seed])
    return DataPair(b=b[0], x=x[0], provenance=provenance[0])


def _generate_pairs(instance: QuboInstance, params: DataGenParams,
                    seeds: list[int]) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """generate_pair for every seed, in one stack, as the columns b (n, k),
    x (n, k) and one provenance dict per pair.

    Each pair draws x_o and z from its own RNG stream; then every b_o comes
    from one stacked barrier_observed_vector call and every rounded label
    is polished in one refine_with_tabu call, a row of each getting the
    bits of the pair alone.
    """
    x_o = np.empty((len(seeds), instance.k))
    z = np.empty((len(seeds), instance.k))
    for index, pair_seed in enumerate(seeds):
        rng = np.random.default_rng(pair_seed)
        x_o[index] = draw_near_binary(rng, instance.k, params.eps_bin)
        z[index] = rng.standard_normal(instance.k)
    b = barrier_observed_vector(instance, x_o, params.mu) + params.sigma ** 2 * z
    rounded = (x_o > 0.5).astype(np.int8)
    polished = refine_with_tabu(instance, b, rounded, params.refine_steps)
    x = polished.x_best
    flips = np.count_nonzero(x != rounded, axis=1).tolist()
    sigma = float(params.sigma)
    provenance = [
        {"seed": int(pair_seed), "sigma": sigma, "refined": n_flips > 0,
         "f_value": f_value, "flips": n_flips}
        for pair_seed, f_value, n_flips in zip(seeds, polished.f_best.tolist(), flips)
    ]
    return b, x, provenance


def generate_dataset(
    instance: QuboInstance,
    n_pairs: int,
    params: DataGenParams,
    split: tuple[float, float] = (0.8, 0.2),
    instance_ref: str | None = None,
) -> Dataset:
    """Generate n_pairs pairs and a deterministic shuffled train/val split.

    Pair i is generate_pair(instance, params, (seed << 32) | i), bit for
    bit, so datasets with different seeds share no pair seed.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if not all(map(math.isfinite, split)):
        raise ValueError(f"split must be finite, got {split}")
    if abs(split[0] + split[1] - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {split}")
    if not 0 <= split[0] <= 1:
        raise ValueError(f"train fraction must lie in [0, 1], got {split[0]}")
    b, x, provenance = _generate_pairs(instance, params,
                                       [(params.seed << 32) | i for i in range(n_pairs)])
    split_rng = np.random.default_rng(np.random.SeedSequence(params.seed).spawn(1)[0])
    perm = split_rng.permutation(n_pairs)
    n_train = int(round(n_pairs * split[0]))
    tags = np.full(n_pairs, "val", dtype="<U5")
    tags[perm[:n_train]] = "train"
    if instance_ref is None:
        gen = instance.meta.get("generator", "anonymous")
        instance_ref = f"{gen}:k={instance.k}:seed={instance.meta.get('seed')}"
    return Dataset(instance_ref=instance_ref, k=instance.k, params=asdict(params),
                   b=b, x=x, split=tags, provenance=provenance)


# ---------------------------------------------------------------------------
# Persistence: JSON Lines, header line then one record per pair
# ---------------------------------------------------------------------------


def write_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a JSONL dataset: the header line, then one record line per
    pair, each written as soon as it is encoded, so memory does not grow
    with the number of pairs."""
    header = {"k": dataset.k, "instance": dataset.instance_ref, "params": dataset.params}
    with open(os.fspath(path), "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for b, x, split, provenance in zip(dataset.b, dataset.x, dataset.split,
                                           dataset.provenance):
            fh.write(json.dumps({"b": b.tolist(), "x": x.tolist(), "split": str(split),
                                 "provenance": provenance}) + "\n")


def read_dataset(path: str | os.PathLike, instance: QuboInstance | None = None,
                 split: str | None = None) -> Dataset:
    """Read a JSONL dataset, a UTF-8 text file, validating every record.

    Malformed lines are reported with their line number.  When an instance
    is supplied its size must match the header; when a split is named the
    file must hold at least one pair of it.  Each record line is decoded
    once and its JSON shape checked there, by _records; Dataset then checks
    the values (finite b, 0/1 x, the split tags) as whole columns, and its
    message is reported at the line of the first pair it refuses.
    """
    path = os.fspath(path)

    def fail(lineno: int, why: str):
        raise ValueError(f"{path}:{lineno}: {why}")

    lines = _lines(_read_text(path))
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected a header line")
    header = _decode_json(lines[0], path, "JSON header")
    if not isinstance(header, dict) or "k" not in header:
        fail(1, "header must be an object with a 'k' field")
    k = header["k"]
    # bool is an int subclass, but true is not a size.
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        fail(1, f"header k must be a positive integer, got {k!r}")
    instance_ref = header.get("instance", "")
    if not isinstance(instance_ref, str):
        fail(1, f"header instance must be a string, got {instance_ref!r}")
    params = header.get("params", {})
    if not isinstance(params, dict):
        fail(1, f"header params must be a JSON object, got {params!r}")
    if instance is not None and instance.k != k:
        fail(1, f"dataset k={k} does not match instance k={instance.k}")

    linenos, b, x, splits, provenance = _records(lines, k, path, fail)
    if not linenos:  # no records: (0, k) columns, which [] cannot shape
        b = x = np.empty((0, k))
    try:
        dataset = Dataset(instance_ref, k, params, b, x, splits, provenance)
    except _RowError as err:
        fail(linenos[err.row], str(err))
    if split is not None and split not in dataset.split:
        fail(len(lines), f"no {split!r} pairs in the file")
    return dataset


def _records(lines: list[str], k: int, path: str, fail):
    """The records after the header: their line numbers and the b, x, split
    and provenance columns, with one json.loads per line and the checks
    only JSON can fail: each record an object with b, x and split, b and x
    lists of k JSON numbers, no int in b beyond the float range, provenance
    an object.  The first line that fails one raises through
    fail(lineno, why); the values are left to Dataset."""

    def numbers(lineno: int, key: str, row) -> set:
        if not isinstance(row, list):
            fail(lineno, f"{key} must be a list of {k} numbers, got {row!r}")
        if len(row) != k:
            fail(lineno, f"{key} has length {len(row)}, expected {k}")
        # JSON numbers decode to int or float; true and false decode to bool.
        types = set(map(type, row))
        if not types <= {int, float}:
            v = next(v for v in row if type(v) not in (int, float))
            fail(lineno, f"{key} entries must be JSON numbers, got {v!r}")
        return types

    linenos, b_rows, x_rows, splits, provenance = [], [], [], [], []
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec = _decode_json(text, path, line=lineno)
        if not isinstance(rec, dict):
            fail(lineno, f"record must be a JSON object, got {rec!r}")
        for key in ("b", "x", "split"):
            if key not in rec:
                fail(lineno, f"record missing field {key!r}")
        b_types = numbers(lineno, "b", rec["b"])
        numbers(lineno, "x", rec["x"])
        # An int beyond the float range would fail Dataset's float64 copy
        # with no pair to name.
        if int in b_types:
            try:
                list(map(float, rec["b"]))
            except OverflowError as err:
                fail(lineno, str(err))
        lineage = rec.get("provenance", {})
        if not isinstance(lineage, dict):
            fail(lineno, f"provenance must be a JSON object, got {lineage!r}")
        linenos.append(lineno)
        b_rows.append(rec["b"])
        x_rows.append(rec["x"])
        splits.append(rec["split"])
        provenance.append(lineage)
    return linenos, b_rows, x_rows, splits, provenance
