"""Reaction-diffusion graph network for predicting QUBO minimizers.

The network embeds the observed vector b into d channels, then runs L
forward-Euler steps that alternate graph diffusion and a learned
pointwise reaction.  Each step can inject a problem-aware feature built
from the relaxed residual h * (A h + b), which carries the objective
structure into the layer.  A linear decoder maps the final features to
one logit per node.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import (AdamState, Tape, Tensor, adam_step, backward,
                       bce_with_logits, zero_grad)
from .datagen import Dataset
from .io import _decode_json, _read_text, write_csv
from .qubo import (QuboInstance, _product_form, as_field_matrix,
                   as_observed_vector, scores)

# Raw value whose softplus is exactly 1, so diffusion starts at unit rate.
_SIGMA_RAW_INIT = math.log(math.expm1(1.0))


@dataclass
class BpgnnConfig:
    """Architecture knobs: width d, depth layers, Euler step eps_step,
    dropout rate, and the residual-feature switch."""

    d: int = 32
    layers: int = 4
    eps_step: float = 0.5
    dropout: float = 0.0
    use_qubo_features: bool = True
    seed: int = 0

    def __post_init__(self):
        # A checkpoint's JSON may hold any type here; bool is an int
        # subclass, but true is not a number and "false" is not a switch.
        for name in ("d", "layers", "eps_step", "dropout", "seed"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)}")
        for name in ("d", "layers", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.use_qubo_features, bool):
            raise ValueError(
                f"use_qubo_features must be true or false, got {self.use_qubo_features!r}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.eps_step < math.inf:
            raise ValueError(f"eps_step must be positive and finite, got {self.eps_step}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


def _layout(config: BpgnnConfig):
    """(name, shape) of every parameter, in the order of BpgnnModel.flat.

    A name's last part says how it starts: w* uniform in +-1/sqrt(fan-in),
    the shape's first axis; b* zero; sigma_raw at unit diffusion rate.
    """
    d = config.d
    yield from (("enc.w1", (1, d)), ("enc.b1", (1, d)),
                ("enc.w2", (d, d)), ("enc.b2", (1, d)))
    for layer in range(config.layers):
        for mlp in (f"layer{layer}.g", f"layer{layer}.f"):
            yield from ((f"{mlp}.w1", (d, d)), (f"{mlp}.b1", (1, d)),
                        (f"{mlp}.w2", (d, d)), (f"{mlp}.b2", (1, d)))
        yield f"layer{layer}.sigma_raw", (1, d)
    yield from (("dec.w", (d, 1)), ("dec.b", (1, 1)))


def build_laplacian(instance: QuboInstance) -> sp.csr_matrix:
    """Symmetric normalized Laplacian of the instance connectivity.

    L = I - D^{-1/2} Abar D^{-1/2} with Abar the 0/1 adjacency of
    instance.edges and D its degrees.  Isolated nodes keep L_ii = 1, and an
    edgeless instance gives the identity.  L is exactly symmetric (both
    triangles hold the same product), so it is its own transpose.
    Eigenvalues lie in [0, 2], so an Euler step with eps_step <= 1 and
    unit diffusion rate is non-expansive.
    """
    k, edges = instance.k, instance.edges
    degrees = np.bincount(edges.ravel(), minlength=k)
    dinv = 1.0 / np.sqrt(np.maximum(degrees.astype(np.float64), 1.0))
    i, j = edges[:, 0], edges[:, 1]
    w = dinv[i] * dinv[j]
    diag = np.arange(k, dtype=np.int64)
    rows = np.concatenate([i, j, diag])
    cols = np.concatenate([j, i, diag])
    lap = sp.csr_matrix((np.concatenate([-w, -w, np.ones(k)]), (rows, cols)), shape=(k, k))
    lap.sort_indices()
    return lap


class BpgnnModel:
    """Network bound to one instance, whose graph operators it caches.

    A batch of n examples runs as one (k*n, d) activation in node-major
    order: row i*n + j holds node i of example j.  Dense layers are then
    plain GEMMs, and a graph product is one k x k operator applied to all
    examples at once.  Each dense layer, residual feature, diffusion
    half-step and reaction step is one tape record.

    The operators a (A) and laplacian are held as dense arrays when they
    store at least a quarter of their k^2 entries, so a product is one
    GEMM, and as CSR otherwise: qubo._product_form, the rule sab_solve
    uses.  Each VJP applies the operator's own .T.

    Parameters live in a name -> Tensor dict, and each tensor's data is a
    reshaped view into one float64 vector, self.flat.  _layout(config) is
    the one statement of their names, shapes and order, which
    _init_params draws and load_checkpoint checks a file against:
      enc.*                encoder MLP 1 -> d (relu hidden)
      layer{i}.g.*         residual-feature MLP d -> d (relu hidden, linear out)
      layer{i}.f.*         reaction MLP d -> d (relu hidden, tanh out)
      layer{i}.sigma_raw   per-channel diffusion rates, softplus-reparameterized
      dec.*                linear decoder d -> 1
    """

    def __init__(self, config: BpgnnConfig, instance: QuboInstance):
        self.config = config
        self.instance = instance
        self.a = _product_form(instance.a_csr)
        self.laplacian = _product_form(build_laplacian(instance))
        self.params = self._init_params()
        self.flat = np.concatenate([t.data.ravel() for t in self.params.values()])
        ends = np.cumsum([t.data.size for t in self.params.values()])
        for t, part in zip(self.params.values(), np.split(self.flat, ends[:-1])):
            t.data = part.reshape(t.data.shape)

    def _init_params(self) -> dict[str, Tensor]:
        rng = np.random.default_rng(self.config.seed)
        params: dict[str, Tensor] = {}
        for name, shape in _layout(self.config):
            kind = name.rsplit(".", 1)[1][0]
            if kind == "w":
                bound = 1.0 / math.sqrt(shape[0])
                data = rng.uniform(-bound, bound, size=shape)
            else:
                data = np.full(shape, _SIGMA_RAW_INIT if kind == "s" else 0.0)
            params[name] = Tensor(data, requires_grad=True)
        return params

    # -- forward --------------------------------------------------------

    def _mlp(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        hidden = ad.relu(ad.linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return ad.linear(hidden, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _logits(self, b_mat: np.ndarray, training: bool,
                rng: np.random.Generator | None) -> Tensor:
        """Node-major logits, shape (k*n, 1), for n observed vectors (n, k)."""
        cfg = self.config
        p = self.params

        def drop(t: Tensor) -> Tensor:
            if training and cfg.dropout > 0:
                seed = int(rng.integers(0, 2 ** 63))
                return ad.dropout(t, cfg.dropout, seed)
            return t

        b_t = Tensor(_node_major(b_mat))
        h = drop(self._mlp(b_t, "enc"))
        for layer in range(cfg.layers):
            if cfg.use_qubo_features:
                r = ad.residual(h, self.a, b_t)
                u = ad.add(h, self._mlp(r, f"layer{layer}.g"))
            else:
                u = h
            sig = ad.softplus(p[f"layer{layer}.sigma_raw"])
            h_half = ad.diffuse(h, self.laplacian, u, sig, cfg.eps_step)
            reaction = self._mlp(h_half, f"layer{layer}.f")
            h = drop(ad.react(h_half, reaction, cfg.eps_step))
        return ad.linear(h, p["dec.w"], p["dec.b"])

    def forward(self, b) -> Tensor:
        """Eval-mode logits, shape (k, 1), for one observed vector; train
        runs its dropout forward through _logits."""
        return self._logits(as_observed_vector(b, self.instance.k)[None, :], False, None)

    def predict(self, b) -> np.ndarray:
        """Binary assignment: bit i is 1 iff sigmoid(logit_i) > 0.5.

        b is one observed vector (k,) or a stack of them (n, k); the
        result has the same shape.
        """
        k = self.instance.k
        one = np.ndim(b) != 2
        b_mat = as_observed_vector(b, k)[None] if one else as_field_matrix(b, k)
        x = _decode(self._logits(b_mat, False, None).data, k)
        return x[0] if one else x


def _node_major(m: np.ndarray) -> np.ndarray:
    """(n, k) per-example rows -> (k*n, 1) column with row i*n + j = m[j, i]."""
    return m.T.reshape(-1, 1)


def _decode(logits: np.ndarray, k: int) -> np.ndarray:
    """Node-major logits (k*n, 1) -> (n, k) int8 bits, 1 where sigmoid > 0.5."""
    return (ad._sigmoid(logits) > 0.5).reshape(k, -1).T.astype(np.int8)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Optimization knobs.

    The intended search grids are lr in {1e-5, 1e-4, 1e-3} and
    weight_decay in {1e-5, 1e-4, 0}, with at most 200 epochs; values
    outside the grids are accepted (lr=0 is useful for no-op training
    checks).  Dropout is the model's own rate, BpgnnConfig.dropout, with
    the intended grid {0, 0.1, 0.5}.  The two targets are set together or
    not at all; when set, training stops once the validation accuracy and
    relative objective both meet them.
    """

    lr: float = 1e-3
    weight_decay: float = 0.0
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    target_val_acc: float | None = None
    target_val_relqubo: float | None = None

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be >= 0 and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if (self.target_val_acc is None) != (self.target_val_relqubo is None):
            raise ValueError("target_val_acc and target_val_relqubo must be set together")
        if self.target_val_acc is not None and not 0 <= self.target_val_acc <= 1:
            raise ValueError(
                f"target_val_acc must lie in [0, 1], got {self.target_val_acc}")
        if self.target_val_relqubo is not None and not math.isfinite(self.target_val_relqubo):
            raise ValueError(
                f"target_val_relqubo must be finite, got {self.target_val_relqubo}")


def train(model: BpgnnModel, dataset: Dataset, config: TrainConfig,
          history_path: str | os.PathLike | None = None):
    """Mini-batch Adam on the training split.

    Every example shares A, so one tape drives a whole batch through the
    model's single copy of its graph operators.  Returns the model with
    the parameters that achieved the best validation BCE, plus a
    per-epoch history of train/val BCE, val accuracy and val relative
    QUBO objective.
    """
    inst = model.instance
    if dataset.k != inst.k:
        raise ValueError(f"dataset k={dataset.k} does not match instance k={inst.k}")
    n_train = len(dataset.indices("train"))
    if not n_train:
        raise ValueError("empty training split")
    has_val = len(dataset.indices("val")) > 0

    rng = np.random.default_rng(config.seed)

    b_train = dataset.b_matrix("train")
    y_train = dataset.x_matrix("train").astype(np.float64)
    if has_val:
        b_val = dataset.b_matrix("val")
        y_val = dataset.x_matrix("val")

    state = AdamState(lr=config.lr, weight_decay=config.weight_decay)
    best_bce = np.inf
    best_flat: np.ndarray | None = None
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n_train)
        total = 0.0
        for lo in range(0, n_train, config.batch_size):
            rows = perm[lo:lo + config.batch_size]
            with Tape():
                logits = model._logits(b_train[rows], True, rng)
                loss = bce_with_logits(logits, _node_major(y_train[rows]))
                backward(loss)
            grad = np.concatenate([
                np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                for t in model.params.values()])
            adam_step(model.flat, grad, state)
            zero_grad(model.params)
            total += float(loss.data) * len(rows)
        record = {"epoch": epoch, "train_bce": total / n_train,
                  "val_bce": math.nan, "val_acc": math.nan,
                  "val_relqubo": math.nan}

        if has_val:
            val_bce, val_acc, val_rel = _validate(model, b_val, y_val)
            record.update(val_bce=val_bce, val_acc=val_acc, val_relqubo=val_rel)
            if val_bce < best_bce:
                best_bce = val_bce
                best_flat = model.flat.copy()
        history.append(record)

        if (
            has_val
            and config.target_val_acc is not None
            and record["val_acc"] >= config.target_val_acc
            and record["val_relqubo"] <= config.target_val_relqubo
        ):
            break

    if best_flat is not None:
        model.flat[:] = best_flat
    if history_path is not None:
        write_history(history, history_path)
    return model, history


def _validate(model: BpgnnModel, b_val: np.ndarray,
              y_val: np.ndarray) -> tuple[float, float, float]:
    """Validation BCE and the scores of the decoded prediction (qubo.scores),
    the ones evaluate_method reports."""
    logits = model._logits(b_val, False, None)
    loss = bce_with_logits(logits, _node_major(y_val).astype(np.float64))
    preds = _decode(logits.data, model.instance.k)
    return (float(loss.data), *scores(model.instance, b_val, y_val, preds))


HISTORY_COLUMNS = ("epoch", "train_bce", "val_bce", "val_acc", "val_relqubo")


def write_history(history: list[dict], path: str | os.PathLike) -> None:
    write_csv(path, HISTORY_COLUMNS,
              ([rec[c] for c in HISTORY_COLUMNS] for rec in history))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: BpgnnModel, path: str | os.PathLike) -> None:
    doc = {
        "config": asdict(model.config),
        "params": {
            name: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
            for name, t in model.params.items()
        },
    }
    with open(os.fspath(path), "w") as fh:
        # json.dumps runs the C encoder; json.dump never does.
        fh.write(json.dumps(doc) + "\n")


def load_checkpoint(path: str | os.PathLike, instance: QuboInstance) -> BpgnnModel:
    """Rebuild a saved model; a malformed file raises ValueError naming
    the line where the offending key starts (line 1 if it is absent)."""
    path = os.fspath(path)
    text = _read_text(path)

    def fail(why: str, key: str | None = None):
        at = text.find(json.dumps(key)) if key is not None else -1
        line = text.count("\n", 0, at) + 1 if at > 0 else 1
        raise ValueError(f"{path}:{line}: {why}")

    doc = _decode_json(text, path, "checkpoint JSON")
    if (not isinstance(doc, dict) or "config" not in doc
            or not isinstance(doc.get("params"), dict)):
        fail("checkpoint must contain 'config' and 'params' objects")
    saved = doc["params"]
    try:
        config = BpgnnConfig(**doc["config"])
    except (TypeError, ValueError) as err:
        fail(f"bad config block: {err}", "config")
    # Check the file against the layout first, so that no model is built
    # for a config the params do not hold.
    values: dict[str, np.ndarray] = {}
    for name, shape in _layout(config):
        if name not in saved:
            fail(f"checkpoint is missing parameter {name!r}", "params")
        entry = saved[name]
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            fail(f"parameter {name!r} needs 'shape' and 'data'", name)
        # JSON numbers load as int or float; bool is an int subclass, not a number.
        if not (isinstance(entry["data"], list)
                and set(map(type, entry["data"])) <= {int, float}):
            fail(f"parameter {name!r} data must be a list of JSON numbers", name)
        try:
            saved_shape = tuple(entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
        except (OverflowError, TypeError, ValueError) as err:
            fail(f"parameter {name!r}: {err}", name)
        # A shape entry must be a JSON integer: true and 1.0 compare equal to 1.
        if saved_shape != shape or not all(type(v) is int for v in saved_shape):
            fail(f"parameter {name!r} has shape {saved_shape}, expected {shape}", name)
        if data.size != math.prod(shape):
            fail(f"parameter {name!r} has {data.size} values, expected "
                 f"{math.prod(shape)}", name)
        if not np.all(np.isfinite(data)):
            fail(f"parameter {name!r} has non-finite values", name)
        values[name] = data
    extra = sorted(set(saved) - set(values))
    if extra:
        fail(f"checkpoint has unknown parameter {extra[0]!r}", extra[0])
    model = BpgnnModel(config, instance)
    model.flat[:] = np.concatenate(list(values.values()))
    return model
