"""Minimal dense-tensor reverse-mode differentiation.

Forward operations append (output, inputs, vector-Jacobian product)
records to the active tape in execution order; backward walks the records
once in reverse, so the engine is a plain Wengert list.  Only the
operations the network needs exist, and all data is double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class Tensor:
    """A dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Record:
    out: Tensor
    inputs: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]]


class Tape:
    """Execution-ordered list of differentiable operations.

    Use as a context manager; operations executed inside the block are
    recorded.  A tape supports exactly one backward pass, which releases
    the records, and with them every intermediate tensor, as it goes.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._recorded = 0
        self._used = False

    def __enter__(self) -> Tape:
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        """Number of operations recorded, including released ones."""
        return self._recorded


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(out_data, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        out._tape = tape
        tape._records.append(_Record(out=out, inputs=inputs, vjp=vjp))
        tape._recorded += 1
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss."""
    if loss._tape is None:
        raise RuntimeError("loss was not recorded on a tape")
    tape = loss._tape
    if tape._used:
        raise RuntimeError("backward was already called on this tape")
    tape._used = True
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")

    flowing: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones_like(loss.data))
    }
    # Popping each record drops the references an output holds back to its
    # tape, so the activations are freed by reference counting, not left
    # for the cyclic garbage collector.  Gradients are summed out of place,
    # never modified, so one array may safely flow to several inputs.
    records = tape._records
    while records:
        rec = records.pop()
        entry = flowing.pop(id(rec.out), None)
        if entry is None:
            continue
        g_out = entry[1]
        for t, g in zip(rec.inputs, rec.vjp(g_out)):
            prev = flowing.get(id(t))
            flowing[id(t)] = (t, g if prev is None else prev[1] + g)
    for t, g in flowing.values():
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g


def zero_grad(params) -> None:
    """Clear gradients; accepts a dict of tensors or an iterable."""
    values = params.values() if isinstance(params, dict) else params
    for t in values:
        t.grad = None


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------


def _check_2d(name: str, t: Tensor):
    if t.data.ndim != 2:
        raise ValueError(f"{name} expects a 2-d tensor, got shape {t.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_2d("matmul", a)
    _check_2d("matmul", b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul shapes {a.data.shape} and {b.data.shape} do not align"
        )

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _emit(a.data @ b.data, (a, b), vjp)


def const_matmul(m, x: Tensor) -> Tensor:
    """Constant (k, c) matrix m, dense or scipy sparse, times each of the
    n items of x (c*n, d) whose row i*n + j is row i of item j: the result
    is (m @ x.reshape(c, n*d)).reshape(k*n, d), m @ x when n = 1."""
    _check_2d("const_matmul", x)
    rows, d = x.data.shape
    k, c = m.shape
    if rows % c:
        raise ValueError(f"const_matmul shapes {m.shape} and {x.data.shape} do not align")
    n = rows // c

    def vjp(g):
        return ((m.T @ g.reshape(k, n * d)).reshape(rows, d),)

    return _emit((m @ x.data.reshape(c, n * d)).reshape(k * n, d), (x,), vjp)


def _check_broadcast(name: str, a: Tensor, b: Tensor):
    if a.data.shape == b.data.shape:
        return
    shape = a.data.shape
    if len(shape) != 2 or b.data.shape not in ((1, shape[1]), (shape[0], 1)):
        raise ValueError(
            f"{name}: shape {b.data.shape} does not broadcast against {shape}; "
            f"expected the same shape, a row (1, d) or a column (n, 1)"
        )


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axis that broadcasting repeated a tensor of shape."""
    if g.shape == shape:
        return g
    return g.sum(axis=0 if shape[0] != g.shape[0] else 1, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; b has a's shape or is a row (1, d) or column (n, 1) vector
    repeated across the rows or columns of a 2-d a."""
    _check_broadcast("add", a, b)
    shape = b.data.shape

    def vjp(g):
        return g, _unbroadcast(g, shape)

    return _emit(a.data + b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b, with b broadcast as in add."""
    _check_broadcast("mul", a, b)

    def vjp(g):
        return g * b.data, _unbroadcast(g * a.data, b.data.shape)

    return _emit(a.data * b.data, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a Python constant (not differentiated through)."""
    c = float(c)

    def vjp(g):
        return (c * g,)

    return _emit(c * x.data, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    return _emit(np.where(mask, x.data, 0.0), (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out ** 2),)

    return _emit(out, (x,), vjp)


def softplus(x: Tensor) -> Tensor:
    out = np.logaddexp(0.0, x.data)

    def vjp(g):
        return (g * _sigmoid(x.data),)

    return _emit(out, (x,), vjp)


def dropout(x: Tensor, p: float, seed: int) -> Tensor:
    """Zero entries with probability p and rescale survivors by 1/(1-p).

    Identity when p == 0.  The mask is a pure function of the seed, so
    runs are reproducible.
    """
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if p == 0:
        return x
    keep = np.random.default_rng(seed).random(x.data.shape) >= p
    factor = keep / (1.0 - p)

    def vjp(g):
        return (g * factor,)

    return _emit(x.data * factor, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit(x.data.sum(), (x,), vjp)


def bce_with_logits(logits: Tensor, targets: Tensor | np.ndarray) -> Tensor:
    """Mean binary cross-entropy from logits, log-sum-exp stabilized."""
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    z = logits.data
    if z.shape != y.shape:
        raise ValueError(f"logits shape {z.shape} != targets shape {y.shape}")
    per_node = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = z.size

    def vjp(g):
        return (g * (_sigmoid(z) - y) / n,)

    return _emit(per_node.mean(), (logits,), vjp)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments and hyperparameters for a named parameter set."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray | None],
              state: AdamState) -> dict[str, Tensor]:
    """One bias-corrected Adam update, in place on params.

    Weight decay enters the gradient additively as weight_decay * param.
    A missing or None gradient counts as zero.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        else:
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter {name!r} shape "
                    f"{p.data.shape}"
                )
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g ** 2
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params
