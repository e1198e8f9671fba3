"""Minimal dense-tensor reverse-mode differentiation.

Forward operations append (output, inputs, vector-Jacobian product)
records to the active tape in execution order; backward walks the records
once in reverse, so the engine is a plain Wengert list.  Only the
operations the network needs exist, and all data is double precision.
Each compound step of the network is one record whose hand-written VJP
does the arithmetic of the one-operation-per-record composition in the
same order (a tensor that takes two gradient terms is listed twice in
the inputs), so results are bitwise those of that composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tensor:
    """A dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_key", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Record:
    """Output key; per input, its key if recorded on this tape, else itself."""

    out: int
    inputs: tuple[int | Tensor, ...]
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


def _emit(out_data, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(out_data)
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    if tape is not None:
        # Keys, not references: an intermediate that no VJP reads dies early.
        out._tape, out._key = tape, tape._recorded
        keys = tuple(t._key if t._tape is tape else t for t in inputs)
        tape._records.append(_Record(out=out._key, inputs=keys, vjp=vjp))
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

    flowing: dict[int | Tensor, np.ndarray] = {loss._key: np.ones_like(loss.data)}
    # Popping a record frees the arrays its VJP holds by reference counting,
    # not by the cyclic GC.  Gradients are summed out of place, never
    # modified, so one array may safely flow to several inputs.
    records = tape._records
    while records:
        rec = records.pop()
        g_out = flowing.pop(rec.out, None)
        if g_out is None:
            continue
        for key, g in zip(rec.inputs, rec.vjp(g_out)):
            prev = flowing.get(key)
            flowing[key] = g if prev is None else prev + g
    # Every recorded key was popped with its record; the tensors remain.
    for t, g in flowing.items():
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g


def zero_grad(params: dict[str, Tensor]) -> None:
    """Clear the gradient of every tensor in a name -> Tensor dict."""
    for t in params.values():
        t.grad = None


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------


def _check_2d(name: str, t: Tensor):
    if t.data.ndim != 2:
        raise ValueError(f"{name} expects a 2-d tensor, got shape {t.data.shape}")


def _check_shape(name: str, t: Tensor, shape: tuple[int, ...]):
    if t.data.shape != shape:
        raise ValueError(f"{name}: shape {t.data.shape} does not broadcast against {shape}")


def _per_item(m, x: np.ndarray) -> np.ndarray:
    """Constant (k, k) matrix m, dense or scipy sparse, times each of the n
    items of x (k*n, d) whose row i*n + j is row i of item j: the result is
    (m @ x.reshape(k, n*d)).reshape(k*n, d), m @ x when n = 1."""
    return (m @ x.reshape(m.shape[1], -1)).reshape(x.shape)


def _check_graph(name: str, m, x: Tensor):
    _check_2d(name, x)
    k, c = m.shape
    if k != c or x.data.shape[0] % k:
        raise ValueError(f"{name} shapes {m.shape} and {x.data.shape} do not align")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x @ w + b, with the (1, m) bias row added to every row."""
    _check_2d("linear", x)
    _check_2d("linear", w)
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shapes {x.data.shape} and {w.data.shape} do not align")
    _check_shape("linear bias", b, (1, w.data.shape[1]))
    xd, wd = x.data, w.data

    def vjp(g):
        return g @ wd.T, xd.T @ g, g.sum(axis=0, keepdims=True)

    out = xd @ wd
    out += b.data
    return _emit(out, (x, w, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b of two tensors of one shape."""
    _check_shape("add", b, a.data.shape)

    def vjp(g):
        return g, g

    return _emit(a.data + b.data, (a, b), vjp)


def residual(h: Tensor, m, b: Tensor) -> Tensor:
    """Residual feature h * (m h + b) of every item of h (rows as in
    _per_item), with the column b (k*n, 1) added to every channel; b is a
    constant and gets no gradient.  The VJP applies m.T: a view of a dense
    m, and a CSC sharing a CSR m's arrays."""
    _check_graph("residual", m, h)
    _check_shape("residual", b, (h.data.shape[0], 1))
    hd = h.data
    s = _per_item(m, hd)
    s += b.data

    def vjp(g):
        # h enters twice: through the product and through m h.
        return g * s, _per_item(m.T, g * hd)

    return _emit(hd * s, (h, h), vjp)


def diffuse(h: Tensor, m, u: Tensor, rate: Tensor, eps: float) -> Tensor:
    """Explicit-Euler diffusion half-step h - eps * rate * (m u), with the
    (1, d) rate row scaling each channel and m applied per item; the VJP
    applies m.T, as residual's does."""
    _check_graph("diffuse", m, u)
    _check_shape("diffuse", h, u.data.shape)
    _check_shape("diffuse rate", rate, (1, u.data.shape[1]))
    c = -float(eps)
    mu = _per_item(m, u.data)
    rd = rate.data

    def vjp(g):
        gc = c * g
        g_rate = (gc * mu).sum(axis=0, keepdims=True)
        gc *= rd
        return g, _per_item(m.T, gc), g_rate

    out = mu * rd
    out *= c
    out += h.data
    return _emit(out, (h, u, rate), vjp)


def react(h: Tensor, z: Tensor, eps: float) -> Tensor:
    """Explicit-Euler reaction step h + eps * tanh(z)."""
    _check_shape("react", z, h.data.shape)
    c = float(eps)
    t = np.tanh(z.data)

    def vjp(g):
        gz = c * g
        gz *= 1.0 - t ** 2
        return g, gz

    out = c * t
    out += h.data
    return _emit(out, (h, z), vjp)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (out > 0),)

    return _emit(out, (x,), vjp)


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    out = np.logaddexp(0.0, xd)

    def vjp(g):
        return (g * _sigmoid(xd),)

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


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy from logits, log-sum-exp stabilized, against
    a constant target array of the logits' shape."""
    y = np.asarray(targets, dtype=np.float64)
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


# Adam's moment decay rates and the guard added to the root of the second.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments, lr and weight decay for one parameter array."""

    lr: float
    weight_decay: float = 0.0
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be >= 0 and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be >= 0 and finite, got {self.weight_decay}")


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update, in place on the float64 array param.

    Weight decay enters the gradient additively as weight_decay * param.
    Every operation is elementwise, so several parameters concatenated into
    one array get the same bits as each updated alone.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {param.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(param), np.zeros_like(param)
    state.step += 1
    t = state.step
    if state.weight_decay:
        grad = grad + state.weight_decay * param
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad ** 2
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return param
