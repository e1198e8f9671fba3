"""Classical QUBO solvers: exact enumeration, Tabu search, and a
ballistic simulated-bifurcation annealer.

All solvers return a SolverResult whose f_best is recomputed from x_best
at return time, so the invariant f_best == evaluate(x_best) holds exactly.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .qubo import QuboInstance, as_binary_assignment, as_observed_vector, qubo_to_ising


# Largest k exhaustive_solve enumerates by default (2^26 states).
EXHAUSTIVE_CAP = 26


class IntractableSizeError(ValueError):
    """Raised when a problem is too large for exact enumeration."""


@dataclass
class SolverResult:
    """Outcome of one solver invocation.

    trace, when present, is the best-seen objective after each step and is
    non-increasing.  termination says why the solver stopped.
    """

    solver: str
    x_best: np.ndarray
    f_best: float
    iterations: int
    evaluations: int
    elapsed_ms: float
    termination: str = "completed"
    trace: list[float] | None = None

    def to_json(self) -> dict:
        return {
            "solver": self.solver,
            "x_best": [int(v) for v in self.x_best],
            "f_best": float(self.f_best),
            "iterations": int(self.iterations),
            "evaluations": int(self.evaluations),
            "elapsed_ms": float(self.elapsed_ms),
            "termination": self.termination,
        }


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


def exhaustive_solve(instance: QuboInstance, b, cap: int = EXHAUSTIVE_CAP) -> SolverResult:
    """Exact global minimizer by Gray-code enumeration.

    Walks all 2^k assignments in reflected-Gray order so each visit costs
    one single-bit delta update.  Ties on the objective are broken toward
    the lexicographically smallest bit vector (x_0 most significant).
    """
    if instance.k > cap:
        raise IntractableSizeError(
            f"intractable size: k={instance.k} exceeds the exhaustive cap {cap}"
        )
    b = as_observed_vector(b, instance.k)
    t0 = time.perf_counter()
    k = instance.k
    s_pos = instance.a_sym_csr.toarray()
    s_neg = -s_pos
    d = np.array(instance.a_diag)
    x = np.zeros(k)
    g = np.zeros(k)
    f = 0.0
    # State at n=0 is all zeros, whose lexicographic key (the Gray integer
    # with x_0 as most significant bit) is 0, the smallest possible.
    best_f = 0.0
    best_key = 0
    n_states = 1 << k
    for n in range(1, n_states):
        i = k - (n & -n).bit_length()
        if x[i] == 0.0:
            f += b[i] + d[i] + g[i]
            x[i] = 1.0
            np.add(g, s_pos[i], out=g)
        else:
            f -= b[i] + d[i] + g[i] - 2.0 * d[i]
            x[i] = 0.0
            np.add(g, s_neg[i], out=g)
        if f < best_f:
            best_f = f
            best_key = n ^ (n >> 1)
        elif f == best_f and (n ^ (n >> 1)) < best_key:
            best_key = n ^ (n >> 1)
    x_best = np.zeros(k, dtype=np.int8)
    for p in range(k):
        x_best[k - 1 - p] = (best_key >> p) & 1
    elapsed = (time.perf_counter() - t0) * 1000.0
    return SolverResult(
        solver="exhaustive",
        x_best=x_best,
        f_best=instance.evaluate(b, x_best),
        iterations=n_states - 1,
        evaluations=n_states,
        elapsed_ms=elapsed,
        termination="enumerated",
    )


# ---------------------------------------------------------------------------
# Tabu search
# ---------------------------------------------------------------------------


@dataclass
class TabuParams:
    """Tabu search knobs.

    The tabu list remembers the last tabu_tenure full assignments; a move
    producing a remembered assignment is forbidden.  patience stops the
    search after that many consecutive non-improving steps (None disables).
    """

    max_steps: int = 1000
    tabu_tenure: int = 10
    start: np.ndarray | None = None  # None means all zeros
    patience: int | None = 50

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.tabu_tenure < 0:
            raise ValueError(f"tabu_tenure must be >= 0, got {self.tabu_tenure}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1 or None, got {self.patience}")


def tabu_solve(instance: QuboInstance, b, params: TabuParams | None = None) -> SolverResult:
    """Single-bit-flip Tabu search.

    Each step scores all k flips of the current point, skips flips whose
    resulting assignment sits in the tabu memory, and moves to the best
    remaining neighbor even when it worsens the objective.  Returns the
    best assignment seen.
    """
    params = params or TabuParams()
    b = as_observed_vector(b, instance.k)
    k = instance.k
    if params.start is None:
        x = np.zeros(k, dtype=np.int8)
    else:
        x = as_binary_assignment(params.start, k)
    t0 = time.perf_counter()

    s = instance.a_sym_csr
    indptr, indices, data = s.indptr, s.indices, s.data
    d = instance.a_diag
    xf = x.astype(np.float64)
    g = s @ xf
    f = instance.evaluate(b, x)
    evaluations = 1

    best_x = x.copy()
    best_f = f
    trace = [f]
    tabu: OrderedDict[bytes, None] = OrderedDict()

    def remember(key: bytes):
        if params.tabu_tenure == 0:
            return
        tabu[key] = None
        tabu.move_to_end(key)
        while len(tabu) > params.tabu_tenure:
            tabu.popitem(last=False)

    remember(x.tobytes())
    steps = 0
    stalled = 0
    termination = "max_steps"
    for _ in range(params.max_steps):
        deltas = (1.0 - 2.0 * xf) * (b + d + g - 2.0 * d * xf)
        evaluations += k
        chosen = -1
        for i in np.argsort(deltas, kind="stable"):
            x[i] ^= 1
            key = x.tobytes()
            x[i] ^= 1
            if key not in tabu:
                chosen = int(i)
                break
        if chosen < 0:
            termination = "all_tabu"
            break
        f += float(deltas[chosen])
        sign = 1.0 - 2.0 * xf[chosen]
        lo, hi = indptr[chosen], indptr[chosen + 1]
        g[indices[lo:hi]] += sign * data[lo:hi]
        x[chosen] ^= 1
        xf[chosen] = x[chosen]
        remember(x.tobytes())
        steps += 1
        if f < best_f:
            best_f = f
            best_x = x.copy()
            stalled = 0
        else:
            stalled += 1
        trace.append(best_f)
        if params.patience is not None and stalled >= params.patience:
            termination = "patience"
            break

    elapsed = (time.perf_counter() - t0) * 1000.0
    return SolverResult(
        solver="tabu",
        x_best=best_x,
        f_best=instance.evaluate(b, best_x),
        iterations=steps,
        evaluations=evaluations,
        elapsed_ms=elapsed,
        termination=termination,
        trace=trace,
    )


def refine_with_tabu(instance: QuboInstance, b, start, max_steps: int = 10) -> SolverResult:
    """Short Tabu polish from a given assignment.

    Runs tabu_solve with both the step budget and the tabu tenure set to
    max_steps; used to clean up generated labels and neural predictions.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if max_steps == 0:
        x = as_binary_assignment(start, instance.k)
        f = instance.evaluate(b, x)
        return SolverResult(
            solver="tabu",
            x_best=x.copy(),
            f_best=f,
            iterations=0,
            evaluations=1,
            elapsed_ms=0.0,
            termination="max_steps",
            trace=[f],
        )
    params = TabuParams(max_steps=max_steps, tabu_tenure=max_steps, start=start)
    return tabu_solve(instance, b, params)


# ---------------------------------------------------------------------------
# Simulated bifurcation
# ---------------------------------------------------------------------------


@dataclass
class SabParams:
    """Ballistic simulated-bifurcation knobs.

    The bifurcation amplitude a(t) ramps linearly from 0 to a0 over the
    run.  c0 defaults to 0.5 / (||J||_F / sqrt(k)) so the coupling and
    bifurcation terms have comparable magnitude; when J is all zero the
    normalization is skipped and c0 falls back to 0.5.
    """

    steps: int = 1000
    dt: float = 0.5
    a0: float = 1.0
    c0: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.a0 <= 0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if self.c0 is not None and self.c0 <= 0:
            raise ValueError(f"c0 must be positive, got {self.c0}")


def sab_solve(instance: QuboInstance, b, params: SabParams | None = None) -> SolverResult:
    """Anneal the spin-variable relaxation with ballistic dynamics.

    The objective is rewritten in spin variables s via the binary-to-spin
    change of variables, then positions y and momenta p are integrated:

        p <- p - dt * [(a0 - a(t)) * y + c0 * ((J + J^T) y + h)]
        y <- y + dt * a0 * p

    with y clamped to [-1, 1] and the matching momentum zeroed on contact.
    The c0 term is the downhill direction of the spin energy, so the
    dynamics settle toward low objective values; each step costs one
    sparse matrix-vector product.  Rounded candidates are scored every 10
    steps and the best of those and the final point is returned.
    """
    params = params or SabParams()
    b = as_observed_vector(b, instance.k)
    k = instance.k
    t0 = time.perf_counter()

    j, h, _ = qubo_to_ising(instance, b)
    grad_op = (j + j.T).tocsr()
    if params.c0 is not None:
        c0 = params.c0
    else:
        fro = float(np.sqrt((j.data ** 2).sum())) if j.nnz else 0.0
        c0 = 0.5 / (fro / np.sqrt(k)) if fro > 0 else 0.5

    rng = np.random.default_rng(params.seed)
    y = rng.uniform(-0.1, 0.1, size=k)
    p = np.zeros(k)
    amplitudes = np.linspace(0.0, params.a0, params.steps)

    best_x = None
    best_f = np.inf
    evaluations = 0
    trace = []
    for step, a_t in enumerate(amplitudes):
        p -= params.dt * ((params.a0 - a_t) * y + c0 * (grad_op @ y + h))
        y += params.dt * params.a0 * p
        escaped = np.abs(y) > 1.0
        if escaped.any():
            y[escaped] = np.sign(y[escaped])
            p[escaped] = 0.0
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"sab state became non-finite at step {step}")
        if step % 10 == 9:
            x_t = (y > 0).astype(np.int8)
            f_t = instance.evaluate(b, x_t)
            evaluations += 1
            if f_t < best_f:
                best_f = f_t
                best_x = x_t
            trace.append(best_f)

    x_final = (y > 0).astype(np.int8)
    f_final = instance.evaluate(b, x_final)
    evaluations += 1
    if f_final < best_f:
        best_f = f_final
        best_x = x_final
    trace.append(best_f)

    elapsed = (time.perf_counter() - t0) * 1000.0
    return SolverResult(
        solver="sab",
        x_best=best_x,
        f_best=instance.evaluate(b, best_x),
        iterations=params.steps,
        evaluations=evaluations,
        elapsed_ms=elapsed,
        termination="annealed",
        trace=trace,
    )
