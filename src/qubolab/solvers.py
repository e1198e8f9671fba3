"""Classical QUBO solvers: exact enumeration, Tabu search, and a
ballistic simulated-bifurcation annealer.

Exact enumeration scores all 2^k assignments as block matrix products:
the high bits of x are walked in chunks, each chunk is scored against a
table of every low-bit assignment with one product, and a whole group of
observed vectors is scored in the same product.  Ties go to the first
minimum in lexicographic order (x_0 most significant).

All solvers return a SolverResult whose f_best is recomputed from x_best
at return time, so the invariant f_best == evaluate(x_best) holds exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .qubo import (BLOCK_STATES, QuboInstance, _flip_deltas, _product_form,
                   as_binary_assignment, as_field_matrix, as_observed_vector,
                   qubo_to_ising)


# Largest k exhaustive_solve enumerates by default (2^26 states).
EXHAUSTIVE_CAP = 26
# Bits of x tabulated once per exhaustive enumeration (2^12 assignments).
LOW_BITS = 12


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


def _bit_rows(n_bits: int, codes: np.ndarray) -> np.ndarray:
    """The n_bits-bit binary expansion of each code, most significant bit
    first, as float64 rows."""
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] >> shifts) & 1).astype(np.float64)


def exhaustive_argmins(instance: QuboInstance, b_mat,
                       cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
    """Exact minimizer of x^T A x + b^T x for every row b of b_mat (n, k).

    x splits into its first h = k - m high bits and its last m =
    min(k, LOW_BITS) low bits.  With H a chunk of high assignments and L
    all 2^m low assignments, each in lexicographic order,

        f = (H S + b_low^T) L^T + q_low^T + q_high + H b_high

    where S = A_hl + A_lh^T and q_low, q_high are the quadratic parts of
    the low and high halves alone.  L, q_low, S and each chunk's H S and
    q_high depend on A only; a field only shifts the rows of H S and adds
    a constant per row.  So a chunk is scored for a whole group of fields
    with one matrix product of [H S + b_low^T, 1, q_high + H b_high]
    (stacked over the group) and the fixed table [L, q_low, 1].

    A field's scores in a chunk are row-major in (high, low), which is
    lexicographic order, so their first argmin is the lexicographically
    smallest of the chunk's minimizers; a later chunk replaces the best
    only when strictly lower.  The result is the first minimum in
    lexicographic order (x_0 most significant).  The score block never
    exceeds BLOCK_STATES entries, whatever k <= cap and the number of
    fields.

    Returns the (n, k) int8 minimizers.
    """
    k = instance.k
    if k > cap:
        raise IntractableSizeError(
            f"intractable size: k={k} exceeds the exhaustive cap {cap}"
        )
    b_mat = as_field_matrix(b_mat, k)
    n_fields = b_mat.shape[0]
    m = min(k, LOW_BITS)
    h = k - m
    a = instance.a_csr.toarray()
    a_hh, a_ll = a[:h, :h], a[h:, h:]
    s = a[:h, h:] + a[h:, :h].T
    low = _bit_rows(m, np.arange(1 << m))
    table_t = np.column_stack([low, np.einsum("ij,ij->i", low @ a_ll, low),
                               np.ones(1 << m)]).T
    rows = min(1 << h, max(1, BLOCK_STATES >> m))  # high assignments per chunk
    group = max(1, BLOCK_STATES // (rows << m))  # fields scored per product
    scores = np.empty((min(group, n_fields) * rows, 1 << m))
    best_f = np.full(n_fields, np.inf)
    best_code = np.zeros(n_fields, dtype=np.int64)
    for first in range(0, 1 << h, rows):
        high = _bit_rows(h, np.arange(first, first + rows))
        hs = high @ s
        q_high = np.einsum("ij,ij->i", high @ a_hh, high)
        for f0 in range(0, n_fields, group):
            fields = b_mat[f0:f0 + group]
            g = len(fields)
            coef = np.empty((g, rows, m + 2))
            coef[:, :, :m] = hs + fields[:, None, h:]
            coef[:, :, m] = 1.0
            coef[:, :, m + 1] = q_high + fields[:, :h] @ high.T
            flat = np.matmul(coef.reshape(g * rows, m + 2), table_t,
                             out=scores[:g * rows]).reshape(g, -1)
            idx = flat.argmin(axis=1)
            val = flat[np.arange(g), idx]
            better = val < best_f[f0:f0 + g]
            best_f[f0:f0 + g][better] = val[better]
            best_code[f0:f0 + g][better] = (first << m) + idx[better]
    return _bit_rows(k, best_code).astype(np.int8)


def exhaustive_solve(instance: QuboInstance, b, cap: int = EXHAUSTIVE_CAP) -> SolverResult:
    """Exact global minimizer by block enumeration of all 2^k assignments.

    One row of exhaustive_argmins: the high bits of x are walked in chunks
    and each chunk is scored against every low-bit assignment with one
    matrix product.  Ties on the objective go to the first minimum in
    lexicographic order (x_0 most significant), i.e. the lexicographically
    smallest minimizer.
    """
    b = as_observed_vector(b, instance.k)
    t0 = time.perf_counter()
    x_best = exhaustive_argmins(instance, b[None, :], cap)[0]
    elapsed = (time.perf_counter() - t0) * 1000.0
    n_states = 1 << instance.k
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
    max_steps=0 scores the start (an argument of tabu_solve) and returns it.
    """

    max_steps: int = 1000
    tabu_tenure: int = 10
    patience: int | None = 50

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.tabu_tenure < 0:
            raise ValueError(f"tabu_tenure must be >= 0, got {self.tabu_tenure}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1 or None, got {self.patience}")


def _first_allowed(deltas: np.ndarray, x: np.ndarray, tabu: dict) -> int:
    """The first flip of x, in the stable ascending order of deltas, whose
    resulting point is not in tabu; -1 when every flip is tabu.

    Picks by masked argmin: take the first minimum and, while its flip is
    tabu, set that entry to +inf and take the next.  argmin returns the
    first of equal minima, so a finite pick is the first allowed entry of
    the stable argsort.  A pick that is not finite (NaN or infinite deltas,
    or every flip tabu) falls back to scanning that argsort."""

    def allowed(i) -> bool:
        x[i] ^= 1
        key = x.tobytes()
        x[i] ^= 1
        return key not in tabu

    masked = deltas
    while True:
        i = int(masked.argmin())
        if not math.isfinite(masked[i]):
            break
        if allowed(i):
            return i
        if masked is deltas:
            masked = deltas.copy()
        masked[i] = math.inf
    for i in np.argsort(deltas, kind="stable"):
        if allowed(i):
            return int(i)
    return -1


def tabu_solve(instance: QuboInstance, b, params: TabuParams | None = None,
               start=None) -> SolverResult:
    """Single-bit-flip Tabu search from the binary assignment start (all
    zeros when None).

    Each step scores all k flips of the current point, skips flips whose
    resulting assignment sits in the tabu memory, and moves to the best
    remaining neighbor even when it worsens the objective; ties go to the
    lowest index.  The pick is a masked argmin (see _first_allowed), which
    takes the first allowed entry of the flips' stable argsort without
    sorting.  Returns the best assignment seen.
    """
    params = params or TabuParams()
    b = as_observed_vector(b, instance.k)
    k = instance.k
    x = np.zeros(k, dtype=np.int8) if start is None else as_binary_assignment(start, k)
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
    # The last tabu_tenure points visited, the current one included, oldest
    # first.  A move never lands on a remembered point, so no key repeats.
    tabu: dict[bytes, None] = {}
    steps = 0
    stalled = 0
    termination = "max_steps"
    for _ in range(params.max_steps):
        tabu[x.tobytes()] = None
        if len(tabu) > params.tabu_tenure:
            del tabu[next(iter(tabu))]
        deltas = _flip_deltas(b, d, g, xf)
        evaluations += k
        chosen = _first_allowed(deltas, x, tabu)
        if chosen < 0:
            termination = "all_tabu"
            break
        f += float(deltas[chosen])
        sign = 1.0 - 2.0 * xf[chosen]
        lo, hi = indptr[chosen], indptr[chosen + 1]
        g[indices[lo:hi]] += sign * data[lo:hi]
        x[chosen] ^= 1
        xf[chosen] = x[chosen]
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


def tabu_rows(instance: QuboInstance, b_mat, starts=None,
              params: TabuParams | None = None) -> list[SolverResult]:
    """tabu_solve for every row of b_mat (n, k), run in lockstep.

    Row r starts from starts[r] (an (n, k) binary matrix; None starts every
    row from all zeros) and returns exactly what tabu_solve(instance,
    b_mat[r], params, starts[r]) returns: the same x_best, f_best,
    iterations, evaluations, termination and trace.  Each result is charged
    the stack's time divided by n.  The stack pays only once there are many
    rows, so one row is handed to tabu_solve itself.

    Each step scores the (m, k) flips of the m rows still running with one
    _flip_deltas call.  The tabu test is exact and needs no hashing: every
    row remembers the last tabu_tenure points it visited, oldest first and
    grown one step at a time, each with its Hamming distance to the current
    point.  Flipping bit i lands on a remembered point p exactly when
    x XOR p = e_i, so only points at distance 1 forbid a bit.  With the
    forbidden deltas set to +inf, the first argmin is the first allowed
    entry of tabu_solve's stable argsort whenever its value is finite; a
    row whose pick is not finite (every flip tabu, or inf/NaN deltas) takes
    the argsort rule itself.  Rows that stop are dropped from the working
    arrays.  The start and final f of every row come from one
    QuboInstance._objectives call each, evaluate's sums without its per-row
    checks, which the whole stack has already passed.
    """
    params = params or TabuParams()
    k = instance.k
    b_mat = as_field_matrix(b_mat, k)
    n = len(b_mat)
    x = np.zeros((n, k)) if starts is None else np.asarray(starts)
    if x.shape != (n, k):
        raise ValueError(f"start matrix has shape {x.shape}, expected ({n}, {k})")
    if np.any((x != 0) & (x != 1)):
        raise ValueError("assignment entries must be exactly 0 or 1")
    x = x.astype(np.int8)
    if n == 0:
        return []
    if n == 1:
        return [tabu_solve(instance, b_mat[0], params, x[0])]
    t0 = time.perf_counter()

    s = instance.a_sym_csr
    indptr, indices, data = s.indptr, s.indices, s.data
    d = instance.a_diag
    xf = x.astype(np.float64)
    g = (s @ xf.T).T
    f = instance._objectives(b_mat, x)
    b = b_mat

    best_x = x.copy()
    best_f = f.copy()
    trace = [best_f.copy()]  # best_f of every row after each step
    iterations = np.full(n, params.max_steps)
    termination = np.full(n, "max_steps", dtype=object)
    live = np.arange(n)  # the row of b_mat that each working row runs
    stalled = np.zeros(n, dtype=np.int64)
    tenure = params.tabu_tenure
    ring = np.zeros((n, 0, k), dtype=np.int8)
    dist = np.zeros((n, 0), dtype=np.int64)

    def stop(done, why, steps):
        nonlocal live, x, xf, g, b, f, stalled, ring, dist
        termination[live[done]] = why
        iterations[live[done]] = steps
        keep = ~done
        live, x, xf, g, b, f, stalled, ring, dist = (
            a[keep] for a in (live, x, xf, g, b, f, stalled, ring, dist))
        return keep

    for step in range(params.max_steps):
        if not live.size:
            break
        if tenure:
            drop = int(dist.shape[1] == tenure)  # a full memory forgets its oldest point
            ring = np.concatenate([ring[:, drop:], x[:, None]], axis=1)
            dist = np.concatenate([dist[:, drop:], np.zeros((live.size, 1), np.int64)], axis=1)
        forbidden = ((dist == 1)[:, :, None] & (ring != x[:, None, :])).any(axis=1)
        deltas = _flip_deltas(b, d, g, xf)
        masked = np.where(forbidden, np.inf, deltas)
        chosen = masked.argmin(axis=1)
        stuck = np.zeros(live.size, dtype=bool)
        for r in np.flatnonzero(~np.isfinite(masked[np.arange(live.size), chosen])):
            order = np.argsort(deltas[r], kind="stable")
            allowed = order[~forbidden[r, order]]
            if allowed.size:
                chosen[r] = allowed[0]
            else:
                stuck[r] = True
        if stuck.any():
            keep = stop(stuck, "all_tabu", step)
            deltas, chosen = deltas[keep], chosen[keep]
            if not live.size:
                break

        rows = np.arange(live.size)
        dist += np.where(ring[rows, :, chosen] == x[rows, chosen][:, None], 1, -1)
        f += deltas[rows, chosen]
        sign = 1.0 - 2.0 * xf[rows, chosen]
        # A + A^T row `chosen` of every working row, as flat CSR positions.
        lo, counts = indptr[chosen], indptr[chosen + 1] - indptr[chosen]
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
        g[np.repeat(rows, counts), indices[pos]] += np.repeat(sign, counts) * data[pos]
        x[rows, chosen] ^= 1
        xf[rows, chosen] = x[rows, chosen]

        improved = f < best_f[live]
        best_f[live[improved]] = f[improved]
        best_x[live[improved]] = x[improved]
        stalled = np.where(improved, 0, stalled + 1)
        trace.append(best_f.copy())
        if params.patience is not None:
            done = stalled >= params.patience
            if done.any():
                stop(done, "patience", step + 1)

    evaluations = 1 + k * iterations + k * (termination == "all_tabu")
    f_best = instance._objectives(b_mat, best_x).tolist()
    trace_mat = np.column_stack(trace)
    elapsed = (time.perf_counter() - t0) * 1000.0 / n
    return [
        SolverResult(
            solver="tabu",
            x_best=best_x[r],
            f_best=f_best[r],
            iterations=int(iterations[r]),
            evaluations=int(evaluations[r]),
            elapsed_ms=elapsed,
            termination=termination[r],
            trace=trace_mat[r, :iterations[r] + 1].tolist(),
        )
        for r in range(n)
    ]


def refine_with_tabu(instance: QuboInstance, b_mat, starts,
                     max_steps: int = 10) -> list[SolverResult]:
    """Short Tabu polish of a stack of guesses: row r of b_mat (n, k) is
    searched from starts[r].

    One tabu_rows call with both the step budget and the tabu tenure set
    to max_steps; the data factory polishes its rounded labels with it,
    and bpgnn+ts the network's predictions.  A zero budget returns each
    start.  The default patience of 50 applies too, so a run of more than
    50 steps can stop early.
    """
    params = TabuParams(max_steps=max_steps, tabu_tenure=max_steps)
    return tabu_rows(instance, b_mat, starts, params)


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
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.a0 < math.inf:
            raise ValueError(f"a0 must be positive and finite, got {self.a0}")
        if self.c0 is not None and not 0 < self.c0 < math.inf:
            raise ValueError(f"c0 must be positive and finite, got {self.c0}")


def sab_solve(instance: QuboInstance, b, params: SabParams | None = None) -> SolverResult:
    """Anneal the spin-variable relaxation with ballistic dynamics.

    The objective is rewritten in spin variables s via the binary-to-spin
    change of variables, then positions y and momenta p are integrated:

        p <- p - dt * [(a0 - a(t)) * y + c0 * ((J + J^T) y + h)]
        y <- y + dt * a0 * p

    with y clamped to [-1, 1] and the matching momentum zeroed on contact.
    J + J^T = (A + A^T) / 4 is taken from the instance's A + A^T.  The c0
    term is the downhill direction of the spin energy, so the dynamics
    settle toward low objective values.  Each step costs one product with
    A + A^T, held as a dense array when it stores at least a quarter of
    its k^2 entries and as CSR otherwise: qubo._product_form, the rule
    BpgnnModel applies to its graph operators.

    The rounded state x is scored every 10 steps and at the last step, and
    the best scored point is returned.  evaluate referees a scored state
    only when it might beat the best so far: a state equal to the best is
    skipped, and so is one whose screen 1/2 x.((A + A^T) x) + b.x, a cheap
    product with the same operator, exceeds the best by more than a
    rigorous bound on the two computations' rounding.  So the result is
    exactly what refereeing every scored state gives; evaluations counts
    the scored states.
    """
    params = params or SabParams()
    b = as_observed_vector(b, instance.k)
    k = instance.k
    t0 = time.perf_counter()

    _, h, _ = qubo_to_ising(instance, b)
    if params.c0 is not None:
        c0 = params.c0
    else:
        fro = 0.25 * float(np.sqrt((instance.a_csr.data ** 2).sum()))  # ||J||_F
        c0 = 0.5 / (fro / np.sqrt(k)) if fro > 0 else 0.5
    op = _product_form(instance.a_sym_csr)

    # The screen's rounding bound.  Let S = sum|vals| + sum|b|, u = 2^-53
    # and g(n) = n u / (1 - n u).  evaluate sums nnz exact products (x is
    # 0/1), then k more, then adds the two: |evaluate - f| <= g(nnz+k+1) S
    # in any summation order.  The screen rounds each entry of A + A^T
    # once, sums k terms per entry of op x and k in x.(op x) (whose terms
    # total at most 2 (1 + u) sum|vals| before the exact halving), k in
    # b.x, and adds once: |screen - f| <= g(2k+3) S.  Forming best_f + tol
    # rounds once more, by at most u (|best_f| + tol) <= u (2 S + tol), and
    # the computed S and tol fall short by a relative g(nnz+k+6) at most.
    # tol = 2 g(m) S with m = nnz + 3k + 8 covers all of these together.
    # The smallest normal double covers halving a subnormal.  When 4 S
    # overflows, evaluate's partial sums might, so nothing is skipped.
    scale = float(np.abs(instance.vals).sum() + np.abs(b).sum())
    u = 2.0 ** -53
    m = instance.nnz + 3 * k + 8
    tol = (2.0 * m * u / (1.0 - m * u) * scale + np.finfo(np.float64).tiny
           if math.isfinite(4.0 * scale) else math.inf)

    rng = np.random.default_rng(params.seed)
    y = rng.uniform(-0.1, 0.1, size=k)
    p = np.zeros(k)
    amplitudes = np.linspace(0.0, params.a0, params.steps)

    best_x = None
    best_f = np.inf
    evaluations = 0
    trace = []
    for step, a_t in enumerate(amplitudes):
        p -= params.dt * ((params.a0 - a_t) * y + c0 * (0.25 * (op @ y) + h))
        y += params.dt * params.a0 * p
        escaped = np.abs(y) > 1.0
        if escaped.any():
            y[escaped] = np.sign(y[escaped])
            p[escaped] = 0.0
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"sab state became non-finite at step {step}")
        if step % 10 == 9 or step == params.steps - 1:
            x_t = (y > 0).astype(np.int8)
            evaluations += 1
            # evaluate(b, best_x) is best_f, which is not below best_f
            if best_x is None or not np.array_equal(x_t, best_x):
                xf = x_t.astype(np.float64)
                screen = 0.5 * float(xf @ (op @ xf)) + float(b @ xf)
                bound = best_f + tol
                if not (math.isfinite(screen) and math.isfinite(bound) and screen > bound):
                    f_t = instance.evaluate(b, x_t)
                    if f_t < best_f:
                        best_f = f_t
                        best_x = x_t
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
