"""QUBO problem representation: sparse instances, objective evaluation,
residuals, instance generators, and the binary/spin change of variables.

The problem solved throughout the package is

    minimize  f(x) = x^T A x + x^T b   over  x in {0, 1}^k

with A a fixed real sparse matrix and b a varying real vector.  A is kept
exactly as generated (no implicit symmetrization); anything that needs the
symmetric part uses A + A^T explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


def as_observed_vector(b, k: int) -> np.ndarray:
    """Validate and return an observed vector as a float64 array of length k."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (k,):
        raise ValueError(f"observed vector has shape {b.shape}, expected ({k},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("observed vector contains NaN or Inf entries")
    return b


def as_binary_assignment(x, k: int) -> np.ndarray:
    """Validate and return a binary assignment as an int8 array of length k.

    Entries must be exactly 0 or 1.
    """
    x = np.asarray(x)
    if x.shape != (k,):
        raise ValueError(f"assignment has shape {x.shape}, expected ({k},)")
    xi = x.astype(np.int8, copy=True)
    if np.any((x != 0) & (x != 1)):
        raise ValueError("assignment entries must be exactly 0 or 1")
    return xi


@dataclass
class GraphView:
    """Undirected connectivity derived from the sparsity pattern of A.

    An edge {i, j} with i != j is present iff A_ij != 0 or A_ji != 0.
    Edge sign and weight are ignored here; weights are consumed only where
    an expression multiplies by A itself.
    """

    edges: np.ndarray  # (m, 2) int64, each row (i, j) with i < j
    degrees: np.ndarray  # (k,) int64

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(eq=False)
class QuboInstance:
    """Sparse QUBO matrix A of a fixed problem family.

    Stored as a coordinate list (rows, cols, vals) with no duplicate
    coordinates, exactly as generated.  Instances are immutable after
    construction and safe to share across threads.
    """

    k: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("rows, cols and vals must have identical length")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.k:
                raise ValueError(f"row index out of range [0, {self.k})")
            if self.cols.min() < 0 or self.cols.max() >= self.k:
                raise ValueError(f"col index out of range [0, {self.k})")
            flat = self.rows * self.k + self.cols
            if np.unique(flat).size != flat.size:
                raise ValueError("duplicate (row, col) coordinates are not allowed")
        if not np.all(np.isfinite(self.vals)):
            raise ValueError("matrix values must be finite")
        for a in (self.rows, self.cols, self.vals):
            a.flags.writeable = False

    @property
    def nnz(self) -> int:
        return self.vals.size

    @cached_property
    def a_csr(self) -> sp.csr_matrix:
        """Row-compressed view of A for matrix-vector products."""
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.k, self.k)
        )

    @cached_property
    def a_sym_csr(self) -> sp.csr_matrix:
        """Row-compressed view of A + A^T."""
        m = (self.a_csr + self.a_csr.T).tocsr()
        m.sort_indices()
        return m

    @cached_property
    def a_diag(self) -> np.ndarray:
        d = np.zeros(self.k)
        on_diag = self.rows == self.cols
        d[self.rows[on_diag]] = self.vals[on_diag]
        d.flags.writeable = False
        return d

    @cached_property
    def graph_view(self) -> GraphView:
        off = (self.rows != self.cols) & (self.vals != 0.0)
        i = np.minimum(self.rows[off], self.cols[off])
        j = np.maximum(self.rows[off], self.cols[off])
        edges = np.unique(np.stack([i, j], axis=1), axis=0)
        degrees = np.zeros(self.k, dtype=np.int64)
        if edges.size:
            np.add.at(degrees, edges[:, 0], 1)
            np.add.at(degrees, edges[:, 1], 1)
        return GraphView(edges=edges, degrees=degrees)

    # -- objective ------------------------------------------------------

    def evaluate(self, b, x) -> float:
        """QUBO objective x^T A x + x^T b, accumulated in double precision."""
        b = as_observed_vector(b, self.k)
        x = as_binary_assignment(x, self.k).astype(np.float64)
        quad = float(np.dot(self.vals, x[self.rows] * x[self.cols]))
        return quad + float(np.dot(b, x))

    def flip_delta(self, b, x, i: int) -> float:
        """Objective change from flipping bit i: f(flip(x, i)) - f(x).

        Computed from the nonzeros of row/column i only, so cost is
        proportional to the local degree rather than to k.
        """
        if not 0 <= i < self.k:
            raise IndexError(f"node index {i} out of range [0, {self.k})")
        b = as_observed_vector(b, self.k)
        x = as_binary_assignment(x, self.k).astype(np.float64)
        s = self.a_sym_csr
        row = s.getrow(i)
        coupling = float(row.data @ x[row.indices]) - 2.0 * self.a_diag[i] * x[i]
        delta = 1.0 - 2.0 * x[i]
        return delta * (b[i] + self.a_diag[i] + coupling)

    def all_flip_deltas(self, b, x) -> np.ndarray:
        """Vector of flip_delta(b, x, i) for every i, via one (A+A^T) product."""
        b = as_observed_vector(b, self.k)
        x = as_binary_assignment(x, self.k).astype(np.float64)
        g = self.a_sym_csr @ x
        return (1.0 - 2.0 * x) * (b + self.a_diag + g - 2.0 * self.a_diag * x)

    def residual(self, b, x_like) -> np.ndarray:
        """Nodal residual x * (A x + b), elementwise.

        Accepts a real-valued vector as well as a binary assignment; for
        binary x the residual entries sum to the objective value.
        """
        b = as_observed_vector(b, self.k)
        x = np.asarray(x_like, dtype=np.float64)
        if x.shape != (self.k,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.k},)")
        return x * (self.a_csr @ x + b)

    def __repr__(self) -> str:
        gen = self.meta.get("generator", "?")
        return f"QuboInstance(k={self.k}, nnz={self.nnz}, generator={gen!r})"


def rel_gaps(instance: QuboInstance, b, x_ref, x_pred) -> np.ndarray:
    """Relative objective gaps (f_pred - f_ref) / |f_ref|, one per row of
    b, x_ref and x_pred (each (n, k)).  The gap is undefined when |f_ref|
    <= 1e-12 (e.g. an all-zeros optimum); those rows are left out."""

    def objectives(x) -> np.ndarray:
        return np.sum(x * (instance.a_csr @ x.T).T + x * b, axis=1)

    f_ref = objectives(x_ref)
    defined = np.abs(f_ref) > 1e-12
    f_ref = f_ref[defined]
    return (objectives(x_pred)[defined] - f_ref) / np.abs(f_ref)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_random_dense(k: int, seed: int, scale: float = 1.0) -> QuboInstance:
    """Dense random instance: A entries i.i.d. standard normal times scale.

    Deterministic per (k, seed); all k*k entries are stored in row-major
    coordinate order.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) * scale
    rows, cols = np.divmod(np.arange(k * k, dtype=np.int64), k)
    meta = {"generator": "random_dense", "seed": int(seed), "tags": {"scale": scale}}
    return QuboInstance(k=k, rows=rows, cols=cols, vals=a.ravel(), meta=meta)


def gen_lattice_laplacian(n: int) -> QuboInstance:
    """Graph Laplacian of the n x n 4-neighbor grid (k = n^2).

    A_ii = degree(i), A_ij = -1 for grid neighbors; symmetric with zero
    row sums.
    """
    if n < 2:
        raise ValueError(f"side length must be at least 2, got {n}")
    k = n * n
    rows, cols, vals = [], [], []
    for r in range(n):
        for c in range(n):
            i = r * n + c
            nbrs = []
            if r > 0:
                nbrs.append(i - n)
            if r < n - 1:
                nbrs.append(i + n)
            if c > 0:
                nbrs.append(i - 1)
            if c < n - 1:
                nbrs.append(i + 1)
            rows.append(i)
            cols.append(i)
            vals.append(float(len(nbrs)))
            for j in sorted(nbrs):
                rows.append(i)
                cols.append(j)
                vals.append(-1.0)
    meta = {"generator": "lattice_laplacian", "seed": None, "tags": {"side": n}}
    return QuboInstance(k=k, rows=np.array(rows), cols=np.array(cols),
                        vals=np.array(vals), meta=meta)


def lattice_adjacency(n: int) -> np.ndarray:
    """Binary adjacency matrix of the n x n 4-neighbor grid."""
    if n < 2:
        raise ValueError(f"side length must be at least 2, got {n}")
    k = n * n
    a = np.zeros((k, k), dtype=np.float64)
    for r in range(n):
        for c in range(n):
            i = r * n + c
            if r < n - 1:
                a[i, i + n] = a[i + n, i] = 1.0
            if c < n - 1:
                a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def gen_ising(adjacency, b_scalar: float) -> tuple[QuboInstance, np.ndarray]:
    """Ising model with constant field as a QUBO pair:

        I(x) = x^T A x - b_scalar * x^T e   ==   f(x; b = -b_scalar * e, A)

    The adjacency is stored verbatim (whether the caller supplies both
    triangles or only one decides whether each edge is counted twice or
    once in the objective).
    """
    if sp.issparse(adjacency):
        coo = adjacency.tocoo()
        k = coo.shape[0]
        rows, cols, vals = coo.row, coo.col, coo.data
    else:
        a = np.asarray(adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        k = a.shape[0]
        rows, cols = np.nonzero(a)
        vals = a[rows, cols]
    if np.any((vals != 0.0) & (vals != 1.0)):
        raise ValueError("adjacency must be binary (entries 0 or 1)")
    if np.any(rows == cols):
        raise ValueError("adjacency must have a zero diagonal")
    meta = {"generator": "ising", "seed": None, "tags": {"b_scalar": float(b_scalar)}}
    inst = QuboInstance(k=k, rows=rows, cols=cols, vals=vals, meta=meta)
    b = np.full(k, -float(b_scalar))
    return inst, b


# ---------------------------------------------------------------------------
# Binary <-> spin change of variables
# ---------------------------------------------------------------------------


def qubo_to_ising(instance: QuboInstance, b) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """Rewrite the QUBO objective in spin variables s in {-1, +1}^k.

    With x = (s + 1) / 2:

        f(x) = s^T J s + h^T s + c,
        J = A / 4,
        h = (A + A^T) e / 4 + b / 2,
        c = e^T A e / 4 + b^T e / 2.

    Returns (J, h, c) with J sparse.  The identity f(x) = energy(s) + 0
    holds exactly for every assignment.
    """
    b = as_observed_vector(b, instance.k)
    j = (instance.a_csr / 4.0).tocsr()
    row_plus_col = np.asarray(instance.a_csr.sum(axis=1)).ravel() \
        + np.asarray(instance.a_csr.sum(axis=0)).ravel()
    h = row_plus_col / 4.0 + b / 2.0
    c = float(instance.vals.sum()) / 4.0 + float(b.sum()) / 2.0
    return j, h, c


def ising_energy(j: sp.spmatrix, h: np.ndarray, c: float, s: np.ndarray) -> float:
    """Energy s^T J s + h^T s + c of a spin configuration s in {-1, +1}^k."""
    s = np.asarray(s, dtype=np.float64)
    return float(s @ (j @ s)) + float(h @ s) + c
