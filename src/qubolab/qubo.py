"""QUBO problem representation: sparse instances, objective evaluation,
residuals, instance generators, and the binary/spin change of variables.

The problem solved throughout the package is

    minimize  f(x) = x^T A x + x^T b   over  x in {0, 1}^k

with A a fixed real sparse matrix and b a varying real vector.  A is kept
exactly as generated (no implicit symmetrization); anything that needs the
symmetric part uses A + A^T explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


# Float64 entries in one block of exhaustive scores or objective products.
BLOCK_STATES = 1 << 20


def _is_dense(nnz: int, k: int) -> bool:
    """Whether k x k products with nnz stored entries run dense: at least a
    quarter of the k^2 entries, where sparse indexing no longer pays."""
    return 4 * nnz >= k * k


def _product_form(m: sp.csr_matrix):
    """A square CSR operator in the form its products run in: a dense
    array where _is_dense, and the CSR otherwise."""
    return m.toarray() if _is_dense(m.nnz, m.shape[0]) else m


def as_observed_vector(b, k: int) -> np.ndarray:
    """Validate and return an observed vector as a float64 array of length k."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (k,):
        raise ValueError(f"observed vector has shape {b.shape}, expected ({k},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("observed vector contains NaN or Inf entries")
    return b


def as_field_matrix(b_mat, k: int) -> np.ndarray:
    """Validate and return observed vectors as a float64 (n, k) stack."""
    b_mat = np.asarray(b_mat, dtype=np.float64)
    if b_mat.ndim != 2 or b_mat.shape[1] != k:
        raise ValueError(f"field matrix has shape {b_mat.shape}, expected (n, {k})")
    if not np.all(np.isfinite(b_mat)):
        raise ValueError("field matrix contains NaN or Inf entries")
    return b_mat


def as_binary_assignment(x, k: int) -> np.ndarray:
    """Validate and return a binary assignment as an int8 array of length k.

    Entries must be exactly 0 or 1.
    """
    x = np.asarray(x)
    if x.shape != (k,):
        raise ValueError(f"assignment has shape {x.shape}, expected ({k},)")
    if np.any((x != 0) & (x != 1)):
        raise ValueError("assignment entries must be exactly 0 or 1")
    return x.astype(np.int8, copy=True)


class _RowError(ValueError):
    """A columnar value check's refusal.  check names the rule that refused
    ('b', 'x' or 'split' for a Dataset; 'vals', 'index' or 'duplicate' for
    a QuboInstance), and row is the first row that the rule refuses."""

    def __init__(self, why: str, check: str, row: int):
        super().__init__(why)
        self.check, self.row = check, row


@dataclass(eq=False)
class QuboInstance:
    """Sparse QUBO matrix A of a fixed problem family.

    Stored as a coordinate list (rows, cols, vals) with no duplicate
    coordinates, exactly as generated.  Instances are immutable after
    construction and safe to share across threads.

    These are the only checks of an instance's values: a _RowError names the
    first entry with a non-finite value ('vals') or an index outside [0, k)
    ('index'), and only if there is none, the first repeat ('duplicate').
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
        non_finite = ~np.isfinite(self.vals)
        bad = (non_finite | (self.rows < 0) | (self.rows >= self.k)
               | (self.cols < 0) | (self.cols >= self.k))
        if bad.any():
            entry = int(bad.argmax())
            if non_finite[entry]:
                raise _RowError("matrix values must be finite", "vals", entry)
            raise _RowError(f"index out of range [0, {self.k})", "index", entry)
        flat = self.rows * self.k + self.cols
        if np.any(np.diff(np.sort(flat)) == 0):
            repeated = np.ones(flat.size, dtype=bool)  # not a first occurrence
            repeated[np.unique(flat, return_index=True)[1]] = False
            raise _RowError("duplicate (row, col) coordinates are not allowed",
                            "duplicate", int(repeated.argmax()))
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
    def edges(self) -> np.ndarray:
        """Undirected connectivity of A's sparsity pattern: a read-only
        (m, 2) int64 array of the pairs i < j with A_ij != 0 or A_ji != 0,
        sorted and unique.  Diagonal entries, signs and weights are ignored;
        weights enter only where an expression multiplies by A itself."""
        off = (self.rows != self.cols) & (self.vals != 0.0)
        i = np.minimum(self.rows[off], self.cols[off])
        j = np.maximum(self.rows[off], self.cols[off])
        edges = np.unique(np.stack([i, j], axis=1), axis=0)
        edges.flags.writeable = False
        return edges

    @cached_property
    def _flat_index(self) -> np.ndarray:
        """rows * k + cols: each entry's place in a row-major k x k grid."""
        return self.rows * self.k + self.cols

    # -- objective ------------------------------------------------------

    def evaluate(self, b, x) -> float:
        """QUBO objective x^T A x + x^T b: the (1, k) call of _objectives."""
        return float(self._objectives(as_observed_vector(b, self.k)[None],
                                      as_binary_assignment(x, self.k)[None])[0])

    def _objectives(self, b_mat: np.ndarray, x_mat: np.ndarray) -> np.ndarray:
        """f of every row of a float64 (n, k) b_mat and a 0/1 (n, k) x_mat,
        unchecked.  Both sums are numpy's pairwise add.reduce along the rows
        of C-order products, with no BLAS, so row r has the bits of the
        (1, k) call on it alone under any thread count and either stack's
        layout (a Fortran-order product would be summed in another order).
        Rows go in blocks of at most BLOCK_STATES products.  A dense
        instance (_is_dense) gathers the products x_i x_j from each row's
        outer product, through the flat index rows * k + cols; a sparse one
        takes x at rows and at cols.  Both give the same products in the
        same order, so the same bits.
        """
        f = np.empty(len(x_mat))
        step = max(1, BLOCK_STATES // max(self.nnz, self.k))
        for lo in range(0, len(f), step):
            x = x_mat[lo:lo + step].astype(bool)
            if _is_dense(self.nnz, self.k):
                outer = x[:, :, None] & x[:, None, :]
                pairs = np.take(outer.reshape(len(x), -1), self._flat_index, axis=1)
            else:
                pairs = np.take(x, self.rows, axis=1)
                pairs &= np.take(x, self.cols, axis=1)
            quad = np.add.reduce(np.multiply(self.vals, pairs, order="C"), axis=1)
            lin = np.add.reduce(np.multiply(b_mat[lo:lo + step], x, order="C"), axis=1)
            f[lo:lo + step] = quad + lin
        return f

    def flip_delta(self, b, x, i: int) -> float:
        """Objective change from flipping bit i: f(flip(x, i)) - f(x).

        Entry i of all_flip_deltas.
        """
        if not 0 <= i < self.k:
            raise IndexError(f"node index {i} out of range [0, {self.k})")
        return float(self.all_flip_deltas(b, x)[i])

    def all_flip_deltas(self, b, x) -> np.ndarray:
        """Vector of flip_delta(b, x, i) for every i, via one (A+A^T) product."""
        b = as_observed_vector(b, self.k)
        x = as_binary_assignment(x, self.k).astype(np.float64)
        return _flip_deltas(b, self.a_diag, self.a_sym_csr @ x, x)

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


def _flip_deltas(b, d, g, x) -> np.ndarray:
    """f(flip(x, i)) - f(x) for every i, given d = diag(A) and g = (A + A^T) x
    with x as float64; unvalidated, for the solvers' inner loops."""
    return (1.0 - 2.0 * x) * (b + d + g - 2.0 * d * x)


def rel_gaps(instance: QuboInstance, b, x_ref, x_pred) -> np.ndarray:
    """Relative objective gaps (f_pred - f_ref) / |f_ref|, one per row of
    b, x_ref and x_pred (each (n, k)).  The gap is undefined when |f_ref|
    <= 1e-12 (e.g. an all-zeros optimum); those rows are left out."""
    f_ref = instance._objectives(b, x_ref)
    defined = np.abs(f_ref) > 1e-12
    f_ref = f_ref[defined]
    return (instance._objectives(b, x_pred)[defined] - f_ref) / np.abs(f_ref)


def accuracy(x_o, x_p) -> float:
    """Fraction of positions where the two assignments agree; for (n, k)
    stacks, of all n*k bits."""
    x_o = np.asarray(x_o)
    x_p = np.asarray(x_p)
    if x_o.shape != x_p.shape:
        raise ValueError(f"length mismatch: {x_o.shape} vs {x_p.shape}")
    return float(np.mean(x_o == x_p))


def scores(instance: QuboInstance, b, x_ref, x_pred) -> tuple[float, float]:
    """The two scores of predictions x_pred against references x_ref, rows
    of b (each (n, k)): the accuracy of all n*k bits and the mean of
    rel_gaps, NaN when no row has a gap.  Training's validation and every
    evaluation row report these."""
    gaps = rel_gaps(instance, b, x_ref, x_pred)
    return accuracy(x_ref, x_pred), float(np.mean(gaps)) if gaps.size else math.nan


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
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) * scale
    rows, cols = np.divmod(np.arange(k * k, dtype=np.int64), k)
    meta = {"generator": "random_dense", "seed": int(seed), "tags": {"scale": scale}}
    return QuboInstance(k=k, rows=rows, cols=cols, vals=a.ravel(), meta=meta)


def _grid_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both directions (src, dst) of every edge of the n x n 4-neighbor
    grid, node r * n + c at row r and column c."""
    if n < 2:
        raise ValueError(f"side length must be at least 2, got {n}")
    node = np.arange(n * n, dtype=np.int64).reshape(n, n)
    lo = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    hi = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    return np.concatenate([lo, hi]), np.concatenate([hi, lo])


def gen_lattice_laplacian(n: int) -> QuboInstance:
    """Graph Laplacian diag(degree) - adjacency of the n x n 4-neighbor
    grid (k = n^2); symmetric with zero row sums.

    Entries are stored row by row, each row's diagonal first and then its
    neighbors in ascending order.
    """
    src, dst = _grid_edges(n)
    k = n * n
    diag = np.arange(k, dtype=np.int64)
    rows = np.concatenate([diag, src])
    cols = np.concatenate([diag, dst])
    vals = np.concatenate([np.bincount(src, minlength=k).astype(np.float64),
                           np.full(src.size, -1.0)])
    order = np.lexsort((np.where(rows == cols, -1, cols), rows))
    meta = {"generator": "lattice_laplacian", "seed": None, "tags": {"side": n}}
    return QuboInstance(k=k, rows=rows[order], cols=cols[order],
                        vals=vals[order], meta=meta)


def lattice_adjacency(n: int) -> np.ndarray:
    """Binary adjacency matrix of the n x n 4-neighbor grid."""
    src, dst = _grid_edges(n)
    a = np.zeros((n * n, n * n), dtype=np.float64)
    a[src, dst] = 1.0
    return a


def gen_ising(adjacency: np.ndarray, b_scalar: float) -> tuple[QuboInstance, np.ndarray]:
    """Ising model with constant field as a QUBO pair:

        I(x) = x^T A x - b_scalar * x^T e   ==   f(x; b = -b_scalar * e, A)

    The adjacency is a dense square array, stored verbatim (whether the
    caller supplies both triangles or only one decides whether each edge
    is counted twice or once in the objective).
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if np.any((a != 0.0) & (a != 1.0)):
        raise ValueError("adjacency must be binary (entries 0 or 1)")
    if np.any(np.diag(a)):
        raise ValueError("adjacency must have a zero diagonal")
    if not math.isfinite(b_scalar):
        raise ValueError(f"b_scalar must be finite, got {b_scalar}")
    k = a.shape[0]
    rows, cols = np.nonzero(a)
    meta = {"generator": "ising", "seed": None, "tags": {"b_scalar": float(b_scalar)}}
    inst = QuboInstance(k=k, rows=rows, cols=cols, vals=a[rows, cols], meta=meta)
    return inst, np.full(k, -float(b_scalar))


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
