"""Problem representation: validation, objective algebra, generators,
and the binary/spin change of variables."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab import (Dataset, QuboInstance, TabuParams, gen_ising,
                     gen_lattice_laplacian, gen_random_dense, ising_energy,
                     lattice_adjacency, qubo_to_ising, tabu_rows)
from qubolab import qubo
from qubolab.qubo import as_binary_assignment, as_observed_vector, rel_gaps

from conftest import tiny_instance


def random_case(k: int, seed: int):
    """One (instance, b, x) triple, deterministic per (k, seed)."""
    rng = np.random.default_rng(seed)
    inst = gen_random_dense(k, seed)
    b = rng.normal(size=k)
    x = rng.integers(0, 2, size=k).astype(np.int8)
    return inst, b, x


class TestValidators:
    def test_observed_vector_passes_through(self):
        b = as_observed_vector([1, 2.5], 2)
        assert b.dtype == np.float64
        assert b.tolist() == [1.0, 2.5]

    def test_observed_vector_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected"):
            as_observed_vector([1.0], 2)

    def test_observed_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_observed_vector([np.nan, 0.0], 2)

    def test_binary_assignment_accepts_floats_that_are_bits(self):
        x = as_binary_assignment([0.0, 1.0], 2)
        assert x.dtype == np.int8
        assert x.tolist() == [0, 1]

    def test_binary_assignment_rejects_fractions(self):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            as_binary_assignment([0.5, 1.0], 2)

    @pytest.mark.parametrize("bad", [1e400, np.nan], ids=["inf", "nan"])
    def test_binary_assignment_rejects_non_finite_before_any_cast(self, bad):
        # checked before the int8 cast, which would warn on inf and NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exactly 0 or 1"):
                as_binary_assignment([bad, 0.0], 2)

    def test_binary_assignment_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            as_binary_assignment([[0, 1]], 2)


class TestQuboInstance:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            QuboInstance(k=0, rows=[], cols=[], vals=[])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="identical length"):
            QuboInstance(k=2, rows=[0], cols=[0, 1], vals=[1.0, 2.0])

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="out of range"):
            QuboInstance(k=2, rows=[2], cols=[0], vals=[1.0])

    def test_rejects_duplicate_coordinates(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuboInstance(k=2, rows=[0, 0], cols=[1, 1], vals=[1.0, 2.0])

    def test_rejects_repeats_apart_in_input_order(self):
        # (0, 1) and (2, 2) each appear twice, never next to each other
        with pytest.raises(ValueError, match="duplicate"):
            QuboInstance(k=3, rows=[0, 2, 1, 0, 2], cols=[1, 2, 0, 1, 2],
                         vals=[1.0, 2.0, 3.0, 4.0, 5.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            QuboInstance(k=1, rows=[0], cols=[0], vals=[np.inf])

    @pytest.mark.parametrize("rows,cols,vals,check,row", [
        # a value fault anywhere outranks an earlier repeat
        ([0, 0, 2, 1], [1, 1, 0, 0], [1.0, 2.0, 3.0, np.nan], "index", 2),
        ([0, 0, 1, 2], [1, 1, 0, 0], [1.0, 2.0, np.inf, 3.0], "vals", 2),
        # an entry with both faults is a value fault
        ([0, 5], [1, 0], [1.0, -np.inf], "vals", 1),
        # the second occurrence of the first coordinate given twice
        ([1, 0, 0, 1, 0], [1, 1, 0, 1, 1], [1.0, 2.0, 3.0, 4.0, 5.0], "duplicate", 3),
    ], ids=["index", "vals", "both", "duplicate"])
    def test_refusal_names_the_first_entry_refused(self, rows, cols, vals, check, row):
        with pytest.raises(qubo._RowError) as caught:
            QuboInstance(k=2, rows=rows, cols=cols, vals=vals)
        assert (caught.value.check, caught.value.row) == (check, row)

    def test_dataset_refuses_with_the_same_row_error(self):
        b = np.zeros((3, 2))
        b[1, 0] = np.nan
        with pytest.raises(qubo._RowError) as caught:
            Dataset("ref", 2, {}, b, np.zeros((3, 2)), ["train"] * 3)
        assert (caught.value.check, caught.value.row) == ("b", 1)

    def test_arrays_are_frozen(self, k2_instance):
        with pytest.raises(ValueError):
            k2_instance.vals[0] = 7.0

    def test_nnz_counts_stored_entries(self, k2_instance):
        assert k2_instance.nnz == 1

    def test_asymmetric_storage_is_preserved(self):
        inst = QuboInstance(k=2, rows=[0, 1], cols=[1, 0], vals=[2.0, 5.0])
        dense = inst.a_csr.toarray()
        assert dense[0, 1] == 2.0 and dense[1, 0] == 5.0
        sym = inst.a_sym_csr.toarray()
        assert sym[0, 1] == sym[1, 0] == 7.0

    def test_diag_extraction(self):
        inst = QuboInstance(k=3, rows=[1, 0], cols=[1, 2], vals=[4.0, 1.0])
        assert inst.a_diag.tolist() == [0.0, 4.0, 0.0]

    def test_graph_view_merges_both_triangles(self):
        inst = QuboInstance(k=3, rows=[0, 1, 2], cols=[1, 0, 2], vals=[1.0, 1.0, 3.0])
        gv = inst.graph_view
        assert gv.edges.tolist() == [[0, 1]]
        assert gv.degrees.tolist() == [1, 1, 0]
        assert gv.num_edges == 1

    def test_graph_view_ignores_explicit_zeros(self):
        inst = QuboInstance(k=2, rows=[0], cols=[1], vals=[0.0])
        assert inst.graph_view.num_edges == 0


class TestObjective:
    def test_hand_value(self, k2_instance):
        # f([1, 1]) = 1 + b0 + b1
        assert k2_instance.evaluate([-1.0, 0.5], [1, 1]) == pytest.approx(0.5)
        assert k2_instance.evaluate([-1.0, 0.5], [1, 0]) == pytest.approx(-1.0)
        assert k2_instance.evaluate([-1.0, 0.5], [0, 0]) == 0.0

    def test_empty_matrix_is_linear(self):
        inst = QuboInstance(k=3, rows=[], cols=[], vals=[])
        assert inst.evaluate([1.0, 2.0, 3.0], [1, 0, 1]) == pytest.approx(4.0)

    def test_same_bits_whatever_the_layout_of_b(self):
        # Rows of a Fortran-order stack and every third column of a wider
        # array are strided; evaluate sums them as it sums a contiguous copy.
        inst = gen_lattice_laplacian(8)
        rng = np.random.default_rng(0)
        b = rng.normal(size=(50, 64)) * 10.0 ** rng.integers(-8, 9, size=(50, 64))
        x = rng.integers(0, 2, size=(50, 64))
        wide = np.zeros((50, 3 * 64))
        wide[:, ::3] = b
        for strided in (np.asfortranarray(b), wide[:, ::3]):
            assert not strided[0].flags.c_contiguous
            for r in range(50):
                assert (inst.evaluate(strided[r], x[r]).hex()
                        == inst.evaluate(b[r].copy(), x[r].copy()).hex())

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_residual_sums_to_objective(self, k, seed):
        inst, b, x = random_case(k, seed)
        r = inst.residual(b, x)
        assert np.sum(r) == pytest.approx(inst.evaluate(b, x), abs=1e-9)

    def test_residual_accepts_real_vectors(self, k2_instance):
        # A is used as stored, so x * (A x + b) = [0.5 * 0.5, 0.5 * 0]
        # and the entries still sum to x^T A x + x^T b
        r = k2_instance.residual([0.0, 0.0], [0.5, 0.5])
        assert r == pytest.approx(np.array([0.25, 0.0]))
        assert np.sum(r) == pytest.approx(0.25)

    def test_residual_rejects_wrong_shape(self, k2_instance):
        with pytest.raises(ValueError, match="shape"):
            k2_instance.residual([0.0, 0.0], [0.5])

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 6), seed=st.integers(0, 10_000),
           i=st.integers(0, 5))
    def test_flip_delta_matches_evaluate_difference(self, k, seed, i):
        inst, b, x = random_case(k, seed)
        i = i % k
        flipped = x.copy()
        flipped[i] ^= 1
        expected = inst.evaluate(b, flipped) - inst.evaluate(b, x)
        assert inst.flip_delta(b, x, i) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_flip_delta_rejects_bad_index(self, k2_instance):
        with pytest.raises(IndexError):
            k2_instance.flip_delta([0.0, 0.0], [0, 0], 2)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_all_flip_deltas_matches_scalar_version(self, k, seed):
        inst, b, x = random_case(k, seed)
        batch = inst.all_flip_deltas(b, x)
        singles = [inst.flip_delta(b, x, i) for i in range(k)]
        assert batch == pytest.approx(singles, rel=1e-9, abs=1e-12)


def objective_case(inst: QuboInstance, n: int, seed: int):
    """n fields with entries across 17 decades, and n binary states."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, inst.k)) * 10.0 ** rng.integers(-8, 9, size=(n, inst.k))
    return b, rng.integers(0, 2, size=(n, inst.k)).astype(np.int8)


def layouts(m: np.ndarray) -> dict:
    """m as a C-order, a Fortran-order and a column-strided stack."""
    wide = np.zeros((m.shape[0], 3 * m.shape[1]), dtype=m.dtype)
    wide[:, 1::3] = m
    return {"c": np.ascontiguousarray(m), "fortran": np.asfortranarray(m),
            "strided": wide[:, 1::3]}


class TestObjectives:
    """QuboInstance._objectives, the one objective: row r has the bits of
    the (1, k) call on row r alone, in any layout and block."""

    @pytest.mark.parametrize("n", [0, 1, 7, 400, 2000])
    @pytest.mark.parametrize("inst", [
        gen_random_dense(64, 1),  # 256 rows per block: 400 and 2000 cross
        gen_lattice_laplacian(8),
        QuboInstance(k=5, rows=[], cols=[], vals=[]),  # the empty matrix
    ], ids=["dense-64", "lattice-8", "empty"])
    def test_rows_have_the_bits_of_one_row_calls(self, inst, n):
        b, x = objective_case(inst, n, seed=n)
        want = [inst.evaluate(b[r], x[r]).hex() for r in range(n)]
        for (name, b_mat), x_mat in zip(layouts(b).items(), layouts(x).values()):
            got = inst._objectives(b_mat, x_mat)
            assert got.shape == (n,)
            assert [v.hex() for v in got] == want, name

    def test_a_stack_that_crosses_a_block_at_k400(self):
        # 2^20 // 160,000 = 6 rows per block, so row 6 opens the second one
        inst = gen_random_dense(400, 2)
        assert qubo.BLOCK_STATES // inst.nnz == 6
        b, x = objective_case(inst, 7, seed=3)
        want = [inst.evaluate(b[r], x[r]).hex() for r in range(7)]
        for b_mat, x_mat in zip(layouts(b).values(), layouts(x).values()):
            assert [v.hex() for v in inst._objectives(b_mat, x_mat)] == want

    def test_blocks_of_one_row(self, monkeypatch):
        inst = gen_lattice_laplacian(4)
        b, x = objective_case(inst, 9, seed=4)
        want = inst._objectives(b, x).tolist()
        monkeypatch.setattr(qubo, "BLOCK_STATES", 1)
        assert inst._objectives(b, x).tolist() == want

    def test_is_within_the_summation_bound_of_the_exact_sum(self):
        # Any order of n additions errs by at most n u sum|terms|, u = 2^-53.
        inst = gen_random_dense(30, 5)
        b, x = objective_case(inst, 20, seed=5)
        for b_row, x_row, got in zip(b, x, inst._objectives(b, x)):
            terms = np.r_[inst.vals * (x_row[inst.rows] * x_row[inst.cols]), b_row * x_row]
            bound = terms.size * 2.0 ** -53 * math.fsum(np.abs(terms))
            assert abs(got - math.fsum(terms)) <= bound

    def test_same_bits_under_one_and_two_blas_threads(self):
        # np.dot would split its sums between BLAS threads
        script = (
            "import numpy as np\n"
            "from qubolab import gen_random_dense\n"
            "inst = gen_random_dense(400, 7)\n"
            "rng = np.random.default_rng(8)\n"
            "for _ in range(25):\n"
            "    b = rng.normal(size=400)\n"
            "    x = rng.integers(0, 2, size=400)\n"
            "    print(inst.evaluate(b, x).hex())\n")
        src = str(pathlib.Path(qubo.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout.split())
        assert len(outputs[0]) == 25
        assert outputs[0] == outputs[1]

    def test_tabu_rows_referees_in_bounded_memory(self, monkeypatch):
        # Unblocked, a 1682-row stack at k=400 dense would hold 1682 * 160,000
        # products: more than 2 GB.
        inst = gen_random_dense(400, 9)
        b, x = objective_case(inst, 1682, seed=10)
        objectives = QuboInstance._objectives
        peaks = []

        def traced(self, b_mat, x_mat):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            f = objectives(self, b_mat, x_mat)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return f

        monkeypatch.setattr(QuboInstance, "_objectives", traced)
        tracemalloc.start()
        try:
            got = tabu_rows(inst, b, x, TabuParams(max_steps=1, tabu_tenure=1))
        finally:
            tracemalloc.stop()
        assert len(got) == 1682 and len(peaks) == 2
        assert max(peaks) < 16 * 2 ** 20


class TestRelGaps:
    def test_matches_per_row_evaluation_and_skips_zero_references(self):
        inst = gen_random_dense(7, 3)
        rng = np.random.default_rng(4)
        b = rng.normal(size=(6, 7))
        x_ref = rng.integers(0, 2, size=(6, 7)).astype(np.int8)
        x_pred = rng.integers(0, 2, size=(6, 7)).astype(np.int8)
        x_ref[2] = 0  # f_ref = 0: no defined gap
        expected = []
        for row_b, row_ref, row_pred in zip(b, x_ref, x_pred):
            f_ref = inst.evaluate(row_b, row_ref)
            if abs(f_ref) > 1e-12:
                f_pred = inst.evaluate(row_b, row_pred)
                expected.append((f_pred - f_ref) / abs(f_ref))
        got = rel_gaps(inst, b, x_ref, x_pred)
        assert len(got) == 5
        assert got.tolist() == expected  # the one objective, so the same bits


class TestGenerators:
    def test_random_dense_stores_every_entry(self):
        inst = gen_random_dense(4, 0)
        assert inst.nnz == 16
        assert inst.meta["generator"] == "random_dense"
        assert inst.meta["seed"] == 0
        assert inst.meta["tags"] == {"scale": 1.0}

    def test_random_dense_is_deterministic(self):
        a = gen_random_dense(5, 123)
        b = gen_random_dense(5, 123)
        assert np.array_equal(a.vals, b.vals)
        assert not np.array_equal(a.vals, gen_random_dense(5, 124).vals)

    def test_random_dense_scale_is_multiplicative(self):
        base = gen_random_dense(4, 9, scale=1.0)
        scaled = gen_random_dense(4, 9, scale=0.25)
        assert scaled.vals == pytest.approx(0.25 * base.vals)

    def test_random_dense_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="positive"):
            gen_random_dense(0, 0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_random_dense_rejects_a_non_finite_scale_by_name(self, scale):
        with pytest.raises(ValueError, match="scale must be finite"):
            gen_random_dense(4, 0, scale=scale)

    def test_lattice_laplacian_2x2(self):
        inst = gen_lattice_laplacian(2)
        dense = inst.a_csr.toarray()
        expected = np.array([
            [2.0, -1.0, -1.0, 0.0],
            [-1.0, 2.0, 0.0, -1.0],
            [-1.0, 0.0, 2.0, -1.0],
            [0.0, -1.0, -1.0, 2.0],
        ])
        assert np.array_equal(dense, expected)

    def test_lattice_laplacian_3x3_coordinates(self):
        # row-major, each row's diagonal first, then its neighbors ascending
        inst = gen_lattice_laplacian(3)
        assert inst.rows.tolist() == [0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                      3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5,
                                      6, 6, 6, 7, 7, 7, 7, 8, 8, 8]
        assert inst.cols.tolist() == [0, 1, 3, 1, 0, 2, 4, 2, 1, 5,
                                      3, 0, 4, 6, 4, 1, 3, 5, 7, 5, 2, 4, 8,
                                      6, 3, 7, 7, 4, 6, 8, 8, 5, 7]
        degree = {0: 2.0, 1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 3.0, 6: 2.0,
                  7: 3.0, 8: 2.0}
        assert inst.vals.tolist() == [degree[r] if r == c else -1.0
                                      for r, c in zip(inst.rows.tolist(),
                                                      inst.cols.tolist())]
        assert inst.rows.dtype == inst.cols.dtype == np.int64
        assert inst.vals.dtype == np.float64

    def test_lattice_laplacian_rows_sum_to_zero(self):
        dense = gen_lattice_laplacian(4).a_csr.toarray()
        assert np.allclose(dense.sum(axis=1), 0.0)
        assert np.array_equal(dense, dense.T)

    def test_lattice_laplacian_rejects_tiny_side(self):
        with pytest.raises(ValueError, match="at least 2"):
            gen_lattice_laplacian(1)

    def test_lattice_adjacency_structure(self):
        adj = lattice_adjacency(3)
        assert adj.shape == (9, 9)
        assert np.array_equal(adj, adj.T)
        assert set(np.unique(adj)) == {0.0, 1.0}
        # 2 * n * (n - 1) undirected edges, each stored twice
        assert np.count_nonzero(adj) == 2 * 2 * 3 * 2
        lap = gen_lattice_laplacian(3).a_csr.toarray()
        assert np.array_equal(adj, np.diag(np.diag(lap)) - lap)

    def test_gen_ising_builds_negated_constant_field(self):
        inst, b = gen_ising(lattice_adjacency(2), 1.5)
        assert np.all(b == -1.5)
        assert inst.meta["generator"] == "ising"
        x = np.array([1, 1, 0, 0], dtype=np.int8)
        # two coupled endpoints of one edge (counted twice) minus the field
        assert inst.evaluate(b, x) == pytest.approx(2.0 - 3.0)

    def test_gen_ising_rejects_weighted_adjacency(self):
        adj = lattice_adjacency(2)
        adj[0, 1] = adj[1, 0] = 2.0
        with pytest.raises(ValueError, match="binary"):
            gen_ising(adj, 0.0)

    def test_gen_ising_rejects_diagonal_entries(self):
        adj = np.eye(3)
        with pytest.raises(ValueError, match="zero diagonal"):
            gen_ising(adj, 0.0)

    @pytest.mark.parametrize("adj", [np.zeros((2, 3)), np.zeros(4),
                                     np.zeros((2, 2, 2))])
    def test_gen_ising_rejects_non_square_adjacency(self, adj):
        with pytest.raises(ValueError, match="square"):
            gen_ising(adj, 0.0)

    @pytest.mark.parametrize("b_scalar", [float("nan"), float("inf"), -float("inf")])
    def test_gen_ising_rejects_non_finite_field(self, b_scalar):
        with pytest.raises(ValueError, match="b_scalar must be finite"):
            gen_ising(lattice_adjacency(2), b_scalar)


class TestSpinChangeOfVariables:
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 5), seed=st.integers(0, 10_000))
    def test_energy_identity_on_all_assignments(self, k, seed):
        inst, b, _ = random_case(k, seed)
        j, h, c = qubo_to_ising(inst, b)
        for code in range(1 << k):
            x = np.array([(code >> (k - 1 - p)) & 1 for p in range(k)],
                         dtype=np.int8)
            s = 2.0 * x - 1.0
            assert ising_energy(j, h, c, s) == pytest.approx(
                inst.evaluate(b, x), rel=1e-9, abs=1e-9)

    def test_coupling_is_quarter_of_a(self):
        inst = tiny_instance()
        j, h, c = qubo_to_ising(inst, [0.0, 0.0])
        assert j.toarray() == pytest.approx(np.array([[0.0, 0.25], [0.0, 0.0]]))
        assert h == pytest.approx(np.array([0.25, 0.25]))
        assert c == pytest.approx(0.25)

    def test_rejects_wrong_length_b(self):
        with pytest.raises(ValueError, match="shape"):
            qubo_to_ising(tiny_instance(), [0.0])
