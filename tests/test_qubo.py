"""Problem representation: validation, objective algebra, generators,
and the binary/spin change of variables."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab import (QuboInstance, gen_ising, gen_lattice_laplacian,
                     gen_random_dense, ising_energy, lattice_adjacency,
                     qubo_to_ising)
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

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            QuboInstance(k=1, rows=[0], cols=[0], vals=[np.inf])

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
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


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
