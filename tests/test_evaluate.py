"""Metrics, landscape probe, field sweep, hybrid inference, benchmark table."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from conftest import naive_minimize
from qubolab import (BpgnnConfig, BpgnnModel, DataGenParams, Dataset,
                     EvalRecord, QuboInstance, TabuParams, accuracy, benchmark,
                     evaluate_method, exhaustive_solve, gen_ising,
                     gen_lattice_laplacian, gen_random_dense,
                     generate_dataset, homophily,
                     hybrid_infer, ising_sweep, lattice_adjacency,
                     plateau_fraction, probe_landscape, refine_with_tabu,
                     rel_qubo, tabu_solve, write_eval_records, write_landscape,
                     write_sweep)
from qubolab import evaluate
from qubolab.evaluate import BENCH_COLUMNS, _hybrid_rows
from qubolab.qubo import rel_gaps


class TestAccuracy:
    def test_fractions(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0
        assert accuracy([0, 1], [1, 0]) == 0.0
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy([0, 1], [0, 1, 1])


class TestRelQubo:
    def setup_method(self):
        self.inst = QuboInstance(2, [0], [1], [1.0])
        self.b = np.array([1.0, -1.0])  # optimum [0, 1] with f = -1

    def test_gap_of_a_worse_prediction(self):
        assert rel_qubo(self.inst, self.b, [0, 1], [1, 1]) == pytest.approx(2.0)

    def test_perfect_prediction_scores_zero(self):
        assert rel_qubo(self.inst, self.b, [0, 1], [0, 1]) == 0.0

    def test_zero_reference_objective_is_rejected(self):
        with pytest.raises(ValueError, match="undefined reference objective"):
            rel_qubo(self.inst, np.zeros(2), [0, 0], [1, 1])


class TestHomophily:
    def cycle4(self) -> QuboInstance:
        return QuboInstance(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0] * 4)

    def test_uniform_labels_give_one(self):
        assert homophily(self.cycle4(), [1, 1, 1, 1]) == 1.0
        assert homophily(self.cycle4(), [0, 0, 0, 0]) == 1.0

    def test_alternating_labels_on_even_cycle_give_zero(self):
        assert homophily(self.cycle4(), [0, 1, 0, 1]) == 0.0

    def test_mixed_labels(self):
        chain = QuboInstance(3, [0, 1], [1, 2], [1.0, 1.0])
        assert homophily(chain, [0, 0, 1]) == 0.5

    def test_edgeless_graph_is_rejected(self):
        diag = QuboInstance(2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="edgeless"):
            homophily(diag, [0, 1])


class TestLandscapeProbe:
    def test_resolution_must_be_at_least_two(self):
        inst = gen_random_dense(4, seed=5)
        with pytest.raises(ValueError, match="resolution"):
            probe_landscape(inst, np.zeros(4), seed=0, resolution=1)

    def test_grid_matches_independent_enumeration(self):
        inst = gen_random_dense(4, seed=5)
        b = np.random.default_rng(6).normal(size=4)
        grid = probe_landscape(inst, b, seed=7, resolution=5)
        assert grid.phi.shape == (5, 5)
        assert grid.method == "exhaustive"
        # directions form an orthonormal pair
        assert np.linalg.norm(grid.b1) == pytest.approx(1.0)
        assert np.linalg.norm(grid.b2) == pytest.approx(1.0)
        assert grid.b1 @ grid.b2 == pytest.approx(0.0, abs=1e-12)
        # every cell agrees with a from-scratch enumeration
        x_base, _ = naive_minimize(inst, b)
        for i, s in enumerate(grid.s_values):
            for j, t in enumerate(grid.t_values):
                x_cell, _ = naive_minimize(inst, b + t * grid.b1 + s * grid.b2)
                d = int(np.sum((x_cell.astype(int) - x_base.astype(int)) ** 2))
                assert grid.phi[i, j] == d

    def test_one_enumeration_matches_a_per_cell_loop(self):
        inst = gen_random_dense(12, 31, scale=0.3)
        b = np.random.default_rng(15).normal(size=12)
        grid = probe_landscape(inst, b, seed=21, s_range=(-3.0, 1.0),
                               t_range=(-1.0, 3.0), resolution=9)
        x_base = exhaustive_solve(inst, b).x_best
        phi = np.array([[np.count_nonzero(
            exhaustive_solve(inst, b + t * grid.b1 + s * grid.b2).x_best != x_base)
            for t in grid.t_values] for s in grid.s_values])
        assert np.array_equal(grid.phi, phi)
        assert len(np.unique(grid.phi)) > 1

    def test_center_cell_is_zero_for_odd_resolution(self):
        inst = gen_random_dense(5, seed=8)
        b = np.random.default_rng(9).normal(size=5)
        grid = probe_landscape(inst, b, seed=10, resolution=5)
        assert grid.s_values[2] == 0.0 and grid.t_values[2] == 0.0
        assert grid.phi[2, 2] == 0

    def test_low_cap_switches_to_tabu(self):
        inst = gen_random_dense(4, seed=5)
        grid = probe_landscape(inst, np.zeros(4), seed=0, resolution=3, cap=3)
        assert grid.method == "tabu"
        assert grid.phi[1, 1] == 0  # center still coincides with the base

    def test_above_the_cap_every_cell_is_a_tabu_solve(self):
        inst = gen_random_dense(6, seed=12)
        b = np.random.default_rng(13).normal(size=6)
        grid = probe_landscape(inst, b, seed=14, resolution=5, cap=3)
        x_base = tabu_solve(inst, b, TabuParams()).x_best
        phi = np.array([[np.count_nonzero(
            tabu_solve(inst, b + t * grid.b1 + s * grid.b2, TabuParams()).x_best != x_base)
            for t in grid.t_values] for s in grid.s_values])
        assert grid.method == "tabu"
        assert np.array_equal(grid.phi, phi)
        assert len(np.unique(grid.phi)) > 1

    @pytest.mark.parametrize("ranges", [
        dict(s_range=(float("nan"), 1.0)), dict(t_range=(-1.0, float("inf")))])
    def test_rejects_non_finite_ranges_by_name(self, ranges):
        inst = gen_random_dense(4, seed=5)
        with pytest.raises(ValueError, match=f"{next(iter(ranges))} must be finite"):
            probe_landscape(inst, np.zeros(4), seed=0, resolution=3, **ranges)

    def test_write_landscape_csv(self, tmp_path):
        inst = gen_random_dense(4, seed=5)
        grid = probe_landscape(inst, np.zeros(4), seed=3, resolution=3)
        path = tmp_path / "grid.csv"
        write_landscape(grid, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["s", "t", "phi"]
        assert len(rows) == 1 + 9
        assert [float(rows[1][0]), float(rows[1][1])] == [-3.0, -3.0]
        phis = [int(r[2]) for r in rows[1:]]
        assert phis == [int(v) for v in grid.phi.ravel()]


class TestPlateauFraction:
    def test_hand_grid(self):
        assert plateau_fraction(np.array([[0, 0], [0, 1]])) == 0.75

    def test_uniform_grid_is_all_plateau(self):
        assert plateau_fraction(np.zeros((4, 4), dtype=int)) == 1.0

    def test_all_distinct_grid_has_none(self):
        assert plateau_fraction(np.array([[0, 1], [2, 3]])) == 0.0


class TestIsingSweep:
    def pair_instance(self) -> QuboInstance:
        inst, _ = gen_ising(np.array([[0, 1], [1, 0]]), 0.0)
        return inst

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="samples"):
            ising_sweep(self.pair_instance(), (-1.0, 1.0), 1)

    def test_two_spin_phase_changes(self):
        # f(x) = x^T A x - beta * sum(x) on a coupled pair: zeros until
        # beta > 0, one excited spin until beta > 2, then both
        sweep = ising_sweep(self.pair_instance(), (-1.0, 4.0), 11)
        assert sweep.method == "exhaustive"
        assert np.array_equal(sweep.assignments[0], [0, 0])
        assert np.array_equal(sweep.assignments[5], [0, 1])
        assert np.array_equal(sweep.assignments[10], [1, 1])
        assert sweep.change_points.tolist() == [3, 7]

    def test_change_points_mark_actual_changes(self):
        sweep = ising_sweep(self.pair_instance(), (-1.0, 4.0), 11)
        for idx in range(1, 11):
            changed = not np.array_equal(sweep.assignments[idx],
                                         sweep.assignments[idx - 1])
            assert (idx in sweep.change_points) == changed

    def test_lattice_sweep_changes_once(self):
        # on the 4x4 lattice the minimizer is all zeros at beta <= -0.8 and
        # the first checkerboard at beta >= 0.8: one change, at sample 3
        inst, _ = gen_ising(lattice_adjacency(4), 0.0)
        sweep = ising_sweep(inst, (-4.0, 4.0), 6)
        assert sweep.change_points.tolist() == [3]
        assert not sweep.assignments[:3].any()

    def test_above_the_cap_every_sample_is_a_tabu_solve(self):
        inst, _ = gen_ising(lattice_adjacency(4), 0.0)
        sweep = ising_sweep(inst, (-4.0, 4.0), 9, cap=10)
        loop = [tabu_solve(inst, -beta * np.ones(16), TabuParams()).x_best
                for beta in sweep.b_values]
        assert sweep.method == "tabu"
        assert np.array_equal(sweep.assignments, loop)
        assert sweep.change_points.size

    @pytest.mark.parametrize("b_range", [(float("nan"), 1.0), (0.0, -float("inf"))])
    def test_rejects_a_non_finite_range_by_name(self, b_range):
        with pytest.raises(ValueError, match="b_range must be finite"):
            ising_sweep(self.pair_instance(), b_range, 3)

    def test_write_sweep_csv(self, tmp_path):
        sweep = ising_sweep(self.pair_instance(), (-1.0, 4.0), 11)
        path = tmp_path / "sweep.csv"
        write_sweep(sweep, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["b", "changed"]
        assert len(rows) == 12
        assert [int(r[1]) for r in rows[1:]] == [
            1 if i in (3, 7) else 0 for i in range(11)
        ]
        assert float(rows[1][0]) == -1.0 and float(rows[11][0]) == 4.0


@pytest.fixture(scope="module")
def eval_problem():
    """Noiseless k=4 dataset whose labels are exact optima."""
    inst = gen_random_dense(4, seed=21, scale=0.5)
    data = generate_dataset(inst, 15, DataGenParams(sigma=0.0, seed=2),
                            split=(0.8, 0.2))
    model = BpgnnModel(BpgnnConfig(d=4, layers=1, seed=0), inst)
    return inst, data, model


class TestHybridInfer:
    def test_trace_starts_at_pure_network_objective(self, eval_problem):
        inst, _, model = eval_problem
        b = np.random.default_rng(3).normal(size=4)
        result = hybrid_infer(model, inst, b, max_steps=20)
        f_neural = inst.evaluate(b, model.predict(b))
        assert result.solver == "bpgnn+ts"
        assert result.trace[0] == pytest.approx(f_neural)
        assert result.f_best <= f_neural + 1e-12
        assert result.f_best == pytest.approx(inst.evaluate(b, result.x_best))

    def test_one_row_of_the_stack_form(self, eval_problem):
        inst, data, model = eval_problem
        b = data.b_matrix("train")
        stack = _hybrid_rows(model, inst, b, max_steps=3)
        assert len(stack) == len(b)
        for j in range(len(b)):
            one = hybrid_infer(model, inst, b[j], max_steps=3)
            assert np.array_equal(one.x_best, stack[j].x_best)
            assert one.trace == stack[j].trace
            assert (one.solver, one.f_best, one.iterations, one.evaluations,
                    one.termination) == (
                "bpgnn+ts", stack[j].f_best, stack[j].iterations,
                stack[j].evaluations, stack[j].termination)
            assert stack[j].elapsed_ms > 0.0

    def test_stack_polish_is_refine_with_tabu_per_row(self):
        inst = gen_random_dense(12, seed=23, scale=0.5)
        b = np.random.default_rng(24).normal(size=(25, 12))
        model = BpgnnModel(BpgnnConfig(d=4, layers=1, seed=1), inst)
        stack = _hybrid_rows(model, inst, b, max_steps=6)
        for row, got in zip(b, stack):
            want = refine_with_tabu(inst, row, model.predict(row), max_steps=6)
            assert np.array_equal(got.x_best, want.x_best)
            assert (got.f_best, got.iterations, got.evaluations, got.termination,
                    got.trace) == (want.f_best, want.iterations, want.evaluations,
                                   want.termination, want.trace)

    def test_zero_refinement_returns_pure_prediction(self, eval_problem):
        inst, _, model = eval_problem
        b = np.random.default_rng(4).normal(size=4)
        result = hybrid_infer(model, inst, b, max_steps=0)
        assert np.array_equal(result.x_best, model.predict(b))
        assert result.trace == [pytest.approx(inst.evaluate(b, result.x_best))]


class TestEvaluateMethod:
    def test_exhaustive_is_perfect_on_noiseless_labels(self, eval_problem):
        inst, data, _ = eval_problem
        rec = evaluate_method("exhaustive", inst, data)
        assert rec.method == "exhaustive"
        assert rec.accuracy == 1.0
        assert rec.rel_qubo == 0.0
        assert rec.elapsed_ms >= 0.0
        assert rec.instance_ref.startswith("QuboInstance(")
        assert rec.dataset_ref == data.instance_ref

    def test_exhaustive_is_one_batched_call_equal_to_a_per_row_loop(self, monkeypatch):
        # The lattice Laplacian with b = 0 has tied optima: all-zeros and
        # all-ones both give f = 0, and the first in lexicographic order
        # (all-zeros) must win.  The labels of the b = 0 rows are one of each.
        inst = gen_lattice_laplacian(3)
        rng = np.random.default_rng(8)
        fields = [np.zeros(9), np.zeros(9)] + list(rng.normal(size=(4, 9)))
        labels = [np.zeros(9), np.ones(9)] + [naive_minimize(inst, b)[0]
                                               for b in fields[2:]]
        data = Dataset("lattice", 9, {}, np.array(fields), np.array(labels),
                       ["val"] * len(fields))
        calls = []
        engine = evaluate.exhaustive_argmins

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return engine(*args, **kwargs)

        monkeypatch.setattr(evaluate, "exhaustive_argmins", counted)
        rec = evaluate_method("exhaustive", inst, data)
        assert calls == [(6, 9)]
        b, x_ref = data.b_matrix("val"), data.x_matrix("val")
        x_loop = np.array([exhaustive_solve(inst, row).x_best for row in b])
        assert not x_loop[0].any() and not x_loop[1].any()
        assert rec.accuracy == float(np.mean(np.mean(x_loop == x_ref, axis=1)))
        assert rec.accuracy == (1.0 + 0.0 + 4.0) / 6.0
        assert rec.rel_qubo == float(np.mean(rel_gaps(inst, b, x_ref, x_loop)))

    def test_train_split_selectable(self, eval_problem):
        inst, data, _ = eval_problem
        rec = evaluate_method("exhaustive", inst, data, split="train")
        assert rec.accuracy == 1.0

    def test_model_methods_run(self, eval_problem):
        inst, data, model = eval_problem
        rec = evaluate_method("bpgnn+ts", inst, data, model=model)
        assert 0.0 <= rec.accuracy <= 1.0
        # refinement never leaves the prediction above the label objective
        assert rec.rel_qubo <= 1e-12 or math.isnan(rec.rel_qubo)

    def test_batched_hybrid_matches_per_example_hybrid_infer(self, eval_problem):
        inst, data, model = eval_problem
        rec = evaluate_method("bpgnn+ts", inst, data, model=model, split="train")
        b, x_ref = data.b_matrix("train"), data.x_matrix("train")
        x_loop = np.array([hybrid_infer(model, inst, row).x_best for row in b])
        assert rec.accuracy == float(np.mean(np.mean(x_loop == x_ref, axis=1)))
        assert rec.rel_qubo == float(np.mean(rel_gaps(inst, b, x_ref, x_loop)))
        assert rec.elapsed_ms > 0.0

    def test_tabu_is_one_stack_equal_to_a_per_row_loop(self):
        inst = gen_random_dense(12, seed=25, scale=0.5)
        data = generate_dataset(inst, 40, DataGenParams(sigma=0.8, seed=26))
        rec = evaluate_method("tabu", inst, data)
        b, x_ref = data.b_matrix("val"), data.x_matrix("val")
        x_loop = np.array([tabu_solve(inst, row, TabuParams()).x_best for row in b])
        assert rec.accuracy == float(np.mean(np.mean(x_loop == x_ref, axis=1)))
        assert rec.rel_qubo == float(np.mean(rel_gaps(inst, b, x_ref, x_loop)))
        assert 0.0 < rec.accuracy < 1.0
        assert rec.elapsed_ms > 0.0

    def test_unknown_method_is_rejected(self, eval_problem):
        inst, data, _ = eval_problem
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_method("gurobi", inst, data)

    def test_model_methods_need_a_model(self, eval_problem):
        inst, data, _ = eval_problem
        with pytest.raises(ValueError, match="needs a trained model"):
            evaluate_method("bpgnn", inst, data)

    def test_empty_split_is_rejected(self, eval_problem):
        inst, _, _ = eval_problem
        data = Dataset("x", 4, {}, np.zeros((1, 4)), np.zeros((1, 4)), ["train"])
        with pytest.raises(ValueError, match="no 'val' pairs"):
            evaluate_method("exhaustive", inst, data)

    def test_zero_reference_pairs_drop_out_of_the_gap_mean(self):
        # positive couplings: with b = 0 the all-zeros label is optimal
        # and its objective is exactly zero, so the gap is undefined
        chain = QuboInstance(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        data = Dataset("x", 4, {}, np.zeros((1, 4)), np.zeros((1, 4)), ["val"])
        rec = evaluate_method("exhaustive", chain, data)
        assert rec.accuracy == 1.0
        assert math.isnan(rec.rel_qubo)


class TestBenchmark:
    def make_realizations(self, n: int):
        instances, datasets = [], []
        for t in range(n):
            inst = gen_random_dense(4, seed=50 + t, scale=0.5)
            instances.append(inst)
            datasets.append(generate_dataset(
                inst, 10, DataGenParams(sigma=0.0, seed=t), split=(0.5, 0.5)))
        return instances, datasets

    def test_rows_and_csv(self, tmp_path):
        instances, datasets = self.make_realizations(2)
        path = tmp_path / "bench.csv"
        rows = benchmark(instances, datasets, ["exhaustive", "tabu"], path)
        assert [r["method"] for r in rows] == ["exhaustive", "tabu"]
        for row in rows:
            assert tuple(row) == BENCH_COLUMNS
            assert row["k"] == 4
            assert row["acc_mean"] == 1.0  # both solvers crack k=4 optima
            assert row["acc_std"] == 0.0
        parsed = list(csv.reader(path.read_text().splitlines()))
        assert parsed[0] == list(BENCH_COLUMNS)
        assert len(parsed) == 3
        assert parsed[1][0] == "exhaustive" and parsed[1][1] == "4"
        assert float(parsed[1][2]) == 1.0

    def test_instance_dataset_count_mismatch(self, tmp_path):
        instances, datasets = self.make_realizations(2)
        with pytest.raises(ValueError, match="instances but 1 datasets"):
            benchmark(instances, datasets[:1], ["tabu"], tmp_path / "b.csv")

    def test_model_count_mismatch(self, tmp_path):
        instances, datasets = self.make_realizations(2)
        model = BpgnnModel(BpgnnConfig(d=4, layers=1), instances[0])
        with pytest.raises(ValueError, match="models"):
            benchmark(instances, datasets, ["bpgnn"], tmp_path / "b.csv",
                      models=[model])

    def test_mixed_sizes_are_rejected(self, tmp_path):
        instances, datasets = self.make_realizations(1)
        other = gen_random_dense(5, seed=60)
        od = generate_dataset(other, 4, DataGenParams(seed=0), split=(0.5, 0.5))
        with pytest.raises(ValueError, match="share k"):
            benchmark(instances + [other], datasets + [od], ["tabu"],
                      tmp_path / "b.csv")

    def test_model_methods_need_models(self, tmp_path):
        instances, datasets = self.make_realizations(1)
        with pytest.raises(ValueError, match="needs trained models"):
            benchmark(instances, datasets, ["bpgnn+ts"], tmp_path / "b.csv")

    def test_unknown_method_is_rejected(self, tmp_path):
        instances, datasets = self.make_realizations(1)
        with pytest.raises(ValueError, match="unknown method"):
            benchmark(instances, datasets, ["brute"], tmp_path / "b.csv")


class TestWriteEvalRecords:
    def test_csv_layout(self, tmp_path):
        records = [EvalRecord("tabu", 0.9, 0.01, 1.5, "inst", "data")]
        path = tmp_path / "records.csv"
        write_eval_records(records, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["method", "accuracy", "rel_qubo", "elapsed_ms",
                           "instance", "dataset"]
        assert rows[1] == ["tabu", "0.9", "0.01", "1.5", "inst", "data"]
