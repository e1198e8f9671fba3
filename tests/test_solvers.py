"""Classical solvers: exact enumeration against the naive oracle, Tabu
search behavior, the short refinement wrapper, and the bifurcation
annealer."""

from __future__ import annotations

import numpy as np
import pytest

from qubolab import (IntractableSizeError, QuboInstance, SabParams,
                     SolverResult, TabuParams, exhaustive_solve,
                     gen_random_dense, lattice_adjacency, refine_with_tabu,
                     sab_solve, tabu_solve)

from conftest import naive_minimize, tiny_instance


class TestExhaustive:
    def test_matches_naive_oracle_on_mixed_sizes(self):
        for t in range(24):
            k = (8, 12, 14)[t % 3]
            inst = gen_random_dense(k, 100 + t)
            b = np.random.default_rng(200 + t).normal(size=k)
            got = exhaustive_solve(inst, b)
            x_ref, f_ref = naive_minimize(inst, b)
            assert np.array_equal(got.x_best, x_ref)
            assert got.f_best == pytest.approx(f_ref, abs=1e-9)

    def test_tie_break_is_lexicographic(self):
        # A = 0, b = 0: every assignment scores 0, so the smallest wins.
        inst = QuboInstance(k=3, rows=[], cols=[], vals=[])
        got = exhaustive_solve(inst, np.zeros(3))
        assert got.x_best.tolist() == [0, 0, 0]

    def test_tie_break_prefers_high_order_zero(self):
        # f = x0 - x1 has minimizers [0,1,*]; lexicographic keeps x2 = 0.
        inst = QuboInstance(k=3, rows=[], cols=[], vals=[])
        got = exhaustive_solve(inst, [1.0, -1.0, 0.0])
        x_ref, f_ref = naive_minimize(inst, [1.0, -1.0, 0.0])
        assert got.x_best.tolist() == [0, 1, 0]
        assert np.array_equal(got.x_best, x_ref)
        assert got.f_best == f_ref == -1.0

    def test_counts_every_state(self, k2_instance):
        got = exhaustive_solve(k2_instance, [0.0, 0.0])
        assert got.evaluations == 4
        assert got.iterations == 3
        assert got.termination == "enumerated"

    def test_refuses_oversized_problems(self):
        inst = QuboInstance(k=27, rows=[], cols=[], vals=[])
        with pytest.raises(IntractableSizeError, match="k=27 exceeds"):
            exhaustive_solve(inst, np.zeros(27))

    def test_cap_is_adjustable(self):
        inst = QuboInstance(k=5, rows=[], cols=[], vals=[])
        with pytest.raises(IntractableSizeError):
            exhaustive_solve(inst, np.zeros(5), cap=4)

    def test_f_best_equals_evaluate_of_x_best(self):
        inst = gen_random_dense(10, 1)
        b = np.random.default_rng(2).normal(size=10)
        got = exhaustive_solve(inst, b)
        assert got.f_best == inst.evaluate(b, got.x_best)

    def test_result_serializes_to_plain_json_types(self, k2_instance):
        doc = exhaustive_solve(k2_instance, [-1.0, 0.5]).to_json()
        assert doc["solver"] == "exhaustive"
        assert doc["x_best"] == [1, 0]
        assert doc["f_best"] == -1.0
        assert set(doc) == {"solver", "x_best", "f_best", "iterations",
                            "evaluations", "elapsed_ms", "termination"}


class TestTabuParams:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="max_steps"):
            TabuParams(max_steps=0)

    def test_rejects_negative_tenure(self):
        with pytest.raises(ValueError, match="tabu_tenure"):
            TabuParams(tabu_tenure=-1)

    def test_rejects_zero_patience(self):
        with pytest.raises(ValueError, match="patience"):
            TabuParams(patience=0)


class TestTabu:
    def test_finds_optimum_on_small_instances(self):
        for t in range(20):
            inst = gen_random_dense(8, 300 + t)
            b = np.random.default_rng(400 + t).normal(size=8)
            got = tabu_solve(inst, b, TabuParams(max_steps=100, tabu_tenure=8))
            _, f_ref = naive_minimize(inst, b)
            assert got.f_best == pytest.approx(f_ref, abs=1e-9)

    def test_starts_from_zeros_by_default(self, k2_instance):
        got = tabu_solve(k2_instance, [5.0, 5.0], TabuParams(max_steps=3))
        # every flip worsens, yet the first move is still taken; best stays zeros
        assert got.x_best.tolist() == [0, 0]
        assert got.f_best == 0.0

    def test_respects_start_point(self, k2_instance):
        params = TabuParams(max_steps=5, start=np.array([1, 1], dtype=np.int8))
        got = tabu_solve(k2_instance, [-10.0, -10.0], params)
        assert got.x_best.tolist() == [1, 1]

    def test_trace_tracks_best_seen_monotonically(self):
        inst = gen_random_dense(8, 11)
        b = np.random.default_rng(12).normal(size=8)
        got = tabu_solve(inst, b, TabuParams(max_steps=50))
        assert got.trace[0] == inst.evaluate(b, np.zeros(8, dtype=np.int8))
        assert all(b2 <= a2 for a2, b2 in zip(got.trace, got.trace[1:]))
        assert got.trace[-1] == pytest.approx(got.f_best)

    def test_all_tabu_termination(self, k2_instance):
        # tenure large enough to remember the whole 4-state cube
        params = TabuParams(max_steps=50, tabu_tenure=4, patience=None)
        got = tabu_solve(k2_instance, [0.5, 0.5], params)
        assert got.termination == "all_tabu"
        assert got.iterations < 50

    def test_patience_termination(self):
        inst = gen_random_dense(8, 13)
        b = np.random.default_rng(14).normal(size=8)
        got = tabu_solve(inst, b, TabuParams(max_steps=5000, patience=5))
        assert got.termination == "patience"
        assert got.iterations < 5000

    def test_max_steps_termination(self, k2_instance):
        got = tabu_solve(k2_instance, [0.5, 0.5],
                         TabuParams(max_steps=2, patience=None))
        assert got.termination == "max_steps"
        assert got.iterations == 2

    def test_first_move_takes_the_best_neighbor(self, k2_instance):
        got = tabu_solve(k2_instance, [-1.0, 0.5], TabuParams(max_steps=1))
        assert got.x_best.tolist() == [1, 0]
        assert got.f_best == -1.0

    def test_zero_tenure_disables_memory(self, k2_instance):
        got = tabu_solve(k2_instance, [0.5, 0.5],
                         TabuParams(max_steps=6, tabu_tenure=0, patience=None))
        assert got.termination == "max_steps"
        assert got.iterations == 6


class TestRefineWithTabu:
    def test_zero_steps_returns_the_start(self, k2_instance):
        got = refine_with_tabu(k2_instance, [-1.0, 0.5], [0, 1], max_steps=0)
        assert got.x_best.tolist() == [0, 1]
        assert got.iterations == 0
        assert got.trace == [0.5]

    def test_never_worse_than_the_start(self):
        for t in range(10):
            inst = gen_random_dense(10, 500 + t)
            rng = np.random.default_rng(600 + t)
            b = rng.normal(size=10)
            start = rng.integers(0, 2, size=10).astype(np.int8)
            got = refine_with_tabu(inst, b, start, max_steps=10)
            assert got.f_best <= inst.evaluate(b, start) + 1e-12

    def test_polishes_to_the_optimum_nearby(self, k2_instance):
        got = refine_with_tabu(k2_instance, [-1.0, 0.5], [0, 0], max_steps=3)
        assert got.x_best.tolist() == [1, 0]
        assert got.f_best == -1.0

    def test_recovers_single_corrupted_bit(self):
        recovered = 0
        for t in range(30):
            inst = gen_random_dense(12, 700 + t)
            rng = np.random.default_rng(800 + t)
            b = rng.normal(size=12)
            opt = exhaustive_solve(inst, b)
            start = opt.x_best.copy()
            start[rng.integers(0, 12)] ^= 1
            got = refine_with_tabu(inst, b, start, max_steps=10)
            recovered += int(got.f_best == pytest.approx(opt.f_best, abs=1e-9))
        assert recovered >= 29

    def test_rejects_negative_budget(self, k2_instance):
        with pytest.raises(ValueError, match=">= 0"):
            refine_with_tabu(k2_instance, [0.0, 0.0], [0, 0], max_steps=-1)


class TestSabParams:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            SabParams(dt=0.0)

    def test_rejects_nonpositive_c0(self):
        with pytest.raises(ValueError, match="c0"):
            SabParams(c0=-1.0)


class TestSab:
    def test_single_variable_follows_the_field(self):
        inst = QuboInstance(k=1, rows=[0], cols=[0], vals=[0.0])
        got = sab_solve(inst, [-5.0], SabParams(steps=200, seed=0))
        assert got.x_best.tolist() == [1]
        assert got.f_best == -5.0

    def test_ferromagnetic_lattice_reaches_the_ground_state(self):
        adj = lattice_adjacency(8)
        rows, cols = np.nonzero(adj)
        inst = QuboInstance(k=64, rows=rows, cols=cols, vals=-adj[rows, cols])
        got = sab_solve(inst, np.zeros(64), SabParams(steps=1000, seed=1))
        assert np.all(got.x_best == 1)
        assert got.f_best == -224.0

    def test_near_optimal_on_random_instances(self):
        hits = 0
        rng = np.random.default_rng(77)
        for t in range(20):
            inst = gen_random_dense(12, 3000 + t)
            b = rng.normal(size=12)
            f_opt = exhaustive_solve(inst, b).f_best
            got = sab_solve(inst, b, SabParams(steps=2000, seed=t))
            if f_opt < 0 and got.f_best <= 0.9 * f_opt:
                hits += 1
        assert hits >= 19

    def test_same_seed_same_answer(self):
        inst = gen_random_dense(10, 5)
        b = np.random.default_rng(6).normal(size=10)
        a = sab_solve(inst, b, SabParams(steps=300, seed=9))
        c = sab_solve(inst, b, SabParams(steps=300, seed=9))
        assert np.array_equal(a.x_best, c.x_best)
        assert a.f_best == c.f_best

    def test_extreme_parameters_cannot_destabilize_the_state(self):
        # position clamping with momentum zeroing bounds the dynamics, so
        # even absurd step sizes and couplings settle to a valid binary
        # answer instead of diverging
        inst = gen_random_dense(10, 5)
        b = np.random.default_rng(6).normal(size=10)
        for dt, c0 in ((50.0, 1e6), (1e154, 1e154), (0.5, 1e308)):
            with np.errstate(over="ignore"):
                got = sab_solve(inst, b, SabParams(steps=50, dt=dt, c0=c0,
                                                   seed=0))
            assert np.isfinite(got.f_best)
            assert set(np.unique(got.x_best)) <= {0, 1}
            assert got.termination == "annealed"

    def test_trace_is_non_increasing(self):
        inst = gen_random_dense(10, 5)
        b = np.random.default_rng(6).normal(size=10)
        got = sab_solve(inst, b, SabParams(steps=100, seed=0))
        assert all(y <= x for x, y in zip(got.trace, got.trace[1:]))


class TestSolverResult:
    def test_is_a_plain_record(self):
        res = SolverResult(solver="x", x_best=np.array([1], dtype=np.int8),
                           f_best=0.0, iterations=1, evaluations=1,
                           elapsed_ms=0.1)
        assert res.termination == "completed"
        assert res.trace is None
