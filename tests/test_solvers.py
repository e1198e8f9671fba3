"""Classical solvers: exact enumeration against the naive oracle, Tabu
search behavior, the short refinement wrapper, and the bifurcation
annealer."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab import (IntractableSizeError, QuboInstance, SabParams,
                     SolverResult, TabuParams, exhaustive_argmins,
                     exhaustive_solve, gen_ising, gen_lattice_laplacian,
                     gen_random_dense, lattice_adjacency, refine_with_tabu,
                     sab_solve, tabu_rows, tabu_solve)
from qubolab import solvers
from qubolab.qubo import qubo_to_ising

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

    def test_tie_rule_holds_along_an_ising_field_sweep(self):
        # x^T A x - beta * sum(x) on the 4x4 lattice has many exactly tied
        # minimizers; each must be the first minimum in lexicographic order
        inst, _ = gen_ising(lattice_adjacency(4), 0.0)
        for beta in np.linspace(-4, 4, 41):
            b = -beta * np.ones(16)
            x_ref, _ = naive_minimize(inst, b)
            assert np.array_equal(exhaustive_solve(inst, b).x_best, x_ref), beta

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


class TestBlockEngine:
    """exhaustive_argmins: chunk edges, field groups, ties across chunks
    and bounded memory."""

    @pytest.mark.parametrize("k", [1, solvers.LOW_BITS, solvers.LOW_BITS + 1])
    def test_low_block_edges_match_the_oracle(self, k):
        inst = gen_random_dense(k, 40 + k)
        b_mat = np.random.default_rng(k).normal(size=(3, k))
        got = exhaustive_argmins(inst, b_mat)
        assert got.dtype == np.int8 and got.shape == (3, k)
        for row, b in zip(got, b_mat):
            assert np.array_equal(row, naive_minimize(inst, b)[0])

    @pytest.mark.parametrize("k", [13, 14, 20])
    def test_many_high_chunks_match_the_oracle(self, k, monkeypatch):
        # one high assignment per chunk: 2, 4 and 256 chunks
        monkeypatch.setattr(solvers, "BLOCK_STATES", 1 << solvers.LOW_BITS)
        inst = gen_random_dense(k, 60 + k, scale=0.3)
        b = np.random.default_rng(70 + k).normal(size=k)
        x_ref, f_ref = naive_minimize(inst, b)
        got = exhaustive_solve(inst, b)
        assert np.array_equal(got.x_best, x_ref)
        assert got.f_best == pytest.approx(f_ref, abs=1e-9)

    def test_a_tie_across_chunks_keeps_the_earlier_chunk(self, monkeypatch):
        # x_0 is free, so the minimizers sit in both high chunks of k=13
        monkeypatch.setattr(solvers, "BLOCK_STATES", 1 << solvers.LOW_BITS)
        inst = QuboInstance(k=13, rows=[], cols=[], vals=[])
        b = np.r_[0.0, -np.ones(12)]
        assert exhaustive_argmins(inst, b[None, :])[0].tolist() == [0] + [1] * 12

    def test_field_groups_agree_with_one_row_calls(self, monkeypatch):
        # four fields per product: groups of 4, 4 and 2
        monkeypatch.setattr(solvers, "BLOCK_STATES", 4 << solvers.LOW_BITS)
        inst = gen_random_dense(12, 5, scale=0.3)
        b_mat = np.random.default_rng(6).normal(size=(10, 12))
        got = exhaustive_argmins(inst, b_mat)
        for row, b in zip(got, b_mat):
            assert np.array_equal(row, exhaustive_solve(inst, b).x_best)
            assert np.array_equal(row, naive_minimize(inst, b)[0])

    def test_rejects_a_malformed_field_matrix(self):
        inst = gen_random_dense(3, 1)
        with pytest.raises(ValueError, match="expected \\(n, 3\\)"):
            exhaustive_argmins(inst, np.zeros(3))
        with pytest.raises(ValueError, match="NaN or Inf"):
            exhaustive_argmins(inst, [[0.0, np.nan, 0.0]])
        with pytest.raises(IntractableSizeError):
            exhaustive_argmins(inst, np.zeros((1, 3)), cap=2)

    def test_separable_k26_solves_in_bounded_memory(self):
        # diagonal A: each bit is set exactly when A_ii + b_i < 0
        k = 26
        rng = np.random.default_rng(26)
        d, b = rng.normal(size=k), rng.normal(size=k)
        inst = QuboInstance(k=k, rows=np.arange(k), cols=np.arange(k), vals=d)
        tracemalloc.start()
        try:
            got = exhaustive_solve(inst, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.x_best.tolist() == (d + b < 0).astype(int).tolist()
        assert got.evaluations == 1 << k and got.iterations == (1 << k) - 1
        assert peak <= 16 * 2 ** 20


class TestTabuParams:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="max_steps"):
            TabuParams(max_steps=-1)

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
        got = tabu_solve(k2_instance, [-10.0, -10.0], TabuParams(max_steps=5),
                         np.array([1, 1], dtype=np.int8))
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


def argsort_scan_tabu(instance, b, params, start=None):
    """Reference tabu_solve that picks each move by scanning the stable
    argsort of the deltas for the first flip outside the memory.  Returns
    the fields of a SolverResult but elapsed_ms, as one comparable tuple."""
    k = instance.k
    b = np.asarray(b, dtype=np.float64)
    x = (np.zeros(k) if start is None else np.asarray(start)).astype(np.int8)
    s = instance.a_sym_csr
    d = instance.a_diag
    xf = x.astype(np.float64)
    g = s @ xf
    f = instance.evaluate(b, x)
    evaluations, steps, stalled = 1, 0, 0
    best_x, best_f, trace = x.copy(), f, [f]
    tabu = {}
    termination = "max_steps"
    for _ in range(params.max_steps):
        tabu[x.tobytes()] = None
        if len(tabu) > params.tabu_tenure:
            del tabu[next(iter(tabu))]
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
        lo, hi = s.indptr[chosen], s.indptr[chosen + 1]
        g[s.indices[lo:hi]] += (1.0 - 2.0 * xf[chosen]) * s.data[lo:hi]
        x[chosen] ^= 1
        xf[chosen] = x[chosen]
        steps += 1
        if f < best_f:
            best_f, best_x, stalled = f, x.copy(), 0
        else:
            stalled += 1
        trace.append(best_f)
        if params.patience is not None and stalled >= params.patience:
            termination = "patience"
            break
    return ("tabu", best_x.tobytes(), instance.evaluate(b, best_x), steps, evaluations,
            termination, trace)


def assert_tabu_solve_is_the_argsort_scan(instance, b, params, start=None):
    got = tabu_solve(instance, b, params, start)
    # repr compares floats bit for bit and treats NaN as equal to itself
    assert repr((got.solver, got.x_best.tobytes(), got.f_best, got.iterations,
                 got.evaluations, got.termination, got.trace)) == repr(
        argsort_scan_tabu(instance, b, params, start))
    return got


def assert_rows_are_tabu_solves(instance, b, starts, params):
    """tabu_rows equals tabu_solve row by row, every field but elapsed_ms."""
    got = tabu_rows(instance, b, starts, params)
    assert len(got) == len(b)
    for r, result in enumerate(got):
        want = tabu_solve(instance, b[r], params, starts[r])
        assert np.array_equal(result.x_best, want.x_best)
        assert result.x_best.dtype == want.x_best.dtype
        # repr compares floats bit for bit and treats NaN as equal to itself
        assert repr((result.solver, result.f_best, result.iterations, result.evaluations,
                     result.termination, result.trace)) == repr(
            (want.solver, want.f_best, want.iterations, want.evaluations,
             want.termination, want.trace))
    return got


@st.composite
def tabu_stacks(draw):
    """A dense or lattice instance, a stack of fields and starts, and tabu
    knobs: tenure 0, a memory that forgets (tenure < steps), a memory as
    large as the whole cube (tenure 2^k >= k), where every walk ends
    all_tabu, or refine_with_tabu's memory (tenure >= steps) with patience,
    so rows stop while their memory is still filling."""
    memory = draw(st.sampled_from(["none", "wrap", "cube", "walk"]))
    if draw(st.booleans()):
        k = draw(st.integers(2, 5 if memory == "cube" else 14))
        instance = gen_random_dense(k, draw(st.integers(0, 2 ** 16)))
    else:
        instance = gen_lattice_laplacian(2 if memory == "cube" else draw(st.integers(2, 4)))
    k = instance.k
    if memory == "none":
        steps, tenure = draw(st.integers(0, 40)), 0
    elif memory == "wrap":
        steps = draw(st.integers(2, 40))
        tenure = draw(st.integers(1, steps - 1))
    elif memory == "cube":
        tenure = 2 ** k
        steps = tenure + draw(st.integers(0, 4))
    else:
        steps = draw(st.integers(1, 40))
        tenure = steps + draw(st.integers(0, 4))
    if memory == "cube":
        patience = None
    elif memory == "walk":
        patience = draw(st.sampled_from([1, 2, 5]))
    else:
        patience = draw(st.sampled_from([None, 1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 8))
    b = rng.normal(size=(n, k)) * draw(st.sampled_from([0.1, 1.0, 4.0]))
    if draw(st.booleans()):
        b = np.round(b)  # exact ties between flips
    starts = rng.integers(0, 2, size=(n, k)).astype(np.int8)
    return instance, b, starts, TabuParams(max_steps=steps, tabu_tenure=tenure,
                                           patience=patience)


class TestTabuPick:
    """tabu_solve's masked-argmin pick against the stable-argsort scan."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(tabu_stacks())
    def test_equals_the_argsort_scan(self, case):
        # tied fields, tenure 0, a wrapping memory, a memory of the whole
        # cube and patience, from random starts
        instance, b, starts, params = case
        for row, start in zip(b, starts):
            assert_tabu_solve_is_the_argsort_scan(instance, row, params, start)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(tenure=st.sampled_from([0, 1, 2, 6, 64]), seed=st.integers(0, 2 ** 32 - 1))
    def test_overflowing_deltas_take_the_argsort_rule(self, tenure, seed):
        # Diagonal entries and fields near 1e308 sum past the largest double:
        # a delta is +inf at x_i = 0 and inf - inf = NaN at x_i = 1.
        instance = QuboInstance(k=6, rows=[0, 1, 2, 3, 4, 5, 0, 2],
                                cols=[0, 1, 2, 3, 4, 5, 3, 5],
                                vals=[1e308, 1.0, 1e308, -1.0, 0.5, 1e308, 2.0, -1.5])
        rng = np.random.default_rng(seed)
        b = np.array([1e308, -1.0, 1e308, 0.3, -0.2, 1e308])
        b[[1, 3, 4]] += rng.normal(size=3)
        start = rng.integers(0, 2, size=6).astype(np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert not np.all(np.isfinite(instance.all_flip_deltas(b, start)))
            assert_tabu_solve_is_the_argsort_scan(
                instance, b, TabuParams(max_steps=15, tabu_tenure=tenure, patience=None),
                start)


class TestTabuRows:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(tabu_stacks())
    def test_every_row_is_a_tabu_solve(self, case):
        instance, b, starts, params = case
        got = assert_rows_are_tabu_solves(instance, b, starts, params)
        cube = 1 << instance.k
        if params.patience is None and min(params.tabu_tenure, params.max_steps) >= cube:
            # every visited point stays remembered, so each walk runs out of moves
            assert {r.termination for r in got} == {"all_tabu"}

    def test_non_finite_deltas_take_the_argsort_rule(self):
        # Diagonal entries and fields near 1e308 sum past the largest double:
        # a delta is +inf at x_i = 0 and inf - inf = NaN at x_i = 1.
        instance = QuboInstance(k=6, rows=[0, 1, 2, 3, 4, 5, 0, 2],
                                cols=[0, 1, 2, 3, 4, 5, 3, 5],
                                vals=[1e308, 1.0, 1e308, -1.0, 0.5, 1e308, 2.0, -1.5])
        rng = np.random.default_rng(3)
        b = np.tile([1e308, -1.0, 1e308, 0.3, -0.2, 1e308], (8, 1))
        b[:, [1, 3, 4]] += rng.normal(size=(8, 3))
        starts = rng.integers(0, 2, size=(8, 6)).astype(np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for tenure in (0, 2, 6):
                got = assert_rows_are_tabu_solves(
                    instance, b, starts,
                    TabuParams(max_steps=15, tabu_tenure=tenure, patience=None))
                assert any(math.isinf(v) for r in got for v in r.trace)

    @pytest.mark.parametrize("layout", ["fortran", "column-slice", "column-step"])
    def test_strided_fields_are_refereed_like_evaluate(self, layout):
        # Each row's start and final f must have the bits of evaluate on a
        # contiguous copy of that row, though tabu_rows copies no field.
        inst = gen_random_dense(64, 41)
        rng = np.random.default_rng(42)
        b = rng.normal(size=(12, 64)) * 10.0 ** rng.integers(-8, 9, size=(12, 64))
        starts = rng.integers(0, 2, size=(12, 64)).astype(np.int8)
        wide = np.zeros((12, 3 * 64))
        if layout == "fortran":
            b_mat = np.asfortranarray(b)
        elif layout == "column-slice":
            wide[:, 5:69] = b
            b_mat = wide[:, 5:69]
        else:
            wide[:, ::3] = b
            b_mat = wide[:, ::3]
        assert not b_mat.flags.c_contiguous and np.array_equal(b_mat, b)
        params = TabuParams(max_steps=30, tabu_tenure=5)
        got = tabu_rows(inst, b_mat, np.asfortranarray(starts), params)
        for r, result in enumerate(got):
            want = tabu_solve(inst, b[r], params, starts[r])
            assert result.x_best.tolist() == want.x_best.tolist()
            assert (result.f_best.hex() == want.f_best.hex()
                    == inst.evaluate(b[r], result.x_best).hex())
            assert result.trace[0].hex() == inst.evaluate(b[r], starts[r]).hex()

    def test_one_start_for_every_row(self):
        inst = gen_random_dense(8, 31)
        b = np.random.default_rng(32).normal(size=(5, 8))
        start = np.random.default_rng(33).integers(0, 2, size=8)
        params = TabuParams(max_steps=20)
        for starts, one in ((None, None), (np.tile(start, (5, 1)), start)):
            want = [tabu_solve(inst, row, params, one) for row in b]
            got = tabu_rows(inst, b, starts, params)
            assert [r.x_best.tolist() for r in got] == [r.x_best.tolist() for r in want]
            assert [r.trace for r in got] == [r.trace for r in want]

    def test_charges_each_row_a_share_of_the_stack(self):
        inst = gen_random_dense(8, 34)
        got = tabu_rows(inst, np.random.default_rng(35).normal(size=(4, 8)))
        assert len({r.elapsed_ms for r in got}) == 1 and got[0].elapsed_ms > 0.0
        assert tabu_rows(inst, np.empty((0, 8))) == []

    @pytest.mark.parametrize("b,starts,params,msg", [
        (np.zeros((2, 3)), None, None, "field matrix has shape"),
        (np.array([[0.0, np.nan, 0.0, 0.0]]), None, None, "NaN or Inf"),
        (np.zeros((2, 4)), np.zeros((3, 4)), None, "start matrix has shape"),
        (np.zeros((1, 4)), np.full((1, 4), 2), None, "exactly 0 or 1"),
    ])
    def test_rejects_bad_input(self, b, starts, params, msg):
        with pytest.raises(ValueError, match=msg):
            tabu_rows(gen_random_dense(4, 0), b, starts, params)


class TestRefineWithTabu:
    def test_zero_steps_returns_the_start(self, k2_instance):
        got = refine_with_tabu(k2_instance, [[-1.0, 0.5]], [[0, 1]], max_steps=0)
        assert len(got) == 1
        assert got[0].x_best.tolist() == [0, 1]
        assert got[0].iterations == 0
        assert got[0].trace == [0.5]

    def test_never_worse_than_the_start(self):
        for t in range(10):
            inst = gen_random_dense(10, 500 + t)
            rng = np.random.default_rng(600 + t)
            b = rng.normal(size=(4, 10))
            starts = rng.integers(0, 2, size=(4, 10)).astype(np.int8)
            got = refine_with_tabu(inst, b, starts, max_steps=10)
            for row, start, result in zip(b, starts, got):
                assert result.f_best <= inst.evaluate(row, start) + 1e-12

    def test_polishes_to_the_optimum_nearby(self, k2_instance):
        got = refine_with_tabu(k2_instance, [[-1.0, 0.5]] * 2, [[0, 0], [1, 1]],
                               max_steps=3)
        for result in got:
            assert result.x_best.tolist() == [1, 0]
            assert result.f_best == -1.0

    def test_recovers_single_corrupted_bit(self):
        recovered = 0
        for t in range(30):
            inst = gen_random_dense(12, 700 + t)
            rng = np.random.default_rng(800 + t)
            b = rng.normal(size=12)
            opt = exhaustive_solve(inst, b)
            start = opt.x_best.copy()
            start[rng.integers(0, 12)] ^= 1
            got = refine_with_tabu(inst, b[None, :], start[None, :], max_steps=10)[0]
            recovered += int(got.f_best == pytest.approx(opt.f_best, abs=1e-9))
        assert recovered >= 29

    @pytest.mark.parametrize("budget", [0, 3, 10])
    def test_is_one_tabu_solve_call(self, budget):
        # Every row of a stack of several rows, so the lockstep path runs.
        fields = ("solver", "f_best", "iterations", "evaluations", "termination",
                  "trace")
        for t in range(5):
            inst = gen_random_dense(8, 900 + t)
            rng = np.random.default_rng(950 + t)
            b = rng.normal(size=(6, 8))
            starts = rng.integers(0, 2, size=(6, 8)).astype(np.int8)
            got = refine_with_tabu(inst, b, starts, max_steps=budget)
            assert len(got) == len(b)
            params = TabuParams(max_steps=budget, tabu_tenure=budget)
            for row, start, result in zip(b, starts, got):
                want = tabu_solve(inst, row, params, start)
                assert np.array_equal(result.x_best, want.x_best)
                assert ([getattr(result, f) for f in fields]
                        == [getattr(want, f) for f in fields])
                if budget == 0:
                    assert np.array_equal(result.x_best, start)
                    assert (result.iterations, result.evaluations) == (0, 1)
                    assert result.trace == [inst.evaluate(row, start)]

    def test_rejects_negative_budget(self, k2_instance):
        with pytest.raises(ValueError, match=">= 0"):
            refine_with_tabu(k2_instance, [[0.0, 0.0]], [[0, 0]], max_steps=-1)

    def test_an_unused_budget_does_not_grow_the_memory(self):
        # The default patience stops every row long before step 100 at
        # either budget, so the tenure of 2000 must not be paid for up front.
        inst = gen_random_dense(10, 3, 0.2)
        rng = np.random.default_rng(0)
        b = rng.normal(size=(200, 10))
        starts = rng.integers(0, 2, size=(200, 10)).astype(np.int8)
        peaks = {}
        for budget in (100, 2000):
            tracemalloc.start()
            try:
                got = refine_with_tabu(inst, b, starts, max_steps=budget)
                peaks[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert max(r.iterations for r in got) < 100
        assert peaks[2000] <= 1.5 * peaks[100]


def sab_referee_every_state(instance, b, params):
    """Reference sab_solve: the same dynamics on the same operator (dense
    when A + A^T stores at least k^2 / 4 entries), with evaluate refereeing
    every scored state.  Returns (x_best bytes, f_best, trace, evaluations),
    or the type and message of the error it raised."""
    k = instance.k
    try:
        _, h, _ = qubo_to_ising(instance, b)
        if params.c0 is not None:
            c0 = params.c0
        else:
            fro = 0.25 * float(np.sqrt((instance.a_csr.data ** 2).sum()))
            c0 = 0.5 / (fro / np.sqrt(k)) if fro > 0 else 0.5
        op = instance.a_sym_csr
        if 4 * op.nnz >= k * k:
            op = op.toarray()
        y = np.random.default_rng(params.seed).uniform(-0.1, 0.1, size=k)
        p = np.zeros(k)
        best_x, best_f, trace = None, np.inf, []
        for step, a_t in enumerate(np.linspace(0.0, params.a0, params.steps)):
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
                f_t = instance.evaluate(b, x_t)
                if f_t < best_f:
                    best_f, best_x = f_t, x_t
                trace.append(best_f)
        f_best = instance.evaluate(b, best_x)
        return best_x.tobytes(), f_best, trace, len(trace)
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, str(err)


def screened_sab(instance, b, params):
    """sab_solve's result in the form sab_referee_every_state returns."""
    try:
        got = sab_solve(instance, b, params)
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, str(err)
    return got.x_best.tobytes(), got.f_best, got.trace, got.evaluations


@st.composite
def sab_cases(draw):
    """An instance, a field and SB knobs of one of five kinds: integer A
    and b (exact ties between scored states), tenths (ties that the screen
    and evaluate round apart), a sparse A (the CSR operator), entries near
    the largest double (the bound or the screen overflows), and k = 1."""
    kind = draw(st.sampled_from(["integer", "tenths", "sparse", "huge", "k1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = {"integer": draw(st.integers(2, 14)), "tenths": draw(st.integers(2, 14)),
         "sparse": draw(st.integers(20, 40)), "huge": draw(st.integers(2, 8)), "k1": 1}[kind]
    if kind == "sparse":
        flat = rng.choice(k * k, size=draw(st.integers(0, k)), replace=False)
        rows, cols = np.divmod(flat, k)
    else:
        rows, cols = np.divmod(np.arange(k * k), k)
    vals = rng.normal(size=rows.size)
    b = rng.normal(size=k)
    if kind == "integer":
        vals, b = np.round(vals * 2), np.round(b * 2)
    elif kind == "tenths":
        vals, b = np.round(vals * 3) / 10, np.round(b * 3) / 10
    elif kind == "huge":
        scale = draw(st.sampled_from([1e300, 1e306, 5e307]))
        vals, b = vals * scale, b * scale
    instance = QuboInstance(k=k, rows=rows, cols=cols, vals=vals)
    params = SabParams(steps=draw(st.integers(1, 300)), seed=draw(st.integers(0, 1000)),
                       c0=draw(st.sampled_from([None, 0.3, 5.0])))
    return kind, instance, b, params


class TestSabParams:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            SabParams(dt=0.0)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
            SabParams(steps=0)

    def test_rejects_nonpositive_c0(self):
        with pytest.raises(ValueError, match="c0"):
            SabParams(c0=-1.0)

    @pytest.mark.parametrize("name", ["dt", "a0", "c0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_knobs(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            SabParams(**{name: value})


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

    @pytest.mark.parametrize("steps", [2000, 1995, 7])
    def test_scores_every_tenth_step_and_the_last_once(self, steps):
        inst = gen_random_dense(10, 5)
        b = np.random.default_rng(6).normal(size=10)
        got = sab_solve(inst, b, SabParams(steps=steps, seed=0))
        assert got.evaluations == len(got.trace) == math.ceil(steps / 10)

    def test_trace_is_non_increasing(self):
        inst = gen_random_dense(10, 5)
        b = np.random.default_rng(6).normal(size=10)
        got = sab_solve(inst, b, SabParams(steps=100, seed=0))
        assert all(y <= x for x, y in zip(got.trace, got.trace[1:]))


class TestSabScreen:
    """The screen skips only scored states that cannot beat the best, so
    sab_solve equals a run that referees every scored state."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(sab_cases())
    def test_equals_refereeing_every_scored_state(self, case):
        kind, instance, b, params = case
        if kind != "k1":
            assert (4 * instance.a_sym_csr.nnz < instance.k ** 2) == (kind == "sparse")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = sab_referee_every_state(instance, b, params)
            got = screened_sab(instance, b, params)
        # repr compares floats bit for bit and treats NaN as equal to itself
        assert repr(got) == repr(want)

    def test_a_tie_that_rounds_lower_is_still_refereed(self):
        # Two scored states, 1001 and then 1101, share the exact objective
        # -0.7, and evaluate rounds the later one lower, so the best moves by
        # one rounding step.  The screen of that state rounds the other way,
        # so only a bound on both roundings keeps it from being skipped.
        a = np.array([[2, -4, 4, -7], [-4, 2, 3, 1], [-7, -2, 4, 3], [-6, 7, 2, -2]]) / 10
        rows, cols = np.divmod(np.arange(16), 4)
        inst = QuboInstance(k=4, rows=rows, cols=cols, vals=a.ravel())
        b = np.array([6, -2, -2, 0]) / 10
        want = sab_referee_every_state(inst, b, SabParams(steps=500, seed=0))
        assert any(0 < f - g < 1e-12 for f, g in zip(want[2], want[2][1:]))
        assert repr(screened_sab(inst, b, SabParams(steps=500, seed=0))) == repr(want)

    def test_referees_fewer_states_than_it_scores(self, monkeypatch):
        inst = gen_random_dense(60, seed=61)
        b = np.random.default_rng(62).normal(size=60)
        calls = []
        evaluate = QuboInstance.evaluate
        monkeypatch.setattr(QuboInstance, "evaluate",
                            lambda self, *args: calls.append(1) or evaluate(self, *args))
        got = sab_solve(inst, b, SabParams(steps=1000, seed=0))
        assert got.evaluations == len(got.trace) == 100
        assert len(calls) - 1 < got.evaluations  # the last call scores x_best
        assert repr(screened_sab(inst, b, SabParams(steps=1000, seed=0))) == repr(
            sab_referee_every_state(inst, b, SabParams(steps=1000, seed=0)))


class TestSolverResult:
    def test_is_a_plain_record(self):
        res = SolverResult(solver="x", x_best=np.array([1], dtype=np.int8),
                           f_best=0.0, iterations=1, evaluations=1,
                           elapsed_ms=0.1)
        assert res.termination == "completed"
        assert res.trace is None



class TestGolden:
    """Exact outputs on one random-dense k=60 instance, pinned bit for bit.
    Tenures 1 and 2 give different answers here, so a tabu memory one entry
    too long or too short shows up."""

    @pytest.mark.parametrize("solve,params,bits,f_best,termination", [
        (tabu_solve, TabuParams(tabu_tenure=0, patience=None),
         "101101111111111001100001000101100110100011010001100111011011",
         "-156.72701124785746", "max_steps"),
        (tabu_solve, TabuParams(tabu_tenure=1, patience=None),
         "101101111111111001100001000101100110100011010001100111011011",
         "-156.72701124785746", "max_steps"),
        (tabu_solve, TabuParams(tabu_tenure=2, patience=None),
         "101101011110111000100001000011101010000111001000101111011011",
         "-163.6918293103925", "max_steps"),
        (tabu_solve, TabuParams(tabu_tenure=10, patience=None),
         "101101011110111001100001000111101111000111000000101111011011",
         "-164.66991330059258", "max_steps"),
        (sab_solve, None,
         "101101011110111001100001000111101111000111000000101111011011",
         "-164.66991330059258", "annealed"),
        (sab_solve, SabParams(c0=1.0),
         "101101111110111000100001000101101111000111100011101110011011",
         "-159.38482656623404", "annealed"),
    ], ids=["tabu-tenure-0", "tabu-tenure-1", "tabu-tenure-2", "tabu-tenure-10", "sab-default-c0", "sab-c0-1"])
    def test_pinned_result(self, solve, params, bits, f_best, termination):
        inst = gen_random_dense(60, seed=61)
        b = np.random.default_rng(62).normal(size=60)
        got = solve(inst, b, params)
        assert "".join(str(v) for v in got.x_best) == bits
        assert repr(got.f_best) == f_best
        assert (got.iterations, got.termination) == (1000, termination)
