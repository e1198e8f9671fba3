"""Network construction, forward semantics, training loop, checkpoints."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import qubolab
from qubolab import (BpgnnConfig, BpgnnModel, DataGenParams, Dataset,
                     HISTORY_COLUMNS, QuboInstance, Tape, TrainConfig,
                     backward, build_laplacian, gen_ising, gen_lattice_laplacian,
                     gen_random_dense, generate_dataset, lattice_adjacency,
                     load_checkpoint, save_checkpoint, train, write_history)
from qubolab.autodiff import _sigmoid, bce_with_logits
from qubolab.model import FORWARD_FLOATS, _SIGMA_RAW_INIT, _node_major, _validate
from qubolab.qubo import _product_form


def chain3() -> QuboInstance:
    """Path graph 0-1-2 with unit couplings."""
    return QuboInstance(3, [0, 1], [1, 2], [1.0, 1.0])


class TestBpgnnConfig:
    def test_defaults(self):
        cfg = BpgnnConfig()
        assert (cfg.d, cfg.layers, cfg.eps_step) == (32, 4, 0.5)
        assert cfg.use_qubo_features and cfg.dropout == 0.0 and cfg.seed == 0

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(d=0), "d must be"),
        (dict(layers=0), "layers must be"),
        (dict(eps_step=0.0), "eps_step must be positive"),
        (dict(dropout=1.0), "dropout must lie"),
        (dict(eps_step=float("nan")), "eps_step must be positive"),
        (dict(eps_step=float("inf")), "eps_step must be positive"),
        (dict(d=True), "d must be a number, got True"),
        (dict(layers=True), "layers must be a number, got True"),
        (dict(eps_step=True), "eps_step must be a number, got True"),
        (dict(dropout=False), "dropout must be a number, got False"),
        (dict(seed=True), "seed must be a number, got True"),
        (dict(use_qubo_features="false"), "use_qubo_features must be true or false"),
        (dict(use_qubo_features=0), "use_qubo_features must be true or false"),
        (dict(d=1.5), "d must be an integer, got 1.5"),
        (dict(layers=2.0), "layers must be an integer, got 2.0"),
        (dict(seed=0.5), "seed must be an integer, got 0.5"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            BpgnnConfig(**kwargs)


class TestBuildLaplacian:
    def test_two_node_edge(self):
        inst = QuboInstance(2, [0], [1], [1.0])
        lap = build_laplacian(inst).toarray()
        assert lap == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_chain_uses_degree_normalization(self):
        lap = build_laplacian(chain3()).toarray()
        s = 1.0 / np.sqrt(2.0)
        expected = np.array([[1.0, -s, 0.0], [-s, 1.0, -s], [0.0, -s, 1.0]])
        assert lap == pytest.approx(expected)

    def test_isolated_nodes_keep_unit_diagonal(self):
        inst = QuboInstance(3, [0, 1], [0, 1], [2.0, -1.0])  # diagonal only
        assert build_laplacian(inst).toarray() == pytest.approx(np.eye(3))

    @pytest.mark.parametrize("make", [
        lambda: gen_random_dense(10, seed=3),
        lambda: gen_lattice_laplacian(3),
        lambda: gen_lattice_laplacian(5),
        lambda: gen_lattice_laplacian(8),
        lambda: gen_ising(lattice_adjacency(4), 0.5)[0],
        lambda: QuboInstance(4, [0, 1, 3], [1, 0, 3], [1.0, 2.0, 3.0]),
        lambda: QuboInstance(3, [0, 1, 1], [1, 2, 1], [0.0, 1.0, 1.0]),
    ], ids=["random-dense-10", "lattice-3", "lattice-5", "lattice-8", "ising-4x4",
            "isolated-node", "explicit-zero"])
    def test_is_its_own_transpose(self, make):
        # Both triangles hold the same product, so L is exactly symmetric
        # in both of the forms the model holds.
        lap = build_laplacian(make())
        lap_t = lap.T.tocsr()
        lap_t.sort_indices()
        for name in ("indptr", "indices", "data"):
            got, want = getattr(lap, name), getattr(lap_t, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        dense = _product_form(lap)
        dense = dense if isinstance(dense, np.ndarray) else dense.toarray()
        assert dense.tobytes() == np.ascontiguousarray(dense.T).tobytes()

    def test_eigenvalues_lie_in_zero_two(self):
        lap = build_laplacian(gen_random_dense(10, seed=3)).toarray()
        assert lap == pytest.approx(lap.T)
        eig = np.linalg.eigvalsh(lap)
        assert eig.min() >= -1e-9 and eig.max() <= 2.0 + 1e-9


class TestOperatorForm:
    """The model holds A and its Laplacian dense when they store at least
    k^2/4 entries, the rule sab_solve uses, and as CSR otherwise."""

    @pytest.mark.parametrize("make,dense", [
        (lambda: gen_random_dense(10, seed=3), True),
        (lambda: gen_lattice_laplacian(3), True),   # 4 * 33 >= 9^2
        (lambda: gen_lattice_laplacian(4), True),   # 4 * 64 == 16^2
        (lambda: gen_lattice_laplacian(5), False),  # 4 * 105 < 25^2
        (lambda: gen_lattice_laplacian(8), False),
    ], ids=["random-dense-10", "lattice-3", "lattice-4", "lattice-5", "lattice-8"])
    def test_density_rule_picks_the_form(self, make, dense):
        inst = make()
        model = BpgnnModel(BpgnnConfig(d=2, layers=1), inst)
        for m, csr in ((model.a, inst.a_csr), (model.laplacian, build_laplacian(inst))):
            assert isinstance(m, np.ndarray) is dense
            assert sp.issparse(m) is not dense
            assert np.array_equal(m if dense else m.toarray(), csr.toarray())

    def test_dense_and_csr_forms_give_the_same_logits_and_gradients(self):
        inst = gen_random_dense(10, seed=3)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(6, 10))
        y = _node_major((rng.random((6, 10)) > 0.5).astype(np.float64))
        runs = []
        for keep_csr in (False, True):
            model = BpgnnModel(BpgnnConfig(d=8, layers=3, seed=2), inst)
            if keep_csr:
                model.a, model.laplacian = inst.a_csr, build_laplacian(inst)
            assert isinstance(model.a, np.ndarray) is not keep_csr
            with Tape():
                logits = model._logits(b)
                backward(bce_with_logits(logits, y))
            runs.append((logits.data, model.params))
        (dense_logits, dense_params), (csr_logits, csr_params) = runs
        np.testing.assert_allclose(dense_logits, csr_logits, rtol=1e-12)
        # Every node of this complete graph has the same degree, so the
        # Laplacian maps constant columns to 0 and each layer{i}.g.b2, which
        # reaches the loss only through it, has a gradient of rounding
        # size: entries that small are held to the largest gradient's scale.
        scale = max(np.abs(t.grad).max() for t in dense_params.values())
        for name, t in dense_params.items():
            np.testing.assert_allclose(t.grad, csr_params[name].grad, rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=name)


class TestParameters:
    def test_names_and_shapes(self):
        model = BpgnnModel(BpgnnConfig(d=4, layers=2), chain3())
        p = model.params
        expected = {"enc.w1": (1, 4), "enc.b1": (1, 4), "enc.w2": (4, 4),
                    "enc.b2": (1, 4), "dec.w": (4, 1), "dec.b": (1, 1)}
        for layer in range(2):
            for block in ("g", "f"):
                expected[f"layer{layer}.{block}.w1"] = (4, 4)
                expected[f"layer{layer}.{block}.b1"] = (1, 4)
                expected[f"layer{layer}.{block}.w2"] = (4, 4)
                expected[f"layer{layer}.{block}.b2"] = (1, 4)
            expected[f"layer{layer}.sigma_raw"] = (1, 4)
        assert {n: t.data.shape for n, t in p.items()} == expected
        assert all(t.requires_grad for t in p.values())

    def test_biases_zero_weights_bounded(self):
        model = BpgnnModel(BpgnnConfig(d=16, layers=1), chain3())
        p = model.params
        for name in ("enc.b1", "enc.b2", "layer0.g.b1", "dec.b"):
            assert np.all(p[name].data == 0.0)
        assert np.all(np.abs(p["enc.w1"].data) <= 1.0)        # fan-in 1
        assert np.all(np.abs(p["enc.w2"].data) <= 0.25)       # fan-in 16
        assert np.all(np.abs(p["dec.w"].data) <= 0.25)

    def test_diffusion_rate_starts_at_one(self):
        model = BpgnnModel(BpgnnConfig(d=3, layers=1), chain3())
        raw = model.params["layer0.sigma_raw"].data
        assert np.all(raw == _SIGMA_RAW_INIT)
        assert np.logaddexp(0.0, raw) == pytest.approx(np.ones((1, 3)))

    def test_seed_controls_initialization(self):
        a = BpgnnModel(BpgnnConfig(seed=1), chain3()).params
        b = BpgnnModel(BpgnnConfig(seed=1), chain3()).params
        c = BpgnnModel(BpgnnConfig(seed=2), chain3()).params
        assert all(np.array_equal(a[n].data, b[n].data) for n in a)
        assert not np.array_equal(a["enc.w1"].data, c["enc.w1"].data)


class TestForward:
    def test_logit_shape_and_determinism(self):
        inst = gen_random_dense(6, seed=8)
        model = BpgnnModel(BpgnnConfig(d=8, layers=2), inst)
        b = np.random.default_rng(0).normal(size=6)
        out1 = model.forward(b).data
        out2 = model.forward(b).data
        assert out1.shape == (6, 1)
        assert np.array_equal(out1, out2)

    def test_batched_forward_matches_single(self):
        # random-dense A is not symmetric; the lattice's A is sparse
        dense = gen_random_dense(5, seed=9)
        assert (dense.a_csr != dense.a_csr.T).nnz
        for inst in (dense, gen_lattice_laplacian(3)):
            model = BpgnnModel(BpgnnConfig(d=8, layers=3), inst)
            b = np.random.default_rng(1).normal(size=(4, inst.k))
            batched = model._logits(b).data
            # node-major rows: row i*n + j is node i of example j
            batched = batched.reshape(inst.k, 4).T
            single = np.stack([model.forward(row).data.ravel() for row in b])
            assert np.abs(batched - single).max() <= 1e-12

    def test_feature_switch_controls_dependence_on_couplings(self):
        # same sparsity pattern, different coupling values: without the
        # residual feature only the pattern (via the Laplacian) matters
        inst_a = QuboInstance(3, [0, 1], [1, 2], [1.0, 1.0])
        inst_b = QuboInstance(3, [0, 1], [1, 2], [-2.0, 0.5])
        b = np.array([0.3, -1.2, 0.7])
        off = BpgnnConfig(d=8, layers=2, use_qubo_features=False, seed=4)
        out_a = BpgnnModel(off, inst_a).forward(b).data
        out_b = BpgnnModel(off, inst_b).forward(b).data
        assert np.array_equal(out_a, out_b)
        on = BpgnnConfig(d=8, layers=2, use_qubo_features=True, seed=4)
        on_a = BpgnnModel(on, inst_a).forward(b).data
        on_b = BpgnnModel(on, inst_b).forward(b).data
        assert not np.array_equal(on_a, on_b)

    def test_predict_thresholds_sigmoid(self):
        inst = gen_random_dense(6, seed=12)
        model = BpgnnModel(BpgnnConfig(d=8, layers=2), inst)
        b = np.random.default_rng(2).normal(size=6)
        x = model.predict(b)
        probs = _sigmoid(model.forward(b).data.ravel())
        assert x.dtype == np.int8
        assert np.array_equal(x, (probs > 0.5).astype(np.int8))

    def test_predict_accepts_a_stack_of_vectors(self):
        inst = gen_random_dense(6, seed=12)
        model = BpgnnModel(BpgnnConfig(d=8, layers=2), inst)
        b = np.random.default_rng(3).normal(size=(5, 6))
        x = model.predict(b)
        assert x.shape == (5, 6) and x.dtype == np.int8
        assert np.array_equal(x, np.stack([model.predict(row) for row in b]))

    @pytest.mark.parametrize("make", [lambda: gen_random_dense(10, seed=3),
                                      lambda: gen_lattice_laplacian(5)],
                             ids=["dense-form", "csr-form"])
    def test_predict_on_an_empty_stack_returns_an_empty_stack(self, make):
        inst = make()
        model = BpgnnModel(BpgnnConfig(d=4, layers=2), inst)
        x = model.predict(np.empty((0, inst.k)))
        assert x.shape == (0, inst.k) and x.dtype == np.int8

    def test_predict_reads_any_layout_without_writing_it(self):
        inst = gen_random_dense(6, seed=12)
        model = BpgnnModel(BpgnnConfig(d=8, layers=2), inst)
        b = np.random.default_rng(4).normal(size=(5, 6))
        wide = np.zeros((5, 18))
        wide[:, ::3] = b
        want = model.predict(b)
        for stack in (np.asfortranarray(b), wide[:, ::3]):
            stack.flags.writeable = False
            assert np.array_equal(model.predict(stack), want)

    @pytest.mark.parametrize("b,message", [
        (np.zeros(5), "observed vector has shape (5,), expected (6,)"),
        (np.zeros((2, 5)), "field matrix has shape (2, 5), expected (n, 6)"),
        (np.zeros((1, 2, 6)), "observed vector has shape (1, 2, 6), expected (6,)"),
        (1.0, "observed vector has shape (), expected (6,)"),
        (np.full((2, 6), np.nan), "field matrix contains NaN or Inf entries"),
        (np.where(np.eye(6)[:3] > 0, np.inf, 0.0), "field matrix contains NaN or Inf entries"),
        ([0.0, 1.0, 2.0, 3.0, 4.0, -np.inf], "observed vector contains NaN or Inf entries"),
    ], ids=["short-vector", "short-rows", "3-d", "scalar", "nan-stack", "inf-in-stack",
            "inf-vector"])
    def test_predict_errors_name_the_vector(self, b, message):
        model = BpgnnModel(BpgnnConfig(d=4, layers=1), gen_random_dense(6, 1))
        with pytest.raises(ValueError) as err:
            model.predict(b)
        assert str(err.value) == message

    def test_dropout_active_only_in_training(self):
        model = BpgnnModel(BpgnnConfig(d=8, layers=2, dropout=0.5), chain3())
        b = np.array([1.0, -1.0, 0.5])
        eval1 = model.forward(b).data
        eval2 = model.forward(b).data
        assert np.array_equal(eval1, eval2)
        t1 = model._logits(b[None], np.random.default_rng(0)).data
        t2 = model._logits(b[None], np.random.default_rng(1)).data
        assert not np.array_equal(t1, t2)
        # with no rng, no dropout is drawn
        assert np.array_equal(model._logits(b[None]).data, eval1)


class TestEvalBlocks:
    """predict and validation run the eval-mode forward in blocks of
    max(1, FORWARD_FLOATS // (k*d)) rows (BpgnnModel._eval_logits)."""

    @staticmethod
    def block_rows(model):
        return max(1, FORWARD_FLOATS // (model.instance.k * model.config.d))

    @pytest.mark.parametrize("make", [lambda: gen_lattice_laplacian(8),
                                      lambda: gen_random_dense(40, seed=3)],
                             ids=["lattice-8x8", "dense-k40"])
    @pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_blocks_give_the_whole_stacks_logits(self, make, blocks, extra):
        model = BpgnnModel(BpgnnConfig(d=32, layers=4, seed=5), make())
        n = blocks * self.block_rows(model) + extra
        b = np.random.default_rng(n).normal(size=(n, model.instance.k))
        assert np.array_equal(model._eval_logits(b), model._logits(b).data)

    @pytest.mark.parametrize("n", [400, 2000])
    def test_dense_k10_blocks_give_the_whole_stacks_logits(self, n):
        # At k=10 a row's last bits can depend on the width of its block
        # (README); at these sizes, the pipelines' split sizes, they do not.
        model = BpgnnModel(BpgnnConfig(d=32, layers=4, seed=5), gen_random_dense(10, 1, 0.2))
        assert self.block_rows(model) == 102
        b = np.random.default_rng(n).normal(size=(n, 10))
        assert np.array_equal(model._eval_logits(b), model._logits(b).data)

    def test_predict_memory_does_not_grow_with_the_rows(self):
        # The whole 2000-row stack held 220 MB of activations at once.
        model = BpgnnModel(BpgnnConfig(d=32, layers=4), gen_lattice_laplacian(8))
        b = np.random.default_rng(0).normal(size=(2000, 64))
        tracemalloc.start()
        try:
            x = model.predict(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (2000, 64)
        assert peak < 10 * 2 ** 20, peak


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs,msg", [
        (dict(lr=-1.0), "lr must be"),
        (dict(weight_decay=-0.1), "weight_decay must be"),
        (dict(epochs=0), "epochs must be"),
        (dict(batch_size=0), "batch_size must be"),
        (dict(lr=float("nan")), "lr must be"),
        (dict(lr=float("inf")), "lr must be"),
        (dict(weight_decay=float("nan")), "weight_decay must be"),
        (dict(weight_decay=float("inf")), "weight_decay must be"),
        (dict(target_val_acc=0.9), "must be set together"),
        (dict(target_val_relqubo=0.1), "must be set together"),
        (dict(target_val_acc=float("nan"), target_val_relqubo=0.1), "target_val_acc must"),
        (dict(target_val_acc=1.5, target_val_relqubo=0.1), "target_val_acc must"),
        (dict(target_val_acc=-0.1, target_val_relqubo=0.1), "target_val_acc must"),
        (dict(target_val_acc=0.9, target_val_relqubo=float("nan")),
         "target_val_relqubo must"),
        (dict(target_val_acc=0.9, target_val_relqubo=float("inf")),
         "target_val_relqubo must"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            TrainConfig(**kwargs)


@pytest.fixture(scope="module")
def small_problem():
    inst = gen_random_dense(4, seed=3, scale=0.2)
    data = generate_dataset(inst, 30, DataGenParams(sigma=0.3, seed=0),
                            split=(0.8, 0.2))
    return inst, data


class TestTrain:
    def test_smoke_reduces_training_loss(self, small_problem):
        inst, data = small_problem
        model = BpgnnModel(BpgnnConfig(d=4, layers=2, eps_step=0.1, seed=0),
                           inst)
        model, history = train(model, data,
                               TrainConfig(lr=1e-2, epochs=5, batch_size=8,
                                           seed=0))
        assert [h["epoch"] for h in history] == [1, 2, 3, 4, 5]
        assert set(history[0]) == set(HISTORY_COLUMNS)
        assert history[-1]["train_bce"] < history[0]["train_bce"]
        assert np.isfinite(history[-1]["val_bce"])
        assert 0.0 <= history[-1]["val_acc"] <= 1.0

    def test_zero_lr_leaves_parameters_unchanged(self, small_problem):
        inst, data = small_problem
        model = BpgnnModel(BpgnnConfig(d=4, layers=1, seed=1), inst)
        before = {n: t.data.copy() for n, t in model.params.items()}
        train(model, data, TrainConfig(lr=0.0, epochs=2, batch_size=8))
        assert all(np.array_equal(before[n], model.params[n].data)
                   for n in before)

    def test_returns_best_validation_parameters(self, small_problem):
        inst, data = small_problem
        model = BpgnnModel(BpgnnConfig(d=4, layers=2, eps_step=0.1, seed=2),
                           inst)
        model, history = train(model, data,
                               TrainConfig(lr=5e-2, epochs=8, batch_size=8,
                                           seed=1))
        val_bce, _, _ = _validate(model, data.b_matrix("val"),
                                  data.x_matrix("val"))
        assert val_bce == pytest.approx(min(h["val_bce"] for h in history),
                                        rel=1e-12)

    def test_target_metrics_stop_early(self, small_problem):
        inst, data = small_problem
        model = BpgnnModel(BpgnnConfig(d=4, layers=1, seed=0), inst)
        _, history = train(model, data,
                           TrainConfig(lr=1e-3, epochs=50, batch_size=8,
                                       target_val_acc=0.0,
                                       target_val_relqubo=1e18))
        assert len(history) == 1

    def test_training_uses_the_model_dropout_rate(self, small_problem):
        inst, data = small_problem

        def first_train_bce(rate: float) -> float:
            model = BpgnnModel(BpgnnConfig(d=4, layers=1, dropout=rate, seed=0),
                               inst)
            _, history = train(model, data,
                               TrainConfig(lr=1e-2, epochs=1, batch_size=8))
            return history[0]["train_bce"]

        assert first_train_bce(0.5) == first_train_bce(0.5)
        assert first_train_bce(0.5) != first_train_bce(0.0)

    def test_dataset_k_must_match(self, small_problem):
        inst, _ = small_problem
        bad = Dataset("x", 5, {}, np.empty((0, 5)), np.empty((0, 5)), [])
        model = BpgnnModel(BpgnnConfig(d=4, layers=1), inst)
        with pytest.raises(ValueError, match="does not match instance"):
            train(model, bad, TrainConfig(epochs=1))

    def test_empty_training_split_is_rejected(self, small_problem):
        inst, _ = small_problem
        data = Dataset("x", 4, {}, np.zeros((1, 4)), np.zeros((1, 4)), ["val"])
        model = BpgnnModel(BpgnnConfig(d=4, layers=1), inst)
        with pytest.raises(ValueError, match="empty training split"):
            train(model, data, TrainConfig(epochs=1))

    def test_history_csv_round_trips(self, small_problem, tmp_path):
        inst, data = small_problem
        model = BpgnnModel(BpgnnConfig(d=4, layers=1, seed=0), inst)
        _, history = train(model, data, TrainConfig(lr=1e-3, epochs=3,
                                                    batch_size=8))
        path = tmp_path / "history.csv"
        write_history(history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_bce,val_bce,val_acc,val_relqubo"
        assert len(lines) == 4
        for rec, line in zip(history, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == rec["epoch"]
            assert float(cells[1]) == rec["train_bce"]
            assert float(cells[4]) == rec["val_relqubo"]
        write_history(history, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def assert_params_are_views_of_flat(model: BpgnnModel):
    """Every parameter's data is a view into model.flat, and the views tile
    it in the dict's order."""
    for name, t in model.params.items():
        assert np.shares_memory(t.data, model.flat), name
    tiled = np.concatenate([t.data.ravel() for t in model.params.values()])
    assert tiled.tobytes() == model.flat.tobytes()


class TestFlatParameters:
    def test_parameters_stay_views_of_one_vector(self, small_problem, tmp_path):
        inst, data = small_problem
        model = BpgnnModel(BpgnnConfig(d=4, layers=2, eps_step=0.1, seed=2), inst)
        assert model.flat.shape == (sum(t.data.size for t in model.params.values()),)
        assert_params_are_views_of_flat(model)
        # lr 0.5 overshoots, so the best epoch is not the last and the
        # restore writes an earlier snapshot back
        model, history = train(model, data, TrainConfig(lr=0.5, epochs=4,
                                                        batch_size=8, seed=1))
        best = min(h["val_bce"] for h in history)
        assert best < history[-1]["val_bce"]
        assert_params_are_views_of_flat(model)
        val_bce, _, _ = _validate(model, data.b_matrix("val"), data.x_matrix("val"))
        assert val_bce == best
        save_checkpoint(model, tmp_path / "model.json")
        loaded = load_checkpoint(tmp_path / "model.json", inst)
        assert_params_are_views_of_flat(loaded)
        assert loaded.flat.tobytes() == model.flat.tobytes()


def tiny_training_digests(inst: QuboInstance, flag: bool, out_dir) -> tuple[str, str]:
    """sha256 of the checkpoint and history.csv of a two-epoch d=4 training
    on 40 generated pairs, written to out_dir."""
    out_dir = pathlib.Path(out_dir)
    dataset = generate_dataset(inst, 40, DataGenParams(sigma=2.0, seed=5))
    model = BpgnnModel(BpgnnConfig(d=4, use_qubo_features=flag, seed=1), inst)
    model, _ = train(model, dataset, TrainConfig(epochs=2, batch_size=8, seed=2),
                     history_path=out_dir / "history.csv")
    save_checkpoint(model, out_dir / "model.json")
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                 for name in ("model.json", "history.csv"))


# Digests of tiny_training_digests on a lattice, keyed by (side,
# use_qubo_features).  Side 3 (k=9, 33 entries) trains on dense graph
# operators and side 5 (k=25, 105 entries) on CSR ones, so both product
# forms are pinned.  The side-3 digests were re-pinned when the model came
# to hold dense operators on dense instances; the side-5 ones were computed
# before that change and did not move.  All of them, and the
# NONSYMMETRIC_DIGESTS below, were re-pinned when dataset pair seeds became
# (seed << 32) | index.
PINNED_DIGESTS = {
    (3, True): ("ec2db324085a181ce862840b6b4119410c7913dd283db2209433935c176a83f1",
                "0f130531f759b26ea2eaef71a47a8178450ee168d56b52fd6ce666d839e04c76"),
    (3, False): ("87b5ea2c8a5f9fac743319eeefe062d8b6e2f3478c6d801d77a68e8737097477",
                 "70f58a28523c591b1ddf78cc4a011c81a1b07040a9c0c8bc6578a29c8f2fb899"),
    (5, True): ("bd72db05d83dd30869ace1f85e65c68b91e5aaf5fc00883b4923e23a19b1cd15",
                "9508dbb254ce392a5591987fb081b51eda809807a259c7859990d99d862c18ca"),
    (5, False): ("4cf58021a31a398cfbacf280039b5078b14240b0919b267f050936885c56a3ad",
                 "4cb45afae2862344653ff5adfe7092cf67f8213122166ecfc4daff828c173fdb"),
}


@pytest.mark.parametrize("side,flag", [
    pytest.param(3, True, id="features"),
    pytest.param(3, False, id="no-features"),
    pytest.param(5, True, id="side5-features"),
    pytest.param(5, False, id="side5-no-features"),
])
def test_tiny_lattice_training_keeps_its_pinned_digests(side, flag, tmp_path):
    inst = gen_lattice_laplacian(side)
    assert tiny_training_digests(inst, flag, tmp_path) == PINNED_DIGESTS[side, flag]


def one_directional_sparse() -> QuboInstance:
    """k=30 with a coupling on about one pair in eight, stored only as
    A_ij with i < j, plus the diagonal: A is not symmetric, and 4 nnz < k^2,
    so the model holds A and its Laplacian as CSR."""
    k = 30
    rng = np.random.default_rng(11)
    i, j = np.triu_indices(k, 1)
    pick = rng.random(i.size) < 0.125
    diag = np.arange(k)
    return QuboInstance(k, np.concatenate([i[pick], diag]), np.concatenate([j[pick], diag]),
                        rng.standard_normal(pick.sum() + k))


# A lattice's A equals its transpose exactly, so the lattice pins cannot
# tell A from A^T in the residual feature's VJP; these instances can.
# Keyed by (instance, use_qubo_features), digests as above.
NONSYMMETRIC = {
    "random-dense-10": (lambda: gen_random_dense(10, seed=3), True),
    "one-directional-30": (one_directional_sparse, False),
}
NONSYMMETRIC_DIGESTS = {
    ("random-dense-10", True): (
        "e12998d8ff3060dad9d74a1350203aeb3d0ac2c86ad000c4293bc40def407d3b",
        "ab2dd36242d868b2cd886014573390b3e231b99d680650408ae3b98c40236605"),
    ("random-dense-10", False): (
        "b9d4f99f4ff7cab88dc3b5128731827098bca20c8a742944f94573ff9e377441",
        "b0742a361ec8547a19b07d804600bfb78dc0b4bda8499e9fe717c9e8b401a0b5"),
    ("one-directional-30", True): (
        "4209144d0962e8b05dce5d64cfb759fcde1fded187c763c3817be2db27dca206",
        "98f87e8911d2c1358c6515e4ba5cc3242d09c70d7c0f25a592d70b3c8fc634f8"),
    ("one-directional-30", False): (
        "dbb01b902cf4b256109ce35ccc479241d9c4b9e933644a5a2a1445f7abde6920",
        "c13a73216e31e85f6b3b697aa701dfa2f6ac53fabf9d5f15640cf33904a98929"),
}


@pytest.mark.parametrize("name,flag", [
    pytest.param("random-dense-10", True, id="dense-features"),
    pytest.param("random-dense-10", False, id="dense-no-features"),
    pytest.param("one-directional-30", True, id="csr-features"),
    pytest.param("one-directional-30", False, id="csr-no-features"),
])
def test_tiny_nonsymmetric_training_keeps_its_pinned_digests(name, flag, tmp_path):
    make, dense = NONSYMMETRIC[name]
    inst = make()
    a = inst.a_csr.toarray()
    assert not np.array_equal(a, a.T)
    model = BpgnnModel(BpgnnConfig(d=4), inst)
    assert isinstance(model.a, np.ndarray) is dense
    assert isinstance(model.laplacian, np.ndarray) is dense
    assert tiny_training_digests(inst, flag, tmp_path) == NONSYMMETRIC_DIGESTS[name, flag]


def test_training_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The dense VJPs are GEMMs on transposed views, where a BLAS could block
    # its sums differently per thread count.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_model import NONSYMMETRIC, tiny_training_digests\n"
        "inst = NONSYMMETRIC['random-dense-10'][0]()\n"
        "print(*tiny_training_digests(inst, True, sys.argv[2]))\n")
    tests = pathlib.Path(__file__).resolve().parent
    src = str(pathlib.Path(qubolab.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        out_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", script, str(tests), str(out_dir)],
                             env=env, capture_output=True, text=True, check=True)
        assert tuple(run.stdout.split()) == NONSYMMETRIC_DIGESTS["random-dense-10", True]


class TestCheckpoints:
    def make_model(self) -> BpgnnModel:
        return BpgnnModel(BpgnnConfig(d=4, layers=2, eps_step=0.1, seed=7),
                          chain3())

    def test_round_trip_is_exact(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, chain3())
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name].data,
                                  model.params[name].data)
        b = np.array([0.4, -0.2, 1.1])
        assert np.array_equal(loaded.forward(b).data, model.forward(b).data)

    def test_save_is_deterministic(self, tmp_path):
        model = self.make_model()
        save_checkpoint(model, tmp_path / "a.json")
        save_checkpoint(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def _doc(self, tmp_path) -> dict:
        path = tmp_path / "model.json"
        save_checkpoint(self.make_model(), path)
        return json.loads(path.read_text())

    def _load(self, tmp_path, doc):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return load_checkpoint(path, chain3())

    def test_invalid_json_is_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid checkpoint JSON"):
            load_checkpoint(path, chain3())

    def test_missing_top_level_keys(self, tmp_path):
        doc = self._doc(tmp_path)
        del doc["params"]
        with pytest.raises(ValueError, match="'config' and 'params'"):
            self._load(tmp_path, doc)

    def test_missing_parameter(self, tmp_path):
        doc = self._doc(tmp_path)
        del doc["params"]["dec.w"]
        with pytest.raises(ValueError, match="missing parameter 'dec.w'"):
            self._load(tmp_path, doc)

    def test_unknown_parameter(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["params"]["bogus"] = {"shape": [1, 1], "data": [0.0]}
        with pytest.raises(ValueError, match="unknown parameter 'bogus'"):
            self._load(tmp_path, doc)

    def test_shape_mismatch(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["params"]["dec.w"]["shape"] = [1, 4]
        with pytest.raises(ValueError, match="has shape"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("shape", [[True, 1.0], [1.0, 1.0], [1, True]])
    def test_shape_entries_must_be_json_integers(self, tmp_path, shape):
        doc = self._doc(tmp_path)
        doc["params"]["dec.b"]["shape"] = shape
        text = json.dumps(doc, indent=1)
        path = tmp_path / "edited.json"
        path.write_text(text)
        line = text[:text.index('"dec.b"')].count("\n") + 1
        with pytest.raises(ValueError) as err:
            load_checkpoint(path, chain3())
        assert str(err.value) == (
            f"{path}:{line}: parameter 'dec.b' has shape {tuple(shape)}, expected (1, 1)")

    def test_truncated_values(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["params"]["dec.w"]["data"] = doc["params"]["dec.w"]["data"][:-1]
        with pytest.raises(ValueError, match="values"):
            self._load(tmp_path, doc)

    def test_bad_config_block(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["config"]["zzz"] = 1
        with pytest.raises(ValueError, match="bad config block"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("key,value,why", [
        ("layers", 5, "checkpoint is missing parameter 'layer4.g.w1'"),
        ("d", 5, "parameter 'enc.w1' has shape (1, 4), expected (1, 5)"),
        ("layers", 10 ** 400, "checkpoint is missing parameter 'layer4.g.w1'"),
    ], ids=["layers", "width", "huge-layers"])
    def test_config_is_checked_against_the_params_before_building(
            self, tmp_path, monkeypatch, key, value, why):
        path = tmp_path / "model.json"
        model = BpgnnModel(BpgnnConfig(d=4, layers=4, seed=7), chain3())
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["config"][key] = value

        def never(self):
            raise AssertionError("a model was built for a config the params do not hold")

        monkeypatch.setattr(BpgnnModel, "_init_params", never)
        text = json.dumps(doc, indent=1)
        path.write_text(text)
        at = '"params"' if "missing" in why else '"enc.w1"'
        line = text[:text.index(at)].count("\n") + 1
        with pytest.raises(ValueError) as err:
            load_checkpoint(path, chain3())
        assert str(err.value) == f"{path}:{line}: {why}"

    def test_values_are_checked_before_building(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(self.make_model(), path)
        doc = json.loads(path.read_text())
        doc["params"]["dec.b"]["data"] = ["HUGE"]
        text = json.dumps(doc, indent=1).replace('"HUGE"', "1e400")
        path.write_text(text)

        def never(self):
            raise AssertionError("a model was built for params that fail their check")

        monkeypatch.setattr(BpgnnModel, "_init_params", never)
        line = text[:text.index('"dec.b"')].count("\n") + 1
        with pytest.raises(ValueError) as err:
            load_checkpoint(path, chain3())
        assert str(err.value) == f"{path}:{line}: parameter 'dec.b' has non-finite values"
