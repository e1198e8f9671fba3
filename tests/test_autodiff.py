"""Tape engine: forward values, vector-Jacobian products against central
differences and against the unfused numpy composition of each compound
record, tape lifecycle rules, and the Adam update."""

from __future__ import annotations

import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from qubolab import (AdamState, BpgnnConfig, BpgnnModel, DataGenParams, Tape,
                     Tensor, TrainConfig, adam_step, backward,
                     gen_lattice_laplacian, gen_random_dense, generate_dataset,
                     train)
from qubolab.autodiff import (add, bce_with_logits, diffuse, dropout, linear,
                              react, relu, residual, softplus, transposed,
                              zero_grad, _sigmoid)


def fd_gradient(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        f_plus = fn(x)
        flat_x[i] = orig - step
        f_minus = fn(x)
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * step)
    return g


def check_op_gradient(build, x0: np.ndarray, rtol: float = 1e-6):
    """Compare the taped gradient of bce_with_logits(build(x), y) with
    central differences; soft targets y drawn at random break symmetry so
    errors cannot cancel."""
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape():
        out = build(x)
        y = np.random.default_rng(0).uniform(size=out.data.shape)
        backward(bce_with_logits(out, y))

    def value(x_data):
        return float(bce_with_logits(build(Tensor(x_data)), y).data)

    numeric = fd_gradient(value, x0.copy())
    assert x.grad == pytest.approx(numeric, rel=rtol, abs=1e-9)


def zero_bias(width: int) -> Tensor:
    return Tensor(np.zeros((1, width)))


def graph_operators(seed: int, k: int) -> list:
    """A non-symmetric k x k operator, dense and sparse, so a VJP that used
    m instead of m.T would fail."""
    m = np.random.default_rng(seed).standard_normal((k, k))
    m[np.abs(m) < 0.5] = 0.0
    assert not np.allclose(m, m.T)
    return [m, sp.csr_matrix(m)]


class TestForwardValues:
    def test_matmul(self):
        # linear's matrix product, with a zero bias
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert linear(a, b, zero_bias(1)).data.tolist() == [[17.0], [39.0]]

    def test_matmul_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError, match="do not align"):
            linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]), zero_bias(2))

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="2-d"):
            linear(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]), zero_bias(1))

    def test_spmm_matches_dense_product(self):
        # residual h * (m h + b) and diffusion h - eps * rate * (m u), with
        # a sparse m
        m = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        h = Tensor([[3.0, 1.0], [4.0, 1.0]])
        b = Tensor([[1.0], [-1.0]])
        assert residual(h, m, b).data.tolist() == [[27.0, 3.0], [8.0, 0.0]]
        out = diffuse(h, m, h, Tensor([[1.0, 2.0]]), 0.5)
        assert out.data.tolist() == [[-1.0, -1.0], [2.5, 0.0]]

    def test_const_matmul_acts_on_every_row_block(self):
        # node-major rows i*n + j: each graph product equals the
        # block-diagonal operator kron(m, I_n), for dense and sparse m alike
        rng = np.random.default_rng(30)
        m = rng.standard_normal((3, 3))
        h = rng.standard_normal((3 * 4, 2))
        b = rng.standard_normal((3 * 4, 1))
        rate = rng.uniform(size=(1, 2))
        big = np.kron(m, np.eye(4))
        for op in (m, sp.csr_matrix(m)):
            got = residual(Tensor(h), op, Tensor(b)).data
            assert got == pytest.approx(h * (big @ h + b), rel=1e-12, abs=1e-12)
            got = diffuse(Tensor(h), op, Tensor(h), Tensor(rate), 0.3).data
            assert got == pytest.approx(h - 0.3 * rate * (big @ h), rel=1e-12,
                                        abs=1e-12)

    def test_const_matmul_rejects_misaligned_rows(self):
        # rows must be whole items of k = 3 nodes, and m must be square
        h = Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match="do not align"):
            residual(h, np.eye(3), Tensor(np.ones((4, 1))))
        with pytest.raises(ValueError, match="do not align"):
            diffuse(h, np.eye(3), h, Tensor(np.ones((1, 2))), 0.5)
        with pytest.raises(ValueError, match="do not align"):
            residual(h, np.ones((2, 4)), Tensor(np.ones((4, 1))))

    def test_add_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not broadcast"):
            add(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))

    def test_broadcast_add_col_adds_per_row(self):
        # the residual's b column is added to every channel of its row
        h = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([[10.0], [20.0]])
        assert residual(h, np.zeros((2, 2)), v).data.tolist() == [
            [10.0, 20.0], [60.0, 80.0]]

    def test_add_and_mul_reject_non_broadcastable_b(self):
        # add takes only a's own shape, linear's bias only a (1, m) row,
        # the residual's b only a (rows, 1) column, and diffusion's rate
        # only a (1, d) row
        a = Tensor(np.ones((3, 2)))
        for b_shape in ((1, 3), (2, 1), (2, 3), (3, 3), (1, 1), (6,), (1, 2)):
            b = Tensor(np.ones(b_shape))
            with pytest.raises(ValueError, match="does not broadcast"):
                add(a, b)
            with pytest.raises(ValueError, match="does not broadcast"):
                residual(a, np.eye(3), b)
        for b_shape in ((1, 3), (2, 1), (3, 2), (2,)):
            b = Tensor(np.ones(b_shape))
            with pytest.raises(ValueError, match="does not broadcast"):
                linear(a, Tensor(np.ones((2, 2))), b)
            with pytest.raises(ValueError, match="does not broadcast"):
                diffuse(a, np.eye(3), a, b, 0.5)
        with pytest.raises(ValueError, match="does not broadcast"):
            diffuse(Tensor(np.ones((3, 1))), np.eye(3), a, Tensor(np.ones((1, 2))), 0.5)
        with pytest.raises(ValueError, match="does not broadcast"):
            react(a, Tensor(np.ones((3, 1))), 0.5)

    def test_broadcast_add_row_adds_per_column(self):
        # linear adds its bias row to every row, one entry per column
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([[10.0, 20.0]])
        assert linear(x, Tensor(np.eye(2)), v).data.tolist() == [
            [11.0, 22.0], [13.0, 24.0]]

    def test_scale_columns_multiplies_per_column(self):
        # diffusion scales each channel (column) of m u by its rate
        u = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = diffuse(Tensor(np.zeros((2, 2))), np.eye(2), u, Tensor([[2.0, 0.5]]), 1.0)
        assert out.data.tolist() == [[-2.0, -1.0], [-6.0, -2.0]]

    def test_mul_elementwise_and_per_row(self):
        # the residual multiplies h by m h + b elementwise; with m = 0 that
        # is h times b, row by row
        h = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert residual(h, np.eye(2), Tensor([[0.0], [0.0]])).data.tolist() == [
            [1.0, 4.0], [9.0, 16.0]]
        assert residual(h, np.zeros((2, 2)), Tensor([[2.0], [-1.0]])).data.tolist() == [
            [2.0, 4.0], [-3.0, -4.0]]

    def test_scale_by_constant(self):
        # the Euler step eps scales the reaction and the diffusion
        assert react(Tensor([[3.0]]), Tensor([[np.inf]]), -2.0).data.tolist() == [[1.0]]
        out = diffuse(Tensor([[3.0]]), np.eye(1), Tensor([[1.0]]), Tensor([[1.0]]), 2.0)
        assert out.data.tolist() == [[1.0]]

    def test_relu_clamps_negatives(self):
        out = relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]

    def test_softplus_is_smooth_relu(self):
        out = softplus(Tensor([[0.0, 100.0, -100.0]]))
        assert out.data[0, 0] == pytest.approx(np.log(2.0))
        assert out.data[0, 1] == pytest.approx(100.0)
        assert out.data[0, 2] == pytest.approx(0.0, abs=1e-30)

    def test_sigmoid_is_stable_at_extremes(self):
        out = _sigmoid(np.array([[-800.0, 800.0]]))
        assert np.all(np.isfinite(out))
        assert out == pytest.approx(np.array([[0.0, 1.0]]), abs=1e-12)


def per_item(m, x):
    return (m @ x.reshape(m.shape[1], -1)).reshape(x.shape)


class TestFusedRecordsMatchTheUnfusedComposition:
    """Each compound record computes its forward value and its VJP in the
    order the one-operation-per-record composition did, so results are
    bitwise equal to it: checkpoints and histories do not move."""

    @staticmethod
    def record(build, *inputs):
        with Tape() as tape:
            out = build(*inputs)
        rec = tape._records[-1]
        g = np.random.default_rng(40).standard_normal(out.data.shape)
        g[0, 0] = -0.0
        return out.data, g, rec.inputs, rec.vjp(g)

    @staticmethod
    def assert_bitwise(got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def tensors(self, n: int, k: int = 4, d: int = 3):
        rng = np.random.default_rng(41 + n)
        h, u, z = (rng.standard_normal((k * n, d)) for _ in range(3))
        b = rng.standard_normal((k * n, 1))
        return h, u, z, b, rng.uniform(0.5, 1.5, size=(1, d))

    def test_linear(self):
        rng = np.random.default_rng(42)
        x, w, b = (rng.standard_normal(s) for s in ((6, 3), (3, 5), (1, 5)))
        out, g, _, grads = self.record(linear, Tensor(x), Tensor(w), Tensor(b))
        self.assert_bitwise([out], [x @ w + b])
        self.assert_bitwise(grads, [g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)])

    @pytest.mark.parametrize("n", [1, 3])
    def test_residual(self, n):
        h, _, _, b, _ = self.tensors(n)
        for m in graph_operators(43, 4):
            t = Tensor(h)
            out, g, ins, grads = self.record(residual, t, m, Tensor(b))
            s = per_item(m, h) + b
            self.assert_bitwise([out], [h * s])
            assert ins == (t, t)
            self.assert_bitwise(grads, [g * s, per_item(m.T, g * h)])

    @pytest.mark.parametrize("n", [1, 3])
    def test_diffuse(self, n):
        h, u, _, _, rate = self.tensors(n)
        eps = 0.3
        for m in graph_operators(44, 4):
            out, g, _, grads = self.record(
                lambda *a: diffuse(*a, eps), Tensor(h), m, Tensor(u), Tensor(rate))
            mu = per_item(m, u)
            self.assert_bitwise([out], [h + -eps * (mu * rate)])
            gs = -eps * g
            self.assert_bitwise(grads, [g, per_item(m.T, gs * rate),
                                        (gs * mu).sum(axis=0, keepdims=True)])

    def test_react(self):
        h, _, z, _, _ = self.tensors(2)
        out, g, _, grads = self.record(lambda *a: react(*a, 0.3), Tensor(h), Tensor(z))
        t = np.tanh(z)
        self.assert_bitwise([out], [h + 0.3 * t])
        self.assert_bitwise(grads, [g, (0.3 * g) * (1.0 - t ** 2)])

    def test_relu(self):
        x = np.random.default_rng(45).standard_normal((4, 3))
        x[0, :] = [0.0, -0.0, np.nextafter(0.0, 1.0)]
        out, g, _, grads = self.record(relu, Tensor(x))
        mask = x > 0
        self.assert_bitwise([out], [np.where(mask, x, 0.0)])
        self.assert_bitwise(grads, [g * mask])


class TestGradients:
    def test_matmul_both_sides(self):
        # linear with respect to x, w and b
        rng = np.random.default_rng(1)
        x0, w0, b0 = (rng.standard_normal(s) for s in ((4, 3), (3, 2), (1, 2)))
        check_op_gradient(lambda x: linear(x, Tensor(w0), Tensor(b0)), x0)
        check_op_gradient(lambda w: linear(Tensor(x0), w, Tensor(b0)), w0)
        check_op_gradient(lambda b: linear(Tensor(x0), Tensor(w0), b), b0)

    def test_spmm(self):
        # the graph records with a sparse operator, one item
        m = sp.random(4, 4, density=0.5, random_state=0, format="csr")
        rng = np.random.default_rng(5)
        h0, u0 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        b, rate = Tensor(rng.standard_normal((4, 1))), Tensor(rng.uniform(size=(1, 3)))
        check_op_gradient(lambda h: residual(h, m, b), h0)
        check_op_gradient(lambda h: diffuse(h, m, Tensor(u0), rate, 0.4), h0)
        check_op_gradient(lambda u: diffuse(Tensor(h0), m, u, rate, 0.4), u0)

    def test_const_matmul_non_symmetric_batched(self):
        # residual and diffusion with respect to every differentiable
        # input, for a non-symmetric m, dense and sparse, over n = 1 and 3
        # items; h = u is the step without the residual feature
        for n, m in itertools.product((1, 3), graph_operators(32, 4)):
            rng = np.random.default_rng(31 + n)
            h0, u0 = rng.standard_normal((4 * n, 2)), rng.standard_normal((4 * n, 2))
            b = Tensor(rng.standard_normal((4 * n, 1)))
            rate0 = rng.uniform(0.5, 1.5, size=(1, 2))
            check_op_gradient(lambda h: residual(h, m, b), h0)
            check_op_gradient(lambda h: diffuse(h, m, Tensor(u0), Tensor(rate0), 0.4), h0)
            check_op_gradient(lambda u: diffuse(Tensor(h0), m, u, Tensor(rate0), 0.4), u0)
            check_op_gradient(lambda h: diffuse(h, m, h, Tensor(rate0), 0.4), h0)
            check_op_gradient(
                lambda r: diffuse(Tensor(h0), m, Tensor(u0), r, 0.4), rate0)

    def test_add_and_hadamard(self):
        # add with respect to a and to b, and the residual's product h * s
        c = Tensor(np.random.default_rng(6).standard_normal((3, 3)))
        x0 = np.random.default_rng(7).standard_normal((3, 3))
        check_op_gradient(lambda x: add(x, c), x0)
        check_op_gradient(lambda x: add(c, x), x0)
        check_op_gradient(lambda x: residual(x, np.eye(3), Tensor(np.ones((3, 1)))), x0)

    def test_broadcasts(self):
        # with respect to h, for the residual's b column and diffusion's
        # rate row
        x0 = np.random.default_rng(10).standard_normal((4, 2))
        v = Tensor(np.random.default_rng(9).standard_normal((4, 1)))
        r = Tensor(np.random.default_rng(9).uniform(size=(1, 2)))
        m = np.random.default_rng(8).standard_normal((4, 4))
        check_op_gradient(lambda x: residual(x, m, v), x0)
        check_op_gradient(lambda x: diffuse(x, m, x, r, 0.5), x0)

    def test_broadcast_vector_sides(self):
        # with respect to the broadcast row, which sums over the repeats:
        # linear's bias and diffusion's rate
        x = Tensor(np.random.default_rng(13).standard_normal((4, 2)))
        v0 = np.random.default_rng(14).standard_normal((1, 2))
        check_op_gradient(lambda v: linear(x, Tensor(np.eye(2)), v), v0)
        check_op_gradient(lambda v: diffuse(x, np.ones((4, 4)), x, v, 0.5), v0)

    @pytest.mark.parametrize("a_shape", [(1, 3), (3, 1)])
    def test_broadcast_of_a_single_value(self, a_shape):
        # a (1, 1) bias or rate is one value repeated over every row
        a = Tensor(np.random.default_rng(17).standard_normal(a_shape))
        w = Tensor(np.random.default_rng(18).standard_normal((a_shape[1], 1)))
        check_op_gradient(lambda v: linear(a, w, v), np.array([[0.7]]))
        col = Tensor(a.data.reshape(-1, 1))
        k = col.data.shape[0]
        check_op_gradient(lambda v: diffuse(col, np.ones((k, k)), col, v, 0.5),
                          np.array([[0.7]]))

    def test_pointwise_nonlinearities(self):
        x0 = np.random.default_rng(16).standard_normal((3, 4))
        h = Tensor(np.random.default_rng(15).standard_normal((3, 4)))
        check_op_gradient(relu, x0 + 0.05)  # keep clear of the kink
        check_op_gradient(softplus, x0)
        check_op_gradient(lambda z: react(h, z, 1.7), x0)
        check_op_gradient(lambda x: react(x, Tensor(x0), 1.7), x0)

    def test_reuse_accumulates(self):
        # x feeds both sides of add: d/dx bce(2x, 0) = 2 sigmoid(2x)
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        with Tape():
            backward(bce_with_logits(add(x, x), np.zeros((1, 1))))
        assert x.grad == pytest.approx(2.0 * _sigmoid(np.array([[4.0]])))

    def test_constant_inputs_get_no_grad(self):
        x = Tensor(np.array([[1.0]]), requires_grad=True)
        c = Tensor(np.array([[3.0]]))
        with Tape():
            backward(bce_with_logits(linear(x, c, zero_bias(1)), np.zeros((1, 1))))
        assert c.grad is None
        assert x.grad == pytest.approx(3.0 * _sigmoid(np.array([[3.0]])))

    def test_inputs_sharing_a_gradient_accumulate_apart(self):
        # add hands one array to both a and b; each later receives its own
        # further gradient, which must not leak into the other
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        two, five = Tensor(np.eye(2) * 2.0), Tensor(np.eye(2) * 5.0)
        with Tape():
            pa = linear(a, two, zero_bias(2))  # recorded before add, so reached after it
            pb = linear(b, five, zero_bias(2))
            both = add(a, b)
            logits = add(both, add(pa, pb))
            backward(bce_with_logits(logits, np.zeros((1, 2))))
        g = _sigmoid(logits.data) / 2.0
        assert a.grad == pytest.approx(3.0 * g)
        assert b.grad == pytest.approx(6.0 * g)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([[1.0]]), requires_grad=True)
        for _ in range(2):
            with Tape():
                backward(bce_with_logits(add(x, x), np.zeros((1, 1))))
        assert x.grad == pytest.approx(4.0 * _sigmoid(np.array([[2.0]])))


class TestDropout:
    def test_identity_at_zero_probability(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, seed=0) is x

    def test_mask_is_seed_deterministic(self):
        x = Tensor(np.ones((10, 10)))
        a = dropout(x, 0.5, seed=4).data
        b = dropout(x, 0.5, seed=4).data
        c = dropout(x, 0.5, seed=5).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_survivors_are_rescaled(self):
        x = Tensor(np.ones((20, 20)))
        out = dropout(x, 0.25, seed=1).data
        assert set(np.unique(out)) <= {0.0, 1.0 / 0.75}

    def test_gradient_uses_the_same_mask(self):
        x = Tensor(np.ones((5, 5)), requires_grad=True)
        with Tape():
            out = dropout(x, 0.5, seed=2)
            backward(bce_with_logits(out, np.zeros((5, 5))))
        assert np.array_equal(x.grad != 0, out.data != 0)
        kept = out.data != 0
        assert x.grad[kept] == pytest.approx(_sigmoid(out.data[kept]) / 25 / 0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            dropout(Tensor(np.ones((2, 2))), 1.0, seed=0)


class TestBce:
    def test_matches_naive_formula_in_safe_range(self):
        rng = np.random.default_rng(20)
        z = rng.normal(size=(6, 1))
        y = rng.integers(0, 2, size=(6, 1)).astype(np.float64)
        p = _sigmoid(z)
        naive = float(np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)))
        got = bce_with_logits(Tensor(z), y)
        assert float(got.data) == pytest.approx(naive, rel=1e-12)

    def test_stays_finite_at_extreme_logits(self):
        z = np.array([[800.0], [-800.0]])
        y = np.array([[0.0], [1.0]])
        got = bce_with_logits(Tensor(z), y)
        assert float(got.data) == pytest.approx(800.0)

    def test_gradient_is_mean_sigmoid_error(self):
        rng = np.random.default_rng(21)
        z = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        y = rng.integers(0, 2, size=(4, 1)).astype(np.float64)
        with Tape():
            backward(bce_with_logits(z, y))
        assert z.grad == pytest.approx((_sigmoid(z.data) - y) / 4.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            bce_with_logits(Tensor(np.zeros((2, 1))), np.zeros((3, 1)))


class TestTapeLifecycle:
    def test_backward_needs_a_tape(self):
        loss = bce_with_logits(Tensor(np.ones((1, 1))), np.ones((1, 1)))
        with pytest.raises(RuntimeError, match="not recorded"):
            backward(loss)

    def test_backward_twice_is_rejected(self):
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        with Tape():
            loss = bce_with_logits(x, np.ones((1, 1)))
            backward(loss)
            with pytest.raises(RuntimeError, match="already called"):
                backward(loss)

    def test_backward_frees_intermediates_without_the_cyclic_gc(self):
        gc.disable()
        try:
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            with Tape() as tape:
                mid = relu(linear(x, x, zero_bias(2)))
                ref = weakref.ref(mid)
                loss = bce_with_logits(mid, np.ones((2, 2)))
                del mid
                backward(loss)
            assert ref() is None
            assert len(tape) == 3
            with pytest.raises(RuntimeError, match="already called"):
                backward(loss)
        finally:
            gc.enable()

    def test_an_intermediate_no_vjp_reads_is_freed_in_the_forward(self):
        # relu's VJP reads its own output, so the pre-activation it consumed
        # is not kept for backward
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape():
            pre = linear(x, x, zero_bias(2))
            ref = weakref.ref(pre)
            out = relu(pre)
            del pre
            assert ref() is None
            backward(bce_with_logits(out, np.ones((2, 2))))
        assert x.grad is not None

    def test_tensors_made_after_intermediates_died_keep_their_gradients(self):
        # new leaves may reuse the memory of freed intermediates; gradients
        # must still reach each one alone: total = sum_i x * i, so
        # d/dc_i = x * s and d/dx = s * sum_i i with s = sigmoid(total)
        x = Tensor(np.array([[0.3]]), requires_grad=True)
        leaves, total = [], None
        with Tape():
            for i in range(20):
                mid = relu(linear(x, Tensor([[1.0]]), zero_bias(1)))
                leaves.append(Tensor([[float(i)]], requires_grad=True))
                term = linear(mid, leaves[-1], zero_bias(1))
                total = term if total is None else add(total, term)
            backward(bce_with_logits(total, np.zeros((1, 1))))
        s = float(_sigmoid(total.data)[0, 0])
        assert float(x.grad[0, 0]) == pytest.approx(s * sum(range(20)))
        for c in leaves:
            assert float(c.grad[0, 0]) == pytest.approx(0.3 * s)

    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape():
            out = relu(x)
            with pytest.raises(ValueError, match="scalar"):
                backward(out)

    def test_nothing_recorded_outside_the_context(self):
        tape = Tape()
        with tape:
            inside = relu(Tensor(np.ones((1, 1))))
        outside = relu(Tensor(np.ones((1, 1))))
        assert len(tape) == 1
        assert inside.data.tolist() == outside.data.tolist()

    def test_zero_grad_clears_dict_and_iterable(self):
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        x.grad = np.ones((1, 1))
        zero_grad({"x": x})
        assert x.grad is None
        x.grad = np.ones((1, 1))
        zero_grad([x])
        assert x.grad is None


class TestTransposedOperators:
    """A model builds each VJP's m.T once, as transposed(m); its products
    must be m.T's bit for bit, or checkpoints and histories would move."""

    @staticmethod
    def operators():
        # random-dense k=12 gives the model dense operators, the 5x5
        # lattice CSR ones
        for inst in (gen_random_dense(12, 3), gen_lattice_laplacian(5)):
            model = BpgnnModel(BpgnnConfig(d=3), inst)
            yield model.a, model.a_t
            # L is symmetric, so the model uses it as its own transpose
            yield model.laplacian, model.laplacian
        for m in graph_operators(46, 16):
            yield m, transposed(m)

    @pytest.mark.parametrize("n", [1, 5])
    def test_products_equal_those_of_m_transpose(self, n):
        rng = np.random.default_rng(47)
        for m, m_t in self.operators():
            k = m.shape[0]
            # magnitudes over 16 decades, so any other summation order
            # rounds differently
            x = rng.standard_normal((k * n, 3)) * 10.0 ** rng.uniform(-8, 8, (k * n, 3))
            assert per_item(m_t, x).tobytes() == per_item(m.T, x).tobytes()


def per_tensor_adam_step(params, grads, state):
    """Reference Adam: the per-name loop that updated one tensor at a time
    (dict moments, a missing or None gradient counting as zero)."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros_like(p) if g is None else g
        if state.weight_decay:
            g = g + state.weight_decay * p
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g ** 2
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


class TestAdam:
    def test_constant_gradient_moves_lr_per_step(self):
        # with a constant gradient, bias correction makes each step
        # exactly lr * sign(g) up to the eps guard
        w = np.array([1.0])
        state = AdamState(lr=0.1)
        for _ in range(2):
            adam_step(w, np.array([2.0]), state)
        assert w == pytest.approx([0.8], abs=1e-6)
        assert state.step == 2

    def test_weight_decay_enters_the_gradient(self):
        w = np.array([10.0])
        state = AdamState(lr=0.1, weight_decay=1.0)
        adam_step(w, np.array([0.0]), state)
        # effective gradient 10 -> unit step of size lr downhill
        assert w == pytest.approx([9.9], abs=1e-6)

    def test_missing_gradient_counts_as_zero(self):
        # Without the residual feature no layer*.g.* parameter is on the
        # tape, so train gathers zeros for them: Adam must leave them alone.
        inst = gen_random_dense(5, 3, scale=0.2)
        data = generate_dataset(inst, 24, DataGenParams(sigma=0.3, seed=4))
        model = BpgnnModel(BpgnnConfig(d=4, layers=2, use_qubo_features=False,
                                       seed=3), inst)
        before = {n: t.data.tobytes() for n, t in model.params.items()}
        train(model, data, TrainConfig(lr=1e-2, epochs=3, batch_size=8, seed=1))
        g_names = [n for n in before if ".g." in n]
        assert len(g_names) == 8
        for name in g_names:
            assert model.params[name].data.tobytes() == before[name]
        assert model.params["dec.w"].data.tobytes() != before["dec.w"]

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_one_array_equals_the_per_tensor_loop(self, weight_decay):
        # Adam is elementwise, so the flat update must give every entry the
        # bits of the per-tensor loop: parameters and both moments.
        rng = np.random.default_rng(48)
        shapes = {"w": (3, 4), "b": (1, 4), "s": (1, 1), "dead": (2, 2)}
        ref = {n: rng.standard_normal(s) for n, s in shapes.items()}
        flat = np.concatenate([p.ravel() for p in ref.values()])
        ref_state = AdamState(lr=1e-2, weight_decay=weight_decay)
        ref_state.m, ref_state.v = {}, {}
        state = AdamState(lr=1e-2, weight_decay=weight_decay)
        for step in range(25):
            # magnitudes over 12 decades; "dead" gets no gradient for a while
            grads = {n: rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 6, s)
                     for n, s in shapes.items()}
            if 5 <= step < 15:
                grads["dead"] = None
            per_tensor_adam_step(ref, grads, ref_state)
            adam_step(flat, np.concatenate([
                np.zeros(p.size) if grads[n] is None else grads[n].ravel()
                for n, p in ref.items()]), state)
            assert flat.tobytes() == np.concatenate(
                [p.ravel() for p in ref.values()]).tobytes()
        for mine, theirs in ((state.m, ref_state.m), (state.v, ref_state.v)):
            assert mine.tobytes() == np.concatenate(
                [theirs[n].ravel() for n in shapes]).tobytes()
        assert state.step == ref_state.step == 25

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            adam_step(np.array([1.0]), np.zeros(2), AdamState(lr=0.1))

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError, match="lr"):
            AdamState(lr=-0.1)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError, match="beta"):
            AdamState(lr=0.1, beta1=1.0)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(lr=float("nan")), "lr must be >= 0 and finite"),
        (dict(lr=float("inf")), "lr must be >= 0 and finite"),
        (dict(weight_decay=-1e-4), "weight_decay must be >= 0 and finite"),
        (dict(weight_decay=float("nan")), "weight_decay must be >= 0 and finite"),
        (dict(weight_decay=float("inf")), "weight_decay must be >= 0 and finite"),
        (dict(eps=0.0), "eps must be positive and finite"),
        (dict(eps=-1e-8), "eps must be positive and finite"),
        (dict(eps=float("nan")), "eps must be positive and finite"),
        (dict(eps=float("inf")), "eps must be positive and finite"),
    ])
    def test_rejects_bad_knobs(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            AdamState(**{"lr": 0.1, **kwargs})
