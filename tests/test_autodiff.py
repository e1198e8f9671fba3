"""Tape engine: forward values, vector-Jacobian products against central
differences, tape lifecycle rules, and the Adam update."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from qubolab import AdamState, Tape, Tensor, adam_step, backward
from qubolab.autodiff import (add, bce_with_logits, const_matmul, dropout,
                              matmul, mul, relu, scale, softplus, sum_all,
                              tanh, zero_grad, _sigmoid)


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
    """Compare the taped gradient of sum(weights * build(x)) with central
    differences; weights break symmetry so errors cannot cancel."""
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape():
        out = build(x)
        w = np.random.default_rng(0).standard_normal(out.data.shape)
        backward(sum_all(mul(out, Tensor(w))))

    def value(x_data):
        return float((build(Tensor(x_data)).data * w).sum())

    numeric = fd_gradient(value, x0.copy())
    assert x.grad == pytest.approx(numeric, rel=rtol, abs=1e-8)


class TestForwardValues:
    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert matmul(a, b).data.tolist() == [[17.0], [39.0]]

    def test_matmul_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError, match="do not align"):
            matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="2-d"):
            matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))

    def test_spmm_matches_dense_product(self):
        m = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        x = Tensor([[3.0, 1.0], [4.0, 1.0]])
        out = const_matmul(m, x)
        assert out.data.tolist() == [[8.0, 2.0], [3.0, 1.0]]

    def test_const_matmul_acts_on_every_row_block(self):
        # node-major rows i*n + j: the product equals the block-diagonal
        # operator kron(m, I_n), for dense and sparse m alike
        rng = np.random.default_rng(30)
        m = rng.standard_normal((3, 3))
        x = rng.standard_normal((3 * 4, 2))
        expected = np.kron(m, np.eye(4)) @ x
        for op in (m, sp.csr_matrix(m)):
            got = const_matmul(op, Tensor(x)).data
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_const_matmul_rejects_misaligned_rows(self):
        with pytest.raises(ValueError, match="do not align"):
            const_matmul(np.eye(3), Tensor(np.ones((4, 2))))

    def test_add_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not broadcast"):
            add(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))

    def test_broadcast_add_col_adds_per_row(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([[10.0], [20.0]])
        assert add(x, v).data.tolist() == [[11.0, 12.0], [23.0, 24.0]]

    def test_add_and_mul_reject_non_broadcastable_b(self):
        # only a's own shape, a (1, 2) row or a (3, 1) column broadcasts
        # against a (3, 2) a, and only a 2-d a takes a vector
        cases = [((3, 2), b_shape) for b_shape in
                 ((1, 3), (2, 1), (2, 3), (3, 3), (1, 1), (6,))] + [((3,), (1, 3))]
        for op in (add, mul):
            for a_shape, b_shape in cases:
                with pytest.raises(ValueError, match="does not broadcast"):
                    op(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_broadcast_add_row_adds_per_column(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([[10.0, 20.0]])
        assert add(x, v).data.tolist() == [[11.0, 22.0], [13.0, 24.0]]

    def test_scale_columns_multiplies_per_column(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        s = Tensor([[2.0, 0.5]])
        assert mul(x, s).data.tolist() == [[2.0, 1.0], [6.0, 2.0]]

    def test_mul_elementwise_and_per_row(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert mul(x, Tensor([[2.0, 3.0], [0.5, -1.0]])).data.tolist() == [
            [2.0, 6.0], [1.5, -4.0]]
        assert mul(x, Tensor([[2.0], [-1.0]])).data.tolist() == [
            [2.0, 4.0], [-3.0, -4.0]]

    def test_scale_by_constant(self):
        assert scale(Tensor([[3.0]]), -2.0).data.tolist() == [[-6.0]]

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

    def test_sum_all_returns_scalar(self):
        assert sum_all(Tensor([[1.0, 2.0], [3.0, 4.0]])).data == 10.0


class TestGradients:
    def test_matmul_both_sides(self):
        w = np.random.default_rng(1).standard_normal((3, 2))
        check_op_gradient(lambda x: matmul(x, Tensor(w)),
                          np.random.default_rng(2).standard_normal((4, 3)))
        a = np.random.default_rng(3).standard_normal((2, 4))
        check_op_gradient(lambda x: matmul(Tensor(a), x),
                          np.random.default_rng(4).standard_normal((4, 3)))

    def test_spmm(self):
        m = sp.random(5, 4, density=0.5, random_state=0, format="csr")
        check_op_gradient(lambda x: const_matmul(m, x),
                          np.random.default_rng(5).standard_normal((4, 3)))

    def test_const_matmul_non_symmetric_batched(self):
        # a non-symmetric m, so a VJP using m instead of m.T would fail,
        # over n = 3 row blocks
        m = np.random.default_rng(31).standard_normal((4, 4))
        assert not np.allclose(m, m.T)
        x0 = np.random.default_rng(32).standard_normal((4 * 3, 2))
        for op in (m, sp.csr_matrix(m)):
            check_op_gradient(lambda x: const_matmul(op, x), x0)

    def test_add_and_hadamard(self):
        # same-shape operands, differentiated with respect to a and to b
        c = Tensor(np.random.default_rng(6).standard_normal((3, 3)))
        x0 = np.random.default_rng(7).standard_normal((3, 3))
        for op in (add, mul):
            check_op_gradient(lambda x: op(x, c), x0)
            check_op_gradient(lambda x: op(c, x), x0)

    def test_broadcasts(self):
        # with respect to a, for a column and a row b
        x0 = np.random.default_rng(10).standard_normal((4, 2))
        for b_shape in ((4, 1), (1, 2)):
            v = Tensor(np.random.default_rng(9).standard_normal(b_shape))
            for op in (add, mul):
                check_op_gradient(lambda x: op(x, v), x0)

    def test_broadcast_vector_sides(self):
        # with respect to the broadcast b, which sums over the repeats
        x = Tensor(np.random.default_rng(13).standard_normal((4, 2)))
        for b_shape in ((4, 1), (1, 2)):
            v0 = np.random.default_rng(14).standard_normal(b_shape)
            for op in (add, mul):
                check_op_gradient(lambda v: op(x, v), v0)

    @pytest.mark.parametrize("a_shape", [(1, 3), (3, 1)])
    def test_broadcast_of_a_single_value(self, a_shape):
        # a (1, 1) b is a column of a (1, d) a and a row of an (n, 1) a
        a = Tensor(np.random.default_rng(17).standard_normal(a_shape))
        for op in (add, mul):
            check_op_gradient(lambda v: op(a, v), np.array([[0.7]]))

    def test_pointwise_nonlinearities(self):
        x0 = np.random.default_rng(16).standard_normal((3, 4))
        check_op_gradient(relu, x0 + 0.05)  # keep clear of the kink
        check_op_gradient(tanh, x0)
        check_op_gradient(softplus, x0)
        check_op_gradient(lambda x: scale(x, 1.7), x0)

    def test_reuse_accumulates(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        with Tape():
            loss = sum_all(add(mul(x, x), x))  # x^2 + x
            backward(loss)
        assert x.grad == pytest.approx(np.array([[5.0]]))

    def test_constant_inputs_get_no_grad(self):
        x = Tensor(np.array([[1.0]]), requires_grad=True)
        c = Tensor(np.array([[3.0]]))
        with Tape():
            backward(sum_all(mul(x, c)))
        assert c.grad is None
        assert x.grad == pytest.approx(np.array([[3.0]]))

    def test_inputs_sharing_a_gradient_accumulate_apart(self):
        # add hands one array to both a and b; each later receives its own
        # further gradient, which must not leak into the other
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        with Tape():
            pa = scale(a, 2.0)  # recorded before add, so reached after it
            pb = scale(b, 5.0)
            both = add(a, b)
            backward(sum_all(add(both, add(pa, pb))))
        assert a.grad == pytest.approx(np.full((1, 2), 3.0))
        assert b.grad == pytest.approx(np.full((1, 2), 6.0))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([[1.0]]), requires_grad=True)
        for _ in range(2):
            with Tape():
                backward(sum_all(scale(x, 2.0)))
        assert x.grad == pytest.approx(np.array([[4.0]]))


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
            backward(sum_all(out))
        assert np.array_equal(x.grad, (out.data != 0) / 0.5)

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
        loss = sum_all(Tensor(np.ones((1, 1))))
        with pytest.raises(RuntimeError, match="not recorded"):
            backward(loss)

    def test_backward_twice_is_rejected(self):
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        with Tape():
            loss = sum_all(x)
            backward(loss)
            with pytest.raises(RuntimeError, match="already called"):
                backward(loss)

    def test_backward_frees_intermediates_without_the_cyclic_gc(self):
        gc.disable()
        try:
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            with Tape() as tape:
                mid = tanh(matmul(x, x))
                ref = weakref.ref(mid)
                loss = sum_all(mid)
                del mid
                backward(loss)
            assert ref() is None
            assert len(tape) == 3
            with pytest.raises(RuntimeError, match="already called"):
                backward(loss)
        finally:
            gc.enable()

    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape():
            out = scale(x, 1.0)
            with pytest.raises(ValueError, match="scalar"):
                backward(out)

    def test_nothing_recorded_outside_the_context(self):
        tape = Tape()
        with tape:
            inside = scale(Tensor(np.ones((1, 1))), 2.0)
        outside = scale(Tensor(np.ones((1, 1))), 2.0)
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


class TestAdam:
    def test_constant_gradient_moves_lr_per_step(self):
        # with a constant gradient, bias correction makes each step
        # exactly lr * sign(g) up to the eps guard
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        state = AdamState(lr=0.1)
        for _ in range(2):
            adam_step(p, {"w": np.array([2.0])}, state)
        assert p["w"].data == pytest.approx([0.8], abs=1e-6)
        assert state.step == 2

    def test_weight_decay_enters_the_gradient(self):
        p = {"w": Tensor(np.array([10.0]), requires_grad=True)}
        state = AdamState(lr=0.1, weight_decay=1.0)
        adam_step(p, {"w": np.array([0.0])}, state)
        # effective gradient 10 -> unit step of size lr downhill
        assert p["w"].data == pytest.approx([9.9], abs=1e-6)

    def test_missing_gradient_counts_as_zero(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        adam_step(p, {}, AdamState(lr=0.5))
        assert p["w"].data == pytest.approx([1.0])

    def test_shape_mismatch_is_rejected(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(ValueError, match="shape"):
            adam_step(p, {"w": np.zeros(2)}, AdamState(lr=0.1))

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError, match="lr"):
            AdamState(lr=-0.1)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError, match="beta"):
            AdamState(lr=0.1, beta1=1.0)
