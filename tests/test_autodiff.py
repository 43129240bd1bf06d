import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpt import autodiff as ad
from tpt.autodiff import Tape, Tensor


def rand(shape, seed=0, grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ad.matmul(Tensor(np.eye(2)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_checked(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(rand((2, 3)), rand((2, 3)))

    def test_gradcheck(self):
        x = rand((3, 4), seed=1)
        b = rand((4, 2), seed=2, grad=False)
        w = rand((3, 2), seed=3, grad=False)

        def f(t):
            return ad.sum_all(ad.mul(ad.matmul(t, b), w))

        assert ad.finite_diff_check(f, x) <= 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_rows(Tensor(np.array([[0.0, 0.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_no_overflow(self):
        out = ad.softmax_rows(Tensor(np.array([[1000.0, 0.0]])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0, 0], 1.0)

    def test_scalar_oracle(self):
        out = ad.softmax_rows(Tensor(np.array([[5.0, 1.0]])))
        expected = np.exp(4.0) / (np.exp(4.0) + 1.0)
        np.testing.assert_allclose(out.data[0], [expected, 1.0 - expected],
                                   rtol=1e-12)
        np.testing.assert_allclose(out.data[0], [0.9820, 0.0180], atol=5e-5)

    def test_rows_sum_to_one_large_magnitude(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(scale=1e3, size=(20, 6)))
        out = ad.softmax_rows(x)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestLayerNorm:
    def test_constant_row_zero_before_affine(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        out = ad.layer_norm(x, Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2))),
                            eps=1e-15)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-7)

    def test_gradcheck(self):
        x = rand((2, 8), seed=4)
        gain = rand((1, 8), seed=5, grad=False)
        bias = rand((1, 8), seed=6, grad=False)
        w = rand((2, 8), seed=7, grad=False)

        def f(t):
            return ad.sum_all(ad.mul(ad.layer_norm(t, gain, bias), w))

        assert ad.finite_diff_check(f, x) <= 1e-5


class TestElementwiseOps:
    def test_gelu_zero(self):
        assert ad.gelu(Tensor(np.zeros((1, 1)))).data[0, 0] == 0.0

    def test_l2_normalize_345(self):
        out = ad.l2_normalize_rows(Tensor(np.array([[3.0, 4.0]])))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], rtol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("op,positive", [
        (ad.gelu, False), (ad.l2_normalize_rows, False), (ad.mean_rows, False),
        (ad.log, True), (ad.softmax_rows, False),
    ])
    def test_gradcheck_all_ops_20_seeds(self, op, positive, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.5, 2.0, (3, 4)) if positive else rng.normal(size=(3, 4))
        x = Tensor(data, requires_grad=True)
        w = Tensor(rng.normal(size=op(Tensor(data.copy())).data.shape))

        def f(t):
            return ad.sum_all(ad.mul(op(t), w))

        assert ad.finite_diff_check(f, x) <= 1e-5


class TestBackward:
    def test_sum_grad_is_ones(self):
        p = rand((3, 2), seed=8)
        with Tape() as tape:
            loss = ad.sum_all(p)
            tape.backward(loss)
        np.testing.assert_array_equal(p.grad, np.ones((3, 2)))

    def test_independent_leaf_gets_zero(self):
        p = rand((2, 2), seed=9)
        q = rand((2, 2), seed=10)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(p, p))
            tape.backward(loss)
        np.testing.assert_array_equal(q.grad, 0.0)

    def test_non_scalar_loss_rejected(self):
        p = rand((2, 2), seed=11)
        with Tape() as tape:
            out = ad.mul(p, p)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(out)

    def test_repeated_backward_accumulates_on_leaves(self):
        p = rand((2, 2), seed=12)
        with Tape() as tape:
            loss = ad.sum_all(p)
            tape.backward(loss)
            tape.backward(loss)
        np.testing.assert_array_equal(p.grad, 2.0 * np.ones((2, 2)))

    def test_backward_deterministic(self):
        grads = []
        for _ in range(2):
            p = rand((4, 4), seed=13)
            with Tape() as tape:
                h = ad.gelu(ad.matmul(p, p))
                loss = ad.sum_all(ad.mul(ad.softmax_rows(h), h))
                tape.backward(loss)
            grads.append(p.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])


class TestFiniteDiffCheck:
    def test_quadratic_exact(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)

        def f(t):
            return ad.sum_all(ad.mul(t, t))

        err = ad.finite_diff_check(f, x)
        assert err <= 1e-9
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]], atol=1e-12)

    def test_entropy_of_softmax(self):
        x = rand((1, 5), seed=14)

        def f(t):
            p = ad.softmax_rows(t)
            return ad.neg(ad.sum_all(ad.mul(p, ad.log(p))))

        assert ad.finite_diff_check(f, x) <= 1e-6

    def test_sharp_softmax(self):
        x = rand((1, 5), seed=15)

        def f(t):
            p = ad.softmax_rows(ad.scale(t, 100.0))
            return ad.neg(ad.sum_all(ad.mul(p, ad.log(p))))

        assert ad.finite_diff_check(f, x) <= 1e-4

    def test_small_slope_under_large_loss(self):
        # one input sits at x ≈ -0.752, where GELU's slope is ~1e-5, under a
        # loss of about 14: two-point differences at h = 1e-5 read 1.9e-5
        rng = np.random.default_rng(164)
        x = Tensor(rng.normal(size=(2, 4, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=x.data.shape))

        def f(t):
            return ad.sum_all(ad.mul(ad.gelu(t), w))

        assert np.abs(x.data + 0.752).min() < 1e-3
        assert ad.finite_diff_check(f, x) <= 1e-6


def test_data_stays_finite_through_ops():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(scale=1e3, size=(4, 6)))
    for out in (ad.softmax_rows(x), ad.gelu(x), ad.l2_normalize_rows(x),
                ad.log(ad.softmax_rows(x)),
                ad.layer_norm(x, Tensor(np.ones((1, 6))), Tensor(np.zeros((1, 6))))):
        assert np.all(np.isfinite(out.data))


def test_tensor_invariant_grad_shape():
    t = Tensor(np.zeros((3, 5)), requires_grad=True)
    assert t.grad.shape == t.data.shape
    assert Tensor(np.zeros((2, 2))).grad is None


# ---------------------------------------------------------------------------
# batched ops: every op over 0-2 leading batch axes of size 1-4, including
# 2-D inputs shared by every batch item (weight, bias, gain, prompt, table)


def _batched_cases():
    """name -> make(rng, batch) -> (op, x): op maps the Tensor x (the
    input differentiated) to a Tensor of any shape."""
    def normal(rng, shape, grad=False):
        return Tensor(rng.normal(size=shape), requires_grad=grad)

    def unary(op, positive=False):
        def make(rng, batch):
            shape = batch + (3, 4)
            data = rng.uniform(0.5, 2.0, shape) if positive else rng.normal(size=shape)
            return op, Tensor(data, requires_grad=True)
        return make

    def shared(op, shape, batched_shape):
        """op(batched constant, x) with x a 2-D input shared by the batch."""
        def make(rng, batch):
            other = normal(rng, batch + batched_shape)
            return (lambda t: op(other, t)), normal(rng, shape, grad=True)
        return make

    def per_item(op, shape, shared_shape):
        """op(x, shared constant) with x the batched input."""
        def make(rng, batch):
            other = normal(rng, shared_shape)
            return (lambda t: op(t, other)), normal(rng, batch + shape, grad=True)
        return make

    def gather_table(rng, batch):
        idx = rng.integers(0, 5, size=batch + (3,))
        return (lambda t: ad.gather_rows(t, idx)), normal(rng, (5, 4), grad=True)

    def layer_norm_arg(which):
        def make(rng, batch):
            args = [normal(rng, batch + (3, 4)), normal(rng, (1, 4)), normal(rng, (1, 4))]
            args[which].requires_grad = True
            args[which].grad = np.zeros_like(args[which].data)

            def op(t):
                return ad.layer_norm(*(t if i == which else a for i, a in enumerate(args)))
            return op, args[which]
        return make

    return {
        "gelu": unary(ad.gelu),
        "log": unary(ad.log, positive=True),
        "softmax_rows": unary(ad.softmax_rows),
        "l2_normalize_rows": unary(ad.l2_normalize_rows),
        "mean_rows": unary(ad.mean_rows),
        "transpose": unary(ad.transpose),
        "scale": unary(lambda t: ad.scale(t, -1.7)),
        "reshape": unary(lambda t: ad.reshape(t, (-1,))),
        "split_merge_heads": unary(
            lambda t: ad.merge_heads(ad.softmax_rows(ad.split_heads(t, 2)))),
        "split_heads": unary(lambda t: ad.split_heads(t, 2)),
        "matmul_input": per_item(ad.matmul, (2, 4), (4, 3)),
        "matmul_shared_weight": shared(ad.matmul, (4, 3), (2, 4)),
        "matmul_both_batched": per_item(
            lambda t, w: ad.matmul(t, ad.transpose(ad.add(t, w))), (3, 4), (1, 4)),
        "add_input": per_item(ad.add, (3, 4), (1, 4)),
        "add_shared_bias": shared(ad.add, (1, 4), (3, 4)),
        "add_shared_matrix": shared(ad.add, (3, 4), (3, 4)),
        "mul_shared_gain": shared(ad.mul, (1, 4), (3, 4)),
        "layer_norm_input": layer_norm_arg(0),
        "layer_norm_shared_gain": layer_norm_arg(1),
        "layer_norm_shared_bias": layer_norm_arg(2),
        "concat_rows_shared_prompt": shared(
            lambda tail, t: ad.concat_rows([t, tail]), (2, 4), (1, 4)),
        "concat_rows_batched_tail": per_item(
            lambda t, prompt: ad.concat_rows([prompt, t]), (1, 4), (2, 4)),
        "gather_rows_table": gather_table,
        "gather_rows_batch": unary(lambda t: ad.gather_rows(t, [2, 0, 2])),
    }


BATCHED = _batched_cases()
batch_shapes = st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple)
batched_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)


class TestBatchedOps:
    @pytest.mark.parametrize("case", sorted(BATCHED))
    @settings(max_examples=15, deadline=None)
    @given(batch=batch_shapes, seed=st.integers(0, 2 ** 32 - 1))
    def test_gradcheck(self, case, batch, seed):
        rng = np.random.default_rng(seed)
        op, x = BATCHED[case](rng, batch)
        w = Tensor(rng.normal(size=op(Tensor(x.data.copy())).data.shape))

        def f(t):
            return ad.sum_all(ad.mul(op(t), w))

        assert ad.finite_diff_check(f, x) <= 1e-5

    @settings(max_examples=25, deadline=None)
    @given(batch=batched_shapes, seed=st.integers(0, 2 ** 32 - 1))
    def test_each_item_is_the_2d_op(self, batch, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=batch + (3, 4))
        w, gain, bias = rng.normal(size=(4, 5)), rng.normal(size=(1, 4)), rng.normal(size=(1, 4))

        def chain(t):
            h = ad.layer_norm(t, Tensor(gain), Tensor(bias))
            h = ad.merge_heads(ad.softmax_rows(ad.split_heads(h, 2)))
            return ad.l2_normalize_rows(ad.matmul(ad.gelu(h), Tensor(w)))

        batched = chain(Tensor(x)).data
        for i in np.ndindex(*batch):
            np.testing.assert_array_equal(batched[i], chain(Tensor(x[i])).data)

    def test_shared_weight_gradient_sums_items_in_reverse(self):
        rng = np.random.default_rng(17)
        items = rng.normal(size=(5, 2, 4))
        r = Tensor(rng.normal(size=(5, 2, 3)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.mul(ad.matmul(Tensor(items), w), r)))
        expected = np.zeros((4, 3))
        for i in reversed(range(5)):
            expected += items[i].T @ (r.data[i])
        np.testing.assert_array_equal(w.grad, expected)

    def test_mismatched_batch_broadcast_rejected(self):
        a = rand((2, 3, 4), seed=18)
        b = rand((1, 3, 4), seed=19)
        with Tape() as tape:
            with pytest.raises(ValueError, match="batched"):
                tape.backward(ad.sum_all(ad.add(a, b)))

    def test_batched_row_index_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            ad.gather_rows(rand((2, 3, 4)), [[0], [1]])
