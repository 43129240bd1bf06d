import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from tpt import autodiff as ad
from tpt.autodiff import Tape, Tensor
from tpt.model import ENCODE_BLOCK, ModelConfig, causal_mask, encode_images, init_weights


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

    def test_already_normalized(self, monkeypatch):
        monkeypatch.setattr(ad, "LAYER_NORM_EPS", 1e-15)
        x = Tensor(np.array([[1.0, -1.0]]))
        out = ad.layer_norm(x, Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2))))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-7)

    @pytest.mark.parametrize("gain,bias", [(3, 4), (4, 3), (1, 1)])
    def test_affine_must_match_the_last_dimension(self, gain, bias):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="gain/bias must match the last dimension"):
            ad.layer_norm(x, Tensor(np.ones((1, gain))), Tensor(np.zeros((1, bias))))

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
        (ad.log, True), (ad.softmax_rows, False), (ad.log_softmax_rows, False),
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

    def test_loss_from_another_tape_rejected(self):
        p = rand((2, 2), seed=11)
        with Tape():
            loss = ad.sum_all(p)
        with Tape() as tape:
            ad.sum_all(p)
            with pytest.raises(ValueError, match="loss was not produced on this tape"):
                tape.backward(loss)

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
            return ad.scale(ad.sum_all(ad.mul(p, ad.log(p))), -1.0)

        assert ad.finite_diff_check(f, x) <= 1e-6

    def test_sharp_softmax(self):
        x = rand((1, 5), seed=15)

        def f(t):
            p = ad.softmax_rows(ad.scale(t, 100.0))
            return ad.scale(ad.sum_all(ad.mul(p, ad.log(p))), -1.0)

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


def _attention(x, *weights):
    """Two-head causal attention over 3 rows."""
    return ad.attention(x, *weights, 2, np.triu(np.full((3, 3), -1e9), k=1))


_SUBLAYER_SHAPES = {_attention: [(4, 4), (1, 4)] * 4,
                    ad.mlp: [(4, 8), (1, 8), (8, 4), (1, 4)]}


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

    def sublayer(op, which):
        """op(x, *weights) on x of rows of 4, differentiated in x (which=0)
        or in its first weight, a 2-D matrix every item shares (which=1).
        Weights of std 0.5 keep GELU and the softmax off their flat tails,
        where a slope can lie below the roundoff of the differences."""
        def make(rng, batch):
            args = [normal(rng, batch + (3, 4))]
            args += [Tensor(0.5 * rng.normal(size=s)) for s in _SUBLAYER_SHAPES[op]]
            args[which].requires_grad = True
            args[which].grad = np.zeros_like(args[which].data)

            def f(t):
                return op(*(t if i == which else a for i, a in enumerate(args)))
            return f, args[which]
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
        "attention_input": sublayer(_attention, 0),
        "attention_shared_weight": sublayer(_attention, 1),
        "mlp_input": sublayer(ad.mlp, 0),
        "mlp_shared_weight": sublayer(ad.mlp, 1),
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
        attn = [Tensor(rng.normal(size=s)) for s in _SUBLAYER_SHAPES[_attention]]
        mlp = [Tensor(rng.normal(size=s)) for s in _SUBLAYER_SHAPES[ad.mlp]]

        def chain(t):
            h = ad.layer_norm(t, Tensor(gain), Tensor(bias))
            h = ad.mlp(_attention(h, *attn), *mlp)
            return ad.l2_normalize_rows(ad.matmul(ad.gelu(h), Tensor(w)))

        batched = chain(Tensor(x)).data
        for i in np.ndindex(*batch):
            np.testing.assert_array_equal(batched[i], chain(Tensor(x[i])).data)

    def test_shared_weight_gradient_sums_items_in_reverse(self):
        """11 items, past numpy's 8-way pairwise unroll, added onto a
        gradient that is not zero, as the second encode block finds it."""
        rng = np.random.default_rng(17)
        items = rng.normal(size=(11, 2, 4))
        r = Tensor(rng.normal(size=(11, 2, 3)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        start = rng.normal(size=(4, 3))
        w.grad[...] = start
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.mul(ad.matmul(Tensor(items), w), r)))
        expected = start.copy()
        for i in reversed(range(11)):
            expected += items[i].T @ (r.data[i])
        np.testing.assert_array_equal(w.grad, expected)

    @pytest.mark.parametrize("sublayer", ["attention", "mlp"])
    def test_sublayer_weight_gradients_sum_items_in_reverse(self, sublayer):
        """A batched sublayer gives each weight and bias, from a non-zero
        start, the gradient that a tape of one-item sublayers gives: that
        tape replays the items in reverse."""
        rng = np.random.default_rng(21)
        n, t, d = 11, 5, 32
        if sublayer == "attention":
            shapes = [(d, d), (1, d)] * 4

            def op(x, *ws):
                return ad.attention(x, *ws, 2, causal_mask(t))
        else:
            shapes, op = [(d, 4 * d), (1, 4 * d), (4 * d, d), (1, d)], ad.mlp
        x, r = rng.normal(size=(n, t, d)), rng.normal(size=(n, t, d))
        values = [rng.normal(0.0, 0.3, size=s) for s in shapes]
        starts = [rng.normal(size=s) for s in shapes]

        def weight_grads(batched):
            ws = [Tensor(v, requires_grad=True) for v in values]
            for w, start in zip(ws, starts):
                w.grad[...] = start
            with Tape() as tape:
                if batched:
                    loss = ad.sum_all(ad.mul(op(Tensor(x), *ws), Tensor(r)))
                else:
                    loss = functools.reduce(ad.add, [
                        ad.sum_all(ad.mul(op(Tensor(x[i]), *ws), Tensor(r[i])))
                        for i in range(n)])
                tape.backward(loss)
            return [w.grad for w in ws]

        for i, (got, want) in enumerate(zip(weight_grads(True), weight_grads(False))):
            assert np.array_equal(got, want), f"weight {i}"

    def test_image_weight_gradients_across_encode_blocks(self):
        """patch_proj and every other image weight, from a non-zero start,
        get through two encode blocks the gradient of one encode per
        image on one tape."""
        config = ModelConfig()
        rng = np.random.default_rng(22)
        n = ENCODE_BLOCK + 3
        images = rng.random((n,) + config.image_shape)
        r = rng.normal(size=(n, config.proj_dim))
        values = init_weights(config, seed=3)
        starts = {k: rng.normal(size=v.data.shape) for k, v in values.items()}

        def weight_grads(batched):
            weights = {k: Tensor(v.data, requires_grad=True) for k, v in values.items()}
            for k, w in weights.items():
                w.grad[...] = starts[k]
            with Tape() as tape:
                if batched:
                    loss = ad.sum_all(ad.mul(encode_images(weights, config, images),
                                             Tensor(r)))
                else:
                    loss = functools.reduce(ad.add, [
                        ad.sum_all(ad.mul(encode_images(weights, config, images[i:i + 1]),
                                          Tensor(r[i:i + 1]))) for i in range(n)])
                tape.backward(loss)
            return {k: w.grad for k, w in weights.items()}

        got, want = weight_grads(True), weight_grads(False)
        assert not np.array_equal(got["patch_proj"], starts["patch_proj"])
        for name in got:
            assert np.array_equal(got[name], want[name]), name

    def test_mismatched_batch_broadcast_rejected(self):
        a = rand((2, 3, 4), seed=18)
        b = rand((1, 3, 4), seed=19)
        with Tape() as tape:
            with pytest.raises(ValueError, match="batched"):
                tape.backward(ad.sum_all(ad.add(a, b)))

    def test_batched_row_index_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            ad.gather_rows(rand((2, 3, 4)), [[0], [1]])


# ---------------------------------------------------------------------------
# the fused transformer sublayers against the chain of single ops they
# replace, written out here as the reference: attention split its
# projections into heads and merged them back with these two ops


def _split_heads(x, heads):
    """(..., T, heads * dh) -> (..., heads, T, dh), as a view."""
    *batch, t, d = x.data.shape
    out = Tensor(np.swapaxes(x.data.reshape(*batch, t, heads, d // heads), -3, -2))

    def bw():
        x.grad += np.swapaxes(out.grad, -3, -2).reshape(x.data.shape)

    return ad._record(out, (x,), bw)


def _merge_heads(x):
    """(..., heads, T, dh) -> (..., T, heads * dh), the inverse of _split_heads."""
    *batch, heads, t, dh = x.data.shape
    out = Tensor(np.swapaxes(x.data, -3, -2).reshape(*batch, t, heads * dh))

    def bw():
        x.grad += np.swapaxes(out.grad.reshape(*batch, t, heads, dh), -3, -2)

    return ad._record(out, (x,), bw)


def _attention_chain(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask):
    q = ad.add(ad.matmul(x, wq), bq)
    k = ad.add(ad.matmul(x, wk), bk)
    v = ad.add(ad.matmul(x, wv), bv)
    dh = x.data.shape[-1] // heads
    scores = ad.scale(ad.matmul(_split_heads(q, heads),
                                ad.transpose(_split_heads(k, heads))),
                      1.0 / np.sqrt(dh))
    if mask is not None:
        scores = ad.add(scores, Tensor(mask))
    ctx = _merge_heads(ad.matmul(ad.softmax_rows(scores), _split_heads(v, heads)))
    return ad.add(ad.matmul(ctx, wo), bo)


def _mlp_chain(x, w1, b1, w2, b2):
    return ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


class TestFusedSublayers:
    @pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "trainable"])
    @pytest.mark.parametrize("shape, causal", [((8, 5, 32), True), ((2, 5, 32), True),
                                               ((8, 16, 32), False)])
    @pytest.mark.parametrize("sublayer", ["attention", "mlp"])
    def test_bit_identical_to_the_op_chain(self, sublayer, shape, causal, trainable):
        """Same output, input gradient and weight gradients to the last
        bit, text (causal) and image shapes, weights frozen or tuned."""
        rng = np.random.default_rng(20)
        t, d = shape[-2:]
        x0, r = rng.normal(size=shape), rng.normal(size=shape)
        if sublayer == "attention":
            fused, chain = ad.attention, _attention_chain
            shapes = [(d, d), (1, d)] * 4
            extra = (2, np.triu(np.full((t, t), -1e9), k=1) if causal else None)
        else:
            fused, chain = ad.mlp, _mlp_chain
            shapes = [(d, 4 * d), (1, 4 * d), (4 * d, d), (1, d)]
            extra = ()
        weights = [rng.normal(0.0, 0.3, size=s) for s in shapes]

        def run(op):
            x = Tensor(x0, requires_grad=True)
            ws = [Tensor(w, requires_grad=trainable) for w in weights]
            with Tape() as tape:
                out = op(x, *ws, *extra)
                tape.backward(ad.sum_all(ad.mul(out, Tensor(r))))
            return [out.data, x.grad] + [w.grad for w in ws if trainable]

        got, want = run(fused), run(chain)
        assert len(got) == len(want) == (2 + len(shapes) if trainable else 2)
        for name, g, w in zip(["output", "x.grad"] + [f"weight {i}" for i in range(8)],
                              got, want):
            assert np.array_equal(g, w), name


# ---------------------------------------------------------------------------
# the ops reduce with numpy's ufuncs and transpose with the ndarray method;
# the same ops written with numpy's Python-level functions (np.mean, .sum,
# .max, np.linalg.norm, np.swapaxes) are the reference they equal to the bit


def _accumulate_ref(t, g):
    padded = (1,) * (g.ndim - t.data.ndim) + t.data.shape
    inner = tuple(ax for ax in range(g.ndim - 2, g.ndim) if padded[ax] == 1 and g.shape[ax] != 1)
    g = g.sum(axis=inner, keepdims=True) if inner else g
    if g.shape == padded:
        t.grad += g.reshape(t.data.shape)
    else:
        for item in g.reshape((-1,) + t.data.shape)[::-1]:
            t.grad += item


def _layer_norm_ref(x, gain, bias):
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + ad.LAYER_NORM_EPS)
    y = xc / sigma
    out = Tensor(y * gain.data + bias.data)

    def bw():
        g = out.grad
        gy = g * gain.data
        x.grad += (gy - gy.mean(axis=-1, keepdims=True)
                   - y * (gy * y).mean(axis=-1, keepdims=True)) / sigma
        _accumulate_ref(gain, g * y)
        _accumulate_ref(bias, g)

    return ad._record(out, (x, gain, bias), bw)


def _mean_rows_ref(a):
    out = Tensor(a.data.mean(axis=-2, keepdims=True))

    def bw():
        a.grad += out.grad / a.data.shape[-2]

    return ad._record(out, (a,), bw)


def _softmax_rows_ref(x):
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw():
        x.grad += y * (out.grad - (out.grad * y).sum(axis=-1, keepdims=True))

    return ad._record(out, (x,), bw)


def _log_softmax_rows_ref(x):
    z = x.data - x.data.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(y)

    def bw():
        x.grad += out.grad - np.exp(y) * out.grad.sum(axis=-1, keepdims=True)

    return ad._record(out, (x,), bw)


def _l2_normalize_rows_ref(x):
    norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    n = np.maximum(norms, 1e-12)
    y = x.data / n
    out = Tensor(y)

    def bw():
        g = out.grad
        proj = np.where(norms >= 1e-12, y * (g * y).sum(axis=-1, keepdims=True), 0.0)
        x.grad += (g - proj) / n

    return ad._record(out, (x,), bw)


def _transpose_ref(a):
    out = Tensor(np.swapaxes(a.data, -1, -2))

    def bw():
        a.grad += np.swapaxes(out.grad, -1, -2)

    return ad._record(out, (a,), bw)


def _matmul_ref(a, b):
    out = Tensor(np.matmul(a.data, b.data))

    def bw():
        _accumulate_ref(a, np.matmul(out.grad, np.swapaxes(b.data, -1, -2)))
        _accumulate_ref(b, np.matmul(np.swapaxes(a.data, -1, -2), out.grad))

    return ad._record(out, (a, b), bw)


# name -> (op, reference, shapes of the inputs after x, given x's last axis)
_PINNED = {
    "layer_norm": (ad.layer_norm, _layer_norm_ref, lambda d: [(1, d), (1, d)]),
    "mean_rows": (ad.mean_rows, _mean_rows_ref, lambda d: []),
    "softmax_rows": (ad.softmax_rows, _softmax_rows_ref, lambda d: []),
    "log_softmax_rows": (ad.log_softmax_rows, _log_softmax_rows_ref, lambda d: []),
    "l2_normalize_rows": (ad.l2_normalize_rows, _l2_normalize_rows_ref, lambda d: []),
    "transpose": (ad.transpose, _transpose_ref, lambda d: []),
    "matmul": (ad.matmul, _matmul_ref, lambda d: [(d, 7)]),
}


class TestBitIdenticalToNumpyWrappers:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(2, 5, 32), (8, 16, 32), (3, 4)])
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_output_and_every_input_gradient(self, name, shape, seed):
        op, ref, more = _PINNED[name]
        rng = np.random.default_rng(seed)
        x0 = rng.normal(scale=3.0, size=shape)
        if name == "l2_normalize_rows":
            x0[..., 0, :] = 0.0  # a zero-norm row: the clamp's branch
        inputs0 = [x0] + [rng.normal(size=s) for s in more(shape[-1])]
        out_shape = op(*(Tensor(a) for a in inputs0)).data.shape
        r = Tensor(rng.normal(size=out_shape))

        def run(f):
            inputs = [Tensor(a.copy(), requires_grad=True) for a in inputs0]
            with Tape() as tape:
                out = f(*inputs)
                tape.backward(ad.sum_all(ad.mul(out, r)))
            return [out.data] + [t.grad for t in inputs]

        got, want = run(op), run(ref)
        assert len(got) == len(want) == 1 + len(inputs0)
        for i, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), "output" if i == 0 else f"gradient of input {i - 1}"

    @pytest.mark.parametrize("seed", range(4))
    def test_gather_rows_of_a_shared_table(self, seed):
        """A (K, T) lookup of a shared table adds its gradient rows as
        np.add.at adds one lookup at a time, the last lookup first: rows
        repeat, and gradients of 1e-8 to 1e8 make any other order round
        differently."""
        rng = np.random.default_rng(seed)
        table = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        idx = rng.integers(0, 5, size=(7, 9))
        g = rng.normal(size=(7, 9, 6)) * 10.0 ** rng.uniform(-8, 8, size=(7, 9, 6))
        with Tape() as tape:
            out = ad.gather_rows(table, idx)
            tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        want = np.zeros_like(table.data)
        for rows, grads in zip(idx[::-1], g[::-1]):
            np.add.at(want, rows, grads)
        assert np.array_equal(out.data, table.data[idx])
        assert np.array_equal(table.grad, want)


class TestTapeBuffers:
    def _tape(self):
        """A tape over two leaves, each of which one op reads once."""
        p, q = rand((3, 4), seed=30), rand((5, 4), seed=31)
        tape = Tape()
        with tape:
            h = ad.gelu(ad.matmul(p, ad.transpose(q)))
            loss = ad.sum_all(ad.mul(ad.log_softmax_rows(h), ad.layer_norm(
                h, Tensor(np.ones((1, 5))), Tensor(np.zeros((1, 5))))))
        return (p, q), tape, loss

    def test_recording_allocates_no_buffer(self):
        _, tape, _ = self._tape()
        assert tape._records and all(out.grad is None for out, _ in tape._records)

    def test_second_backward_gives_fresh_buffers_and_doubles_leaves(self):
        leaves, tape, loss = self._tape()
        tape.backward(loss)
        first = [out.grad for out, _ in tape._records]
        once = [t.grad.copy() for t in leaves]
        tape.backward(loss)
        for (out, _), g in zip(tape._records, first):
            assert out.grad is not g
            assert np.array_equal(out.grad, g)
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2.0 * g)

    def test_gradient_keeps_the_layout_of_a_strided_output(self):
        p = rand((3, 4), seed=32)
        with Tape() as tape:
            t = ad.transpose(p)
            tape.backward(ad.sum_all(ad.mul(t, t)))
        assert t.grad.strides == t.data.strides


class TestWalk:
    def test_walk_from_any_output_equals_backward_of_its_weighted_sum(self):
        """A walk seeded with an array g gives the leaves the gradients of
        sum(out * g): the multiply passes g to out bit for bit."""
        x, w = rand((3, 4), seed=34), rand((4, 5), seed=35)
        g = np.random.default_rng(36).normal(size=(3, 5))
        with Tape() as tape:
            out = ad.gelu(ad.matmul(x, w))
        tape.walk(out, g)
        walked = [x.grad.copy(), w.grad.copy()]
        for t in (x, w):
            t.zero_grad()
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.mul(ad.gelu(ad.matmul(x, w)), Tensor(g))))
        for got, t in zip(walked, (x, w)):
            assert got.tobytes() == t.grad.tobytes()


def _wide_sample(seed):
    """Magnitudes from 1e-3 to 30 on a log scale, both signs, with +-0,
    subnormals and the normal boundary."""
    rng = np.random.default_rng(seed)
    mags = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 200_000))
    edges = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-8, 1.0, 6.0])
    x = np.concatenate([mags, edges])
    return np.concatenate([x, -x])


class TestGeluErfOnAbs:
    def test_scipy_erf_is_bitwise_odd(self):
        x = _wide_sample(37)
        assert erf(-x).tobytes() == np.negative(erf(x)).tobytes()

    def test_gelu_equals_the_signed_erf_formula_bitwise(self):
        """_gelu takes erf of |x / sqrt(2)| and copies x's sign back; its
        output and gradient are those of erf(x / sqrt(2)) to the bit,
        -0.0 included."""
        x = _wide_sample(38)
        g = np.random.default_rng(39).normal(size=x.shape)
        y, grad = ad._gelu(x)
        want_y, want_grad = _gelu_oop(x)
        assert y.tobytes() == want_y.tobytes()
        assert grad(g).tobytes() == want_grad(g).tobytes()


class TestOneElementLoss:
    """backward accepts (1,) and (1, 1) losses; item() and the gradient
    check read them as Python floats."""

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_and_gradcheck(self, shape):
        x = rand((1, 2), seed=33)
        w = Tensor(np.array([[0.5], [-1.5]]))

        def f(t):
            return ad.reshape(ad.matmul(t, w), shape)

        with Tape() as tape:
            loss = f(x)
            tape.backward(loss)
        assert loss.item() == float(loss.data.reshape(()))
        np.testing.assert_array_equal(x.grad, w.data.T)
        assert ad.finite_diff_check(f, x) <= 1e-8


# ---------------------------------------------------------------------------
# the ops that compute in place, in buffers of their own, against the
# out-of-place expressions they were first written with: each equals its
# oracle to the bit and leaves the bytes of every input as they were


def _softmax_oop(x):
    z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / np.add.reduce(e, axis=-1, keepdims=True)
    return y, lambda g: y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def _gelu_oop(x):
    erf_term = erf(x * ad._INV_SQRT2)

    def grad(g):
        pdf = np.exp(-0.5 * x * x) * ad._INV_SQRT2PI
        return g * (0.5 * (1.0 + erf_term) + x * pdf)

    return 0.5 * x * (1.0 + erf_term), grad


def _unary_oop(f):
    """The Tensor op of f, an array map that returns (y, grad map)."""
    def op(x):
        y, grad = f(x.data)
        out = Tensor(y)

        def bw():
            x.grad += grad(out.grad)

        return ad._record(out, (x,), bw)

    return op


def _log_softmax_rows_oop(x):
    z = x.data - np.maximum.reduce(x.data, axis=-1, keepdims=True)
    y = z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    out = Tensor(y)

    def bw():
        g = out.grad
        x.grad += g - np.exp(y) * np.add.reduce(g, axis=-1, keepdims=True)

    return ad._record(out, (x,), bw)


def _layer_norm_oop(x, gain, bias):
    d = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    sigma = np.sqrt(var + ad.LAYER_NORM_EPS)
    y = xc / sigma
    out = Tensor(y * gain.data + bias.data)

    def bw():
        g = out.grad
        gy = g * gain.data
        x.grad += (gy - np.add.reduce(gy, axis=-1, keepdims=True) / d
                   - y * (np.add.reduce(gy * y, axis=-1, keepdims=True) / d)) / sigma
        ad._accumulate(gain, g * y)
        ad._accumulate(bias, g)

    return ad._record(out, (x, gain, bias), bw)


def _attention_oop(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask):
    *batch, t, d = x.data.shape
    dh = d // heads
    c = float(1.0 / np.sqrt(dh))

    def split(a):
        return a.reshape(*batch, t, heads, dh).swapaxes(-3, -2)

    def merge(a):
        return a.swapaxes(-3, -2).reshape(*batch, t, d)

    q, k, v = (np.matmul(x.data, w.data) + b.data
               for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    qh, kh, vh = split(q), split(k), split(v)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * c
    if mask is not None:
        scores = scores + mask
    p, softmax_grad = _softmax_oop(scores)
    ctx = merge(np.matmul(p, vh))
    out = Tensor(np.matmul(ctx, wo.data) + bo.data)

    def bw():
        g_heads = np.ascontiguousarray(split(ad._affine_grads(ctx, wo, bo, out.grad)))
        g_scores = softmax_grad(np.matmul(g_heads, vh.swapaxes(-1, -2))) * c
        g_v = np.matmul(p.swapaxes(-1, -2), g_heads)
        g_k = np.matmul(qh.swapaxes(-1, -2), g_scores).swapaxes(-1, -2)
        g_q = np.matmul(g_scores, kh)
        for g, w, b in ((g_v, wv, bv), (g_k, wk, bk), (g_q, wq, bq)):
            ad._accumulate(x, ad._affine_grads(x.data, w, b, np.ascontiguousarray(merge(g))))

    return ad._record(out, (x, wq, bq, wk, bk, wv, bv, wo, bo), bw)


def _mlp_oop(x, w1, b1, w2, b2):
    pre = np.matmul(x.data, w1.data) + b1.data
    hidden, gelu_grad = _gelu_oop(pre)
    out = Tensor(np.matmul(hidden, w2.data) + b2.data)

    def bw():
        g_pre = gelu_grad(ad._affine_grads(hidden, w2, b2, out.grad))
        ad._accumulate(x, ad._affine_grads(x.data, w1, b1, g_pre))

    return ad._record(out, (x, w1, b1, w2, b2), bw)


# name -> (op, oracle, shapes of the Tensor inputs after x given x's last
# axis, the trailing arguments given x's row count)
_IN_PLACE = {
    "layer_norm": (ad.layer_norm, _layer_norm_oop, lambda d: [(1, d)] * 2, lambda t: ()),
    "attention": (ad.attention, _attention_oop, lambda d: [(d, d), (1, d)] * 4,
                  lambda t: (2, None)),
    # a writable copy of the mask, so that a write into it would show
    "attention_causal": (ad.attention, _attention_oop, lambda d: [(d, d), (1, d)] * 4,
                         lambda t: (2, np.array(causal_mask(t)))),
    "mlp": (ad.mlp, _mlp_oop, lambda d: [(d, 4 * d), (1, 4 * d), (4 * d, d), (1, d)],
            lambda t: ()),
    "gelu": (ad.gelu, _unary_oop(_gelu_oop), lambda d: [], lambda t: ()),
    "softmax_rows": (ad.softmax_rows, _unary_oop(_softmax_oop), lambda d: [], lambda t: ()),
    "log_softmax_rows": (ad.log_softmax_rows, _log_softmax_rows_oop, lambda d: [],
                         lambda t: ()),
}


class TestInPlaceOps:
    @pytest.mark.parametrize("shape", [(8, 16, 32), (3, 5, 32), (5, 32)])
    @pytest.mark.parametrize("name", sorted(_IN_PLACE))
    def test_equal_to_the_out_of_place_oracle_and_inputs_unchanged(self, name, shape):
        op, oracle, shapes, trailing = _IN_PLACE[name]
        rng = np.random.default_rng(40)
        arrays = [rng.normal(size=shape)] + [rng.normal(0.0, 0.3, size=s)
                                             for s in shapes(shape[-1])]
        extra = trailing(shape[-2])
        masks = [a for a in extra if isinstance(a, np.ndarray)]
        r = Tensor(rng.normal(size=op(*map(Tensor, arrays), *extra).data.shape))
        before = [a.tobytes() for a in arrays + masks]

        def run(f):
            # Tensor wraps each array without a copy: a write into an
            # input's data would change it
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape() as tape:
                out = f(*inputs, *extra)
                tape.backward(ad.sum_all(ad.mul(out, r)))
            return [out.data] + [t.grad for t in inputs]

        got = run(op)
        assert [a.tobytes() for a in arrays + masks] == before
        want = run(oracle)
        assert len(got) == len(want) == 1 + len(arrays)
        for i, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), "output" if i == 0 else f"gradient of input {i - 1}"
