import numpy as np
import pytest

from tpt import autodiff as ad
from tpt import model as mdl
from tpt.autodiff import Tape, Tensor


@pytest.fixture(scope="module")
def config():
    return mdl.ModelConfig()


@pytest.fixture(scope="module")
def weights(config):
    return mdl.init_weights(config, seed=0)


def random_sequence(config, t=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.02, size=(t, config.embed_dim))


def test_config_validation():
    with pytest.raises(ValueError):
        mdl.ModelConfig(image_shape=(3, 30, 32))
    with pytest.raises(ValueError):
        mdl.ModelConfig(embed_dim=33)
    with pytest.raises(ValueError):
        mdl.ModelConfig(logit_scale=0.0)


class TestEncodeText:
    def test_unit_norm(self, weights, config):
        for seed in range(5):
            feat = mdl.encode_text(weights, config,
                                   Tensor(random_sequence(config, seed=seed)))
            assert abs(np.linalg.norm(feat.data) - 1.0) <= 1e-12

    def test_deterministic(self, weights, config):
        seq = random_sequence(config)
        a = mdl.encode_text(weights, config, Tensor(seq.copy()))
        b = mdl.encode_text(weights, config, Tensor(seq.copy()))
        np.testing.assert_array_equal(a.data, b.data)

    def test_length_error(self, weights, config):
        seq = Tensor(random_sequence(config, t=config.max_text_len + 1))
        with pytest.raises(ValueError, match="max_text_len"):
            mdl.encode_text(weights, config, seq)

    def test_gradient_wrt_input_embedding(self, weights, config):
        x = Tensor(random_sequence(config, seed=3), requires_grad=True)
        w = Tensor(np.random.default_rng(4).normal(size=(1, config.proj_dim)))

        def f(t):
            return ad.sum_all(ad.mul(mdl.encode_text(weights, config, t), w))

        assert ad.finite_diff_check(f, x) <= 1e-4


class TestEncodeImage:
    def test_unit_norm(self, weights, config):
        rng = np.random.default_rng(1)
        feat = mdl.encode_image(weights, config, rng.random(config.image_shape))
        assert abs(np.linalg.norm(feat.data) - 1.0) <= 1e-12

    def test_zero_image_finite_deterministic(self, weights, config):
        a = mdl.encode_image(weights, config, np.zeros(config.image_shape))
        b = mdl.encode_image(weights, config, np.zeros(config.image_shape))
        assert np.all(np.isfinite(a.data))
        np.testing.assert_array_equal(a.data, b.data)

    def test_shape_mismatch(self, weights, config):
        with pytest.raises(ValueError, match="shape"):
            mdl.encode_image(weights, config, np.zeros((3, 16, 16)))

    def test_non_finite_pixels_rejected(self, weights, config):
        for bad in (np.nan, np.inf, -np.inf):
            img = np.zeros(config.image_shape)
            img[1, 2, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                mdl.encode_image(weights, config, img)

    def test_continuity_one_pixel(self, weights, config):
        rng = np.random.default_rng(2)
        img = rng.random(config.image_shape)
        bumped = img.copy()
        bumped[0, 0, 0] += 1e-9
        a = mdl.encode_image(weights, config, img)
        b = mdl.encode_image(weights, config, bumped)
        assert np.max(np.abs(a.data - b.data)) < 1e-6


class TestClassProbabilities:
    def test_single_class(self, config):
        t = Tensor(np.array([[1.0, 0.0]]))
        v = Tensor(np.array([[0.6, 0.8]]))
        out = mdl.class_probabilities(t, v, config.logit_scale)
        np.testing.assert_allclose(out.data, [[1.0]])

    def test_orthogonal_symmetry(self, config):
        t = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        v = Tensor(np.array([[1.0, 1.0]]) / np.sqrt(2.0))
        out = mdl.class_probabilities(t, v, config.logit_scale)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-12)

    def test_scalar_oracle(self):
        # cosine sims (0.5, 0.1) at scale 10 -> logistic of the gap 4
        t = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        v = Tensor(np.array([[0.5, 0.1]]))
        out = mdl.class_probabilities(t, v, 10.0)
        e5, e1 = np.exp(5.0), np.exp(1.0)
        np.testing.assert_allclose(out.data, [[e5 / (e5 + e1), e1 / (e5 + e1)]],
                                   rtol=1e-12)

    def test_sums_to_one(self, weights, config):
        rng = np.random.default_rng(3)
        t = ad.l2_normalize_rows(Tensor(rng.normal(size=(5, 4))))
        v = ad.l2_normalize_rows(Tensor(rng.normal(size=(1, 4))))
        out = mdl.class_probabilities(t, v, 20.0)
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)

    def test_permutation_equivariance(self, config):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(4, 8))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        v = rng.normal(size=(1, 8))
        v /= np.linalg.norm(v)
        base = mdl.class_probabilities(Tensor(t), Tensor(v), 20.0).data[0]
        perm = np.array([2, 0, 3, 1])
        shuffled = mdl.class_probabilities(Tensor(t[perm]), Tensor(v), 20.0).data[0]
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-14)

    def test_scale_invariance_after_normalization(self, config):
        rng = np.random.default_rng(5)
        t = rng.normal(size=(3, 8))
        v = rng.normal(size=(1, 8))
        a = mdl.class_probabilities(
            ad.l2_normalize_rows(Tensor(t)), ad.l2_normalize_rows(Tensor(v)), 20.0)
        b = mdl.class_probabilities(
            ad.l2_normalize_rows(Tensor(3.7 * t)), ad.l2_normalize_rows(Tensor(0.2 * v)),
            20.0)
        np.testing.assert_array_equal(a.data, b.data)


class TestCrossEntropy:
    def test_value_and_probs(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        loss, probs = mdl.cross_entropy(Tensor(logits), Tensor(np.eye(3)[labels]))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.data, p, rtol=1e-12)
        expected = -np.mean(np.log(p[np.arange(5), labels]))
        assert abs(loss.item() - expected) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        targets = Tensor(np.eye(6)[[5, 0, 3, 3]])
        err = ad.finite_diff_check(lambda t: mdl.cross_entropy(t, targets)[0], x)
        assert err <= 1e-4


@pytest.fixture(scope="module")
def tiny_setup():
    from tpt import data as dat

    spec = dat.DatasetSpec(samples_per_class=3)
    ds = dat.generate(spec, seed=1)
    return dat.caption_pairs(ds)


class TestPretrain:
    def test_batch_of_one_rejected(self, config, tiny_setup):
        w = mdl.init_weights(config, seed=1)
        with pytest.raises(ValueError, match="at least 2"):
            mdl.pretrain_contrastive(w, config, tiny_setup, epochs=1, batch=1)

    def test_initial_loss_order_of_ln_batch(self, tiny_setup):
        # at moderate temperature untrained features are nearly collinear,
        # so the batch softmax is close to uniform and loss ~ ln(batch)
        config = mdl.ModelConfig(logit_scale=20.0)
        w = mdl.init_weights(config, seed=1)
        _, losses = mdl.pretrain_contrastive(w, config, tiny_setup[:16], epochs=1,
                                             lr=0.0, batch=16, seed=0)
        assert 0.5 * np.log(16) <= losses[0] <= 2.0 * np.log(16)

    def test_same_seed_identical_final_loss(self, config, tiny_setup):
        results = []
        for _ in range(2):
            w = mdl.init_weights(config, seed=2)
            _, losses = mdl.pretrain_contrastive(w, config, tiny_setup, epochs=2,
                                                 lr=0.001, batch=8, seed=3)
            results.append(losses[-1])
        assert results[0] == results[1]


def test_weights_roundtrip_bit_exact(tmp_path, weights):
    path = tmp_path / "w.tptw"
    mdl.save_weights(weights, path)
    back = mdl.load_weights(path)
    assert set(back) == set(weights)
    for name in weights:
        np.testing.assert_array_equal(back[name].data, weights[name].data)


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "junk.tptw"
    path.write_bytes(b"GARBAGE!")
    with pytest.raises(ValueError, match="magic"):
        mdl.load_weights(path)


class TestLoadWeightsChecked:
    def test_matching_config_loads(self, tmp_path, weights, config):
        path = tmp_path / "w.tptw"
        mdl.save_weights(weights, path)
        back = mdl.load_weights(path, config)
        assert set(back) == set(weights)

    def test_other_config_rejected(self, tmp_path, config):
        path = tmp_path / "small.tptw"
        mdl.save_weights(mdl.init_weights(mdl.ModelConfig(embed_dim=16)), path)
        expected = (r"small\.tptw: tensor 'token_embedding' is \(64, 16\) in the "
                    r"file but \(64, 32\) in the model config")
        with pytest.raises(ValueError, match=expected):
            mdl.load_weights(path, config)

    def test_missing_tensor_rejected(self, tmp_path, weights, config):
        path = tmp_path / "w.tptw"
        mdl.save_weights({n: t for n, t in weights.items() if n != "text_proj"},
                         path)
        with pytest.raises(ValueError, match="'text_proj' is absent in the file"):
            mdl.load_weights(path, config)

    def test_extra_tensor_rejected(self, tmp_path, weights, config):
        path = tmp_path / "w.tptw"
        mdl.save_weights({**weights, "stray": Tensor(np.zeros((1, 2)))}, path)
        with pytest.raises(ValueError, match="'stray' is .* but absent in the model"):
            mdl.load_weights(path, config)

    def test_truncated_file_names_file_and_tensor(self, tmp_path, weights):
        path = tmp_path / "w.tptw"
        mdl.save_weights(weights, path)
        blob = path.read_bytes()
        cut_path = tmp_path / "cut.tptw"
        expected = (r"cut\.tptw: file truncated in "
                    r"(the header|the name of tensor #\d+|tensor '[\w.]+')")
        for cut in list(range(5, 40)) + list(range(40, len(blob), 4099)):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=expected):
                mdl.load_weights(cut_path)
        cut_path.write_bytes(blob[:100])  # inside the first tensor's data
        with pytest.raises(ValueError, match="truncated in tensor 'token_embedding'"):
            mdl.load_weights(cut_path)


def test_no_grads_on_frozen_weights(weights, config):
    seq = Tensor(random_sequence(config), requires_grad=True)
    with Tape() as tape:
        feat = mdl.encode_text(weights, config, seq)
        loss = ad.sum_all(feat)
        tape.backward(loss)
    assert all(w.grad is None for w in weights.values())
    assert np.any(seq.grad != 0.0)
