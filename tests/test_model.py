import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpt import autodiff as ad
from tpt import data as dat
from tpt import model as mdl
from tpt.augment import AugmentPolicy, generate_views, make_views
from tpt.autodiff import Tape, Tensor
from tpt.optim import AdamW


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


def test_causal_mask_is_one_read_only_array_per_length():
    for t in (1, 3, 5, 16):
        mask = mdl.causal_mask(t)
        np.testing.assert_array_equal(mask, np.triu(np.full((t, t), -1e9), k=1))
        assert mdl.causal_mask(t) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0, -1] = 0.0


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

    def test_no_images_rejected(self, weights, config):
        with pytest.raises(ValueError, match="no images"):
            mdl.encode_images(weights, config, [])

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

    def test_gradient_survives_probabilities_below_1e_12(self):
        # at a logit gap of 40 the target class has p ~ 4e-18, far below
        # the 1e-12 clamp of ad.log; the gradient must not vanish there
        logits = np.array([[0.0, 40.0, 1.0], [2.0, -1.0, 0.5]])
        targets = np.eye(3)[[0, 1]]
        x = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            loss, probs = mdl.cross_entropy(x, Tensor(targets))
            tape.backward(loss)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert p[0, 0] < 1e-12
        np.testing.assert_allclose(probs.data, p, rtol=1e-12)
        np.testing.assert_allclose(x.grad, (p - targets) / 2, rtol=1e-12, atol=1e-30)
        assert x.grad[0, 0] < -0.49


def pretrain(weights, config, pairs, **overrides):
    """pretrain_contrastive on the default recipe and policy, `overrides`
    in their place."""
    recipe = {**mdl.PRETRAIN, "augment_policy": AugmentPolicy(**mdl.PRETRAIN_POLICY)}
    return mdl.pretrain_contrastive(weights, config, pairs, **{**recipe, **overrides})


@pytest.fixture(scope="module")
def tiny_setup():
    spec = dat.DatasetSpec(samples_per_class=3)
    ds = dat.generate(spec, seed=1)
    return dat.caption_pairs(ds)


class TestPretrain:
    def test_batch_of_one_rejected(self, config, tiny_setup):
        w = mdl.init_weights(config, seed=1)
        with pytest.raises(ValueError, match="contrastive batches need at least 2 pairs"):
            pretrain(w, config, tiny_setup, epochs=1, batch=1)
        with pytest.raises(ValueError, match=r"need at least 2 \(image, caption\) pairs"):
            pretrain(w, config, tiny_setup[:1], epochs=1)

    @pytest.mark.parametrize("n,steps", [(16, 1), (17, 1), (18, 2)])
    def test_last_batch_of_one_pair_is_skipped(self, config, tiny_setup, monkeypatch, n,
                                                steps):
        """An epoch steps once per batch of at least 2 pairs: a last batch
        of one pair has no negative and is skipped."""
        taken = []
        step = AdamW.step

        def counted(opt):
            taken.append(opt.t)
            step(opt)

        monkeypatch.setattr(AdamW, "step", counted)
        _, losses = pretrain(mdl.init_weights(config, seed=1), config, tiny_setup[:n],
                             epochs=1, batch=16)
        assert len(taken) == steps and len(losses) == 1

    @pytest.mark.parametrize("factor", [0.0, -0.5])
    def test_rescale_factor_must_be_positive(self, config, factor):
        w = mdl.init_weights(config, seed=1)
        with pytest.raises(ValueError, match="factor must be positive"):
            mdl.rescale_text_embeddings(w, factor)

    def test_failure_leaves_weights_frozen_and_unrescaled(self, config, tiny_setup):
        pairs = list(tiny_setup[:8])
        pairs[5] = (np.full_like(pairs[5][0], np.nan), pairs[5][1])
        w = mdl.init_weights(config, seed=1)
        before = {name: t.data.copy() for name, t in w.items()}
        with pytest.raises(ValueError, match="non-finite pixels"):
            pretrain(w, config, pairs, epochs=1, batch=8)
        assert not any(t.requires_grad or t.grad is not None for t in w.values())
        for name, t in w.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_initial_loss_order_of_ln_batch(self, tiny_setup):
        # at moderate temperature untrained features are nearly collinear,
        # so the batch softmax is close to uniform and loss ~ ln(batch)
        config = mdl.ModelConfig(logit_scale=20.0)
        w = mdl.init_weights(config, seed=1)
        _, losses = pretrain(w, config, tiny_setup[:16], epochs=1, lr=0.0, batch=16,
                             seed=0)
        assert 0.5 * np.log(16) <= losses[0] <= 2.0 * np.log(16)

    def test_batch_views_are_drawn_from_the_training_generator(self, config, tiny_setup,
                                                               monkeypatch):
        monkeypatch.setattr(AugmentPolicy, "smooth_prob", 0.5)
        policy = AugmentPolicy(scale_range=(0.5, 1.0), noise_patch_prob=0.5)
        seen = []
        encode = mdl.encode_images

        def recording(weights, config, images):
            seen.append(images)
            return encode(weights, config, images)

        monkeypatch.setattr(mdl, "encode_images", recording)
        pairs = tiny_setup[:17]  # batches of 7, 7 and 3 views
        pretrain(mdl.init_weights(config, seed=1), config, pairs, epochs=1, batch=7,
                 seed=4, augment_policy=policy)
        assert [len(views) for views in seen] == [7, 7, 3]
        rng = np.random.default_rng(4)
        order = rng.permutation(len(pairs))
        for start, views in zip(range(0, len(pairs), 7), seen):
            want = make_views([pairs[i][0] for i in order[start:start + 7]], policy, rng)
            np.testing.assert_array_equal(views, want)

    @staticmethod
    def _record_targets(monkeypatch):
        seen = []
        cross_entropy = mdl.cross_entropy

        def recording(logits, targets):
            seen.append(targets.data.copy())
            return cross_entropy(logits, targets)

        monkeypatch.setattr(mdl, "cross_entropy", recording)
        return seen

    def test_targets_are_normalised_caption_equality(self, config, tiny_setup,
                                                     monkeypatch):
        seen = self._record_targets(monkeypatch)
        # 12 images under 5 captions: every batch of 6 repeats a caption
        pairs = [(image, tiny_setup[i % 5][1])
                 for i, (image, _) in enumerate(tiny_setup[:12])]
        pretrain(mdl.init_weights(config, seed=1), config, pairs, epochs=1, batch=6,
                 seed=2)
        assert len(seen) == 4  # image->text and text->image per batch
        order = np.random.default_rng(2).permutation(len(pairs))
        for b, start in enumerate(range(0, len(pairs), 6)):
            caps = [pairs[i][1] for i in order[start:start + 6]]
            same = np.array([[float(a == c) for c in caps] for a in caps])
            want = same / same.sum(axis=1, keepdims=True)
            assert np.any(want.diagonal() < 1.0)
            for targets in seen[2 * b:2 * b + 2]:
                np.testing.assert_array_equal(targets, want)

    def test_distinct_captions_get_identity_targets(self, config, tiny_setup,
                                                    monkeypatch):
        seen = self._record_targets(monkeypatch)
        pairs = tiny_setup[:8]
        assert len({tuple(ids) for _, ids in pairs}) == 8
        pretrain(mdl.init_weights(config, seed=1), config, pairs, epochs=1, batch=8,
                 seed=0)
        assert len(seen) == 2
        for targets in seen:
            np.testing.assert_array_equal(targets, np.eye(8))

    def test_same_seed_identical_final_loss(self, config, tiny_setup):
        results = []
        for _ in range(2):
            w = mdl.init_weights(config, seed=2)
            _, losses = pretrain(w, config, tiny_setup, epochs=2, lr=0.001, batch=8,
                                 seed=3)
            results.append(losses[-1])
        assert results[0] == results[1]


def test_weights_roundtrip_bit_exact(tmp_path, weights):
    path = tmp_path / "w.tptw"
    mdl.save_weights(weights, path)
    back = mdl.load_weights(path)
    assert set(back) == set(weights)
    for name in weights:
        np.testing.assert_array_equal(back[name].data, weights[name].data)


_FINITE_EDGES = (-0.0, 5e-324, -5e-324, np.finfo(np.float64).max,
                 np.finfo(np.float64).min, np.finfo(np.float64).tiny)


@settings(max_examples=40, deadline=None)
@given(order=st.permutations(sorted(mdl.weight_shapes(mdl.ModelConfig()))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_weights_roundtrip_any_tensor_set(order, seed):
    """The model's tensors, written in any order and holding any finite
    values (-0.0, subnormals, the extremes), come back bit for bit and in
    the order they were written."""
    rng = np.random.default_rng(seed)
    shapes = mdl.weight_shapes(mdl.ModelConfig())
    weights = {}
    for i, name in enumerate(order):
        data = rng.normal(size=shapes[name])
        data.reshape(-1)[i % 3::5] = _FINITE_EDGES[(seed + i) % len(_FINITE_EDGES)]
        weights[name] = Tensor(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.tptw"
        mdl.save_weights(weights, path)
        back = mdl.load_weights(path)
    assert list(back) == list(weights)
    for name, t in weights.items():
        assert back[name].data.shape == t.data.shape
        assert back[name].data.tobytes() == t.data.tobytes()


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "junk.tptw"
    path.write_bytes(b"GARBAGE!")
    with pytest.raises(ValueError, match="magic"):
        mdl.load_weights(path)


class TestLoadWeightsChecked:
    def test_matching_config_loads(self, tmp_path, weights):
        path = tmp_path / "w.tptw"
        mdl.save_weights(weights, path)
        back = mdl.load_weights(path)
        assert set(back) == set(weights)

    def test_other_config_rejected(self, tmp_path, weights):
        # every load is checked: load_weights has no unchecked mode
        path = tmp_path / "small.tptw"
        mdl.save_weights({**weights, "token_embedding": Tensor(np.zeros((64, 16)))},
                         path)
        expected = (r"small\.tptw: tensor 'token_embedding' is \(64, 16\) in the "
                    r"file but \(64, 32\) in the model config")
        with pytest.raises(ValueError, match=expected):
            mdl.load_weights(path)

    def test_missing_tensor_rejected(self, tmp_path, weights):
        path = tmp_path / "w.tptw"
        mdl.save_weights({n: t for n, t in weights.items() if n != "text_proj"},
                         path)
        with pytest.raises(ValueError, match="'text_proj' is absent in the file"):
            mdl.load_weights(path)

    def test_extra_tensor_rejected(self, tmp_path, weights):
        path = tmp_path / "w.tptw"
        mdl.save_weights({**weights, "stray": Tensor(np.zeros((1, 2)))}, path)
        with pytest.raises(ValueError, match="'stray' is .* but absent in the model"):
            mdl.load_weights(path)

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

    def test_trailing_bytes_rejected(self, tmp_path, weights):
        path = tmp_path / "long.tptw"
        mdl.save_weights(weights, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(ValueError, match=r"long\.tptw: 7 bytes after the last tensor"):
            mdl.load_weights(path)

    def test_non_finite_value_names_file_and_tensor(self, tmp_path, weights):
        proj = weights["text_proj"].data.copy()
        proj[3, 5] = np.nan
        path = tmp_path / "nan.tptw"
        mdl.save_weights({**weights, "text_proj": Tensor(proj)}, path)
        with pytest.raises(ValueError, match=r"nan\.tptw: tensor 'text_proj' "
                                             r"has a non-finite value"):
            mdl.load_weights(path)

    @pytest.mark.parametrize("name, dims, want", [
        (b"token_embedding", (2 ** 31, 2 ** 31), (64, 32)),
        (b"token_embedding", (2 ** 32 - 1, 2 ** 32 - 1), (64, 32)),
        (b"\xff\xfe", (1, 2), "absent"),  # not UTF-8
    ])
    def test_header_checked_before_its_data(self, tmp_path, name, dims, want):
        # a file of one tensor header and no data: any size it claims is
        # rejected before a byte of data is read
        path = tmp_path / "head.tptw"
        path.write_bytes(b"TPTW1" + struct.pack("<IH", 1, len(name)) + name
                         + struct.pack("<B2I", 2, *dims))
        shown = name.decode("utf-8", "replace")
        expected = (f"head.tptw: tensor {shown!r} is {dims} in the file "
                    f"but {want} in the model config")
        with pytest.raises(ValueError, match=re.escape(expected)):
            mdl.load_weights(path)

    def test_tensor_named_twice_rejected(self, tmp_path, weights):
        # a second, well-formed text_proj after the first, the count raised
        # to match: every byte is accounted for and each shape is right
        mdl.save_weights(weights, tmp_path / "w.tptw")
        mdl.save_weights({"text_proj": Tensor(np.full_like(
            weights["text_proj"].data, 7.0))}, tmp_path / "extra.tptw")
        blob = (tmp_path / "w.tptw").read_bytes()
        extra = (tmp_path / "extra.tptw").read_bytes()
        (count,) = struct.unpack("<I", blob[5:9])
        path = tmp_path / "twice.tptw"
        path.write_bytes(blob[:5] + struct.pack("<I", count + 1) + blob[9:] + extra[9:])
        with pytest.raises(ValueError, match=r"twice\.tptw: tensor 'text_proj' appears twice"):
            mdl.load_weights(path)


def test_no_grads_on_frozen_weights(weights, config):
    seq = Tensor(random_sequence(config), requires_grad=True)
    with Tape() as tape:
        feat = mdl.encode_text(weights, config, seq)
        loss = ad.sum_all(feat)
        tape.backward(loss)
    assert all(w.grad is None for w in weights.values())
    assert np.any(seq.grad != 0.0)


class TestBatchInvariance:
    """A batched encode rounds exactly like one encode per item."""

    @pytest.fixture(scope="class")
    def images(self, config):
        # more than one untaped pass, the last one part-filled
        n = 2 * mdl.UNTAPED_BLOCK + 3
        return list(np.random.default_rng(5).random((n,) + config.image_shape))

    def test_image_rows_equal_single_image_encodes(self, weights, config, images):
        batched = mdl.encode_images(weights, config, images).data
        assert batched.shape == (len(images), config.proj_dim)
        for i, img in enumerate(images):
            single = mdl.encode_images(weights, config, [img]).data
            np.testing.assert_array_equal(batched[i], single[0])
            np.testing.assert_array_equal(
                single, mdl.encode_image(weights, config, img).data)

    def test_a_view_array_its_slice_and_its_rows_encode_alike(self, weights, config,
                                                              monkeypatch):
        """A view batch is encoded alike as one array, a slice of it, or a
        list of its rows; each block of the array is a slice, not a copy."""
        image = np.random.default_rng(7).random(config.image_shape)
        views, _ = generate_views(image, 64, AugmentPolicy(noise_patch_prob=1.0), seed=2)
        blocks, encode_block = [], mdl._encode_block

        def recording(weights, config, images, taped):
            blocks.append(images)
            return encode_block(weights, config, images, taped)

        monkeypatch.setattr(mdl, "_encode_block", recording)
        full = mdl.encode_images(weights, config, views).data
        assert len(blocks) == 64 // mdl.UNTAPED_BLOCK
        assert all(b.base is views for b in blocks)
        assert full.shape == (64, config.proj_dim)
        np.testing.assert_array_equal(mdl.encode_images(weights, config, views[3:14]).data,
                                      full[3:14])
        np.testing.assert_array_equal(mdl.encode_images(weights, config, list(views)).data,
                                      full)

    def test_text_rows_equal_single_sequence_encodes(self, weights, config):
        seqs = np.random.default_rng(6).normal(0.0, 0.02, size=(4, 6, config.embed_dim))
        batched = mdl.encode_texts(weights, config, Tensor(seqs)).data
        assert batched.shape == (4, config.proj_dim)
        for i, seq in enumerate(seqs):
            single = mdl.encode_texts(weights, config, Tensor(seqs[i:i + 1])).data
            np.testing.assert_array_equal(batched[i], single[0])
            np.testing.assert_array_equal(
                single, mdl.encode_text(weights, config, Tensor(seq)).data)

    def test_ragged_id_lists_rejected(self, weights, config):
        with pytest.raises(ValueError, match=r"differ in length: \[1, 2, 1\]"):
            mdl.embed_tokens(weights, config, [[16], [17, 18], [19]])
        batch = mdl.embed_tokens(weights, config, [[16, 17], [18, 19]])
        assert batch.data.shape == (2, 2, config.embed_dim)

    def _grads(self, config, loss_fn):
        weights = mdl.init_weights(config, seed=3)
        mdl.set_trainable(weights.values(), True)
        with Tape() as tape:
            tape.backward(loss_fn(weights))
        return {name: t.grad.copy() for name, t in weights.items()}

    def test_shared_weight_gradients_equal_per_item_tape(self, config, images):
        captions = [[0, 1, 2, 0, 16], [3, 4, 2, 0, 17], [0, 5, 2, 6, 18]]
        r_img = Tensor(np.random.default_rng(8).normal(size=(len(images), config.proj_dim)))
        r_txt = Tensor(np.random.default_rng(9).normal(size=(len(captions), config.proj_dim)))

        def loss(img_feats, txt_feats):
            return ad.add(ad.sum_all(ad.mul(img_feats, r_img)),
                          ad.sum_all(ad.mul(txt_feats, r_txt)))

        def batched(w):
            return loss(mdl.encode_images(w, config, images),
                        mdl.encode_texts(w, config, mdl.embed_tokens(w, config, captions)))

        def per_item(w):
            return loss(
                ad.concat_rows([mdl.encode_image(w, config, img) for img in images]),
                ad.concat_rows([mdl.encode_text(w, config, mdl.embed_tokens(w, config, ids))
                                for ids in captions]))

        got, want = self._grads(config, batched), self._grads(config, per_item)
        assert np.any(got["token_embedding"] != 0.0) and np.any(got["patch_proj"] != 0.0)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
