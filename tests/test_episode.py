from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpt import autodiff as ad
from tpt import data as dat
from tpt import episode as ep
from tpt import model as mdl
from tpt.augment import generate_views, split_seed
from tpt.autodiff import Tensor
from tpt.prompt import init_from_template


@pytest.fixture(scope="module")
def config():
    return mdl.ModelConfig()


@pytest.fixture(scope="module")
def weights(config):
    return mdl.init_weights(config, seed=0)


@pytest.fixture(scope="module")
def classes():
    return dat.generate(dat.DatasetSpec(samples_per_class=1), seed=0).class_token_ids


@pytest.fixture()
def prompt(weights, config):
    return init_from_template(weights, config, dat.template_ids())


def copied(weights):
    """The same weights as new Tensors: no episode has kept a pass over
    them, so the next one records its start pass afresh."""
    return {name: Tensor(t.data.copy()) for name, t in weights.items()}


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


class TestEntropy:
    def test_uniform_is_ln_k(self):
        for k in (2, 8, 16):
            assert abs(ep.entropy(np.full(k, 1.0 / k)) - np.log(k)) <= 1e-12

    def test_one_hot_is_zero(self):
        p = np.zeros(8)
        p[3] = 1.0
        assert ep.entropy(p) == 0.0

    def test_hand_value(self):
        p = np.array([0.5, 0.25, 0.25])
        assert abs(ep.entropy(p) - 1.5 * np.log(2.0)) <= 1e-12

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            ep.entropy(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            ep.entropy(np.array([1.5, -0.5]))
        # a NaN sum passes any tolerance test on the sum
        with pytest.raises(ValueError, match="not a probability distribution"):
            ep.entropy(np.array([np.nan, 0.5, 0.5]))

    def test_row_entropies_matches_scalar(self):
        rng = np.random.default_rng(0)
        rows = np.stack([softmax(rng.normal(size=6)) for _ in range(10)])
        got = ep.row_entropies(rows)
        want = [ep.entropy(r) for r in rows]
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestSelectAndAverage:
    def select(self, probs, rho):
        return ep.select_and_average(Tensor(np.asarray(probs, dtype=np.float64)), rho)

    def test_k_rule(self):
        rng = np.random.default_rng(0)
        probs = np.stack([softmax(rng.normal(size=8)) for _ in range(64)])
        assert len(self.select(probs, 0.1)[1]) == 6
        assert len(self.select(probs, 1.0)[1]) == 64
        assert len(self.select(np.full((3, 2), 0.5), 0.1)[1]) == 1

    def test_threshold_is_kth_smallest(self):
        rng = np.random.default_rng(1)
        probs = np.stack([softmax(rng.normal(size=5)) for _ in range(40)])
        _, selected, threshold = self.select(probs, 0.25)
        assert len(selected) == 10
        assert threshold == np.sort(ep.row_entropies(probs))[9]

    def test_ties_keep_exactly_k(self):
        _, selected, threshold = self.select(np.full((64, 8), 1 / 8), 0.1)
        np.testing.assert_array_equal(selected, np.arange(6))
        assert threshold == ep.row_entropies(np.full((1, 8), 1 / 8))[0]

    def test_selects_k_lowest_entropy(self):
        rng = np.random.default_rng(2)
        probs = np.stack([softmax(3 * rng.normal(size=5)) for _ in range(20)])
        _, selected, _ = self.select(probs, 0.25)
        want = np.sort(np.argsort(ep.row_entropies(probs), kind="stable")[:5])
        np.testing.assert_array_equal(selected, want)
        assert len(selected) == 5

    def test_average_uses_actual_k(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.8, 0.2]])
        averaged, _, _ = self.select(probs, 0.67)
        np.testing.assert_allclose(averaged.data,
                                   (probs[0] + probs[2])[None] / 2.0, atol=1e-15)
        assert abs(averaged.data.sum() - 1.0) <= 1e-12

    def test_rho_one_is_plain_mean(self):
        rng = np.random.default_rng(3)
        probs = np.stack([softmax(rng.normal(size=4)) for _ in range(16)])
        averaged, _, _ = self.select(probs, 1.0)
        np.testing.assert_allclose(averaged.data[0], probs.mean(axis=0),
                                   atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.integers(0, 3), min_size=1, max_size=64),
           rho=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_selects_exactly_k_ties_to_lower_index(self, rows, rho, seed):
        """Rows drawn from four distributions, so entropies tie often."""
        rng = np.random.default_rng(seed)
        table = np.stack([softmax(3 * rng.normal(size=5)) for _ in range(4)])
        probs = table[rows]
        averaged, chosen, threshold = self.select(probs, rho)
        k = max(1, int(np.floor(rho * len(rows))))
        assert len(chosen) == len(set(chosen.tolist())) == k
        assert np.all(np.diff(chosen) > 0)
        others = np.setdiff1d(np.arange(len(rows)), chosen)
        ents = ep.row_entropies(probs)
        assert threshold == ents[chosen].max()
        for j in others:
            assert ents[j] >= threshold
            # a view that ties a selected one has a higher index
            assert not np.any((ents[chosen] == ents[j]) & (chosen > j))
        np.testing.assert_array_equal(averaged.data[0], probs[chosen].mean(axis=0))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
    def test_rho_one_averages_every_row(self, n, seed):
        rng = np.random.default_rng(seed)
        probs = np.stack([softmax(rng.normal(size=8)) for _ in range(n)])
        averaged, selected, _ = self.select(probs, 1.0)
        np.testing.assert_array_equal(selected, np.arange(n))
        np.testing.assert_array_equal(averaged.data[0], probs.mean(axis=0))

    def test_loss_equals_entropy_of_average(self):
        rng = np.random.default_rng(4)
        probs = np.stack([softmax(rng.normal(size=6)) for _ in range(10)])
        averaged, _, _ = self.select(probs, 0.5)
        loss = ep.marginal_entropy_loss(averaged)
        assert abs(loss.item() - ep.entropy(averaged.data[0])) <= 1e-12


# each group's weight-name prefixes, written out as the reference that
# model.ENCODER_WEIGHTS and episode.PARAMETER_GROUPS select by
TEXT_PREFIXES = ("text.", "text_pos", "text_proj")
IMAGE_PREFIXES = ("image.", "image_pos", "image_proj", "patch_")
GROUP_PREFIXES = {"prompt": (), "text_encoder": TEXT_PREFIXES, "image_encoder": IMAGE_PREFIXES,
                  "all": TEXT_PREFIXES + IMAGE_PREFIXES}


def test_each_weight_is_the_token_embedding_or_one_encoders():
    """Every weight is in exactly one of token_embedding and the two
    encoders' lists; each list holds, in file order, the names that its
    prefixes select."""
    names = list(mdl.weight_shapes(mdl.ModelConfig()))
    owners = [("token_embedding",), mdl.ENCODER_WEIGHTS["text"], mdl.ENCODER_WEIGHTS["image"]]
    for name in names:
        assert sum(name in owner for owner in owners) == 1, name
    assert [len(owner) for owner in owners] == [1, 36, 38] and len(names) == 75
    assert mdl.ENCODER_WEIGHTS["text"] == tuple(n for n in names if n.startswith(TEXT_PREFIXES))
    assert mdl.ENCODER_WEIGHTS["image"] == tuple(n for n in names
                                                 if n.startswith(IMAGE_PREFIXES))


class TestTPTConfig:
    def test_defaults(self):
        cfg = ep.TPTConfig()
        assert (cfg.n_views, cfg.rho, cfg.steps, cfg.lr) == (64, 0.1, 1, 0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            ep.TPTConfig(n_views=0)
        with pytest.raises(ValueError):
            ep.TPTConfig(rho=0.0)
        with pytest.raises(ValueError):
            ep.TPTConfig(rho=1.5)
        with pytest.raises(ValueError):
            ep.TPTConfig(parameter_group="logit_scale")
        for lr in (np.nan, np.inf, -0.005):
            with pytest.raises(ValueError, match="lr must be finite and >= 0"):
                ep.TPTConfig(lr=lr)
        assert ep.TPTConfig(lr=0.0).lr == 0.0  # the null update

    def test_a_samples_config_splits_only_the_seed(self):
        cfg = ep.TPTConfig(n_views=8, rho=0.5, seed=3)
        assert cfg.for_sample(np.int64(7)) == replace(cfg, seed=split_seed(3, 7))


@pytest.fixture(scope="module")
def image():
    spec = dat.DatasetSpec(samples_per_class=1)
    return dat.generate(spec, seed=5).images[0]


class TestTptClassify:
    def small_cfg(self, **kw):
        kw.setdefault("n_views", 8)
        kw.setdefault("rho", 0.25)
        return ep.TPTConfig(**kw)

    def test_prompt_resets_after_episode(self, weights, config, classes, prompt,
                                         image):
        before = prompt.prompt.data.copy()
        ep.tpt_classify(weights, config, prompt, classes, image, self.small_cfg())
        np.testing.assert_array_equal(prompt.prompt.data, before)

    def test_weights_unchanged_in_prompt_group(self, weights, config, classes,
                                               prompt, image):
        snap = {n: t.data.copy() for n, t in weights.items()}
        ep.tpt_classify(weights, config, prompt, classes, image, self.small_cfg())
        for n, t in weights.items():
            np.testing.assert_array_equal(t.data, snap[n])
            assert not t.requires_grad

    def test_weights_restored_for_weight_groups(self, weights, config, classes,
                                                prompt, image):
        snap = {n: t.data.copy() for n, t in weights.items()}
        for group in ("text_encoder", "image_encoder", "all"):
            cfg = self.small_cfg(parameter_group=group, steps=2)
            ep.tpt_classify(weights, config, prompt, classes, image, cfg)
            for n, t in weights.items():
                np.testing.assert_array_equal(t.data, snap[n])
                assert not t.requires_grad

    def test_zero_lr_prediction_matches_zero_shot(self, weights, config, classes,
                                                  prompt, image):
        pred, _, trace = ep.tpt_classify(weights, config, prompt, classes, image,
                                         self.small_cfg(lr=0.0))
        feat = mdl.encode_image(weights, config, image).data
        tfeats = ep.text_features(weights, config, prompt, classes).data
        assert pred == int(np.argmax(feat @ tfeats.T))
        np.testing.assert_array_equal(trace["pre_original"],
                                      trace["post_original"])

    def test_loss_decreases_over_steps(self, weights, config, classes, prompt,
                                       image):
        cfg = self.small_cfg(steps=5, lr=0.01)
        _, _, trace = ep.tpt_classify(weights, config, prompt, classes, image, cfg)
        assert trace["losses"][-1] < trace["losses"][0]

    def test_trace_contents(self, weights, config, classes, prompt, image):
        cfg = self.small_cfg(steps=2, n_views=8, rho=0.25)
        _, averaged, trace = ep.tpt_classify(weights, config, prompt, classes,
                                             image, cfg, record_views=True)
        assert len(trace["losses"]) == 2
        assert len(trace["thresholds"]) == 2
        assert trace["k"] == 2
        assert all(len(m) == 2 for m in trace["mask_indices"])
        assert trace["pre_views"].shape == (8, len(classes))
        assert abs(averaged.sum() - 1.0) <= 1e-10
        assert abs(trace["pre_original"].sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize("group", ["prompt", "image_encoder"])
    def test_trace_times_the_four_stages(self, weights, config, classes, prompt, image,
                                         group):
        cfg = self.small_cfg(parameter_group=group)
        _, _, trace = ep.tpt_classify(weights, config, prompt, classes, image, cfg)
        stage_ms = trace["stage_ms"]
        assert list(stage_ms) == ["views", "encode", "tune", "predict"]
        assert all(np.isfinite(ms) and ms >= 0.0 for ms in stage_ms.values())

    def test_view_distributions_are_those_of_all_n_views(
            self, weights, config, classes, prompt, image, monkeypatch):
        """Each distinct view is encoded once, yet every view's
        distribution equals that of encoding all N views, bit for bit.
        The first step takes the kept start pass, so the features before
        tuning are those of the start state."""
        pre = ep.text_features(weights, config, prompt, classes).data
        text = []
        text_features = ep.text_features

        def recording(*args):
            tfeats = text_features(*args)
            text.append(tfeats.data.copy())
            return tfeats

        monkeypatch.setattr(ep, "text_features", recording)
        cfg = ep.TPTConfig(steps=2, seed=3)
        _, _, trace = ep.tpt_classify(weights, config, prompt, classes, image, cfg,
                                      record_views=True)
        views, index = generate_views(image, cfg.n_views, cfg.policy, cfg.seed)
        assert len(views) < cfg.n_views
        feats = mdl.encode_images(weights, config, [views[i] for i in index])
        for tag, tfeats in (("pre_views", pre), ("post_views", text[-1])):
            want = mdl.class_probabilities(Tensor(tfeats), feats, config.logit_scale)
            np.testing.assert_array_equal(trace[tag], want.data)
        assert trace["distinct_views"] == len(views)
        assert trace["distinct_selected"] == len(set(index[trace["mask_indices"][0]]))

    @pytest.mark.parametrize("group", sorted(GROUP_PREFIXES))
    def test_a_group_tunes_the_weights_its_prefixes_name(
            self, weights, config, classes, prompt, image, monkeypatch, group):
        """The episode makes trainable, besides the prompt, exactly the
        weights whose names start with one of the group's prefixes, and
        its config is image_tuned if one is an image weight's."""
        tuned = []
        set_trainable = mdl.set_trainable

        def recording(tensors, trainable):
            if trainable:
                tuned.append([id(t) for t in tensors])
            set_trainable(tensors, trainable)

        monkeypatch.setattr(mdl, "set_trainable", recording)
        cfg = self.small_cfg(parameter_group=group)
        ep.tpt_classify(weights, config, prompt, classes, image, cfg)
        assert cfg.image_tuned == any(p in IMAGE_PREFIXES for p in GROUP_PREFIXES[group])
        names = {id(t): name for name, t in weights.items()}
        assert len(tuned) == 1
        assert sorted(names[i] for i in tuned[0]) == sorted(
            name for name in weights if name.startswith(GROUP_PREFIXES[group]))

    @pytest.mark.parametrize("group", sorted(ep.PARAMETER_GROUPS))
    def test_each_encode_takes_the_distinct_views(
            self, weights, config, classes, prompt, image, monkeypatch, group):
        """Every group encodes the distinct views, never all N: once when
        no image weight is tuned, else on each step and for the final
        prediction."""
        sizes = []
        encode_images = mdl.encode_images

        def recording(w, c, images):
            sizes.append(len(images))
            return encode_images(w, c, images)

        monkeypatch.setattr(mdl, "encode_images", recording)
        cfg = ep.TPTConfig(steps=2, seed=3, parameter_group=group)
        _, _, trace = ep.tpt_classify(weights, config, prompt, classes, image, cfg)
        assert trace["distinct_views"] < cfg.n_views
        image_tuned = group in ("image_encoder", "all")
        assert sizes == [trace["distinct_views"]] * (cfg.steps + 1 if image_tuned else 1)

    def test_a_tuning_step_records_30_tape_entries_fresh_and_11_kept(
            self, weights, config, classes, image, monkeypatch):
        """Each attention and MLP sublayer is one tape op: 13 per text
        transformer pass.  A fresh start records its text pass, 19
        entries, on the kept tape; the step's tape then takes one entry
        for that pass and 10 for the rest.  A kept start records only the
        step's 11 and replays the kept 19."""
        records = []
        record = ad.Tape.record

        def counting(tape, out, backward_fn):
            records.append(out)
            record(tape, out, backward_fn)

        monkeypatch.setattr(ad.Tape, "record", counting)
        weights = copied(weights)
        counts = []
        for _ in range(2):
            records.clear()
            prompt = init_from_template(weights, config, dat.template_ids())
            ep.tpt_classify(weights, config, prompt, classes, image, ep.TPTConfig())
            counts.append(len(records))
        assert counts == [30, 11]
        assert len(ep._start[1]._records) == 19

    def test_view_feature_gradients_equal_those_of_all_n_views(self, config, image):
        """Summing a view's copies in the gather before the encoder's
        backward pass moves the image weights' gradients only by
        summation order."""
        views, index = generate_views(image, 16, ep.TPTConfig().policy, 3)
        assert len(views) < len(index)
        r = Tensor(np.random.default_rng(4).normal(size=(len(index), config.proj_dim)))

        def image_grads(features):
            weights = mdl.init_weights(config, seed=1)
            tuned = {n: weights[n] for n in mdl.ENCODER_WEIGHTS["image"]}
            mdl.set_trainable(tuned.values(), True)
            with ad.Tape() as tape:
                tape.backward(ad.sum_all(ad.mul(features(weights), r)))
            return {n: t.grad for n, t in tuned.items()}

        got = image_grads(lambda w: ep.view_features(w, config, views, index))
        want = image_grads(
            lambda w: mdl.encode_images(w, config, [views[i] for i in index]))
        assert got.keys() == want.keys() and len(want) > 4
        # relative to the largest entry of the whole gradient: a key bias's
        # gradient is zero up to roundoff (softmax ignores a shift)
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            assert np.abs(got[name] - g).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("group", ["prompt", "text_encoder"])
    def test_the_episode_is_its_two_halves(self, weights, config, classes, prompt, image,
                                           group):
        """tpt_classify is tune_on_views of encode_views' output, bit for bit."""
        cfg = self.small_cfg(parameter_group=group, steps=2, seed=5)
        whole = ep.tpt_classify(weights, config, prompt, classes, image, cfg,
                                record_views=True)
        halves = ep.tune_on_views(weights, config, prompt, classes,
                                  *ep.encode_views(weights, config, image, cfg), cfg,
                                  record_views=True)
        for _, _, trace in (whole, halves):
            del trace["stage_ms"]
        TestStartPass.assert_same(whole, halves)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_fewer_views_are_the_first_rows_of_the_table(self, weights, config, image,
                                                         seed):
        """Under the default policy the n-view index and features are the
        first n rows of the 64-view ones, bit for bit."""
        _, index, features, _ = ep.encode_views(weights, config, image,
                                                ep.TPTConfig(seed=seed))
        for n in (1, 2, 8, 32):
            _, got_index, got, _ = ep.encode_views(weights, config, image,
                                                   ep.TPTConfig(n_views=n, seed=seed))
            assert got_index.tobytes() == index[:n].tobytes()
            assert got.data.tobytes() == features.data[:n].tobytes()

    def test_same_seed_same_outcome(self, weights, config, classes, prompt, image):
        cfg = self.small_cfg(seed=11)
        a = ep.tpt_classify(weights, config, prompt, classes, image, cfg)
        b = ep.tpt_classify(weights, config, prompt, classes, image, cfg)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2]["losses"] == b[2]["losses"]

    def test_non_finite_image_raises_and_resets(self, weights, config, classes,
                                                prompt, image):
        bad = image.copy()
        bad[0, 4, 4] = np.nan
        before = prompt.prompt.data.copy()
        snap = {n: t.data.copy() for n, t in weights.items()}
        for group in ("prompt", "text_encoder", "image_encoder"):
            cfg = self.small_cfg(parameter_group=group)
            with pytest.raises(ValueError, match="non-finite"):
                ep.tpt_classify(weights, config, prompt, classes, bad, cfg)
            np.testing.assert_array_equal(prompt.prompt.data, before)
            assert not prompt.prompt.grad.any()
            for n, t in weights.items():
                np.testing.assert_array_equal(t.data, snap[n])
                assert not t.requires_grad

    def test_one_view_runs(self, weights, config, classes, prompt, image):
        cfg = ep.TPTConfig(n_views=1, rho=1.0)
        pred, averaged, trace = ep.tpt_classify(weights, config, prompt, classes,
                                                image, cfg)
        assert trace["k"] == 1
        assert 0 <= pred < len(classes)


# the weights text_features reads, by the names tpt.model gives them, and
# the rest, which only the image encoder reads
TEXT_WEIGHTS = [name for name in mdl.weight_shapes(mdl.ModelConfig())
                if name.startswith(("token_embedding", "text_pos", "text.", "text_proj"))]
IMAGE_WEIGHTS = [name for name in mdl.weight_shapes(mdl.ModelConfig())
                 if name not in TEXT_WEIGHTS]


class TestStartPass:
    """The first step's text pass is kept across episodes and recorded
    afresh whenever a part of its key changes.  Each test forces its
    first pass with a copied weights dict, so none depends on test order."""

    CFG = ep.TPTConfig(n_views=8, rho=0.25, steps=2, seed=4)

    def episode(self, weights, config, classes, image, group="prompt", prompt=None):
        """(pred, averaged, trace without stage_ms, whether the start pass
        was recorded afresh)."""
        if prompt is None:
            prompt = init_from_template(weights, config, dat.template_ids())
        kept = ep._start
        cfg = replace(self.CFG, parameter_group=group)
        pred, averaged, trace = ep.tpt_classify(weights, config, prompt, classes,
                                                image, cfg, record_views=True)
        del trace["stage_ms"]
        return pred, averaged, trace, ep._start is not kept

    @staticmethod
    def assert_same(a, b):
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].keys() == b[2].keys()
        for key, value in a[2].items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == b[2][key].tobytes(), key
            else:
                assert value == b[2][key], key

    @pytest.mark.parametrize("group", ["prompt", "text_encoder", "all"])
    def test_a_miss_and_a_hit_give_the_same_episode(self, weights, config, classes,
                                                    image, group):
        weights = copied(weights)
        miss = self.episode(weights, config, classes, image, group)
        hit = self.episode(weights, config, classes, image, group)
        assert miss[3] and not hit[3]
        self.assert_same(miss, hit)

    def test_the_prompt_values_are_in_the_key(self, weights, config, classes, image):
        weights = copied(weights)
        self.episode(weights, config, classes, image)
        other = init_from_template(weights, config, dat.template_ids())
        other.prompt.data[0, 0] += 1e-3
        got = self.episode(weights, config, classes, image, prompt=other)
        assert got[3]
        other = init_from_template(weights, config, dat.template_ids())
        other.prompt.data[0, 0] += 1e-3
        want = self.episode(copied(weights), config, classes, image, prompt=other)
        self.assert_same(got, want)

    def test_the_class_ids_are_in_the_key(self, weights, config, classes, image):
        weights = copied(weights)
        self.episode(weights, config, classes, image)
        assert self.episode(weights, config, classes[::-1], image)[3]
        assert self.episode(weights, config, classes[:4], image)[3]
        assert self.episode(weights, config, classes, image)[3]

    @pytest.mark.parametrize("name", TEXT_WEIGHTS)
    def test_a_text_weight_changed_in_place_and_restored(self, weights, config,
                                                          classes, image, name):
        """Every episode starts from one prompt, read before the change,
        so that only the key's weights can tell the passes apart.  The
        change varies over the tensor: a uniform one is cancelled by the
        next LayerNorm for most of them.  A key bias adds one term to all
        of a query's scores, which the softmax cancels, so its change
        moves the output only by rounding."""
        weights = copied(weights)
        prompt = init_from_template(weights, config, dat.template_ids())
        before = self.episode(weights, config, classes, image, prompt=prompt)
        values = weights[name].data
        saved = values.copy()
        values += 0.5 * np.cos(np.arange(values.size)).reshape(values.shape)
        changed = self.episode(weights, config, classes, image, prompt=prompt)
        assert changed[3]
        self.assert_same(changed, self.episode(copied(weights), config, classes, image,
                                               prompt=prompt))
        assert changed[1].tobytes() != before[1].tobytes()
        if not name.endswith("attn.bk"):
            assert np.abs(changed[1] - before[1]).max() > 1e-9
        values[...] = saved
        restored = self.episode(weights, config, classes, image, prompt=prompt)
        assert restored[3]
        self.assert_same(restored, before)

    @pytest.mark.parametrize("name", IMAGE_WEIGHTS)
    def test_an_image_weight_changed_in_place_is_a_hit(self, weights, config, classes,
                                                       image, name):
        """The start pass reads no image weight, so its entry stays."""
        weights = copied(weights)
        self.episode(weights, config, classes, image)
        weights[name].data += 0.5
        got = self.episode(weights, config, classes, image)
        assert not got[3]
        self.assert_same(got, self.episode(copied(weights), config, classes, image))

    def test_new_tensors_with_equal_values_are_another_key(self, weights, config,
                                                          classes, image):
        first = self.episode(copied(weights), config, classes, image)
        second = self.episode(copied(weights), config, classes, image)
        assert first[3] and second[3]
        self.assert_same(first, second)

    def test_requires_grad_is_in_the_key(self, weights, config, classes, image):
        """The text_encoder group flags the text weights for the episode."""
        weights = copied(weights)
        runs = [self.episode(weights, config, classes, image, group)
                for group in ("prompt", "text_encoder", "text_encoder", "prompt")]
        assert [run[3] for run in runs] == [True, True, False, True]
        self.assert_same(runs[0], runs[3])

    @pytest.mark.parametrize("where", ["loss", "replay", "step"])
    def test_an_exception_in_a_step_leaves_the_entry_reusable(
            self, weights, config, classes, image, monkeypatch, where):
        weights = copied(weights)
        want = self.episode(weights, config, classes, image)
        kept = ep._start

        def fail(*args):
            raise RuntimeError(where)

        with monkeypatch.context() as patch:
            if where == "loss":
                patch.setattr(ep, "marginal_entropy_loss", fail)
            elif where == "step":
                patch.setattr(ep.AdamW, "step", fail)
            else:  # after the kept tape's walk, inside the step's backward
                walk = ad.Tape.walk

                def walk_then_fail(tape, root, grad):
                    walk(tape, root, grad)
                    if tape is kept[1]:
                        fail()

                patch.setattr(ad.Tape, "walk", walk_then_fail)
            with pytest.raises(RuntimeError, match=where):
                self.episode(weights, config, classes, image)
        assert ep._start is kept
        got = self.episode(weights, config, classes, image)
        assert not got[3]
        self.assert_same(got, want)
