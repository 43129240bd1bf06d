import numpy as np
import pytest

from tpt import data as dat
from tpt import episode as ep
from tpt import model as mdl
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
    spec = dat.DatasetSpec(samples_per_class=1)
    return mdl.ClassSet(list(dat.DEFAULT_CLASS_NAMES),
                        dat.generate(spec, seed=0).class_token_ids)


@pytest.fixture()
def prompt(weights, config):
    return init_from_template(weights, config, dat.template_ids())


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

    def test_row_entropies_matches_scalar(self):
        rng = np.random.default_rng(0)
        rows = np.stack([softmax(rng.normal(size=6)) for _ in range(10)])
        got = ep.row_entropies(rows)
        want = [ep.entropy(r) for r in rows]
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestConfidenceThreshold:
    def test_k_rule(self):
        ents = np.linspace(0.1, 2.0, 64)
        _, k = ep.confidence_threshold(ents, 0.1)
        assert k == 6
        assert ep.confidence_threshold(ents, 1.0)[1] == 64
        assert ep.confidence_threshold(np.ones(3), 0.1)[1] == 1

    def test_threshold_is_kth_smallest(self):
        rng = np.random.default_rng(1)
        ents = rng.random(40)
        thr, k = ep.confidence_threshold(ents, 0.25)
        assert k == 10
        assert thr == np.sort(ents)[k - 1]

    def test_ties_keep_exactly_k(self):
        ents = np.zeros(64)
        thr, k = ep.confidence_threshold(ents, 0.1)
        assert (thr, k) == (0.0, 6)


class TestSelectAndAverage:
    def make_pred(self, probs):
        t = Tensor(np.asarray(probs, dtype=np.float64))
        return ep.PredictionSet(probs=t, entropies=ep.row_entropies(t.data))

    def test_selects_k_lowest_entropy(self):
        rng = np.random.default_rng(2)
        probs = np.stack([softmax(3 * rng.normal(size=5)) for _ in range(20)])
        pred = ep.select_and_average(self.make_pred(probs), 0.25)
        want = np.sort(np.argsort(pred.entropies, kind="stable")[:5])
        np.testing.assert_array_equal(pred.selected, want)
        assert pred.mask.sum() == 5

    def test_average_uses_actual_k(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.8, 0.2]])
        pred = ep.select_and_average(self.make_pred(probs), 0.67)
        np.testing.assert_allclose(pred.averaged.data,
                                   (probs[0] + probs[2])[None] / 2.0, atol=1e-15)
        assert abs(pred.averaged.data.sum() - 1.0) <= 1e-12

    def test_rho_one_is_plain_mean(self):
        rng = np.random.default_rng(3)
        probs = np.stack([softmax(rng.normal(size=4)) for _ in range(16)])
        pred = ep.select_and_average(self.make_pred(probs), 1.0)
        np.testing.assert_allclose(pred.averaged.data[0], probs.mean(axis=0),
                                   atol=1e-12)

    def test_loss_requires_selection(self):
        probs = np.array([[0.9, 0.1]])
        with pytest.raises(ValueError, match="select_and_average"):
            ep.marginal_entropy_loss(self.make_pred(probs))

    def test_loss_equals_entropy_of_average(self):
        rng = np.random.default_rng(4)
        probs = np.stack([softmax(rng.normal(size=6)) for _ in range(10)])
        pred = ep.select_and_average(self.make_pred(probs), 0.5)
        loss = ep.marginal_entropy_loss(pred)
        assert abs(loss.item() - ep.entropy(pred.averaged.data[0])) <= 1e-12


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
