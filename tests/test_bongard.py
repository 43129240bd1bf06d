import numpy as np
import pytest

from tpt import autodiff as ad
from tpt import bongard as bg
from tpt import data as dat
from tpt import model as mdl
from tpt.autodiff import Tensor
from tpt.optim import AdamW
from tpt.prompt import assemble, init_gaussian


@pytest.fixture(scope="module")
def config():
    # moderate temperature: with random (untrained) weights the default
    # scale saturates the support softmax, which these mechanics tests
    # don't care about
    return mdl.ModelConfig(logit_scale=20.0)


@pytest.fixture(scope="module")
def weights(config):
    return mdl.init_weights(config, seed=0)


class TestGenerateTasks:
    def test_count_and_structure(self):
        tasks = bg.generate_tasks(10, seed=0)
        assert len(tasks) == 10
        for t in tasks:
            assert len(t.positives) == 3 and len(t.negatives) == 3
            assert t.query_label in (0, 1)
            assert t.concept["present"] != t.concept["absent"]
            assert t.concept["split"] in bg.SPLITS

    def test_query_labels_balanced(self):
        tasks = bg.generate_tasks(100, seed=1)
        labels = [t.query_label for t in tasks]
        assert sum(labels) == 50

    def test_deterministic(self):
        a = bg.generate_tasks(5, seed=7)
        b = bg.generate_tasks(5, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.query, y.query)
            assert x.concept == y.concept

    def test_empty_side_rejected(self):
        img = np.zeros((3, 32, 32))
        with pytest.raises(ValueError, match="support"):
            bg.BongardSample([], [img], img, 0, {})


def _ref_generate_tasks(n_tasks, seed):
    """generate_tasks written out with two prototypes made per task and a
    new array for each step, as the reference it equals to the bit."""
    spec = dat.DatasetSpec
    rng = np.random.default_rng(seed)
    names = spec.class_names
    tasks = []
    for t in range(n_tasks):
        pos_k, neg_k = rng.choice(len(names), size=2, replace=False)
        proto_pos = dat.class_prototype(names[pos_k], spec.contrast)
        proto_neg = dat.class_prototype(names[neg_k], spec.contrast)

        def noisy(proto):
            img = proto + rng.normal(0.0, spec.noise_sigma, size=proto.shape)
            return np.clip(img, *dat.PIXEL_RANGE)

        positives = [noisy(proto_pos) for _ in range(bg.SUPPORT_PER_SIDE)]
        negatives = [noisy(proto_neg) for _ in range(bg.SUPPORT_PER_SIDE)]
        query = noisy(proto_pos if t % 2 == 1 else proto_neg)
        tasks.append((positives, negatives, query, names[pos_k], names[neg_k]))
    return tasks


@pytest.mark.parametrize("seed", [0, 5])
def test_generate_tasks_matches_reference(seed):
    for task, (positives, negatives, query, present, absent) in zip(
            bg.generate_tasks(8, seed), _ref_generate_tasks(8, seed), strict=True):
        np.testing.assert_array_equal(task.positives, positives)
        np.testing.assert_array_equal(task.negatives, negatives)
        np.testing.assert_array_equal(task.query, query)
        assert (task.concept["present"], task.concept["absent"]) == (present, absent)


def test_reason_config_validation():
    with pytest.raises(ValueError, match="steps=-1"):
        bg.ReasonConfig(steps=-1)
    for lr in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="a finite lr >= 0"):
            bg.ReasonConfig(lr=lr)
    assert bg.ReasonConfig(steps=0).steps == 0
    assert bg.ReasonConfig(lr=0.0).lr == 0.0


@pytest.fixture(scope="module")
def task():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dat.DatasetSpec, "noise_sigma", 0.02)
        return bg.generate_tasks(1, seed=3)[0]


class TestTptReason:
    def test_returns_binary_prediction(self, weights, config, task):
        cfg = bg.ReasonConfig(steps=2)
        pred, trace = bg.tpt_reason(weights, config, task, cfg)
        assert pred in (0, 1)
        assert len(trace["losses"]) == 2
        assert len(trace["support_acc"]) == 3

    def test_zero_steps_records_final_support_acc(self, weights, config, task):
        cfg = bg.ReasonConfig(steps=0)
        pred, trace = bg.tpt_reason(weights, config, task, cfg)
        assert trace["losses"] == []
        assert len(trace["support_acc"]) == 1

    def test_loss_decreases(self, weights, config, task):
        cfg = bg.ReasonConfig(steps=16)
        _, trace = bg.tpt_reason(weights, config, task, cfg)
        assert trace["losses"][-1] < trace["losses"][0]

    def test_seed_determinism(self, weights, config, task):
        cfg = bg.ReasonConfig(steps=4, seed=9)
        a = bg.tpt_reason(weights, config, task, cfg)
        b = bg.tpt_reason(weights, config, task, cfg)
        assert a[0] == b[0]
        assert a[1]["losses"] == b[1]["losses"]

    def test_weights_untouched(self, weights, config, task):
        snap = {n: t.data.copy() for n, t in weights.items()}
        bg.tpt_reason(weights, config, task, bg.ReasonConfig(steps=3))
        for n, t in weights.items():
            np.testing.assert_array_equal(t.data, snap[n])

    def test_support_accuracy_reaches_one(self, weights, config, task):
        _, trace = bg.tpt_reason(weights, config, task, bg.ReasonConfig())
        assert trace["support_acc"][-1] == 1.0


def reference_tpt_reason(weights, config, sample, cfg):
    """tpt_reason with its support loop written inline, as it was before
    the loop moved into fit_prompt."""
    state = init_gaussian(bg.PROMPT_LEN, config.embed_dim, bg.SIGMA, cfg.seed)
    support = list(sample.negatives) + list(sample.positives)
    labels = np.array([0] * len(sample.negatives) + [1] * len(sample.positives))
    encoded = mdl.encode_images(weights, config, support + [sample.query]).data
    feats, query = Tensor(encoded[:-1]), Tensor(encoded[-1:])
    onehot = Tensor(np.eye(2)[labels])

    opt = AdamW(state.params(), lr=cfg.lr)
    trace = {"losses": [], "support_acc": []}
    for _ in range(cfg.steps):
        with ad.Tape() as tape:
            tfeats = mdl.encode_texts(weights, config, assemble(state, state.cls))
            loss, probs = mdl.cross_entropy(
                mdl.class_logits(tfeats, feats, config.logit_scale), onehot)
            opt.zero_grad()
            tape.backward(loss)
        trace["losses"].append(loss.item())
        trace["support_acc"].append(
            float(np.mean(np.argmax(probs.data, axis=1) == labels)))
        opt.step()

    tfeats = mdl.encode_texts(weights, config, assemble(state, state.cls))
    final = mdl.class_logits(tfeats, feats, config.logit_scale).data
    trace["support_acc"].append(float(np.mean(np.argmax(final, axis=1) == labels)))
    return int(np.argmax(mdl.class_logits(tfeats, query, config.logit_scale).data)), trace


@pytest.mark.parametrize("cfg", [bg.ReasonConfig(), bg.ReasonConfig(steps=5, lr=0.05,
                                                                     seed=4)])
def test_tpt_reason_equals_inline_reference(weights, config, cfg):
    for sample in bg.generate_tasks(3, seed=11):
        assert bg.tpt_reason(weights, config, sample, cfg) == reference_tpt_reason(
            weights, config, sample, cfg)
