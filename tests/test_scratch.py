"""The kept scratch pool of untaped passes (autodiff.scratch): an array
from it never changes an output, never outlives the call that takes it,
and the pool keeps a bounded number of bytes."""

import math
import tracemalloc

import numpy as np
import pytest

from tpt import autodiff as ad
from tpt import data as dat
from tpt import episode as ep
from tpt import model as mdl
from tpt.augment import AugmentPolicy, generate_views
from tpt.autodiff import Tape, Tensor
from tpt.prompt import init_from_template


@pytest.fixture(scope="module")
def config():
    return mdl.ModelConfig()


@pytest.fixture(scope="module")
def weights(config):
    return mdl.init_weights(config, seed=0)


@pytest.fixture(scope="module")
def trainable(config):
    """The same values as `weights`, every Tensor requiring gradients, so
    that on a tape every op records."""
    weights = mdl.init_weights(config, seed=0)
    mdl.set_trainable(weights.values(), True)
    return weights


@pytest.fixture(scope="module")
def dataset():
    return dat.apply_shift(dat.generate(dat.DatasetSpec(samples_per_class=2), seed=4),
                           dat.ShiftSpec.parse("noise:0.3"), seed=0)


@pytest.fixture()
def empty_pool(monkeypatch):
    """A pool with no kept buffer yet; the real one is back after the test."""
    monkeypatch.setattr(ad, "_scratch", {})
    return ad._scratch


def pool_off(monkeypatch):
    """Every request gets a new array, as every pass did before the pool."""
    monkeypatch.setattr(ad, "SCRATCH_CAPACITY", dict.fromkeys(ad.SCRATCH_CAPACITY, 0))


def images(config, n, seed=0):
    return np.random.default_rng(seed).random((n,) + config.image_shape)


def untaped(weights, config, imgs):
    return mdl.encode_images(weights, config, imgs).data.copy()


def test_scratch_is_a_kept_prefix_up_to_the_capacity(empty_pool):
    a = ad.scratch("patches", (2, 3))
    b = ad.scratch("patches", (4, 5))
    assert a.shape == (2, 3) and b.shape == (4, 5) and b.flags.c_contiguous
    assert a.base is b.base is empty_pool["patches"]
    assert empty_pool["patches"].size == ad.SCRATCH_CAPACITY["patches"]
    over = ad.scratch("patches", (ad.SCRATCH_CAPACITY["patches"] + 1,))
    assert not np.shares_memory(over, empty_pool["patches"])


def test_capacities_cover_an_encode_block_and_an_episodes_views(config):
    """The stated capacities fit what they are sized for, so a change of
    model shape or pass size cannot turn the pool off unnoticed."""
    rows = mdl.UNTAPED_BLOCK * config.num_patches
    width = {"x", "ln.y", "ln.sq", "attn.q", "attn.k", "attn.v", "attn.ctx", "out"}
    assert all(ad.SCRATCH_CAPACITY[slot] == rows * config.embed_dim for slot in width)
    assert ad.SCRATCH_CAPACITY["attn.p"] == rows * config.heads * config.num_patches
    assert ad.SCRATCH_CAPACITY["mlp.pre"] == ad.SCRATCH_CAPACITY["mlp.erf"] \
        == rows * 4 * config.embed_dim
    assert ad.SCRATCH_CAPACITY["patches"] == rows * config.patch_dim
    views = ep.TPTConfig().n_views * math.prod(config.image_shape)
    assert ad.SCRATCH_CAPACITY["views"] == views
    assert set(ad.SCRATCH_CAPACITY) == width | {"attn.p", "mlp.pre", "mlp.erf", "patches",
                                                "views"}
    assert 8 * sum(ad.SCRATCH_CAPACITY.values()) == 4_587_520  # 4.4 MB, as stated


def sequences(config, n, seed=0):
    return np.random.default_rng(seed).normal(0.0, 0.02, size=(n, 6, config.embed_dim))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 23, 31, 32, 33, 64, 65, 512])
def test_untaped_and_taped_values_are_bit_equal(weights, trainable, config, n):
    imgs = images(config, n)
    seqs = sequences(config, n, seed=n)
    x = np.random.default_rng(n).normal(size=(n, config.num_patches, config.embed_dim))
    mlp = [f"image.0.mlp.{m}" for m in ("w1", "b1", "w2", "b2")]
    buf = ad.pass_scratch(x.shape, config.heads, 4 * config.embed_dim)
    off = ad.mlp_forward(x, *(weights[m] for m in mlp), buf)[0].copy()
    off_images = untaped(weights, config, imgs)
    off_texts = mdl.encode_texts(weights, config, Tensor(seqs)).data.copy()
    with Tape():
        on = ad.mlp(Tensor(x, requires_grad=True), *(trainable[m] for m in mlp)).data
        on_images = mdl.encode_images(trainable, config, imgs).data
        on_texts = mdl.encode_texts(trainable, config, Tensor(seqs, requires_grad=True)).data
    np.testing.assert_array_equal(off, on)
    np.testing.assert_array_equal(off_images, on_images)
    np.testing.assert_array_equal(off_texts, on_texts)


@pytest.mark.parametrize("n", [5, 33])
def test_features_outlive_later_passes_of_other_sizes(weights, config, n):
    """The features a pass returns are its own arrays: later untaped image
    and text passes, smaller and larger, leave them as they were."""
    feats = [mdl.encode_images(weights, config, images(config, n)),
             mdl.encode_texts(weights, config, Tensor(sequences(config, n)))]
    want = [f.data.copy() for f in feats]
    for m in (1, mdl.UNTAPED_BLOCK, 2 * mdl.UNTAPED_BLOCK + 1, 9):
        mdl.encode_images(weights, config, images(config, m, seed=m))
        mdl.encode_texts(weights, config, Tensor(sequences(config, m, seed=m)))
    for f, w in zip(feats, want):
        np.testing.assert_array_equal(f.data, w)


def test_text_passes_and_a_taped_pretraining_step_between_untaped_encodes(
        weights, config, monkeypatch):
    """Untaped encodes of 1 to 23 images, untaped text passes and taped
    pretraining batches interleaved give what each gives with the pool off."""
    train = dat.generate(dat.DatasetSpec(samples_per_class=3), seed=1)
    pairs = dat.caption_pairs(train)[:18]  # batches of 16 and 2 pairs
    policy = AugmentPolicy(**mdl.PRETRAIN_POLICY)
    captions = mdl.embed_tokens(weights, config, [ids for _, ids in pairs])

    def run():
        out = []
        for n in (9, 1, 23, 7):
            out.append(untaped(weights, config, images(config, n, seed=n)))
            out.append(mdl.encode_texts(weights, config, captions).data.copy())
            trained, losses = mdl.pretrain_contrastive(
                mdl.init_weights(config, seed=2), config, pairs, augment_policy=policy,
                **{**mdl.PRETRAIN, "epochs": 1})
            out += [losses] + [t.data for t in trained.values()]
        return out

    got = run()
    pool_off(monkeypatch)
    want = run()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_an_encode_that_raises_leaves_later_encodes_alike(weights, config):
    imgs = images(config, mdl.UNTAPED_BLOCK + 7)
    before = untaped(weights, config, imgs)
    bad = imgs.copy()
    bad[mdl.UNTAPED_BLOCK + 3, 1, 5, 5] = np.nan  # in the second block
    with pytest.raises(ValueError, match="non-finite"):
        mdl.encode_images(weights, config, bad)
    np.testing.assert_array_equal(untaped(weights, config, imgs), before)
    np.testing.assert_array_equal(untaped(weights, config, imgs[:5]), before[:5])


def test_views_without_a_buffer_are_new_arrays(config):
    image = images(config, 1)[0]
    a, _ = generate_views(image, 64, AugmentPolicy(), seed=1)
    b, _ = generate_views(image, 64, AugmentPolicy(), seed=2)
    assert not np.shares_memory(a, b)


@pytest.mark.parametrize("policy", [AugmentPolicy(), AugmentPolicy(kind="augmix")])
def test_views_in_a_buffer_are_its_first_rows(config, policy):
    image = images(config, 1)[0]
    buffer = np.full((64,) + config.image_shape, np.nan)
    views, index = generate_views(image, 64, policy, 3, buffer)
    want, want_index = generate_views(image, 64, policy, 3)
    assert views.base is buffer and views.shape == want.shape
    np.testing.assert_array_equal(views, want)
    np.testing.assert_array_equal(index, want_index)
    with pytest.raises(ValueError, match="out is"):
        generate_views(image, 32, policy, 3, buffer)


CLASSES = dat.generate(dat.DatasetSpec(samples_per_class=1), seed=0).class_token_ids


def outcome(weights, config, image, cfg):
    """An episode's prediction, average and trace, less its wall times."""
    state = init_from_template(weights, config, dat.template_ids())
    pred, averaged, trace = ep.tpt_classify(weights, config, state, CLASSES, image, cfg,
                                            record_views=True)
    del trace["stage_ms"]
    return pred, averaged, trace


def assert_same(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        np.testing.assert_array_equal(a, b)


def test_back_to_back_episodes_give_what_they_give_alone(weights, config, dataset,
                                                         monkeypatch):
    """Episodes of 64, few and some distinct views, in either order and
    under the image-tuning group, each as it runs on an empty pool."""
    runs = [(0, ep.TPTConfig(seed=1, policy=AugmentPolicy(kind="augmix"))),
            (1, ep.TPTConfig(seed=2, n_views=16)),
            (2, ep.TPTConfig(seed=3)),
            (3, ep.TPTConfig(seed=4, parameter_group="image_encoder", steps=2)),
            (0, ep.TPTConfig(seed=5, n_views=8))]
    together = [outcome(weights, config, dataset.images[i], cfg) for i, cfg in runs]
    assert len({t[2]["distinct_views"] for t in together}) >= 4
    for (i, cfg), got in zip(runs, together):
        monkeypatch.setattr(ad, "_scratch", {})
        assert_same(got, outcome(weights, config, dataset.images[i], cfg))


def test_peak_of_a_warm_untaped_encode_block(weights, config):
    """740 KB with a new patch matrix and MLP buffers per 8-image block,
    357 KB with those kept; 98 KB with every block-sized array of a
    32-image pass kept, most of it the isfinite mask of its pixels; 80 KB
    with the finiteness check made from the pixels' min and max, the peak
    then inside the transformer's sublayers.  The bound, 128 KB, is one
    (32, 16, 32) array: a block-sized array made anew passes it."""
    imgs = images(config, mdl.UNTAPED_BLOCK)
    untaped(weights, config, imgs)
    tracemalloc.start()
    try:
        untaped(weights, config, imgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_peak_of_a_warm_default_episode(weights, config, dataset):
    """1.16 MB with a new view array and encode temporaries per episode;
    0.70 MB (699 KB) with them kept, where the peak lies outside the
    encode; the bound, 768 KB, is about 10% above that."""
    outcome(weights, config, dataset.images[0], ep.TPTConfig())
    tracemalloc.start()
    try:
        outcome(weights, config, dataset.images[1], ep.TPTConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 * 1024


def test_a_large_untaped_pass_leaves_the_pool_at_its_capacity(weights, config,
                                                              empty_pool):
    """512 captions need 2.6 MB MLP buffers: they come and go, and the
    pool keeps no more than its capacities."""
    captions = [[16 + i % 8, i % 16, 2, i % 5, 16 + i % 7] for i in range(512)]
    seqs = mdl.embed_tokens(weights, config, captions)
    untaped(weights, config, images(config, 2))
    tracemalloc.start()
    try:
        mdl.encode_texts(weights, config, seqs)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024
    assert all(buf.size == ad.SCRATCH_CAPACITY[slot] for slot, buf in empty_pool.items())
