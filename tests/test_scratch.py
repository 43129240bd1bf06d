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
    model shape or block size cannot turn the pool off unnoticed."""
    block = mdl.ENCODE_BLOCK * config.num_patches
    assert ad.SCRATCH_CAPACITY["mlp.pre"] == ad.SCRATCH_CAPACITY["mlp.erf"] \
        == block * 4 * config.embed_dim
    assert ad.SCRATCH_CAPACITY["patches"] == block * config.patch_dim
    views = ep.TPTConfig().n_views * math.prod(config.image_shape)
    assert ad.SCRATCH_CAPACITY["views"] == views
    assert 8 * sum(ad.SCRATCH_CAPACITY.values()) == 2_031_616  # 1.94 MB, as stated


@pytest.mark.parametrize("n", [1, 7, 8, 9, 23, 65])
def test_untaped_and_taped_values_are_bit_equal(weights, trainable, config, n):
    imgs = images(config, n)
    x = np.random.default_rng(n).normal(size=(n, config.num_patches, config.embed_dim))
    mlp = [f"image.0.mlp.{m}" for m in ("w1", "b1", "w2", "b2")]
    off = ad.mlp(Tensor(x), *(weights[m] for m in mlp)).data.copy()
    off_images = untaped(weights, config, imgs)
    with Tape():
        on = ad.mlp(Tensor(x, requires_grad=True), *(trainable[m] for m in mlp)).data
        on_images = mdl.encode_images(trainable, config, imgs).data
    np.testing.assert_array_equal(off, on)
    np.testing.assert_array_equal(off_images, on_images)


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
    imgs = images(config, 23)
    before = untaped(weights, config, imgs)
    bad = imgs.copy()
    bad[mdl.ENCODE_BLOCK + 3, 1, 5, 5] = np.nan  # in the second block
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
    runs = [(0, ep.TPTConfig(seed=1, policy=AugmentPolicy(noise_patch_prob=1.0))),
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
    """740 KB with a new patch matrix and MLP buffers per block."""
    imgs = images(config, mdl.ENCODE_BLOCK)
    untaped(weights, config, imgs)
    tracemalloc.start()
    try:
        untaped(weights, config, imgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 450 * 1024


def test_peak_of_a_warm_default_episode(weights, config, dataset):
    """1.16 MB with a new view array and encode temporaries per episode."""
    outcome(weights, config, dataset.images[0], ep.TPTConfig())
    tracemalloc.start()
    try:
        outcome(weights, config, dataset.images[1], ep.TPTConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 900 * 1024


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
