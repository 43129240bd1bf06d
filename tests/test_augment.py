import contextlib
import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

from tpt import data as dat
from tpt.augment import (RESAMPLE_BLOCK, AugmentPolicy, Streams, augmix_view, crop_resize,
                         generate_views, make_view, make_views, smooth, split_seed)

# policies that reach every branch of a random resized crop, each with
# the values it gives AugmentPolicy's smooth constants
RRC_POLICIES = (
    (AugmentPolicy(), {}),
    (AugmentPolicy(), {"smooth_prob": 1.0}),
    (AugmentPolicy(noise_patch_prob=1.0), {}),
    (AugmentPolicy(scale_range=(0.05, 1.0), noise_patch_prob=0.5),
     {"smooth_scale_range": (0.2, 1.0), "smooth_prob": 0.5}),
)
AUGMIX = (AugmentPolicy(kind="augmix"), {})


@contextlib.contextmanager
def smooth_constants(values):
    """AugmentPolicy's class constants set to `values` inside the block;
    views read them at call time."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(AugmentPolicy, name, value)
        yield


@pytest.fixture
def image():
    rng = np.random.default_rng(3)
    return np.clip(dat.class_prototype("checker", 0.4) + rng.normal(0, 0.05, (3, 32, 32)),
                   0.0, 1.0)


def expanded_views(image, n, policy, seed):
    """The N views of the batch generate_views describes."""
    views, index = generate_views(image, n, policy, seed)
    return [views[i] for i in index]


def test_single_view_is_original(image):
    views, index = generate_views(image, 1, AugmentPolicy(), seed=0)
    assert len(views) == 1
    assert index.tolist() == [0]
    np.testing.assert_array_equal(views[0], image)


def test_64_views_original_plus_63_augmented(image):
    views, index = generate_views(image, 64, AugmentPolicy(), seed=5)
    assert len(index) == 64
    assert index[0] == 0 and 0 not in index[1:]
    np.testing.assert_array_equal(views[0], image)
    assert any(not np.array_equal(v, image) for v in views[1:])


def assert_one_view_array(views, n, image):
    assert isinstance(views, np.ndarray) and views.dtype == np.float64
    assert views.flags.c_contiguous
    assert views.shape == (n,) + image.shape


@pytest.mark.parametrize("policy", [case[0] for case in RRC_POLICIES + (AUGMIX,)])
def test_a_view_batch_is_one_array(image, policy):
    """generate_views and make_views return one C-contiguous float64
    (N, C, H, W) array; generate_views' row 0 is a copy of the image."""
    for n in (1, 2 * RESAMPLE_BLOCK + 3, 64):
        views, index = generate_views(image, n, policy, seed=6)
        assert_one_view_array(views, index.max() + 1, image)
        np.testing.assert_array_equal(views[0], image)
        assert not np.shares_memory(views[0], image)
    images = [image, image[:, ::-1], 1.0 - image]
    seeds = [11, 12, 13]
    views = make_views(images, policy, seeds)
    assert_one_view_array(views, 3, image)
    for view, img, s in zip(views, images, seeds, strict=True):
        np.testing.assert_array_equal(view, make_view(img, policy, s))


def test_make_views_rejects_no_images_and_a_seed_count_mismatch(image):
    with pytest.raises(ValueError, match="no images"):
        make_views([], AugmentPolicy(), [])
    with pytest.raises(ValueError, match="2 images for 1 seeds"):
        make_views([image, image], AugmentPolicy(), [1])


def test_deterministic_batches(image):
    a, a_index = generate_views(image, 16, AugmentPolicy(), seed=9)
    b, b_index = generate_views(image, 16, AugmentPolicy(), seed=9)
    np.testing.assert_array_equal(a_index, b_index)
    for va, vb in zip(a, b, strict=True):
        np.testing.assert_array_equal(va, vb)


def test_views_keep_shape_and_range(image):
    policy = AugmentPolicy(kind="augmix")
    for v in generate_views(image, 32, policy, seed=2)[0]:
        assert v.shape == image.shape
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_full_frame_crop_is_identity(image):
    class FullRng:
        def uniform(self, lo, hi):
            return 1.0

        def integers(self, lo, hi):
            return 0

    out = crop_resize(image, FullRng(), (1.0, 1.0))
    np.testing.assert_allclose(out, image, atol=1e-12)


def test_per_view_seeds_are_splittable_hashes(image):
    for policy, constants in RRC_POLICIES + (AUGMIX,):
        with smooth_constants(constants):
            # one view, then views that end in a part-filled resample block
            for n in (2, RESAMPLE_BLOCK + 2, 2 * RESAMPLE_BLOCK + 3):
                views = expanded_views(image, n, policy, 42)
                assert len(views) == n
                for i in range(1, n):
                    np.testing.assert_array_equal(
                        views[i], make_view(image, policy, split_seed(42, i)))
    assert len({split_seed(42, i) for i in range(8)}) == 8


def reference_crop(rng, policy, h, w):
    """(smoothed, side, y0, x0): a view's first draws, in their order."""
    smoothed = rng.random() < policy.smooth_prob
    scale = rng.uniform(*(policy.smooth_scale_range if smoothed else policy.scale_range))
    side = max(1, int(round(np.sqrt(scale) * h)))
    return smoothed, side, rng.integers(0, h - side + 1), rng.integers(0, w - side + 1)


def reference_key(policy, seed, shape):
    """(smoothed, side, y0, x0, flip) of a view without a noise patch,
    None for a view with one."""
    rng = np.random.default_rng(seed)
    crop = reference_crop(rng, policy, *shape[1:])
    if rng.random() < policy.noise_patch_prob:
        return None
    return (*crop, rng.random() < 0.5)


def reference_rrc_view(image, policy, seed):
    """A random resized crop made one view at a time, written out: the
    draws in their order, then crop, bilinear resize of rows and then
    columns, box blur, noise patch, flip and clip."""
    rng = np.random.default_rng(seed)
    c, h, w = image.shape
    smoothed, side, y0, x0 = reference_crop(rng, policy, h, w)
    out = image[:, y0:y0 + side, x0:x0 + side]
    for axis, n in ((1, h), (2, w)):
        src = np.clip((np.arange(n) + 0.5) * side / n - 0.5, 0.0, side - 1)
        lo = np.floor(src).astype(int)
        frac = (src - lo).reshape([n if a == axis else 1 for a in range(3)])
        out = (np.take(out, lo, axis=axis) * (1.0 - frac)
               + np.take(out, np.minimum(lo + 1, side - 1), axis=axis) * frac)
    if smoothed:
        out = uniform_filter(out, size=(1, 3, 3), mode="nearest")
    if rng.random() < policy.noise_patch_prob:
        bh = int(round(h * rng.uniform(0.3, 0.7)))
        bw = int(round(w * rng.uniform(0.3, 0.7)))
        py = rng.integers(0, h - bh + 1)
        px = rng.integers(0, w - bw + 1)
        sigma = rng.uniform(0.1, 0.3)
        out[:, py:py + bh, px:px + bw] += rng.normal(0.0, sigma, size=(c, bh, bw))
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    return np.clip(out, *dat.PIXEL_RANGE)


def test_rrc_views_equal_the_per_view_reference(image):
    """The blocked resample computes every pixel as the one-view code does."""
    n = 3 * RESAMPLE_BLOCK + 2
    for policy, constants in RRC_POLICIES:
        with smooth_constants(constants):
            for seed in range(3):
                views = expanded_views(image, n, policy, seed)
                for i in range(1, n):
                    np.testing.assert_array_equal(
                        views[i], reference_rrc_view(image, policy, split_seed(seed, i)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(RRC_POLICIES + (AUGMIX,)),
       n=st.integers(1, 70), seed=st.integers(0, 2 ** 64 - 1))
def test_each_distinct_view_is_made_once(image, case, n, seed):
    """The index expands the distinct views into the N views make_view
    makes one by one, and a random resized crop is made once per draw
    key; a view with a noise patch and an AugMix view are their own."""
    policy, constants = case
    with smooth_constants(constants):
        views, index = generate_views(image, n, policy, seed)
        seeds = [split_seed(seed, i) for i in range(1, n)]
        want = [image] + [make_view(image, policy, s) for s in seeds]
        assert len(index) == n
        for i, view in zip(index, want, strict=True):
            np.testing.assert_array_equal(views[i], view)
        if policy.kind == "augmix":
            assert len(views) == n
        else:
            keys = [reference_key(policy, s, image.shape) for s in seeds]
            patched = keys.count(None)
            assert len(views) - 1 == len(set(keys) - {None}) + patched


# 2**32 mod 3 * 2**30 is 2**30, so Lemire's method rejects a quarter of
# the 32-bit words it draws for this range
REJECTING_RANGE = 3 * 2 ** 30


def assert_streams_match_default_rng(seeds):
    """Streams(seeds) draws what default_rng(s) draws for each seed s, and
    a generator that continues a stream draws what the rest of it does,
    with and without a 32-bit word waiting."""
    streams = Streams(np.array(seeds, dtype=np.uint64))
    rngs = [np.random.default_rng(s) for s in seeds]
    crop_ranges = np.arange(len(seeds)) % 33 + 1

    def check(got, draw):
        np.testing.assert_array_equal(got, [draw(i, rng) for i, rng in enumerate(rngs)])

    for _ in range(3):
        check(streams.random(), lambda i, rng: rng.random())
        check(streams.uniform(0.25, 0.25), lambda i, rng: rng.uniform(0.25, 0.25))
        check(streams.uniform(0.3, 0.7), lambda i, rng: rng.uniform(0.3, 0.7))
        check(streams.integers(1), lambda i, rng: rng.integers(0, 1))
        check(streams.integers(crop_ranges), lambda i, rng: rng.integers(0, crop_ranges[i]))
        for _ in range(5):
            check(streams.integers(REJECTING_RANGE), lambda i, rng: rng.integers(0, REJECTING_RANGE))
        for i, rng in enumerate(rngs):
            rest, want = streams.generator(i), copy.deepcopy(rng)
            assert rest.integers(0, 7) == want.integers(0, 7)
            np.testing.assert_array_equal(rest.normal(0.0, 0.2, size=(3, 5, 5)),
                                          want.normal(0.0, 0.2, size=(3, 5, 5)))
            assert rest.random() == want.random()


def test_streams_equal_default_rng_at_the_edges_of_the_seed_range():
    assert_streams_match_default_rng([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8))
def test_streams_equal_default_rng(seeds):
    assert_streams_match_default_rng(seeds)


def test_split_seed_of_an_index_array_is_that_of_each_index():
    for seed in (0, 42, 2 ** 64 - 1):
        index = np.arange(70, dtype=np.uint64)
        assert split_seed(seed, index).tolist() == [split_seed(seed, i) for i in range(70)]


def test_crop_views_construct_no_generator(image, monkeypatch):
    """The draws of all views come from one batch of streams; only a view
    with a noise patch makes a generator, which continues its stream."""
    made = []
    for name in ("default_rng", "PCG64"):
        def counted(*args, name=name, make=getattr(np.random, name)):
            made.append(name)
            return make(*args)
        monkeypatch.setattr(np.random, name, counted)
    generate_views(image, 64, AugmentPolicy(), seed=3)
    assert made == []
    generate_views(image, 64, AugmentPolicy(noise_patch_prob=1.0), seed=3)
    assert made == ["PCG64"] * 63


class TestAugmix:
    def test_pixel_range_fuzz(self, image):
        for seed in range(1000):
            out = augmix_view(image, seed=seed)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestSmooth:
    def test_constant_image_unchanged(self):
        img = np.full((3, 32, 32), 0.4)
        np.testing.assert_allclose(smooth(img), img, atol=1e-12)

    def test_reduces_noise_variance(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(0.0, 0.3, (3, 32, 32))
        # a 3x3 box average of iid noise shrinks the std by about 3x
        assert smooth(noise).std() < noise.std() / 2.0

    def test_preserves_mean(self, image):
        assert abs(smooth(image).mean() - image.mean()) < 1e-10

    def test_channelwise(self):
        img = np.zeros((3, 8, 8))
        img[1] = 1.0
        out = smooth(img)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[1], 1.0)
        np.testing.assert_array_equal(out[2], 0.0)


def test_smooth_prob_one_yields_smooth_views(image, monkeypatch):
    monkeypatch.setattr(AugmentPolicy, "smooth_prob", 1.0)
    monkeypatch.setattr(AugmentPolicy, "smooth_scale_range", (1.0, 1.0))
    for v in generate_views(image, 8, AugmentPolicy(), seed=4)[0][1:]:
        # every non-original view is the blurred full frame or its mirror
        target = smooth(image)
        assert (np.allclose(v, target, atol=1e-12)
                or np.allclose(v, target[:, :, ::-1], atol=1e-12))


def test_policy_validation():
    with pytest.raises(ValueError):
        AugmentPolicy(kind="mixup")
    with pytest.raises(ValueError):
        AugmentPolicy(scale_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        AugmentPolicy(noise_patch_prob=-0.1)


def test_make_view_dispatches(image):
    rrc = make_view(image, AugmentPolicy(), 3)
    mix = make_view(image, AugmentPolicy(kind="augmix"), 3)
    assert rrc.shape == mix.shape == image.shape
