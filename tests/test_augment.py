import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

from tpt import data as dat
from tpt.augment import (RESAMPLE_BLOCK, AugmentPolicy, augmix_view, crop_resize,
                         generate_views, make_view, make_views, smooth, split_seed)

# policies that reach every branch of a random resized crop, each with
# the values it gives AugmentPolicy's smooth constants
RRC_POLICIES = (
    (AugmentPolicy(), {}),
    (AugmentPolicy(), {"smooth_prob": 1.0}),
    (AugmentPolicy(scale_range=(0.05, 1.0)),
     {"smooth_scale_range": (0.2, 1.0), "smooth_prob": 0.5}),
    (AugmentPolicy(noise_patch_prob=1.0), {}),
    (AugmentPolicy(scale_range=(0.05, 1.0), noise_patch_prob=0.5),
     {"smooth_scale_range": (0.2, 1.0), "smooth_prob": 0.5}),
)
AUGMIX = (AugmentPolicy(kind="augmix"), {})
# the policies an episode's views may take: those without noise patches
EPISODE_POLICIES = tuple(case for case in RRC_POLICIES + (AUGMIX,)
                         if not case[0].noise_patch_prob)


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
    prototype = 0.5 + 0.4 * dat.class_patterns(("checker",))[0]
    return np.clip(prototype + rng.normal(0, 0.05, (3, 32, 32)), 0.0, 1.0)


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


@pytest.mark.parametrize("policy", [case[0] for case in EPISODE_POLICIES])
def test_a_view_batch_is_one_array(image, policy):
    """generate_views returns one C-contiguous float64 (N, C, H, W) array,
    whose row 0 is a copy of the image."""
    for n in (1, 2 * RESAMPLE_BLOCK + 3, 64):
        views, index = generate_views(image, n, policy, seed=6)
        assert_one_view_array(views, index.max() + 1, image)
        np.testing.assert_array_equal(views[0], image)
        assert not np.shares_memory(views[0], image)


@pytest.mark.parametrize("policy", [case[0] for case in RRC_POLICIES + (AUGMIX,)])
def test_made_views_are_one_array(image, policy):
    """make_views returns one C-contiguous float64 (N, C, H, W) array."""
    views = make_views([image, image[:, ::-1], 1.0 - image], policy, np.random.default_rng(11))
    assert_one_view_array(views, 3, image)


def test_make_views_rejects_no_images(image):
    with pytest.raises(ValueError, match="no images"):
        make_views([], AugmentPolicy(), np.random.default_rng(0))


@pytest.mark.parametrize("policy", [AugmentPolicy(), AUGMIX[0]])
def test_generate_views_rejects_no_views(image, policy):
    with pytest.raises(ValueError, match="need at least one view"):
        generate_views(image, 0, policy, seed=0)


@pytest.mark.parametrize("kind", ["rrc", "augmix"])
def test_generate_views_rejects_noise_patches(image, kind):
    """Only pretraining's make_views draws noise patches; an episode's
    policy that would is refused, of either kind."""
    with pytest.raises(ValueError, match="no noise patches"):
        generate_views(image, 8, AugmentPolicy(kind=kind, noise_patch_prob=0.5), seed=0)


@pytest.mark.parametrize("policy", [AugmentPolicy(noise_patch_prob=0.5), AUGMIX[0]])
def test_make_views_advances_its_generator(image, policy):
    """Successive batches from one generator, as pretraining draws them,
    are different views; a fresh generator of the same seed repeats them."""
    images = [image, 1.0 - image]
    rng = np.random.default_rng(8)
    first, second = make_views(images, policy, rng), make_views(images, policy, rng)
    assert not np.array_equal(first, second)
    again = np.random.default_rng(8)
    np.testing.assert_array_equal(make_views(images, policy, again), first)
    np.testing.assert_array_equal(make_views(images, policy, again), second)


class ConstantTable:
    """A generator stand-in whose draw table holds one value u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def test_crop_offsets_span_the_image_and_stay_inside():
    """A table value u puts a crop of `side` pixels at floor(u * (h - side
    + 1)): u = 0 crops the top left corner and the largest u below 1 the
    bottom right one, never past the edge."""
    image = np.zeros((3, 32, 32))
    image[:, :16, :16] = 1.0  # only the top left quadrant is lit
    policy = AugmentPolicy(scale_range=(0.25, 0.25))  # 16 x 16 crops
    with smooth_constants({"smooth_prob": 0.0}):
        for u, want in ((0.0, 1.0), (np.nextafter(1.0, 0.0), 0.0)):
            view = make_views([image], policy, ConstantTable(u))[0]
            np.testing.assert_array_equal(view, np.full_like(image, want))
        # u = 1/2 crops rows and columns 8 .. 23: a quarter of it is lit
        view = make_views([image], policy, ConstantTable(0.5))[0]
        assert view[:, :15, :15].min() == 1.0 and view[:, 17:, 17:].max() == 0.0


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


def test_the_first_views_of_a_seed_do_not_depend_on_n(image):
    """Row i of the draw table depends only on i, so the views of a batch
    of n are the first n of a batch of m > n.  An AugMix view draws in
    turn."""
    for policy, constants in EPISODE_POLICIES:
        with smooth_constants(constants):
            longest = expanded_views(image, 3 * RESAMPLE_BLOCK, policy, 42)
            # one view, then views that end in a part-filled resample block
            for n in (2, RESAMPLE_BLOCK + 2, 2 * RESAMPLE_BLOCK + 3):
                for view, want in zip(expanded_views(image, n, policy, 42), longest):
                    np.testing.assert_array_equal(view, want)


def reference_crop(row, policy, h, w):
    """(smoothed, side, y0, x0) of a view from its row of the draw table."""
    smoothed = row[0] < policy.smooth_prob
    lo, hi = policy.smooth_scale_range if smoothed else policy.scale_range
    side = max(1, int(round(np.sqrt(lo + (hi - lo) * row[1]) * h)))
    return smoothed, side, int(row[2] * (h - side + 1)), int(row[3] * (w - side + 1))


def reference_key(policy, row, shape):
    """(smoothed, side, y0, x0, flip) of a view."""
    return (*reference_crop(row, policy, *shape[1:]), row[4] < 0.5)


def reference_rrc_view(image, policy, row, rng):
    """A random resized crop made one view at a time, written out: its
    draws from its row of the table, a noise patch from rng, then crop,
    bilinear resize of rows and then columns, box blur, noise patch, flip
    and clip."""
    c, h, w = image.shape
    smoothed, side, y0, x0 = reference_crop(row, policy, h, w)
    out = image[:, y0:y0 + side, x0:x0 + side]
    for axis, n in ((1, h), (2, w)):
        src = np.clip((np.arange(n) + 0.5) * side / n - 0.5, 0.0, side - 1)
        lo = np.floor(src).astype(int)
        frac = (src - lo).reshape([n if a == axis else 1 for a in range(3)])
        out = (np.take(out, lo, axis=axis) * (1.0 - frac)
               + np.take(out, np.minimum(lo + 1, side - 1), axis=axis) * frac)
    if smoothed:
        out = uniform_filter(out, size=(1, 3, 3), mode="nearest")
    if row[5] < policy.noise_patch_prob:
        bh = int(round(h * rng.uniform(0.3, 0.7)))
        bw = int(round(w * rng.uniform(0.3, 0.7)))
        py = rng.integers(0, h - bh + 1)
        px = rng.integers(0, w - bw + 1)
        sigma = rng.uniform(0.1, 0.3)
        out[:, py:py + bh, px:px + bw] += rng.normal(0.0, sigma, size=(c, bh, bw))
    if row[4] < 0.5:
        out = out[:, :, ::-1]
    return np.clip(out, *dat.PIXEL_RANGE)


def reference_views(images, policy, seed):
    """The views of images drawn from default_rng(seed): a random resized
    crop reads its row of one (N, 6) table, then each view with a patch
    draws it, in view order; an AugMix view draws in turn."""
    rng = np.random.default_rng(seed)
    if policy.kind == "augmix":
        return [augmix_view(img, rng) for img in images]
    table = rng.random((len(images), 6))
    return [reference_rrc_view(img, policy, row, rng) for img, row in zip(images, table)]


def test_rrc_views_equal_the_per_view_reference(image):
    """The blocked resample computes every pixel as the one-view code
    does, in an episode and in a batch of different images; AugMix views
    draw from the one generator in view order."""
    n = 3 * RESAMPLE_BLOCK + 2
    images = [image, image[:, ::-1], 1.0 - image] * 3
    for policy, constants in RRC_POLICIES + (AUGMIX,):
        with smooth_constants(constants):
            for seed in range(3):
                if (policy, constants) in EPISODE_POLICIES:
                    views = expanded_views(image, n, policy, seed)
                    for got, want in zip(views[1:],
                                         reference_views([image] * (n - 1), policy, seed),
                                         strict=True):
                        np.testing.assert_array_equal(got, want)
                views = make_views(images, policy, np.random.default_rng(seed))
                for got, want in zip(views, reference_views(images, policy, seed), strict=True):
                    np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(EPISODE_POLICIES),
       n=st.integers(1, 70), seed=st.integers(0, 2 ** 64 - 1))
def test_each_distinct_view_is_made_once(image, case, n, seed):
    """The index expands the distinct views into the N views the one-view
    reference makes, and a random resized crop is made once per draw
    key; an AugMix view is its own."""
    policy, constants = case
    with smooth_constants(constants):
        views, index = generate_views(image, n, policy, seed)
        want = [image] + reference_views([image] * (n - 1), policy, seed)
        assert len(index) == n
        for i, view in zip(index, want, strict=True):
            np.testing.assert_array_equal(views[i], view)
        if policy.kind == "augmix":
            assert len(views) == n
        else:
            table = np.random.default_rng(seed).random((n - 1, 6))
            keys = [reference_key(policy, row, image.shape) for row in table]
            assert len(views) - 1 == len(set(keys))


def test_split_seed_is_a_distinct_int_per_index():
    seeds = [split_seed(42, i) for i in range(8)]
    assert len(set(seeds)) == 8 and all(0 <= s < 2 ** 64 for s in seeds)


def test_views_construct_one_generator(image, monkeypatch):
    """An episode's views, of either kind, draw from the one
    default_rng(seed) that generate_views builds."""
    made = []
    for name in ("default_rng", "PCG64"):
        def counted(*args, name=name, make=getattr(np.random, name)):
            made.append(name)
            return make(*args)
        monkeypatch.setattr(np.random, name, counted)
    for policy in (AugmentPolicy(), AUGMIX[0]):
        made.clear()
        generate_views(image, 64, policy, seed=3)
        assert made == ["default_rng"]


class TestAugmix:
    def test_pixel_range_fuzz(self, image):
        for seed in range(1000):
            out = augmix_view(image, np.random.default_rng(seed))
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
    for policy in (AugmentPolicy(), AugmentPolicy(noise_patch_prob=1.0), AUGMIX[0]):
        np.testing.assert_array_equal(make_view(image, policy, 3),
                                      reference_views([image], policy, 3)[0])
