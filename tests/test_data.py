import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from tpt import data as dat


def small_spec(**kw):
    kw.setdefault("samples_per_class", 6)
    return dat.DatasetSpec(**kw)


def test_sigma_zero_fixed_contrast_gives_identical_images(monkeypatch):
    monkeypatch.setattr(dat.DatasetSpec, "noise_sigma", 0.0)
    monkeypatch.setattr(dat.DatasetSpec, "contrast", 0.3)
    monkeypatch.setattr(dat.DatasetSpec, "contrast_min", 0.3)
    ds = dat.generate(small_spec(), seed=0)
    first_class = ds.images[ds.labels == 0]
    for img in first_class[1:]:
        np.testing.assert_array_equal(img, first_class[0])


def test_contrast_jitter_varies_samples(monkeypatch):
    monkeypatch.setattr(dat.DatasetSpec, "noise_sigma", 0.0)
    ds = dat.generate(small_spec(), seed=0)
    first_class = ds.images[ds.labels == 0]
    spreads = [np.ptp(img) for img in first_class]
    assert max(spreads) > min(spreads) + 1e-6


def test_contrasts_are_the_drawn_prototype_contrasts(monkeypatch):
    monkeypatch.setattr(dat.DatasetSpec, "noise_sigma", 0.0)
    spec = small_spec()
    ds = dat.generate(spec, seed=0)
    assert ds.contrasts.dtype == np.float64 and ds.contrasts.shape == (len(ds),)
    assert np.all((spec.contrast_min <= ds.contrasts) & (ds.contrasts <= spec.contrast))
    for img, label, c in zip(ds.images, ds.labels, ds.contrasts):
        np.testing.assert_array_equal(
            img, np.clip(dat.class_prototype(ds.class_names[label], c), *dat.PIXEL_RANGE))
    np.testing.assert_array_equal(ds.subset([5, 0, 9]).contrasts, ds.contrasts[[5, 0, 9]])
    shifted = dat.apply_shift(ds, dat.ShiftSpec("noise", 0.3), seed=1)
    np.testing.assert_array_equal(shifted.contrasts, ds.contrasts)


def test_unknown_class_has_no_prototype():
    with pytest.raises(ValueError, match="no prototype for class 'triangles'"):
        dat.class_prototype("triangles", 0.3)


def test_same_seed_bit_identical():
    a = dat.generate(small_spec(), seed=3)
    b = dat.generate(small_spec(), seed=3)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_linear_probe_separates_classes():
    # independent oracle: least-squares probe on raw pixels
    ds = dat.generate(small_spec(samples_per_class=20), seed=1)
    x = ds.images.reshape(len(ds), -1)
    y = np.eye(len(ds.class_names))[ds.labels]
    w, *_ = np.linalg.lstsq(np.hstack([x, np.ones((len(ds), 1))]), y, rcond=None)
    pred = np.argmax(np.hstack([x, np.ones((len(ds), 1))]) @ w, axis=1)
    assert np.mean(pred == ds.labels) >= 0.99


class TestShifts:
    def test_none_is_identity(self):
        ds = dat.generate(small_spec(), seed=2)
        out = dat.apply_shift(ds, dat.ShiftSpec("none"), seed=0)
        np.testing.assert_array_equal(out.images, ds.images)

    def test_invert_twice_is_original(self):
        ds = dat.generate(small_spec(), seed=2)
        once = dat.apply_shift(ds, dat.ShiftSpec("invert"), seed=0)
        twice = dat.apply_shift(once, dat.ShiftSpec("invert"), seed=0)
        np.testing.assert_allclose(twice.images, ds.images, atol=1e-15)

    def test_labels_preserved_and_deterministic(self):
        ds = dat.generate(small_spec(), seed=2)
        for kind, param in (("noise", 0.3), ("channel_drop", 1), ("blur", 2),
                            ("style", 0)):
            a = dat.apply_shift(ds, dat.ShiftSpec(kind, param), seed=5)
            b = dat.apply_shift(ds, dat.ShiftSpec(kind, param), seed=5)
            np.testing.assert_array_equal(a.labels, ds.labels)
            np.testing.assert_array_equal(a.images, b.images)
            assert a.images.min() >= 0.0 and a.images.max() <= 1.0

    def test_noise_is_spatially_local(self):
        ds = dat.generate(small_spec(), seed=2)
        out = dat.apply_shift(ds, dat.ShiftSpec("noise", 0.3), seed=5)
        for before, after in zip(ds.images, out.images):
            changed = np.any(before != after, axis=0)
            # one rectangular region is corrupted, the rest untouched
            assert 0 < changed.sum() < changed.size
            ys, xs = np.nonzero(changed)
            block = changed[ys.min():ys.max() + 1, xs.min():xs.max() + 1]
            assert block.all()

    def test_parse(self):
        assert dat.ShiftSpec.parse("noise:0.3") == dat.ShiftSpec("noise", 0.3)
        assert dat.ShiftSpec.parse("invert") == dat.ShiftSpec("invert")
        with pytest.raises(ValueError):
            dat.ShiftSpec.parse("fog:1")

    @pytest.mark.parametrize("text,param", [("noise:", ""), ("noise:high", "high"),
                                            ("blur:1:2", "1:2"), ("noise: ", " ")])
    def test_parse_names_a_bad_parameter(self, text, param):
        with pytest.raises(ValueError, match=rf"^shift '{text}': parameter "
                                             rf"'{param}' is not a number$"):
            dat.ShiftSpec.parse(text)


class TestShiftParameters:
    """Each kind accepts only parameters apply_shift reads as given."""

    @staticmethod
    def check(kind, good, bad):
        for param in good:
            assert dat.ShiftSpec(kind, param).param == param
        for param in bad:
            with pytest.raises(ValueError, match=f"shift '{kind}' takes"):
                dat.ShiftSpec.parse(f"{kind}:{param}")

    def test_noise(self):
        self.check("noise", good=(0.0, 0.3, 2), bad=(-0.1, "nan", "inf"))

    def test_channel_drop(self):
        self.check("channel_drop", good=(0, 1, 2.0), bad=(1.5, -1, 3))

    def test_blur(self):
        self.check("blur", good=(0, 2, 3.0), bad=(-1, 1.7, "inf"))

    def test_none(self):
        self.check("none", good=(0,), bad=(1, -0.5))

    def test_invert(self):
        self.check("invert", good=(0,), bad=(5,))

    def test_style(self):
        self.check("style", good=(0,), bad=(2,))


class TestCaptions:
    def test_every_caption_names_its_class(self):
        ds = dat.generate(small_spec(), seed=4)
        pairs = dat.caption_pairs(ds)
        id_to_word = {v: k for k, v in dat.VOCAB.items()}
        for (_, ids), label in zip(pairs, ds.labels):
            assert id_to_word[ids[-1]] == ds.class_names[label]

    def test_pair_count_and_template_cycling(self):
        ds = dat.generate(small_spec(), seed=4)
        pairs = dat.caption_pairs(ds)
        assert len(pairs) == len(ds)
        heads = {tuple(ids[:-1]) for _, ids in pairs}
        assert len(heads) == len(dat.CAPTION_TEMPLATES)



# ---------------------------------------------------------------------------
# each dataset is built in the array returned: no step holds a second
# copy of the images.  256 images, so that the class patterns (8 images'
# worth) and one sample's noise stay small against the bound

SHIFTS = ("none", "noise:0", "noise:0.3", "invert", "channel_drop:0",
          "channel_drop:1", "channel_drop:2", "blur:0", "blur:2", "style")


def traced_peak(fn):
    """(fn(), the peak bytes traced while fn ran)"""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_peak_memory_is_its_images():
    ds, peak = traced_peak(lambda: dat.generate(small_spec(samples_per_class=32), seed=0))
    assert len(ds) == 256
    assert peak < 1.1 * ds.images.nbytes


@pytest.mark.parametrize("text", SHIFTS)
def test_apply_shift_peak_memory_is_its_images(text):
    ds = dat.generate(small_spec(samples_per_class=32), seed=0)
    out, peak = traced_peak(lambda: dat.apply_shift(ds, dat.ShiftSpec.parse(text), seed=1))
    assert peak < 1.1 * out.images.nbytes


# ---------------------------------------------------------------------------
# generate and apply_shift against the data path written out one sample
# at a time, with a new array for each step, as the reference they equal
# to the bit


def _ref_prototype(name, contrast):
    mask = dat._pattern_mask(name)
    color = np.array(dat._CLASS_COLORS[name]).reshape(3, 1, 1)
    full = mask[None, :, :] * color + (1.0 - mask[None, :, :]) * 0.1
    return 0.5 + contrast * (full - 0.5)


def _ref_generate(spec, seed):
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for k, name in enumerate(spec.class_names):
        for _ in range(spec.samples_per_class):
            c = rng.uniform(spec.contrast_min, spec.contrast)
            proto = _ref_prototype(name, c)
            img = proto + rng.normal(0.0, spec.noise_sigma, size=proto.shape)
            images.append(np.clip(img, *dat.PIXEL_RANGE))
            labels.append(k)
    return np.array(images), np.array(labels)


def _ref_apply_shift(imgs, shift, seed):
    lo, hi = dat.PIXEL_RANGE
    if shift.kind == "none":
        out = imgs.copy()
    elif shift.kind == "noise":
        rng = np.random.default_rng(seed)
        out = imgs.copy()
        _, c, h, w = imgs.shape
        for i in range(len(out)):
            bh = int(round(h * rng.uniform(0.5, 0.8)))
            bw = int(round(w * rng.uniform(0.5, 0.8)))
            y0 = rng.integers(0, h - bh + 1)
            x0 = rng.integers(0, w - bw + 1)
            out[i, :, y0:y0 + bh, x0:x0 + bw] += rng.normal(
                0.0, shift.param, size=(c, bh, bw))
    elif shift.kind == "invert":
        out = (lo + hi) - imgs
    elif shift.kind == "channel_drop":
        out = imgs.copy()
        out[:, int(shift.param)] = lo
    elif shift.kind == "blur":
        size = 2 * int(shift.param) + 1
        out = uniform_filter(imgs, size=(1, 1, size, size), mode="nearest")
    else:
        out = imgs[:, [2, 1, 0]] ** 1.5
    return np.clip(out, lo, hi)


def test_class_prototype_matches_reference():
    for name in dat.DatasetSpec.class_names:
        for contrast in (0.15, 0.2718, 0.35):
            np.testing.assert_array_equal(dat.class_prototype(name, contrast),
                                          _ref_prototype(name, contrast))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("per_class", [5, 64])
def test_generate_and_shifts_match_reference(seed, per_class):
    spec = small_spec(samples_per_class=per_class)
    ds = dat.generate(spec, seed)
    images, labels = _ref_generate(spec, seed)
    assert ds.images.dtype == images.dtype and ds.labels.dtype == labels.dtype
    np.testing.assert_array_equal(ds.images, images)
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_array_equal(ds.ids, np.arange(len(labels)))
    for text in SHIFTS:
        shift = dat.ShiftSpec.parse(text)
        out = dat.apply_shift(ds, shift, seed=seed + 1)
        np.testing.assert_array_equal(out.images, _ref_apply_shift(images, shift, seed + 1))
        np.testing.assert_array_equal(out.labels, labels)
        np.testing.assert_array_equal(out.ids, ds.ids)
