import numpy as np
import pytest

from tpt import data as dat


def small_spec(**kw):
    kw.setdefault("samples_per_class", 6)
    return dat.DatasetSpec(**kw)


def test_sigma_zero_fixed_contrast_gives_identical_images():
    spec = small_spec(noise_sigma=0.0, contrast=0.3, contrast_min=0.3)
    ds = dat.generate(spec, seed=0)
    first_class = ds.images[ds.labels == 0]
    for img in first_class[1:]:
        np.testing.assert_array_equal(img, first_class[0])


def test_contrast_jitter_varies_samples():
    ds = dat.generate(small_spec(noise_sigma=0.0), seed=0)
    first_class = ds.images[ds.labels == 0]
    spreads = [np.ptp(img) for img in first_class]
    assert max(spreads) > min(spreads) + 1e-6


def test_contrast_bounds_validated():
    with pytest.raises(ValueError):
        dat.DatasetSpec(contrast=0.2, contrast_min=0.3)
    with pytest.raises(ValueError):
        dat.DatasetSpec(contrast_min=0.0)


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


def test_spec_validation():
    with pytest.raises(ValueError):
        dat.DatasetSpec(class_names=("solo",))
    with pytest.raises(ValueError):
        dat.DatasetSpec(noise_sigma=-0.1)


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
        with pytest.raises(ValueError, match=rf"^--shift '{text}': parameter "
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


class TestPersistence:
    def test_image_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((3, 32, 32))
        path = tmp_path / "x.tptimg"
        dat.save_image(img, path)
        np.testing.assert_array_equal(dat.load_image(path), img)

    def test_truncated_image_names_file_and_field(self, tmp_path):
        path = tmp_path / "x.tptimg"
        dat.save_image(np.random.default_rng(1).random((3, 2, 2)), path)
        blob = path.read_bytes()
        cut_path = tmp_path / "cut.tptimg"
        for cut in range(len(blob)):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=r"cut\.tptimg: (bad magic|file "
                                                 r"truncated in the (shape|pixels))"):
                dat.load_image(cut_path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tptimg"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            dat.load_image(path)

    def test_dataset_roundtrip(self, tmp_path):
        full = dat.generate(small_spec(samples_per_class=3), seed=6)
        for name, ds in (("full", full), ("subset", full.subset([1, 4, 7]))):
            dat.save_dataset(ds, tmp_path / name)
            back = dat.load_dataset(tmp_path / name)
            np.testing.assert_array_equal(back.images, ds.images)
            np.testing.assert_array_equal(back.labels, ds.labels)
            np.testing.assert_array_equal(back.ids, ds.ids)
            assert back.class_names == ds.class_names
