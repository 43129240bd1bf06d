"""Synthetic labeled images with controllable distribution shifts.

Eight procedural pattern classes at 3x32x32 in [0, 1], a tiny fixed
vocabulary for captions and caption pairing for contrastive pretraining.
No dataset is stored: each is regenerated from its seed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

IMAGE_SIZE = 32
PIXEL_RANGE = (0.0, 1.0)

# fixed vocabulary: template words in the low ids, class words from 16
VOCAB = {
    "a": 0, "photo": 1, "of": 2, "an": 3, "image": 4, "picture": 5,
    "the": 6, "drawing": 7,
    "stripes": 16, "checker": 17, "rings": 18, "bars": 19,
    "diagonal": 20, "dots": 21, "cross": 22, "waves": 23,
}

CAPTION_TEMPLATES = (  # the first is the default prompt template
    ("a", "photo", "of", "a"),
    ("an", "image", "of", "a"),
    ("a", "picture", "of", "the"),
)

# colors are shared between class pairs on purpose: the pattern, not the
# palette, has to carry the class signal, so pixel shifts actually hurt
_CLASS_COLORS = {
    "stripes": (0.85, 0.25, 0.25),
    "checker": (0.85, 0.25, 0.25),
    "rings": (0.25, 0.85, 0.25),
    "bars": (0.25, 0.85, 0.25),
    "diagonal": (0.25, 0.25, 0.85),
    "dots": (0.25, 0.25, 0.85),
    "cross": (0.80, 0.80, 0.25),
    "waves": (0.80, 0.80, 0.25),
}


def tokenize(words):
    return [VOCAB[w] for w in words]


def template_ids():
    return tokenize(CAPTION_TEMPLATES[0])


@dataclass(frozen=True)
class DatasetSpec:
    """Images per class of a generated dataset.  The image recipe (the
    classes, pixel noise and per-sample contrast range) is the same for
    every dataset and Bongard task, so it is class constants."""

    class_names = ("stripes", "checker", "rings", "bars",
                   "diagonal", "dots", "cross", "waves")
    noise_sigma = 0.05
    contrast = 0.35  # max prototype amplitude around mid-gray
    contrast_min = 0.15  # per-sample contrast ~ U(contrast_min, contrast)
    samples_per_class: int = 64


@dataclass(frozen=True)
class ShiftSpec:
    kind: str = "none"  # none | noise | invert | channel_drop | blur | style
    param: float = 0.0

    # kind -> (test of the parameter, what the kind takes)
    _PARAMS = {
        "none": (lambda p: p == 0, "no parameter"),
        "noise": (lambda p: 0 <= p < np.inf, "a finite noise std of 0 or more"),
        "invert": (lambda p: p == 0, "no parameter"),
        "channel_drop": (lambda p: p in (0, 1, 2), "a channel index 0, 1 or 2"),
        "blur": (lambda p: p >= 0 and float(p).is_integer(),
                 "a blur radius that is an integer of 0 or more"),
        "style": (lambda p: p == 0, "no parameter"),
    }

    def __post_init__(self):
        if self.kind not in self._PARAMS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        valid, takes = self._PARAMS[self.kind]
        if not valid(self.param):
            raise ValueError(f"shift {self.kind!r} takes {takes}, got {self.param!r}")

    @classmethod
    def parse(cls, text):
        """Parse 'kind' or 'kind:param', e.g. 'noise:0.3'."""
        if ":" in text:
            kind, param = text.split(":", 1)
            try:
                value = float(param)
            except ValueError:
                raise ValueError(f"shift {text!r}: parameter {param!r} "
                                 "is not a number") from None
            return cls(kind, value)
        return cls(text)


@dataclass
class Dataset:
    images: np.ndarray  # (n, C, H, W)
    labels: np.ndarray  # (n,)
    contrasts: np.ndarray  # (n,) float64, each sample's drawn prototype contrast
    class_names: tuple
    class_token_ids: list  # per class, token id list for the class name
    ids: np.ndarray  # (n,) stable per-sample identity

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx], self.contrasts[idx],
                       self.class_names, self.class_token_ids, self.ids[idx])


def _pattern_mask(name):
    size = IMAGE_SIZE
    y, x = np.mgrid[0:size, 0:size]
    c = (size - 1) / 2.0
    if name == "stripes":
        return ((y // 4) % 2).astype(float)
    if name == "checker":
        return (((x // 8) + (y // 8)) % 2).astype(float)
    if name == "rings":
        r = np.sqrt((x - c) ** 2 + (y - c) ** 2)
        return ((r.astype(int) // 4) % 2).astype(float)
    if name == "bars":
        return ((x // 4) % 2).astype(float)
    if name == "diagonal":
        return (((x + y) // 4) % 2).astype(float)
    if name == "dots":
        return (((y % 8) < 4) & ((x % 8) < 4)).astype(float)
    if name == "cross":
        band = size // 4
        lo, hi = c - band / 2, c + band / 2
        return (((y >= lo) & (y <= hi)) | ((x >= lo) & (x <= hi))).astype(float)
    if name == "waves":
        w = 0.5 + 0.5 * np.sin(2 * np.pi * x / 8.0 + 2.0 * np.sin(2 * np.pi * y / 16.0))
        return (w > 0.5).astype(float)
    raise ValueError(f"no prototype for class {name!r}")


def class_patterns(names):
    """(len(names), 3, IMAGE_SIZE, IMAGE_SIZE) full-contrast class patterns
    less mid-gray: each class color on its mask, the background elsewhere.
    A class's prototype at contrast c is 0.5 + c * its pattern."""
    patterns = np.empty((len(names), 3, IMAGE_SIZE, IMAGE_SIZE))
    for pattern, name in zip(patterns, names):
        mask = _pattern_mask(name)[None, :, :]
        color = np.array(_CLASS_COLORS[name]).reshape(3, 1, 1)
        background = 0.1
        np.subtract(mask * color + (1.0 - mask) * background, 0.5, out=pattern)
    return patterns


def generate(spec, seed):
    """Labeled dataset: per-class prototype plus Gaussian pixel noise.

    Each sample draws its own contrast from U(contrast_min, contrast), so
    the difficulty spectrum runs from comfortable to genuinely borderline;
    the draw is kept in `contrasts`.  Samples are built in the array
    returned, and each class pattern is made once."""
    rng = np.random.default_rng(seed)
    n = spec.samples_per_class
    patterns = class_patterns(spec.class_names)
    images = np.empty((len(patterns) * n, 3, IMAGE_SIZE, IMAGE_SIZE))
    contrasts = np.empty(len(images))
    for i, img in enumerate(images):
        contrasts[i] = rng.uniform(spec.contrast_min, spec.contrast)
        np.multiply(contrasts[i], patterns[i // n], out=img)
        img += 0.5
        img += rng.normal(0.0, spec.noise_sigma, size=img.shape)
    np.clip(images, *PIXEL_RANGE, out=images)
    token_ids = [tokenize((name,)) for name in spec.class_names]
    return Dataset(images, np.repeat(np.arange(len(patterns)), n), contrasts,
                   tuple(spec.class_names), token_ids, np.arange(len(images)))


def apply_shift(dataset, shift, seed):
    """Label-preserving pixel transform; deterministic under seed.  Makes
    one new image array and clips it in place."""
    lo, hi = PIXEL_RANGE
    imgs = dataset.images
    if shift.kind == "none":
        out = imgs.copy()
    elif shift.kind == "noise":
        # Additive Gaussian noise of std `param` inside one random
        # rectangular region per image.  Real-world corruptions are
        # spatially structured, not per-pixel iid: a localized patch of
        # noise leaves clean evidence elsewhere in the frame, which is
        # what makes augmented views informative about the true class.
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
    else:  # style: a fixed channel remap, R/B swapped under a mild gamma curve
        out = imgs[:, [2, 1, 0]]
        out **= 1.5
    np.clip(out, lo, hi, out=out)
    return Dataset(out, dataset.labels.copy(), dataset.contrasts.copy(),
                   dataset.class_names, dataset.class_token_ids, dataset.ids.copy())


def caption_pairs(dataset):
    """(image, caption token ids) pairs, cycling 3 template variants."""
    pairs = []
    for i in range(len(dataset)):
        template = CAPTION_TEMPLATES[i % len(CAPTION_TEMPLATES)]
        ids = tokenize(template) + dataset.class_token_ids[dataset.labels[i]]
        pairs.append((dataset.images[i], ids))
    return pairs
