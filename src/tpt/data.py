"""Synthetic labeled images with controllable distribution shifts.

Eight procedural pattern classes at 3x32x32 in [0, 1], a tiny fixed
vocabulary for captions, caption pairing for contrastive pretraining,
and a binary image/manifest format for round-tripping datasets.
"""

import json
import os
import struct
from dataclasses import dataclass, field

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

DEFAULT_TEMPLATE = ("a", "photo", "of", "a")
CAPTION_TEMPLATES = (
    ("a", "photo", "of", "a"),
    ("an", "image", "of", "a"),
    ("a", "picture", "of", "the"),
)

DEFAULT_CLASS_NAMES = ("stripes", "checker", "rings", "bars",
                       "diagonal", "dots", "cross", "waves")

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


def template_ids(template=DEFAULT_TEMPLATE):
    return tokenize(template)


@dataclass(frozen=True)
class DatasetSpec:
    class_names: tuple = DEFAULT_CLASS_NAMES
    samples_per_class: int = 64
    noise_sigma: float = 0.05
    contrast: float = 0.35  # max prototype amplitude around mid-gray
    contrast_min: float = 0.15  # per-sample contrast ~ U(contrast_min, contrast)

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise ValueError("need at least 2 classes")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if not (0.0 < self.contrast_min <= self.contrast):
            raise ValueError("need 0 < contrast_min <= contrast")


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
                raise ValueError(f"--shift {text!r}: parameter {param!r} "
                                 "is not a number") from None
            return cls(kind, value)
        return cls(text)


@dataclass
class Dataset:
    images: np.ndarray  # (n, C, H, W)
    labels: np.ndarray  # (n,)
    class_names: tuple
    class_token_ids: list  # per class, token id list for the class name
    ids: np.ndarray = field(default=None)  # stable per-sample identity

    def __post_init__(self):
        if self.ids is None:
            self.ids = np.arange(len(self.labels))

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx], self.class_names,
                       self.class_token_ids, self.ids[idx])


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


def class_prototype(name, contrast=0.4):
    """Noise-free (3, IMAGE_SIZE, IMAGE_SIZE) prototype image for a class.

    Full-contrast pattern lerped toward mid-gray so the class signal
    amplitude is tunable against additive pixel noise."""
    mask = _pattern_mask(name)
    color = np.array(_CLASS_COLORS[name]).reshape(3, 1, 1)
    background = 0.1
    full = mask[None, :, :] * color + (1.0 - mask[None, :, :]) * background
    return 0.5 + contrast * (full - 0.5)


def generate(spec, seed=0):
    """Labeled dataset: per-class prototype plus Gaussian pixel noise.

    Each sample draws its own contrast from U(contrast_min, contrast), so
    the difficulty spectrum runs from comfortable to genuinely borderline."""
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for k, name in enumerate(spec.class_names):
        for _ in range(spec.samples_per_class):
            c = rng.uniform(spec.contrast_min, spec.contrast)
            proto = class_prototype(name, c)
            img = proto + rng.normal(0.0, spec.noise_sigma, size=proto.shape)
            images.append(np.clip(img, *PIXEL_RANGE))
            labels.append(k)
    token_ids = [tokenize((n,)) for n in spec.class_names]
    return Dataset(np.array(images), np.array(labels), tuple(spec.class_names),
                   token_ids)


def apply_shift(dataset, shift, seed=0):
    """Label-preserving pixel transform; deterministic under seed."""
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
        out = imgs[:, [2, 1, 0]] ** 1.5
    out = np.clip(out, lo, hi)
    return Dataset(out, dataset.labels.copy(), dataset.class_names,
                   dataset.class_token_ids, dataset.ids.copy())


def caption_pairs(dataset):
    """(image, caption token ids) pairs, cycling 3 template variants."""
    pairs = []
    for i in range(len(dataset)):
        template = CAPTION_TEMPLATES[i % len(CAPTION_TEMPLATES)]
        ids = tokenize(template) + dataset.class_token_ids[dataset.labels[i]]
        pairs.append((dataset.images[i], ids))
    return pairs


# ---------------------------------------------------------------------------
# persistence: image files are magic "TPTIMG1", u32 C,H,W, raw float64 LE;
# the manifest is JSON-lines, one record per image.

_IMG_MAGIC = b"TPTIMG1"


def save_image(image, path):
    image = np.asarray(image, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(_IMG_MAGIC)
        f.write(struct.pack("<III", *image.shape))
        f.write(image.astype("<f8").tobytes())


def read_exact(f, n, what):
    """n bytes from the open file f; a short read is an error that names
    the file and `what` was being read."""
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"{f.name}: file truncated in {what}")
    return buf


def load_image(path):
    """Read an image file; errors name the file and the field."""
    with open(path, "rb") as f:
        if f.read(len(_IMG_MAGIC)) != _IMG_MAGIC:
            raise ValueError(f"{path}: bad magic, not an image file")
        c, h, w = struct.unpack("<III", read_exact(f, 12, "the shape"))
        data = np.frombuffer(read_exact(f, 8 * c * h * w, "the pixels"), dtype="<f8")
        return data.reshape(c, h, w).copy()


def save_dataset(dataset, out_dir, split="test"):
    """Write every image plus a JSON-lines manifest; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest_path, "w") as mf:
        header = {
            "class_names": list(dataset.class_names),
            "class_token_ids": dataset.class_token_ids,
        }
        mf.write(json.dumps(header) + "\n")
        for i in range(len(dataset)):
            rel = f"img_{int(dataset.ids[i]):05d}.tptimg"
            save_image(dataset.images[i], os.path.join(out_dir, rel))
            mf.write(json.dumps({"path": rel, "id": int(dataset.ids[i]),
                                 "class_id": int(dataset.labels[i]),
                                 "split": split}) + "\n")
    return manifest_path


def load_dataset(out_dir):
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest_path) as mf:
        header = json.loads(mf.readline())
        records = [json.loads(line) for line in mf if line.strip()]
    images = np.array([load_image(os.path.join(out_dir, r["path"])) for r in records])
    labels = np.array([r["class_id"] for r in records])
    return Dataset(images, labels, tuple(header["class_names"]),
                   header["class_token_ids"], np.array([r["id"] for r in records]))
