"""Stochastic view generation: random resized crops and a simplified AugMix.

All randomness flows through per-view seeds derived with a splittable
integer hash of (episode seed, view index), so view generation is
order-independent and bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .data import PIXEL_RANGE

_NOISE_PATCH_SIGMA = (0.1, 0.3)  # noise std range inside the block
_AUGMIX_DEPTH = (1, 3)  # chain depth range
_AUGMIX_WIDTH = 3  # chains mixed per view
_AUGMIX_ALPHA = 1.0  # Dirichlet / Beta concentration


@dataclass(frozen=True)
class AugmentPolicy:
    kind: str = "rrc"  # rrc | augmix
    scale_range: tuple = (0.9, 1.0)  # crop area fraction
    smooth_prob: float = 0.2  # fraction of denoising (box-blurred) views
    smooth_scale_range: tuple = (0.9, 1.0)  # crop range used for smooth views
    noise_patch_prob: float = 0.0  # random-erasing-style noise block

    def __post_init__(self):
        if self.kind not in ("rrc", "augmix"):
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        for rng in (self.scale_range, self.smooth_scale_range):
            lo, hi = rng
            if not (0.0 < lo <= hi <= 1.0):
                raise ValueError("scale range must be within (0, 1]")
        if not 0.0 <= self.smooth_prob <= 1.0:
            raise ValueError("smooth_prob must be within [0, 1]")
        if not 0.0 <= self.noise_patch_prob <= 1.0:
            raise ValueError("noise_patch_prob must be within [0, 1]")


def split_seed(seed, index):
    """Splittable hash of (seed, index): one splitmix64 round."""
    z = (int(seed) * 0x9E3779B97F4A7C15 + int(index) + 0x632BE59BD9B4E019) % (1 << 64)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return z ^ (z >> 31)


def _bilinear_axis(image, axis, src):
    lo = np.floor(src).astype(int)
    hi = np.minimum(lo + 1, image.shape[axis] - 1)
    frac = src - lo
    shape = [1, 1, 1]
    shape[axis] = len(src)
    frac = frac.reshape(shape)
    return (np.take(image, lo, axis=axis) * (1.0 - frac)
            + np.take(image, hi, axis=axis) * frac)


def crop_resize(image, rng, scale_range):
    """Square crop of a random area fraction, bilinear resize back.

    Bilinear (not nearest) matters: upsampled pixels average neighboring
    input pixels, so crops of a noisy image keep the pattern but carry
    less pixel noise, which is what makes augmented views informative."""
    _, h, w = image.shape
    scale = rng.uniform(*scale_range)
    side = max(1, int(round(np.sqrt(scale) * h)))
    y0 = rng.integers(0, h - side + 1)
    x0 = rng.integers(0, w - side + 1)
    crop = image[:, y0:y0 + side, x0:x0 + side]
    ys = np.clip((np.arange(h) + 0.5) * side / h - 0.5, 0.0, side - 1)
    xs = np.clip((np.arange(w) + 0.5) * side / w - 0.5, 0.0, side - 1)
    return _bilinear_axis(_bilinear_axis(crop, 1, ys), 2, xs)


def hflip(image):
    return image[:, :, ::-1].copy()


def smooth(image, radius=1):
    """Box blur over spatial dims. Averaging a (2r+1)^2 neighborhood
    attenuates per-pixel noise far more than the low-frequency class
    patterns, so smoothed views of a corrupted image are the most
    reliable (and most confident) members of a view batch."""
    size = 2 * radius + 1
    return uniform_filter(image, size=(1, size, size), mode="nearest")


def brightness(image, rng, limit=0.3):
    return image + rng.uniform(-limit, limit)


def contrast(image, rng, lo=0.7, hi=1.3):
    f = rng.uniform(lo, hi)
    mean = image.mean()
    return (image - mean) * f + mean


def translate(image, rng, max_px=4):
    dy = int(rng.integers(-max_px, max_px + 1))
    dx = int(rng.integers(-max_px, max_px + 1))
    out = np.zeros_like(image)
    _, h, w = image.shape
    ys, yd = (dy, 0) if dy >= 0 else (0, -dy)
    xs, xd = (dx, 0) if dx >= 0 else (0, -dx)
    out[:, ys:h - yd, xs:w - xd] = image[:, yd:h - ys, xd:w - xs]
    return out


_AUGMIX_PRIMITIVES = (
    lambda img, rng: crop_resize(img, rng, (0.5, 1.0)),
    lambda img, rng: hflip(img),
    brightness,
    contrast,
    translate,
)


def noise_patch(image, rng):
    """Additive Gaussian noise inside one random block (random-erasing
    style): trains tolerance to spatially local corruption."""
    out = image.copy()
    _, h, w = image.shape
    bh = int(round(h * rng.uniform(0.3, 0.7)))
    bw = int(round(w * rng.uniform(0.3, 0.7)))
    y0 = rng.integers(0, h - bh + 1)
    x0 = rng.integers(0, w - bw + 1)
    sigma = rng.uniform(*_NOISE_PATCH_SIGMA)
    out[:, y0:y0 + bh, x0:x0 + bw] += rng.normal(0.0, sigma, size=(image.shape[0], bh, bw))
    return out


def rrc_view(image, policy, seed):
    rng = np.random.default_rng(seed)
    if rng.random() < policy.smooth_prob:
        out = smooth(crop_resize(image, rng, policy.smooth_scale_range))
    else:
        out = crop_resize(image, rng, policy.scale_range)
    if rng.random() < policy.noise_patch_prob:
        out = noise_patch(out, rng)
    if rng.random() < 0.5:
        out = hflip(out)
    return np.clip(out, *PIXEL_RANGE)


def augmix_view(image, policy, seed, blend_override=None):
    """Dirichlet-weighted mix of short augmentation chains, Beta-blended
    with the original image."""
    if policy.kind != "augmix":
        raise ValueError("policy kind must be 'augmix'")
    rng = np.random.default_rng(seed)
    chain_weights = rng.dirichlet(np.full(_AUGMIX_WIDTH, _AUGMIX_ALPHA))
    mixed = np.zeros_like(image)
    for wgt in chain_weights:
        out = image
        depth = rng.integers(_AUGMIX_DEPTH[0], _AUGMIX_DEPTH[1] + 1)
        for _ in range(depth):
            op = _AUGMIX_PRIMITIVES[rng.integers(len(_AUGMIX_PRIMITIVES))]
            out = op(out, rng)
        mixed += wgt * out
    blend = rng.beta(_AUGMIX_ALPHA, _AUGMIX_ALPHA)
    if blend_override is not None:
        blend = blend_override
    return np.clip(blend * image + (1.0 - blend) * mixed, *PIXEL_RANGE)


def make_view(image, policy, seed):
    if policy.kind == "rrc":
        return rrc_view(image, policy, seed)
    return augmix_view(image, policy, seed)


def generate_views(image, n, policy, seed):
    """N views of one image: view 0 is the untouched original, view i
    is make_view with seed split_seed(seed, i)."""
    if n < 1:
        raise ValueError("need at least one view")
    image = np.asarray(image, dtype=np.float64)
    return [image.copy()] + [make_view(image, policy, split_seed(seed, i))
                             for i in range(1, n)]
