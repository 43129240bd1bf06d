"""Stochastic view generation: random resized crops and a simplified AugMix.

All randomness flows through per-view seeds derived with a splittable
integer hash of (episode seed, view index), so view generation is
order-independent and bit-reproducible.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .data import PIXEL_RANGE

_NOISE_PATCH_SIGMA = (0.1, 0.3)  # noise std range inside the block
_AUGMIX_DEPTH = (1, 3)  # chain depth range
_AUGMIX_WIDTH = 3  # chains mixed per view
_AUGMIX_ALPHA = 1.0  # Dirichlet / Beta concentration

# Random resized crops resampled at once.  A block's temporaries, (B, C,
# H, W) float64 arrays of 96 KB at B = 4 and 3 x 32 x 32 images, stay
# under the 128 KB at which glibc's malloc turns to a fresh mmap when its
# heap cannot serve a request; 5 or 8 views per block ran no faster.
RESAMPLE_BLOCK = 4


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


@functools.lru_cache(maxsize=None)
def _resize_table(n):
    """(lo, hi, frac), each (n, n): row side - 1 resizes a crop of `side`
    pixels to n bilinearly, output pixel j being crop pixel lo[j] times
    (1 - frac[j]) plus crop pixel hi[j] times frac[j]."""
    side = np.arange(1, n + 1)[:, None]
    src = np.clip((np.arange(n) + 0.5) * side / n - 0.5, 0.0, side - 1)
    lo = np.floor(src).astype(int)
    return lo, np.minimum(lo + 1, side - 1), src - lo


def _draw_crop(rng, scale_range, h, w):
    """(side, y0, x0) of a square crop of a random area fraction."""
    scale = rng.uniform(*scale_range)
    side = max(1, int(round(np.sqrt(scale) * h)))
    y0 = rng.integers(0, h - side + 1)
    x0 = rng.integers(0, w - side + 1)
    return side, y0, x0


def _line_tables(side, offset, planes, n):
    """Gather tables for one axis of N square crops: crop i is lines
    offset[i] .. offset[i] + side[i] - 1 of the line-table planes
    planes[i], resized back to n lines.  Returns the (N, C, n) line
    indices lo and hi and the (N, 1, n, 1) blend weights frac."""
    lo, hi, frac = (t[side - 1][:, None, :] for t in _resize_table(n))
    start = planes * n + offset[:, None, None]
    return start + lo, start + hi, frac[..., None]


def _blend(lines, lo, hi, frac):
    """lines[lo] * (1 - frac) + lines[hi] * frac, computed in place on
    the gathered lines."""
    out = np.take(lines, lo, axis=0)
    out *= 1.0 - frac
    upper = np.take(lines, hi, axis=0)
    upper *= frac
    out += upper
    return out


def _resize(images, rows, cols):
    """Square crops of a (B, C, H, W) stack, resized back to H x W
    bilinearly: rows, then columns, each one gather of whole pixel lines
    along the leading axis of a line table and one blend.  rows and cols
    are the crops' _line_tables.  Returns a (B, C, H, W) view of a
    (B, C, W, H) array."""
    h, w = images.shape[-2:]
    out = _blend(images.reshape(-1, w), *rows)
    out = _blend(np.ascontiguousarray(out.transpose(0, 1, 3, 2)).reshape(-1, h), *cols)
    return out.transpose(0, 1, 3, 2)


def crop_resize(image, rng, scale_range):
    """Square crop of a random area fraction, bilinear resize back.

    Bilinear (not nearest) matters: upsampled pixels average neighboring
    input pixels, so crops of a noisy image keep the pattern but carry
    less pixel noise, which is what makes augmented views informative."""
    c, h, w = image.shape
    side, y0, x0 = (np.array([v]) for v in _draw_crop(rng, scale_range, h, w))
    planes = np.arange(c)[:, None]
    out = _resize(image[None], _line_tables(side, y0, planes, h),
                  _line_tables(side, x0, planes, w))
    return np.ascontiguousarray(out[0])


def hflip(image):
    return image[:, :, ::-1].copy()


def smooth(image, radius=1):
    """Box blur over the last two (spatial) axes. Averaging a (2r+1)^2
    neighborhood attenuates per-pixel noise far more than the
    low-frequency class patterns, so smoothed views of a corrupted image
    are the most reliable (and most confident) members of a view batch."""
    size = 2 * radius + 1
    return uniform_filter(image, size=(1,) * (image.ndim - 2) + (size, size),
                          mode="nearest")


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


def _draw_noise_patch(rng, shape):
    """(rows, cols, noise) of additive Gaussian noise inside one random
    block (random-erasing style): trains tolerance to spatially local
    corruption."""
    c, h, w = shape
    bh = int(round(h * rng.uniform(0.3, 0.7)))
    bw = int(round(w * rng.uniform(0.3, 0.7)))
    y0 = rng.integers(0, h - bh + 1)
    x0 = rng.integers(0, w - bw + 1)
    sigma = rng.uniform(*_NOISE_PATCH_SIGMA)
    return (slice(y0, y0 + bh), slice(x0, x0 + bw),
            rng.normal(0.0, sigma, size=(c, bh, bw)))


def _draw_rrc(policy, seed, shape):
    """(smooth, (side, y0, x0), noise patch or None, flip) of one view,
    drawn from default_rng(seed) in the order the view applies them."""
    rng = np.random.default_rng(seed)
    smoothed = rng.random() < policy.smooth_prob
    crop = _draw_crop(rng, policy.smooth_scale_range if smoothed else policy.scale_range,
                      *shape[1:])
    patch = _draw_noise_patch(rng, shape) if rng.random() < policy.noise_patch_prob else None
    return smoothed, crop, patch, rng.random() < 0.5


def _rrc_views(images, draws):
    """Random resized crops, view i of images[i] as draws[i] says,
    RESAMPLE_BLOCK at a time.

    Every pixel is computed as crop_resize computes it, so a view does
    not depend on the block it is made in."""
    c, h, w = images[0].shape
    smoothed, crops, patches, flips = zip(*draws)
    smoothed, flips = np.array(smoothed), np.array(flips)
    side, y0, x0 = np.array(crops).T
    # view i's planes in the line tables of its block
    planes = (np.arange(len(draws)) % RESAMPLE_BLOCK)[:, None, None] * c + np.arange(c)[:, None]
    rows = _line_tables(side, y0, planes, h)
    cols = _line_tables(side, x0, planes, w)
    views = []
    for i in range(0, len(draws), RESAMPLE_BLOCK):
        block = slice(i, i + RESAMPLE_BLOCK)
        out = _resize(np.asarray(images[block], dtype=np.float64),
                      [t[block] for t in rows], [t[block] for t in cols])
        smooth_views, flip_views = smoothed[block], flips[block]
        if smooth_views.any():
            out[smooth_views] = smooth(out[smooth_views])
        for view, patch in zip(out, patches[block]):
            if patch is not None:
                ys, xs, noise = patch
                view[:, ys, xs] += noise
        if flip_views.any():
            out[flip_views] = out[flip_views][..., ::-1]
        views.extend(np.clip(out, *PIXEL_RANGE, out=np.empty(out.shape)))
    return views


def augmix_view(image, policy, seed):
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
    return np.clip(blend * image + (1.0 - blend) * mixed, *PIXEL_RANGE)


def make_views(images, policy, seeds):
    """One view per seed: view i is make_view(images[i], policy, seeds[i]).

    Random resized crops are resampled RESAMPLE_BLOCK views at a time;
    AugMix views are made one at a time."""
    if len(images) != len(seeds):
        raise ValueError(f"{len(images)} images for {len(seeds)} seeds")
    if policy.kind == "augmix":
        return [augmix_view(img, policy, s) for img, s in zip(images, seeds)]
    if len(seeds) == 0:
        return []
    return _rrc_views(images, [_draw_rrc(policy, s, np.shape(images[0])) for s in seeds])


def make_view(image, policy, seed):
    return make_views([image], policy, [seed])[0]


def generate_views(image, n, policy, seed):
    """N views of one image, each distinct view made once.

    Returns (views, index): view i of the batch is views[index[i]].
    View 0 is the untouched original, view i is make_view with seed
    split_seed(seed, i).  Random resized crops without a noise patch and
    with equal (smoothed, side, y0, x0, flip) draws are one view; a view
    with a noise patch and an AugMix view are their own.  A full-frame
    crop stays apart from view 0: the view is clipped to the pixel
    range, the original is not."""
    if n < 1:
        raise ValueError("need at least one view")
    image = np.asarray(image, dtype=np.float64)
    seeds = [split_seed(seed, i) for i in range(1, n)]
    if policy.kind == "augmix":
        return [image.copy()] + make_views([image] * (n - 1), policy, seeds), np.arange(n)
    slots, kept, index = {}, [], [0]
    for draw in (_draw_rrc(policy, s, image.shape) for s in seeds):
        smoothed, crop, patch, flip = draw
        key = (smoothed, *crop, flip) if patch is None else len(index)
        if key not in slots:
            slots[key] = len(kept) + 1
            kept.append(draw)
        index.append(slots[key])
    views = _rrc_views([image] * len(kept), kept) if kept else []
    return [image.copy()] + views, np.array(index)
