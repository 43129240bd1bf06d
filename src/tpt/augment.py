"""Stochastic view generation: random resized crops and a simplified AugMix.

A batch of views draws from one np.random.Generator: an episode's from
np.random.default_rng(seed), pretraining's from its training generator.
A random resized crop's draws are one row of a uniform table, so view i
of an episode depends only on its seed and i.
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
    """The view kind, crop area fraction and noise-patch share, which the
    episode and pretraining set differently.  The box-blurred share of
    random resized crops and their crop range are class constants; the
    range is not scale_range, as pretraining crops its other views wider."""

    kind: str = "rrc"  # rrc | augmix
    scale_range: tuple = (0.9, 1.0)  # crop area fraction
    noise_patch_prob: float = 0.0  # random-erasing-style noise block
    smooth_prob = 0.2  # fraction of denoising (box-blurred) views
    smooth_scale_range = (0.9, 1.0)  # crop range used for smooth views

    def __post_init__(self):
        if self.kind not in ("rrc", "augmix"):
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        lo, hi = self.scale_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("scale range must be within (0, 1]")
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
    side = max(1, int(round(np.sqrt(rng.uniform(*scale_range)) * h)))
    y0, x0 = rng.integers(0, h - side + 1), rng.integers(0, w - side + 1)
    side, y0, x0, planes = np.array([side]), np.array([y0]), np.array([x0]), np.arange(c)[:, None]
    out = _resize(image[None], _line_tables(side, y0, planes, h),
                  _line_tables(side, x0, planes, w))
    return np.ascontiguousarray(out[0])


def smooth(image):
    """3 x 3 box blur over the last two (spatial) axes. Averaging a
    neighborhood attenuates per-pixel noise far more than the
    low-frequency class patterns, so smoothed views of a corrupted image
    are the most reliable (and most confident) members of a view batch."""
    return uniform_filter(image, size=(1,) * (image.ndim - 2) + (3, 3),
                          mode="nearest")


def brightness(image, rng):
    return image + rng.uniform(-0.3, 0.3)


def contrast(image, rng):
    f = rng.uniform(0.7, 1.3)
    mean = image.mean()
    return (image - mean) * f + mean


def translate(image, rng):
    dy = int(rng.integers(-4, 5))  # up to 4 pixels each way
    dx = int(rng.integers(-4, 5))
    out = np.zeros_like(image)
    _, h, w = image.shape
    ys, yd = (dy, 0) if dy >= 0 else (0, -dy)
    xs, xd = (dx, 0) if dx >= 0 else (0, -dx)
    out[:, ys:h - yd, xs:w - xd] = image[:, yd:h - ys, xd:w - xs]
    return out


_AUGMIX_PRIMITIVES = (
    lambda img, rng: crop_resize(img, rng, (0.5, 1.0)),
    lambda img, rng: img[:, :, ::-1].copy(),  # horizontal flip
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


def _draw_views(policy, rng, n, shape):
    """The draws of n random resized crops from the generator rng: the
    (n, 5) ints (smoothed, side, y0, x0, flip) and a list of noise
    patches, None for a view without one.

    Row i of one rng.random((n, 6)) table holds view i's smooth coin,
    area fraction, y0, x0, flip and patch coin, so a view's draws depend
    only on its row; the noise patches follow, in view order."""
    h, w = shape[1:]
    u = rng.random((n, 6))
    smoothed = u[:, 0] < policy.smooth_prob
    lo, hi = np.where(smoothed[:, None], policy.smooth_scale_range, policy.scale_range).T
    side = np.maximum(1, np.round(np.sqrt(lo + (hi - lo) * u[:, 1]) * h).astype(np.int64))
    y0 = np.floor(u[:, 2] * (h - side + 1)).astype(np.int64)
    x0 = np.floor(u[:, 3] * (w - side + 1)).astype(np.int64)
    patches = [_draw_noise_patch(rng, shape) if coin < policy.noise_patch_prob else None
               for coin in u[:, 5]]
    return np.stack([smoothed, side, y0, x0, u[:, 4] < 0.5], axis=1), patches


def _rrc_views(images, draws, patches, views):
    """Random resized crops into the rows of the (N, C, H, W) array views,
    view i of images[i] as row i of draws and patches[i] say (see
    _draw_views), RESAMPLE_BLOCK at a time.

    Every pixel is computed as crop_resize computes it, so a view does
    not depend on the block it is made in."""
    c, h, w = views.shape[1:]
    smoothed, side, y0, x0, flips = draws.T
    smoothed, flips = smoothed.astype(bool), flips.astype(bool)
    # view i's planes in the line tables of its block
    planes = (np.arange(len(draws)) % RESAMPLE_BLOCK)[:, None, None] * c + np.arange(c)[:, None]
    rows = _line_tables(side, y0, planes, h)
    cols = _line_tables(side, x0, planes, w)
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
        np.clip(out, *PIXEL_RANGE, out=views[block])


def augmix_view(image, rng):
    """Dirichlet-weighted mix of short augmentation chains, Beta-blended
    with the original image, drawn from the generator rng."""
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


def make_views(images, policy, rng):
    """One view of each image under policy, drawn from the generator rng,
    as one C-contiguous float64 (N, C, H, W) array.

    Random resized crops are drawn all at once and resampled
    RESAMPLE_BLOCK views at a time; AugMix views are made one at a time."""
    if not len(images):
        raise ValueError("no images to make views of")
    views = np.empty((len(images),) + np.shape(images[0]))
    if policy.kind == "augmix":
        for view, img in zip(views, images):
            view[...] = augmix_view(img, rng)
    else:
        _rrc_views(images, *_draw_views(policy, rng, len(images), views.shape[1:]), views)
    return views


def make_view(image, policy, seed):
    """The first view that np.random.default_rng(seed) draws of image."""
    return make_views([image], policy, np.random.default_rng(seed))[0]


def generate_views(image, n, policy, seed):
    """N views of one image, drawn from np.random.default_rng(seed), each
    distinct view made once.

    Returns (views, index): view i of the batch is views[index[i]], and
    views is one C-contiguous float64 (M, C, H, W) array.  View 0 is a
    copy of the untouched original; views 1 .. N - 1 are what make_views
    makes of N - 1 copies of the image with that generator, so without
    noise patches the first n views are the same for every N >= n.
    Random resized crops without a noise patch and with equal (smoothed,
    side, y0, x0, flip) draws are one view; a view with a noise patch and
    an AugMix view are their own.  A full-frame crop stays apart from
    view 0: the view is clipped to the pixel range, the original is not."""
    if n < 1:
        raise ValueError("need at least one view")
    image = np.asarray(image, dtype=np.float64)
    rng = np.random.default_rng(seed)
    if policy.kind == "augmix":
        views = image[None].copy()
        if n > 1:
            views = np.concatenate([views, make_views([image] * (n - 1), policy, rng)])
        return views, np.arange(n)
    h, w = image.shape[1:]
    draws, patches = _draw_views(policy, rng, n - 1, image.shape)
    keys = np.ravel_multi_index(draws.T, (2, h + 1, h, w, 2))
    for i, patch in enumerate(patches):
        if patch is not None:
            keys[i] = -1 - i
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct views in the order they are first drawn
    kept = first[order]
    views = np.empty((1 + len(kept),) + image.shape)
    views[0] = image
    _rrc_views([image] * len(kept), draws[kept], [patches[i] for i in kept], views[1:])
    return views, np.concatenate(([0], np.argsort(order)[inverse] + 1))
