"""Stochastic view generation: random resized crops and a simplified AugMix.

All randomness flows through per-view seeds derived with a splittable
integer hash of (episode seed, view index), so view generation is
order-independent and bit-reproducible.  A view draws what
np.random.default_rng(seed) draws for its seed.  The random resized
crops of a batch take those draws from all their seeds' streams at once
(Streams), with no generator built per view.
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
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

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
    """Splittable hash of (seed, index): one splitmix64 round, of an int
    index or of each entry of a uint64 array of them."""
    index = index if isinstance(index, np.ndarray) else int(index)
    z = (((int(seed) * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & _MASK64) + index) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hash_constants(init, mult, n):
    """Columns of init * mult**j and init * mult**(j + 1) mod 2**32, j < n."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    out = np.array(out, dtype=np.uint32)[:, None]
    return out[:-1], out[1:]


# numpy's SeedSequence: the pool's 16 hash constants, the 8 output hash
# constants and the mixing multipliers; then PCG64's multiplier
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ANY_SEED = np.random.SeedSequence(0)  # built once: PCG64 seeds from it fastest


def _hash(values, constants, j, k):
    """SeedSequence's hash of the rows of values with its constants
    j .. k - 1: xor one, multiply by the next, xor-shift."""
    values = (values ^ constants[0][j:k]) * constants[1][j:k]
    return values ^ (values >> 16)


def _seed_state(seeds):
    """SeedSequence(s).generate_state(4, np.uint64) of each s of a uint64
    array, as (4, N): a seed's entropy is its low and high 32-bit words,
    and a pool of 4 words pads it with zeros, whose hash is that of a
    zero high word below 2**32."""
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & 0xFFFFFFFF, seeds >> 32
    pool = _hash(pool, _HASH_A, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - _hash(pool[src], _HASH_A, 4 + 3 * src, 7 + 3 * src) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hash(np.concatenate([pool, pool]), _HASH_B, 0, 8).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def _mul_hi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays."""
    a1, a0, b1, b0 = a >> 32, a & 0xFFFFFFFF, b >> 32, b & 0xFFFFFFFF
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & 0xFFFFFFFF) + (cross1 & 0xFFFFFFFF)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


@functools.lru_cache(maxsize=None)
def _jump_constants(n):
    """(high, low) uint64 arrays of shape (2, 1, n): k steps of PCG64 take
    a state s to A * s + C * inc mod 2**128, A in row 0 and C in row 1 of
    column k - 1."""
    a, c, out = 1, 0, [[], []]
    for _ in range(n):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        out[0].append(a)
        out[1].append(c)
    out = np.array(out, dtype=object)[:, None]
    return (out >> 64).astype(np.uint64), (out & _MASK64).astype(np.uint64)


def _jump(state, inc, n):
    """The 128-bit (high, low) states, each (N, n), that 1 .. n steps of
    PCG64 lead to from the (N, 1) states with increments inc."""
    a = [np.stack(pair) for pair in zip(state, inc)]
    b = _jump_constants(n)
    hi = _mul_hi(a[1], b[1]) + a[1] * b[0] + a[0] * b[1]
    lo = a[1] * b[1]
    total = lo[0] + lo[1]
    return hi[0] + hi[1] + (total < lo[1]), total


def _xsl_rr(hi, lo):
    """PCG64's 64-bit output of a state."""
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


class Streams:
    """The streams of np.random.default_rng(s) for each s of a uint64
    array of seeds, drawn in lockstep: random, uniform and integers make
    from every stream the draw their namesakes in np.random.Generator
    make.  This reproduces numpy's SeedSequence, PCG64 and Generator
    draws bit for bit; tests/test_augment.py checks it against
    default_rng.

    The states a stream passes through are computed ahead, by jumps from
    its seeded state, into (N, steps + 1) tables of the high and the low
    64 bits whose column j is the state after j outputs."""

    AHEAD = 5  # outputs computed at a time: all a crop view draws unless Lemire rejects

    def __init__(self, seeds):
        v = _seed_state(seeds)[..., None]
        # inc = initseq << 1 | 1; the state steps from 0 to inc, adds
        # initstate, and steps again
        self.inc = (v[2] << 1 | v[3] >> 63, v[3] << 1 | 1)
        lo = self.inc[1] + v[1]
        self.state = _jump((self.inc[0] + v[0] + (lo < v[1]), lo), self.inc, self.AHEAD + 1)
        self.outputs = _xsl_rr(*self.state)
        self.rows = np.arange(len(seeds))
        self.used = np.zeros(len(seeds), dtype=np.int64)
        self.has_uint32 = np.zeros(len(seeds), dtype=bool)
        self.uinteger = np.zeros(len(seeds), dtype=np.uint64)

    def _next64(self, rows):
        """The next 64-bit outputs of the streams rows."""
        used = self.used[rows] + 1
        if used.max(initial=0) == self.outputs.shape[1]:
            more = _jump([half[:, -1:] for half in self.state], self.inc, self.AHEAD)
            self.state = tuple(np.concatenate(pair, axis=1) for pair in zip(self.state, more))
            self.outputs = np.concatenate([self.outputs, _xsl_rr(*more)], axis=1)
        self.used[rows] = used
        return self.outputs[rows, used]

    def _next32(self, rows):
        """The next 32-bit words of the streams rows: the low half of a
        fresh output, whose high half waits for the next word."""
        has = self.has_uint32[rows]
        out = self.uinteger[rows]
        fresh = rows[~has]
        x = self._next64(fresh)
        out[~has] = x & 0xFFFFFFFF
        self.uinteger[fresh] = x >> 32
        self.has_uint32[rows] = ~has
        return out

    def random(self):
        return (self._next64(self.rows) >> 11) * 2.0 ** -53

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def integers(self, high):
        """integers(0, high) of each stream, 1 <= high < 2**32 an int or an
        array: Lemire's method on 32-bit words; high == 1 draws nothing."""
        high = np.broadcast_to(np.asarray(high, dtype=np.uint64), self.used.shape)
        out = np.zeros(len(high), dtype=np.uint64)
        todo = np.flatnonzero(high > 1)
        while len(todo):
            m = high[todo]
            product = self._next32(todo) * m
            # accept unless the low word is below 2**32 mod m
            ok = product & 0xFFFFFFFF >= (2 ** 32 - m) % m
            out[todo[ok]] = product[ok] >> 32
            todo = todo[~ok]
        return out.astype(np.int64)

    def generator(self, i):
        """A Generator that continues stream i."""
        hi, lo = (int(half[i, self.used[i]]) for half in self.state)
        inc_hi, inc_lo = (int(half[i, 0]) for half in self.inc)
        bit_generator = np.random.PCG64(_ANY_SEED)  # its state is set below
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": int(self.has_uint32[i]), "uinteger": int(self.uinteger[i])}
        return np.random.Generator(bit_generator)


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


def _draw_views(policy, seeds, shape):
    """The draws of the views of seeds, each from default_rng(seed) in the
    order the view applies them and all drawn at once: the (N, 5) ints
    (smoothed, side, y0, x0, flip) and a list of noise patches, None for
    a view without one.  A view with a patch draws it and its flip from
    a generator that continues its stream."""
    h, w = shape[1:]
    streams = Streams(np.asarray(seeds, dtype=np.uint64))
    smoothed = streams.random() < policy.smooth_prob
    lo, hi = np.where(smoothed[:, None], policy.smooth_scale_range, policy.scale_range).T
    side = np.maximum(1, np.round(np.sqrt(streams.uniform(lo, hi)) * h).astype(np.int64))
    y0 = streams.integers(h - side + 1)
    x0 = streams.integers(w - side + 1)
    patched = np.flatnonzero(streams.random() < policy.noise_patch_prob)
    rests = [streams.generator(i) for i in patched]
    flip = streams.random() < 0.5
    patches = [None] * len(side)
    for i, rng in zip(patched, rests):
        patches[i] = _draw_noise_patch(rng, shape)
        flip[i] = rng.random() < 0.5
    return np.stack([smoothed, side, y0, x0, flip], axis=1), patches


def _rrc_views(images, draws, patches, views):
    """Random resized crops into the rows of the (N, C, H, W) array views,
    view i of images[i] as draws[i] and patches[i] say (see _draw_views),
    RESAMPLE_BLOCK at a time.

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


def augmix_view(image, seed):
    """Dirichlet-weighted mix of short augmentation chains, Beta-blended
    with the original image."""
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


def _views_into(views, images, policy, seeds):
    """Write the view of images[i] under policy whose draws come from
    np.random.default_rng(seeds[i]) into views[i]."""
    if policy.kind == "augmix":
        for view, img, s in zip(views, images, seeds):
            view[...] = augmix_view(img, int(s))
    elif len(seeds):
        _rrc_views(images, *_draw_views(policy, seeds, views.shape[1:]), views)


def make_views(images, policy, seeds):
    """One view per seed, as one C-contiguous float64 (N, C, H, W) array:
    view i is the view of images[i] under policy whose draws come from
    np.random.default_rng(seeds[i]).

    Random resized crops are drawn all at once and resampled
    RESAMPLE_BLOCK views at a time; AugMix views are made one at a time."""
    if len(images) != len(seeds):
        raise ValueError(f"{len(images)} images for {len(seeds)} seeds")
    if not len(seeds):
        raise ValueError("no images to make views of")
    views = np.empty((len(seeds),) + np.shape(images[0]))
    _views_into(views, images, policy, seeds)
    return views


def make_view(image, policy, seed):
    return make_views([image], policy, [seed])[0]


def generate_views(image, n, policy, seed):
    """N views of one image, each distinct view made once.

    Returns (views, index): view i of the batch is views[index[i]], and
    views is one C-contiguous float64 (M, C, H, W) array.  View 0 is a
    copy of the untouched original, view i is make_view with seed
    split_seed(seed, i).  Random resized crops without a noise patch and
    with equal (smoothed, side, y0, x0, flip) draws are one view; a view
    with a noise patch and an AugMix view are their own.  A full-frame
    crop stays apart from view 0: the view is clipped to the pixel
    range, the original is not."""
    if n < 1:
        raise ValueError("need at least one view")
    image = np.asarray(image, dtype=np.float64)
    seeds = split_seed(seed, np.arange(1, n, dtype=np.uint64))
    if policy.kind == "augmix" or n == 1:
        views = np.empty((n,) + image.shape)
        views[0] = image
        _views_into(views[1:], [image] * (n - 1), policy, seeds)
        return views, np.arange(n)
    h, w = image.shape[1:]
    draws, patches = _draw_views(policy, seeds, image.shape)
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
