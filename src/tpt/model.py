"""Miniature dual-encoder vision-language model.

A transformer text encoder consumes sequences that are already in
embedding space, so learnable prompt rows can be injected directly.  A
patch-transformer image encoder maps images into the same projection
space; classification is a temperature-scaled softmax over cosine
similarities.  Contrastive pretraining aligns the two encoders on
(image, caption) pairs.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import read_exact
from .optim import AdamW


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    text_layers: int = 2
    image_layers: int = 2
    heads: int = 2
    vocab_size: int = 64
    max_text_len: int = 16
    image_shape: tuple = (3, 32, 32)
    patch_size: int = 8
    logit_scale: float = 100.0  # softmax temperature, fixed (not learned)
    proj_dim: int = 32

    def __post_init__(self):
        c, h, w = self.image_shape
        if h % self.patch_size or w % self.patch_size:
            raise ValueError("image height/width must be divisible by patch_size")
        if self.embed_dim % self.heads:
            raise ValueError("embed_dim must be divisible by heads")
        if self.logit_scale <= 0:
            raise ValueError("logit_scale must be positive")

    @property
    def num_patches(self):
        _, h, w = self.image_shape
        return (h // self.patch_size) * (w // self.patch_size)

    @property
    def patch_dim(self):
        c, _, _ = self.image_shape
        return c * self.patch_size * self.patch_size


def _layer_names(prefix, n_layers, d):
    names = {}
    for i in range(n_layers):
        p = f"{prefix}.{i}"
        names[f"{p}.ln1.gain"] = (1, d)
        names[f"{p}.ln1.bias"] = (1, d)
        for m in ("wq", "wk", "wv", "wo"):
            names[f"{p}.attn.{m}"] = (d, d)
        for m in ("bq", "bk", "bv", "bo"):
            names[f"{p}.attn.{m}"] = (1, d)
        names[f"{p}.ln2.gain"] = (1, d)
        names[f"{p}.ln2.bias"] = (1, d)
        names[f"{p}.mlp.w1"] = (d, 4 * d)
        names[f"{p}.mlp.b1"] = (1, 4 * d)
        names[f"{p}.mlp.w2"] = (4 * d, d)
        names[f"{p}.mlp.b2"] = (1, d)
    names[f"{prefix}.final_ln.gain"] = (1, d)
    names[f"{prefix}.final_ln.bias"] = (1, d)
    return names


def weight_shapes(config):
    d = config.embed_dim
    shapes = {
        "token_embedding": (config.vocab_size, d),
        "text_pos": (config.max_text_len, d),
        "image_pos": (config.num_patches, d),
        "patch_proj": (config.patch_dim, d),
        "patch_bias": (1, d),
        "text_proj": (d, config.proj_dim),
        "image_proj": (d, config.proj_dim),
    }
    shapes.update(_layer_names("text", config.text_layers, d))
    shapes.update(_layer_names("image", config.image_layers, d))
    return shapes


def init_weights(config, seed=0):
    """Fresh ModelWeights: a named map of Tensors."""
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in weight_shapes(config).items():
        if name.endswith((".gain",)):
            weights[name] = Tensor(np.ones(shape))
        elif name.endswith((".bias", "_bias")) or ".attn.b" in name or ".mlp.b" in name:
            weights[name] = Tensor(np.zeros(shape))
        else:
            weights[name] = Tensor(rng.normal(0.0, 0.02, size=shape))
    return weights


def set_trainable(tensors, trainable):
    """Toggle requires_grad (and grad buffers) on the given Tensors."""
    for t in tensors:
        t.requires_grad = trainable
        t.grad = np.zeros_like(t.data) if trainable else None


def embed_tokens(weights, config, token_ids):
    """Token embedding rows, on the tape: one id list gives a (T, D)
    sequence, K id lists of one length a (K, T, D) batch."""
    lengths = [len(ids) for ids in token_ids if not np.isscalar(ids)]
    if len(set(lengths)) > 1:
        raise ValueError(f"token id lists differ in length: {lengths}")
    ids = np.asarray(token_ids, dtype=np.intp)
    if np.any((ids < 0) | (ids >= config.vocab_size)):
        raise ValueError(f"token id out of range for vocab {config.vocab_size}")
    return ad.gather_rows(weights["token_embedding"], ids)


def _attention(weights, prefix, x, heads, mask=None):
    q = ad.add(ad.matmul(x, weights[f"{prefix}.wq"]), weights[f"{prefix}.bq"])
    k = ad.add(ad.matmul(x, weights[f"{prefix}.wk"]), weights[f"{prefix}.bk"])
    v = ad.add(ad.matmul(x, weights[f"{prefix}.wv"]), weights[f"{prefix}.bv"])
    dh = x.data.shape[-1] // heads
    scores = ad.scale(ad.matmul(ad.split_heads(q, heads),
                                ad.transpose(ad.split_heads(k, heads))),
                      1.0 / np.sqrt(dh))
    if mask is not None:
        scores = ad.add(scores, mask)
    ctx = ad.merge_heads(ad.matmul(ad.softmax_rows(scores), ad.split_heads(v, heads)))
    return ad.add(ad.matmul(ctx, weights[f"{prefix}.wo"]), weights[f"{prefix}.bo"])


def _transformer(weights, prefix, x, n_layers, heads, causal):
    mask = None
    if causal:
        t = x.data.shape[-2]
        m = np.triu(np.full((t, t), -1e9), k=1)
        mask = Tensor(m)
    for i in range(n_layers):
        p = f"{prefix}.{i}"
        h = ad.layer_norm(x, weights[f"{p}.ln1.gain"], weights[f"{p}.ln1.bias"])
        x = ad.add(x, _attention(weights, f"{p}.attn", h, heads, mask))
        h = ad.layer_norm(x, weights[f"{p}.ln2.gain"], weights[f"{p}.ln2.bias"])
        h = ad.matmul(h, weights[f"{p}.mlp.w1"])
        h = ad.add(h, weights[f"{p}.mlp.b1"])
        h = ad.gelu(h)
        h = ad.matmul(h, weights[f"{p}.mlp.w2"])
        h = ad.add(h, weights[f"{p}.mlp.b2"])
        x = ad.add(x, h)
    return ad.layer_norm(x, weights[f"{prefix}.final_ln.gain"],
                         weights[f"{prefix}.final_ln.bias"])


def _project(weights, name, rows):
    """(K, 1, D) rows -> K x proj_dim unit features.

    The projection runs as K one-row products, which round like the
    one-item encoder; a flat (K, D) product can differ in the last bit.
    """
    feats = ad.l2_normalize_rows(ad.matmul(rows, weights[name]))
    return ad.reshape(feats, (rows.data.shape[0], feats.data.shape[-1]))


def encode_texts(weights, config, seqs):
    """Encode a (K, T, D) batch of embedded token sequences to a
    K x proj_dim Tensor of unit rows.

    Causal attention, feature read from the last position.  The gradient
    path into the input sequences is what test-time tuning relies on.
    """
    t = seqs.data.shape[-2]
    if t > config.max_text_len:
        raise ValueError(f"sequence length {t} exceeds max_text_len {config.max_text_len}")
    pos = ad.gather_rows(weights["text_pos"],
                         np.broadcast_to(np.arange(t), seqs.data.shape[:-1]))
    x = ad.add(seqs, pos)
    x = _transformer(weights, "text", x, config.text_layers, config.heads, causal=True)
    return _project(weights, "text_proj", ad.gather_rows(x, [t - 1]))


def encode_text(weights, config, seq):
    """Encode one embedded token sequence (T x D) to a 1 x proj_dim unit row."""
    return encode_texts(weights, config, ad.reshape(seq, (1,) + seq.data.shape))


def patchify(images, patch_size):
    """(..., C, H, W) array -> (..., P, C*ps*ps) patch matrices, row-major patches."""
    *batch, c, h, w = images.shape
    ps = patch_size
    x = images.reshape(*batch, c, h // ps, ps, w // ps, ps)
    x = np.moveaxis(x, (-5, -3, -1), (-3, -2, -1))
    return np.ascontiguousarray(x.reshape(*batch, (h // ps) * (w // ps), c * ps * ps))


# Images per transformer pass.  Blocks keep the activations small: at 8
# images of 16 patches the largest, the MLP hidden, is 128 KB, against
# 1 MB for a 64-view episode in one pass.  glibc's malloc serves a request
# of 128 KB or more that its heap cannot hold by a fresh mmap, whose
# pages fault in zeroed on first touch.  With that threshold pinned, a
# default episode took a median of about 7.6k minor faults in one pass,
# 3.0k at 16 images per pass and 1.4k at 8.  At 4 it took fewer still,
# but pretraining's 16-image batches ran 16% slower in four passes.
ENCODE_BLOCK = 8


def _encode_block(weights, config, images):
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.shape[1:] != config.image_shape:
        raise ValueError(f"image shape {imgs.shape[1:]} != config {config.image_shape}")
    if not np.all(np.isfinite(imgs)):
        raise ValueError("image has non-finite pixels")
    patches = Tensor(patchify(imgs, config.patch_size))
    x = ad.add(ad.matmul(patches, weights["patch_proj"]), weights["patch_bias"])
    x = ad.add(x, weights["image_pos"])
    x = _transformer(weights, "image", x, config.image_layers, config.heads, causal=False)
    return _project(weights, "image_proj", ad.mean_rows(x))


def encode_images(weights, config, images):
    """Encode N (C, H, W) images to an N x proj_dim Tensor of unit rows;
    mean-pooled patches.

    One transformer pass per ENCODE_BLOCK images.  Each row rounds as a
    one-image encode does, and on a tape a shared weight still gets its
    gradient in reverse image order, so the blocks change no bit."""
    if len(images) == 0:
        raise ValueError("no images to encode")
    blocks = [_encode_block(weights, config, images[i:i + ENCODE_BLOCK])
              for i in range(0, len(images), ENCODE_BLOCK)]
    return blocks[0] if len(blocks) == 1 else ad.concat_rows(blocks)


def encode_image(weights, config, image):
    """Encode one (C, H, W) image to a 1 x proj_dim unit row."""
    return encode_images(weights, config, [image])


def class_logits(text_features, image_features, logit_scale):
    """Scaled cosine similarities: one K-class row per image feature row."""
    return ad.scale(ad.matmul(image_features, ad.transpose(text_features)),
                    logit_scale)


def class_probabilities(text_features, image_features, logit_scale):
    """Row softmax of class_logits."""
    return ad.softmax_rows(class_logits(text_features, image_features, logit_scale))


def cross_entropy(logits, targets):
    """Mean cross-entropy of the row softmax of M x K logits against M x K
    target rows (one-hot rows for hard labels).

    Returns (loss, probs); probs is the on-tape softmax."""
    probs = ad.softmax_rows(logits)
    picked = ad.sum_all(ad.mul(ad.log(probs), targets))
    return ad.scale(ad.neg(picked), 1.0 / logits.data.shape[0]), probs


def rescale_text_embeddings(weights, factor):
    """Scale token and positional text embeddings by `factor` in place.

    The text transformer is pre-LN, so layer norms make its behaviour
    almost exactly invariant to a global rescaling of its input rows:
    zero-shot predictions are preserved.  What changes is the *relative*
    size of a fixed-magnitude AdamW step on prompt rows, because the
    first layer norm's Jacobian scales inversely with the input norm.
    Shrinking the embeddings therefore calibrates how far one
    test-time-tuning step can move the class text features, playing the
    role that large-scale pretraining plays for full-size models."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    weights["token_embedding"].data *= factor
    weights["text_pos"].data *= factor
    return weights


# The pretraining recipe.  `tpt pretrain`, the acceptance suite's cached
# model and the benchmark checkpoint are all trained with exactly these
# settings, on the images of DatasetSpec() drawn with TRAIN_DATA_SEED.
PRETRAIN = dict(epochs=80, lr=0.001, batch=16, seed=0, weight_decay=0.1,
                embed_rescale=0.1)
PRETRAIN_POLICY = dict(scale_range=(0.8, 1.0), noise_patch_prob=0.3)
TRAIN_DATA_SEED = 100


def pretrain_contrastive(weights, config, pairs, epochs=PRETRAIN["epochs"],
                         lr=PRETRAIN["lr"], batch=PRETRAIN["batch"],
                         seed=PRETRAIN["seed"], augment_policy=None,
                         weight_decay=PRETRAIN["weight_decay"],
                         embed_rescale=PRETRAIN["embed_rescale"]):
    """Symmetric InfoNCE over in-batch image-text similarities.

    When augment_policy is set, every drawn image is replaced by a random
    view from that policy: the captions stay valid and the encoder learns
    the augmentation invariance that test-time view consistency relies on.
    After training, text embeddings are rescaled by `embed_rescale` (see
    rescale_text_embeddings) to set the test-time step sensitivity.
    Trains all weights in place; returns (weights, per-epoch mean losses).
    """
    from .augment import make_views

    if batch < 2:
        raise ValueError("contrastive batches need at least 2 pairs")
    if len(pairs) < 2:
        raise ValueError("need at least 2 (image, caption) pairs")
    rng = np.random.default_rng(seed)
    set_trainable(weights.values(), True)
    try:
        opt = AdamW(list(weights.values()), lr=lr, weight_decay=weight_decay)
        epoch_losses = []
        for _ in range(epochs):
            order = rng.permutation(len(pairs))
            losses = []
            for start in range(0, len(order), batch):
                idx = order[start:start + batch]
                if len(idx) < 2:
                    continue
                images = [pairs[i][0] for i in idx]
                if augment_policy is not None:
                    images = make_views(images, augment_policy,
                                        [int(rng.integers(2 ** 62)) for _ in idx])
                with ad.Tape() as tape:
                    img_feats = encode_images(weights, config, images)
                    txt_feats = encode_texts(weights, config, embed_tokens(
                        weights, config, [pairs[i][1] for i in idx]))
                    sims = class_logits(txt_feats, img_feats, config.logit_scale)
                    matched = Tensor(np.eye(len(idx)))  # pair i is image i, caption i
                    li, _ = cross_entropy(sims, matched)
                    lt, _ = cross_entropy(ad.transpose(sims), matched)
                    loss = ad.scale(ad.add(li, lt), 0.5)
                    opt.zero_grad()
                    tape.backward(loss)
                opt.step()
                losses.append(loss.item())
            epoch_losses.append(float(np.mean(losses)))
    finally:
        set_trainable(weights.values(), False)
    if embed_rescale != 1.0:
        rescale_text_embeddings(weights, embed_rescale)
    return weights, epoch_losses


def retrieval_top1(weights, config, pairs):
    """Image->text retrieval accuracy over the pair set.

    Duplicate captions are common in the synthetic set, so a retrieval
    counts as correct when the retrieved caption's tokens match."""
    txt = encode_texts(weights, config,
                       embed_tokens(weights, config, [ids for _, ids in pairs])).data
    img = encode_images(weights, config, [im for im, _ in pairs]).data
    captions = [tuple(ids) for _, ids in pairs]
    top = np.argmax(img @ txt.T, axis=1)
    return float(np.mean([captions[t] == captions[i] for i, t in enumerate(top)]))


# ---------------------------------------------------------------------------
# persistence: magic "TPTW1", u32 count, then per tensor
# u16 name length, UTF-8 name, u8 rank, u32 dims, raw float64 LE.

_MAGIC = b"TPTW1"


def save_weights(weights, path):
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(weights)))
        for name, t in weights.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", t.data.ndim))
            for dim in t.data.shape:
                f.write(struct.pack("<I", dim))
            f.write(t.data.astype("<f8").tobytes())


def load_weights(path, config=None):
    """Read a weights file.  With a config, every tensor name and shape
    must match weight_shapes(config); errors name the file and tensor."""
    weights = {}
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: bad magic, not a weights file")
        (count,) = struct.unpack("<I", read_exact(f, 4, "the header"))
        for i in range(count):
            (nlen,) = struct.unpack("<H", read_exact(f, 2, f"the name of tensor #{i}"))
            name = read_exact(f, nlen, f"the name of tensor #{i}").decode("utf-8")
            what = f"tensor {name!r}"
            (rank,) = struct.unpack("<B", read_exact(f, 1, what))
            shape = struct.unpack(f"<{rank}I", read_exact(f, 4 * rank, what))
            n = int(np.prod(shape)) if rank else 1
            data = np.frombuffer(read_exact(f, 8 * n, what), dtype="<f8").reshape(shape)
            weights[name] = Tensor(data.copy())
    if config is not None:
        expected = weight_shapes(config)
        for name in {**expected, **weights}:
            got = weights[name].data.shape if name in weights else "absent"
            want = expected.get(name, "absent")
            if got != want:
                raise ValueError(f"{path}: tensor {name!r} is {got} in the file "
                                 f"but {want} in the model config")
    return weights
