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


@dataclass
class ClassSet:
    """K class names with their fixed token-id sequences."""
    names: list
    token_ids: list  # list of lists of int

    def __post_init__(self):
        if len(self.names) < 1 or len(self.names) != len(self.token_ids):
            raise ValueError("names and token_ids must align")

    def __len__(self):
        return len(self.names)


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


def set_trainable(weights, trainable, prefixes=None):
    """Toggle requires_grad (and grad buffers) on a weight subset."""
    for name, t in weights.items():
        if prefixes is not None and not any(name.startswith(p) for p in prefixes):
            continue
        t.requires_grad = trainable
        t.grad = np.zeros_like(t.data) if trainable else None


def embed_tokens(weights, config, token_ids):
    ids = list(token_ids)
    if any(i >= config.vocab_size or i < 0 for i in ids):
        raise ValueError(f"token id out of range for vocab {config.vocab_size}")
    return ad.gather_rows(weights["token_embedding"], ids)


def _attention(weights, prefix, x, heads, mask=None):
    d = x.data.shape[1]
    dh = d // heads
    q = ad.add_row(ad.matmul(x, weights[f"{prefix}.wq"]), weights[f"{prefix}.bq"])
    k = ad.add_row(ad.matmul(x, weights[f"{prefix}.wk"]), weights[f"{prefix}.bk"])
    v = ad.add_row(ad.matmul(x, weights[f"{prefix}.wv"]), weights[f"{prefix}.bv"])
    ctxs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = ad.slice_cols(q, lo, hi)
        kh = ad.slice_cols(k, lo, hi)
        vh = ad.slice_cols(v, lo, hi)
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(dh))
        if mask is not None:
            scores = ad.add(scores, mask)
        ctxs.append(ad.matmul(ad.softmax_rows(scores), vh))
    ctx = ad.concat_cols(ctxs)
    return ad.add_row(ad.matmul(ctx, weights[f"{prefix}.wo"]), weights[f"{prefix}.bo"])


def _transformer(weights, prefix, x, n_layers, heads, causal):
    mask = None
    if causal:
        t = x.data.shape[0]
        m = np.triu(np.full((t, t), -1e9), k=1)
        mask = Tensor(m)
    for i in range(n_layers):
        p = f"{prefix}.{i}"
        h = ad.layer_norm(x, weights[f"{p}.ln1.gain"], weights[f"{p}.ln1.bias"])
        x = ad.add(x, _attention(weights, f"{p}.attn", h, heads, mask))
        h = ad.layer_norm(x, weights[f"{p}.ln2.gain"], weights[f"{p}.ln2.bias"])
        h = ad.matmul(h, weights[f"{p}.mlp.w1"])
        h = ad.add_row(h, weights[f"{p}.mlp.b1"])
        h = ad.gelu(h)
        h = ad.matmul(h, weights[f"{p}.mlp.w2"])
        h = ad.add_row(h, weights[f"{p}.mlp.b2"])
        x = ad.add(x, h)
    return ad.layer_norm(x, weights[f"{prefix}.final_ln.gain"],
                         weights[f"{prefix}.final_ln.bias"])


def encode_text(weights, config, seq):
    """Encode an embedded token sequence (T x D) to a unit feature row.

    Causal attention, feature read from the last position.  The gradient
    path into the input sequence is what test-time tuning relies on.
    """
    t = seq.data.shape[0]
    if t > config.max_text_len:
        raise ValueError(f"sequence length {t} exceeds max_text_len {config.max_text_len}")
    pos = ad.gather_rows(weights["text_pos"], list(range(t)))
    x = ad.add(seq, pos)
    x = _transformer(weights, "text", x, config.text_layers, config.heads, causal=True)
    last = ad.gather_rows(x, [t - 1])
    return ad.l2_normalize_rows(ad.matmul(last, weights["text_proj"]))


def patchify(image, patch_size):
    """(C, H, W) array -> (P, C*ps*ps) patch matrix, row-major patches."""
    c, h, w = image.shape
    ps = patch_size
    x = image.reshape(c, h // ps, ps, w // ps, ps)
    x = x.transpose(1, 3, 0, 2, 4).reshape((h // ps) * (w // ps), c * ps * ps)
    return np.ascontiguousarray(x)


def encode_image(weights, config, image):
    """Encode a (C, H, W) image to a unit feature row; mean-pooled patches."""
    img = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if img.shape != config.image_shape:
        raise ValueError(f"image shape {img.shape} != config {config.image_shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image has non-finite pixels")
    patches = Tensor(patchify(img, config.patch_size))
    x = ad.add_row(ad.matmul(patches, weights["patch_proj"]), weights["patch_bias"])
    x = ad.add(x, weights["image_pos"])
    x = _transformer(weights, "image", x, config.image_layers, config.heads, causal=False)
    pooled = ad.mean_rows(x)
    return ad.l2_normalize_rows(ad.matmul(pooled, weights["image_proj"]))


def encode_images(weights, config, images):
    """N x proj_dim features, one row per image (on the active tape)."""
    return ad.concat_rows([encode_image(weights, config, img) for img in images])


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
    from .augment import make_view

    if batch < 2:
        raise ValueError("contrastive batches need at least 2 pairs")
    if len(pairs) < 2:
        raise ValueError("need at least 2 (image, caption) pairs")
    rng = np.random.default_rng(seed)
    set_trainable(weights, True)
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
                images = [make_view(img, augment_policy, int(rng.integers(2 ** 62)))
                          for img in images]
            with ad.Tape() as tape:
                img_feats = encode_images(weights, config, images)
                txt_feats = ad.concat_rows(
                    [encode_text(weights, config,
                                 embed_tokens(weights, config, pairs[i][1]))
                     for i in idx])
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
    set_trainable(weights, False)
    if embed_rescale != 1.0:
        rescale_text_embeddings(weights, embed_rescale)
    return weights, epoch_losses


def retrieval_top1(weights, config, pairs):
    """Image->text retrieval accuracy over the pair set.

    Duplicate captions are common in the synthetic set, so a retrieval
    counts as correct when the retrieved caption's tokens match."""
    txt = np.concatenate([
        encode_text(weights, config, embed_tokens(weights, config, ids)).data
        for _, ids in pairs])
    img = np.concatenate([encode_image(weights, config, im).data for im, _ in pairs])
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
        def read(n, what):
            buf = f.read(n)
            if len(buf) != n:
                raise ValueError(f"{path}: file truncated in {what}")
            return buf

        if f.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: bad magic, not a weights file")
        (count,) = struct.unpack("<I", read(4, "the header"))
        for i in range(count):
            (nlen,) = struct.unpack("<H", read(2, f"the name of tensor #{i}"))
            name = read(nlen, f"the name of tensor #{i}").decode("utf-8")
            what = f"tensor {name!r}"
            (rank,) = struct.unpack("<B", read(1, what))
            shape = struct.unpack(f"<{rank}I", read(4 * rank, what))
            n = int(np.prod(shape)) if rank else 1
            data = np.frombuffer(read(8 * n, what), dtype="<f8").reshape(shape)
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
