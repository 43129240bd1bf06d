"""Miniature dual-encoder vision-language model.

A transformer text encoder consumes sequences that are already in
embedding space, so learnable prompt rows can be injected directly.  A
patch-transformer image encoder maps images into the same projection
space; classification is a temperature-scaled softmax over cosine
similarities.  Contrastive pretraining aligns the two encoders on
(image, caption) pairs.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import make_views
from .autodiff import Tensor
from .data import IMAGE_SIZE
from .optim import AdamW


@dataclass(frozen=True)
class ModelConfig:
    """The model shape, the same for every model here, so its sizes are
    class constants.  logit_scale, the softmax temperature (fixed, not
    learned), is a field: the gradient check lowers it."""

    embed_dim = 32
    text_layers = 2
    image_layers = 2
    heads = 2
    vocab_size = 64
    max_text_len = 16
    image_shape = (3, IMAGE_SIZE, IMAGE_SIZE)
    patch_size = 8
    proj_dim = 32
    num_patches = (IMAGE_SIZE // patch_size) ** 2
    patch_dim = 3 * patch_size * patch_size
    logit_scale: float = 100.0

    def __post_init__(self):
        if self.logit_scale <= 0:
            raise ValueError("logit_scale must be positive")


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


def init_weights(config, seed):
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


@functools.lru_cache(maxsize=None)
def causal_mask(t):
    """(t, t) additive attention mask, -1e9 above the diagonal, so row i
    attends to rows 0..i.  One read-only array per length."""
    mask = np.triu(np.full((t, t), -1e9), k=1)
    mask.flags.writeable = False
    return mask


# one block's weights: layer norm, attention, layer norm, MLP
_BLOCK = (("ln1.gain", "ln1.bias"),
          ("attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo", "attn.bo"),
          ("ln2.gain", "ln2.bias"), ("mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"))


def _transformer(weights, prefix, x, n_layers, heads, causal, taped):
    """Pre-LN blocks and a final layer norm over the rows of the Tensor x.

    Taped, the sublayers are recorded ops.  Untaped, the same arithmetic
    runs in the pass's kept buffers (autodiff.pass_scratch): the residual
    stream is the slot "x", the first residual sum written there and the
    rest added in place, and the result is a kept buffer that the next
    pass overwrites."""
    mask = causal_mask(x.data.shape[-2]) if causal else None
    blocks = [[[weights[f"{prefix}.{i}.{name}"] for name in names] for names in _BLOCK]
              for i in range(n_layers)]
    final = [weights[f"{prefix}.final_ln.{name}"] for name in ("gain", "bias")]
    if taped:
        for ln1, attn, ln2, mlp in blocks:
            x = ad.add(x, ad.attention(ad.layer_norm(x, *ln1), *attn, heads, mask))
            x = ad.add(x, ad.mlp(ad.layer_norm(x, *ln2), *mlp))
        return ad.layer_norm(x, *final)
    x = x.data
    buf = ad.pass_scratch(x.shape, heads, blocks[0][3][0].data.shape[-1])
    for ln1, attn, ln2, mlp in blocks:
        h = ad.layer_norm_forward(x, *ln1, buf)[0]
        x = np.add(x, ad.attention_forward(h, *attn, heads, mask, buf)[0], out=buf["x"])
        x += ad.mlp_forward(ad.layer_norm_forward(x, *ln2, buf)[0], *mlp, buf)[0]
    return Tensor(ad.layer_norm_forward(x, *final, buf)[0])


# the weights each encoder reads, in file order; token_embedding is in neither
ENCODER_WEIGHTS = {encoder: tuple(n for n in weight_shapes(ModelConfig()) if n.startswith(prefix))
                   for encoder, prefix in (("text", "text"), ("image", ("image", "patch_")))}


def _taped(weights, encoder, *tensors):
    """Whether an encoder pass over these Tensors records on a tape: one is
    active and one of them or of the weights the encoder reads requires
    gradients."""
    return ad.recording(*tensors) or ad.recording(*(weights[n] for n in ENCODER_WEIGHTS[encoder]))


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
    x = _transformer(weights, "text", ad.add(seqs, pos), config.text_layers, config.heads,
                     causal=True, taped=_taped(weights, "text", seqs))
    return _project(weights, "text_proj", ad.gather_rows(x, [t - 1]))


def encode_text(weights, config, seq):
    """Encode one embedded token sequence (T x D) to a 1 x proj_dim unit
    row; kept because perfbench/tracing.py spans it by name, until ROADMAP item 10."""
    return encode_texts(weights, config, ad.reshape(seq, (1,) + seq.data.shape))


def patchify(images, out=None):
    """(..., C, H, W) array -> (..., P, C*ps*ps) patch matrices, row-major
    patches of side ps = ModelConfig.patch_size, written into out
    (C-contiguous) if given, else into a new array."""
    *batch, c, h, w = images.shape
    ps = ModelConfig.patch_size
    x = images.reshape(*batch, c, h // ps, ps, w // ps, ps)
    x = np.moveaxis(x, (-5, -3, -1), (-3, -2, -1))
    if out is None:
        out = np.empty((*batch, (h // ps) * (w // ps), c * ps * ps))
    out.reshape(x.shape)[...] = x
    return out


# Images per transformer pass, on a tape and off it.  Taped blocks keep
# each activation small (8 images' MLP hidden is 128 KB), which pays in
# image-tuning episodes, not pretraining: medians of 8 processes a side,
# malloc pinned as perfbench pins it, read 20.3 ms at 8 and 22.2 at 32
# for an image_encoder episode and 16.9 and 16.4 for a 16-pair step.  An
# untaped pass takes every block-sized array from the kept scratch, so
# it maps no fresh pages, and fewer, larger passes cost less Python per
# image: a default episode's 64-view encode took 2.68-2.97 ms at 32
# images a pass, 2.97-3.09 at 16 and 3.20-3.34 at 8 (tools/stages.py, 2
# runs each).
ENCODE_BLOCK = 8
UNTAPED_BLOCK = 32


def _encode_block(weights, config, images, taped):
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.shape[1:] != config.image_shape:
        raise ValueError(f"image shape {imgs.shape[1:]} != config {config.image_shape}")
    if not (np.isfinite(imgs.min()) and np.isfinite(imgs.max())):  # both carry NaN, inf
        raise ValueError("image has non-finite pixels")
    proj, bias, pos = weights["patch_proj"], weights["patch_bias"], weights["image_pos"]
    shape = (len(imgs), config.num_patches, config.patch_dim)
    if taped:
        x = ad.add(ad.add(ad.matmul(Tensor(patchify(imgs)), proj), bias), pos)
    else:  # the same sums, in the kept patch matrix and residual stream
        x = np.matmul(patchify(imgs, ad.scratch("patches", shape)), proj.data,
                      out=ad.scratch("x", shape[:-1] + proj.data.shape[-1:]))
        x += bias.data
        x += pos.data
        x = Tensor(x)
    x = _transformer(weights, "image", x, config.image_layers, config.heads,
                     causal=False, taped=taped)
    return _project(weights, "image_proj", ad.mean_rows(x))


def encode_images(weights, config, images):
    """Encode N (C, H, W) images, a list or one float64 (N, C, H, W)
    array, to an N x proj_dim Tensor of unit rows; mean-pooled patches.

    One transformer pass per ENCODE_BLOCK images on a tape, per
    UNTAPED_BLOCK off it; a block of an array is a slice of it, not a
    copy, as view batches are.  Each row rounds as a one-image encode
    does, and on a tape a shared weight still gets its gradient in
    reverse image order, so the blocks change no bit."""
    if len(images) == 0:
        raise ValueError("no images to encode")
    taped = _taped(weights, "image")
    block = ENCODE_BLOCK if taped else UNTAPED_BLOCK
    blocks = [_encode_block(weights, config, images[i:i + block], taped)
              for i in range(0, len(images), block)]
    return blocks[0] if len(blocks) == 1 else ad.concat_rows(blocks)


def encode_image(weights, config, image):
    """Encode one (C, H, W) image to a 1 x proj_dim unit row; kept
    because perfbench/tracing.py spans it by name, until ROADMAP item 10."""
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

    Returns (loss, probs); probs is the row softmax, off the tape."""
    logp = ad.log_softmax_rows(logits)
    picked = ad.sum_all(ad.mul(logp, targets))
    loss = ad.scale(picked, -1.0 / logits.data.shape[0])
    return loss, Tensor(np.exp(logp.data))


def rescale_text_embeddings(weights, factor):
    """Scale token and positional text embeddings by `factor` in place.

    The text transformer is pre-LN, so layer norms make its behaviour
    nearly invariant to a global rescaling of its input rows, but not
    exactly: undoing the rescale on the acceptance suite's model changes
    11 of 512 zero-shot predictions on held-out noise:0.5 images (data
    seed 300, shift seed 0).  What changes most is the *relative*
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


# The pretraining recipe.  `tpt pretrain` and the acceptance suite's
# cached model are trained with exactly these settings, on the images of
# DatasetSpec() drawn with TRAIN_DATA_SEED.  The benchmark checkpoint
# used the same settings but predates the multi-positive targets, the
# fused log-softmax and one-generator views, so it is an older model than
# this code trains.
PRETRAIN = dict(epochs=80, lr=0.001, batch=16, seed=0, weight_decay=0.1,
                embed_rescale=0.1)
PRETRAIN_POLICY = dict(scale_range=(0.8, 1.0), noise_patch_prob=0.3)
TRAIN_DATA_SEED = 100


def caption_targets(captions):
    """Contrastive target rows for a batch of caption token-id lists.

    Row i spreads its mass evenly over every caption in the batch that is
    identical to caption i (i itself included): 24 captions cover the
    training set, so a batch often repeats one, and a repeat is a correct
    match, not a negative (multi-positive InfoNCE, as in supervised
    contrastive learning and UniCL).  The mask is symmetric, so the same
    rows serve both directions.  Distinct captions give the identity."""
    caps = np.asarray(captions)
    same = (caps[:, None] == caps[None]).all(axis=-1)
    return same / same.sum(axis=1, keepdims=True)


def pretrain_contrastive(weights, config, pairs, *, epochs, lr, batch, seed,
                         augment_policy, weight_decay, embed_rescale):
    """Symmetric InfoNCE over in-batch image-text similarities, with every
    identical caption in the batch a positive (see caption_targets).

    Training always augments: every drawn image is replaced by a random
    view from augment_policy, drawn from the training generator that
    also shuffles each epoch.  The captions stay valid, and the encoder
    learns the augmentation invariance that test-time view consistency
    relies on.  After training, text embeddings are rescaled by
    `embed_rescale` (see rescale_text_embeddings) to set the test-time
    step sensitivity.  The recipe is PRETRAIN with the policy
    PRETRAIN_POLICY.  An epoch takes one AdamW step per batch of
    `batch` pairs, except that a last batch of a single pair is skipped,
    as it has no negative: 17 pairs at batch 16 take one step, 18 take two.
    Trains all weights in place; returns (weights, per-epoch mean losses).
    """
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
                images = make_views([pairs[i][0] for i in idx], augment_policy, rng)
                captions = [pairs[i][1] for i in idx]
                with ad.Tape() as tape:
                    img_feats = encode_images(weights, config, images)
                    txt_feats = encode_texts(weights, config,
                                             embed_tokens(weights, config, captions))
                    sims = class_logits(txt_feats, img_feats, config.logit_scale)
                    matched = Tensor(caption_targets(captions))
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


def load_weights(path):
    """Read a weights file that names each tensor once and ends after its
    last tensor, whose names and shapes match weight_shapes(ModelConfig())
    and whose values are finite.  The file is read into memory once and
    its fields are taken from it in order; each header is checked before
    its data is parsed.  Errors name the file and tensor."""
    expected = weight_shapes(ModelConfig())
    with open(path, "rb") as f:
        buf = memoryview(f.read())
    if buf[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic, not a weights file")
    pos = len(_MAGIC)

    def take(n, what):
        """The next n bytes; past the end of the file, an error naming `what`."""
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError(f"{path}: file truncated in {what}")
        pos += n
        return buf[pos - n:pos]

    weights = {}
    (count,) = struct.unpack("<I", take(4, "the header"))
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2, f"the name of tensor #{i}"))
        name = str(take(nlen, f"the name of tensor #{i}"), "utf-8", "replace")
        what = f"tensor {name!r}"
        if name in weights:
            raise ValueError(f"{path}: {what} appears twice in the file")
        (rank,) = struct.unpack("<B", take(1, what))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, what))
        want = expected.get(name, "absent")
        if shape != want:
            raise ValueError(f"{path}: {what} is {shape} in the file "
                             f"but {want} in the model config")
        data = np.frombuffer(take(8 * int(np.prod(shape)), what), dtype="<f8")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{path}: {what} has a non-finite value")
        weights[name] = Tensor(data.reshape(shape).copy())
    if rest := len(buf) - pos:
        raise ValueError(f"{path}: {rest} bytes after the last tensor")
    for name, want in expected.items():
        if name not in weights:
            raise ValueError(f"{path}: tensor {name!r} is absent in the file "
                             f"but {want} in the model config")
    return weights
