"""Learnable prompt state in text-embedding space.

The prompt rows (and, in reasoning mode, two binary class tokens) are
the only tensors that ever carry requires_grad at test time.  Every
episode starts from the stored init snapshot and resets back to it.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class PromptState:
    """Prompt token embeddings, optional binary class tokens, and a snapshot."""

    def __init__(self, prompt_embeddings, cls_embeddings=None):
        arr = np.asarray(prompt_embeddings, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("prompt embeddings must be a non-empty L x D matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("prompt embeddings must be finite")
        self.prompt = Tensor(arr.copy(), requires_grad=True)
        self.cls = None
        if cls_embeddings is not None:
            self.cls = tuple(Tensor(np.asarray(c, dtype=np.float64).reshape(1, -1),
                                    requires_grad=True) for c in cls_embeddings)
        self._snapshot = [p.data.copy() for p in self.params()]

    @property
    def length(self):
        return self.prompt.data.shape[0]

    def params(self):
        ps = [self.prompt]
        if self.cls is not None:
            ps.extend(self.cls)
        return ps

    def reset(self):
        """Restore all learnable tensors bit-exactly to the init snapshot."""
        for p, snap in zip(self.params(), self._snapshot):
            p.data[...] = snap
            p.zero_grad()


def init_from_template(weights, config, template_token_ids):
    """Prompt rows copied from the embedding table (detached from it)."""
    ids = list(template_token_ids)
    if not ids:
        raise ValueError("template must have at least one token")
    if any(i >= config.vocab_size or i < 0 for i in ids):
        raise ValueError(f"token id out of range for vocab {config.vocab_size}")
    rows = weights["token_embedding"].data[ids].copy()
    return PromptState(rows)


def init_gaussian(length, dim, sigma, seed, with_cls=False):
    """All learnable tokens drawn from N(0, sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, sigma, size=(length, dim))
    cls = None
    if with_cls:
        cls = (rng.normal(0.0, sigma, size=(1, dim)),
               rng.normal(0.0, sigma, size=(1, dim)))
    return PromptState(rows, cls)


def assemble(prompt_state, weights, config, class_tokens=None, cls_index=None):
    """K tape-attached sequences [prompt ; class token embeddings] or
    [prompt ; cls^i].

    class_tokens is a list of K token-id lists; cls_index is a list of K
    1-based indices of the two binary label tokens.  Returns a (K, T, D)
    batch, or a list of K sequences when the class token lists differ in
    length; encode_texts takes either.
    """
    if (class_tokens is None) == (cls_index is None):
        raise ValueError("pass exactly one of class_tokens or cls_index")
    if cls_index is not None:
        if prompt_state.cls is None:
            raise ValueError("prompt state has no class tokens")
        tails = ad.concat_rows([prompt_state.cls[i - 1] for i in cls_index])
        tails = ad.reshape(tails, (len(cls_index), 1, tails.data.shape[-1]))
        longest = 1
    else:
        from .model import embed_tokens
        tails = embed_tokens(weights, config, class_tokens)
        longest = max(len(ids) for ids in class_tokens)
    if prompt_state.length + longest > config.max_text_len:
        raise ValueError(f"assembled length {prompt_state.length + longest} exceeds "
                         f"max_text_len {config.max_text_len}")
    if isinstance(tails, list):
        return [ad.concat_rows([prompt_state.prompt, t]) for t in tails]
    return ad.concat_rows([prompt_state.prompt, tails])
