"""Learnable prompt state in text-embedding space.

The prompt rows (and, in reasoning mode, two binary class tokens) are
the tensors tuned at test time.  A PromptState keeps no copy of its
start: an episode (episode.tpt_classify) restores what it tunes, and a
supervised fit (bongard.fit_prompt) leaves its result in place.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import embed_tokens


class PromptState:
    """Prompt token embeddings and optional (2, 1, D) binary class tokens."""

    def __init__(self, prompt_embeddings, cls_embeddings=None):
        arr = np.asarray(prompt_embeddings, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("prompt embeddings must be a non-empty L x D matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("prompt embeddings must be finite")
        self.prompt = Tensor(arr.copy(), requires_grad=True)
        self.cls = None
        if cls_embeddings is not None:
            self.cls = Tensor(np.array(cls_embeddings, dtype=np.float64),
                              requires_grad=True)

    def params(self):
        return [self.prompt] if self.cls is None else [self.prompt, self.cls]


def init_from_template(weights, config, template_token_ids):
    """Prompt rows copied from the embedding table (detached from it)."""
    ids = list(template_token_ids)
    if not ids:
        raise ValueError("template must have at least one token")
    return PromptState(embed_tokens(weights, config, ids).data)


def init_gaussian(length, dim, sigma, seed):
    """`length` prompt rows and the two binary class tokens, all N(0, sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, sigma, size=(length, dim))
    return PromptState(rows, rng.normal(0.0, sigma, size=(2, 1, dim)))


def assemble(prompt_state, tails):
    """K tape-attached sequences [prompt ; tail_k] from a (K, L, D)
    batch of tails: class-name token embeddings or the binary class
    tokens."""
    return ad.concat_rows([prompt_state.prompt, tails])
