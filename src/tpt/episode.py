"""Episodic test-time prompt tuning.

One episode: augment the test image into N views, predict each view,
keep the lowest-entropy fraction rho, minimize the entropy of their
averaged distribution by updating the prompt, then classify the
original image with the tuned prompt.  All tuned state (prompt rows, the
parameter group's weights, optimizer moments) is reset before the
function returns.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .augment import AugmentPolicy, generate_views
from .autodiff import Tensor
from .optim import AdamW
from .prompt import assemble

_TEXT = ("text.", "text_pos", "text_proj")
_IMAGE = ("image.", "image_pos", "image_proj", "patch_")
# weight-name prefixes tuned besides the prompt
PARAMETER_GROUPS = {"prompt": (), "text_encoder": _TEXT, "image_encoder": _IMAGE,
                    "all": _TEXT + _IMAGE}


@dataclass
class PredictionSet:
    probs: Tensor  # N x K, tape-attached
    entropies: np.ndarray  # N self-entropies
    averaged: Tensor = None  # 1 x K, stays on the tape
    threshold: float = None
    selected: np.ndarray = None  # indices, == k lowest-entropy views


@dataclass(frozen=True)
class TPTConfig:
    n_views: int = 64
    rho: float = 0.1
    steps: int = 1
    lr: float = 0.005
    seed: int = 0
    policy: AugmentPolicy = field(default_factory=AugmentPolicy)
    parameter_group: str = "prompt"

    def __post_init__(self):
        if self.n_views < 1 or self.steps < 1:
            raise ValueError("n_views and steps must be >= 1")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must be in (0, 1]")
        if self.parameter_group not in PARAMETER_GROUPS:
            raise ValueError(f"unknown parameter group {self.parameter_group!r}")


def entropy(p):
    """Self-entropy -sum p_i ln max(p_i, 1e-12) of a distribution."""
    p = p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64)
    p = p.reshape(-1)
    if abs(p.sum() - 1.0) > 1e-8 or np.any(p < 0):
        raise ValueError("input is not a probability distribution")
    return float(-(p * np.log(np.maximum(p, 1e-12))).sum())


def row_entropies(probs):
    p = np.maximum(probs, 1e-12)
    return -(probs * np.log(p)).sum(axis=1)


def text_features(weights, config, prompt_state, classes):
    """K x proj_dim matrix of prompt-conditioned class text features;
    classes is K token-id lists of one length."""
    return mdl.encode_texts(weights, config, assemble(
        prompt_state, mdl.embed_tokens(weights, config, classes)))


def view_features(weights, config, views, index):
    """N x proj_dim features of the N views, row i that of views[index[i]].

    Each distinct view is encoded once.  On a tape, the gradient rows of
    a view's copies sum in the gather before the encoder's backward pass.
    """
    return ad.gather_rows(mdl.encode_images(weights, config, views), index)


def predict_views(weights, config, prompt_state, classes, image_features):
    """Per-view class probabilities from the current prompt; image_features
    is an N x proj_dim Tensor."""
    tfeats = text_features(weights, config, prompt_state, classes)
    probs = mdl.class_probabilities(tfeats, image_features, config.logit_scale)
    return PredictionSet(probs=probs, entropies=row_entropies(probs.data))


def _confidence_order(entropies, rho):
    """(threshold, k, order): the stable ascending entropy order and the
    entropy of its k-th view, k = max(1, floor(rho * N))."""
    entropies = np.asarray(entropies, dtype=np.float64)
    k = max(1, int(np.floor(rho * len(entropies))))
    order = np.argsort(entropies, kind="stable")
    return float(entropies[order[k - 1]]), k, order


def confidence_threshold(entropies, rho):
    """(threshold, k): nearest-rank rho-percentile of the self-entropies.

    k = max(1, floor(rho * N)); ties at the threshold go to the lower
    view index so exactly k views are selected.
    """
    threshold, k, _ = _confidence_order(entropies, rho)
    return threshold, k


def select_and_average(pred, rho):
    """Confidence-mask the views and average the selected rows on-tape.

    The divisor is the actual selected count k, which keeps the average
    a proper distribution for every rho and N.
    """
    threshold, k, order = _confidence_order(pred.entropies, rho)
    selected = np.sort(order[:k])
    pred.threshold = threshold
    pred.selected = selected
    pred.averaged = ad.mean_rows(ad.gather_rows(pred.probs, selected))
    return pred


def marginal_entropy_loss(pred):
    """Differentiable entropy of the averaged prediction distribution."""
    if pred.averaged is None:
        raise ValueError("run select_and_average first")
    return ad.neg(ad.sum_all(ad.mul(pred.averaged, ad.log(pred.averaged))))


def tpt_classify(weights, config, prompt_state, classes, image, tpt_config,
                 record_views=False):
    """One full episode; returns (predicted class, final averaged dist, trace).

    The prompt and the parameter group's weights are tuned.  The view
    features are computed once, before any tuned state changes (encoding
    rejects bad input), unless the group holds image weights; then on
    each step's tape and for the final prediction.  The final prediction
    is the argmax on the original image under the tuned state.  The trace
    keeps per-step loss/threshold/mask, the pre/post distributions of the
    original view, and the number of distinct images among the N views
    and among the k views the first step selected.
    """
    cfg = tpt_config
    prefixes = PARAMETER_GROUPS[cfg.parameter_group]
    image_tuned = any(p in _IMAGE for p in prefixes)
    views, index = generate_views(image, cfg.n_views, cfg.policy, cfg.seed)
    feats = None if image_tuned else view_features(weights, config, views, index)

    tuned = [weights[name] for name in sorted(weights) if name.startswith(prefixes)]
    snapshot = [t.data.copy() for t in tuned]
    mdl.set_trainable(tuned, True)
    opt = AdamW(prompt_state.params() + tuned, lr=cfg.lr)
    trace = {"losses": [], "thresholds": [], "k": None, "mask_indices": [],
             "pre_original": None, "post_original": None,
             "pre_views": None, "post_views": None,
             "pre_averaged": None, "post_averaged": None,
             "distinct_views": len(views), "distinct_selected": None}
    try:
        for step in range(cfg.steps):
            with ad.Tape() as tape:
                if image_tuned:
                    feats = view_features(weights, config, views, index)
                pred = predict_views(weights, config, prompt_state, classes, feats)
                select_and_average(pred, cfg.rho)
                loss = marginal_entropy_loss(pred)
                opt.zero_grad()
                tape.backward(loss)
            if step == 0:
                trace["pre_original"] = pred.probs.data[0].copy()
                trace["pre_averaged"] = pred.averaged.data[0].copy()
                trace["k"] = len(pred.selected)
                trace["distinct_selected"] = len(np.unique(index[pred.selected]))
                if record_views:
                    trace["pre_views"] = pred.probs.data.copy()
            trace["losses"].append(loss.item())
            trace["thresholds"].append(pred.threshold)
            trace["mask_indices"].append(pred.selected.tolist())
            opt.step()

        # inference with the tuned state, no tape
        if image_tuned:
            feats = view_features(weights, config, views, index)
        final = predict_views(weights, config, prompt_state, classes, feats)
        select_and_average(final, cfg.rho)
        trace["post_original"] = final.probs.data[0].copy()
        trace["post_averaged"] = final.averaged.data[0].copy()
        if record_views:
            trace["post_views"] = final.probs.data.copy()
        prediction = int(np.argmax(final.probs.data[0]))
        final_averaged = final.averaged.data[0].copy()
    finally:
        prompt_state.reset()
        for t, snap in zip(tuned, snapshot):
            t.data[...] = snap
        mdl.set_trainable(tuned, False)
    return prediction, final_averaged, trace
