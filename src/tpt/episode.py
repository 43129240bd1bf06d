"""Episodic test-time prompt tuning.

One episode: augment the test image into N views, predict each view,
keep the lowest-entropy fraction rho, minimize the entropy of their
averaged distribution by updating the prompt, then classify the
original image with the tuned prompt.  All tuned state (prompt rows,
optimizer moments) is reset before the function returns.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .augment import AugmentPolicy, generate_views
from .autodiff import Tensor
from .optim import AdamW
from .prompt import assemble

PARAMETER_GROUPS = {
    "prompt": (),
    "text_encoder": ("text.", "text_pos", "text_proj"),
    "image_encoder": ("image.", "image_pos", "image_proj", "patch_"),
    "all": ("text.", "text_pos", "text_proj", "image.", "image_pos",
            "image_proj", "patch_"),
}


@dataclass
class PredictionSet:
    probs: Tensor  # N x K, tape-attached
    entropies: np.ndarray  # N self-entropies
    mask: np.ndarray = None  # N booleans, set by select_and_average
    averaged: Tensor = None  # 1 x K, stays on the tape
    threshold: float = None
    selected: np.ndarray = None  # indices, == k lowest-entropy views


@dataclass(frozen=True)
class TPTConfig:
    n_views: int = 64
    rho: float = 0.1
    steps: int = 1
    lr: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
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
    """K x proj_dim matrix of prompt-conditioned class text features."""
    rows = [mdl.encode_text(weights, config,
                            assemble(prompt_state, weights, config,
                                     class_tokens=ids))
            for ids in classes.token_ids]
    return ad.concat_rows(rows)


def predict_views(weights, config, prompt_state, classes, image_features):
    """Per-view class probabilities from the current prompt.

    image_features is an N x proj_dim Tensor; it is constant under the
    default parameter group, so it is computed once per episode and
    reused across optimization steps.
    """
    tfeats = text_features(weights, config, prompt_state, classes)
    probs = mdl.class_probabilities(tfeats, image_features, config.logit_scale)
    return PredictionSet(probs=probs, entropies=row_entropies(probs.data))


def confidence_threshold(entropies, rho):
    """(threshold, k): nearest-rank rho-percentile of the self-entropies.

    k = max(1, floor(rho * N)); ties at the threshold go to the lower
    view index so exactly k views are selected.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    n = len(entropies)
    k = max(1, int(np.floor(rho * n)))
    order = np.argsort(entropies, kind="stable")
    return float(entropies[order[k - 1]]), k


def select_and_average(pred, rho):
    """Confidence-mask the views and average the selected rows on-tape.

    The divisor is the actual selected count k, which keeps the average
    a proper distribution for every rho and N.
    """
    n = pred.probs.data.shape[0]
    threshold, k = confidence_threshold(pred.entropies, rho)
    order = np.argsort(pred.entropies, kind="stable")
    selected = np.sort(order[:k])
    mask = np.zeros(n, dtype=bool)
    mask[selected] = True
    pred.mask = mask
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

    The final prediction is the argmax on the original image under the
    tuned prompt.  The trace keeps per-step loss/threshold/mask and the
    pre/post distributions of the original view.
    """
    cfg = tpt_config
    group_prefixes = PARAMETER_GROUPS[cfg.parameter_group]
    batch = generate_views(image, cfg.n_views, cfg.policy, cfg.seed)

    # encoding rejects bad input, so it runs before any tuned state changes
    image_grads = any(p.startswith(("image", "patch")) for p in group_prefixes)
    cached_feats = None
    if not image_grads:
        cached_feats = mdl.encode_images(weights, config, batch.views)

    weight_snapshot = None
    weight_params = []
    if group_prefixes:
        weight_snapshot = {name: t.data.copy() for name, t in weights.items()
                           if any(name.startswith(p) for p in group_prefixes)}
        mdl.set_trainable(weights, True, prefixes=group_prefixes)
        weight_params = [weights[name] for name in sorted(weight_snapshot)]

    opt = AdamW(prompt_state.params() + weight_params, lr=cfg.lr,
                beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
                weight_decay=cfg.weight_decay)
    trace = {"losses": [], "thresholds": [], "k": None, "mask_indices": [],
             "pre_original": None, "post_original": None,
             "pre_views": None, "post_views": None,
             "pre_averaged": None, "post_averaged": None}
    try:
        for step in range(cfg.steps):
            with ad.Tape() as tape:
                feats = cached_feats
                if feats is None:
                    feats = mdl.encode_images(weights, config, batch.views)
                pred = predict_views(weights, config, prompt_state, classes, feats)
                select_and_average(pred, cfg.rho)
                loss = marginal_entropy_loss(pred)
                opt.zero_grad()
                tape.backward(loss)
            if step == 0:
                trace["pre_original"] = pred.probs.data[0].copy()
                trace["pre_averaged"] = pred.averaged.data[0].copy()
                trace["k"] = len(pred.selected)
                if record_views:
                    trace["pre_views"] = pred.probs.data.copy()
            trace["losses"].append(loss.item())
            trace["thresholds"].append(pred.threshold)
            trace["mask_indices"].append(pred.selected.tolist())
            opt.step()

        # inference with the tuned prompt, no tape
        feats = cached_feats
        if feats is None:
            feats = mdl.encode_images(weights, config, batch.views)
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
        if weight_snapshot is not None:
            for name, snap in weight_snapshot.items():
                weights[name].data[...] = snap
            mdl.set_trainable(weights, False, prefixes=group_prefixes)
    return prediction, final_averaged, trace
