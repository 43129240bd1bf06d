"""Episodic test-time prompt tuning.

One episode: augment the test image into N views, predict each view,
keep the lowest-entropy fraction rho, minimize the entropy of their
averaged distribution by updating the prompt, then classify the
original image with the tuned prompt.  The episode restores the state
it tunes (prompt rows, the parameter group's weights) before returning
and builds a fresh optimizer, so it leaves no tuned state behind.

Every sample starts from the same prompt and classes, so the first
step's text pass, the zero-shot classifier, is kept across episodes
(start_text_features): one entry, recorded again whenever what it read
changes.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .augment import AugmentPolicy, generate_views
from .autodiff import Tensor
from .optim import AdamW
from .prompt import PromptState, assemble

_TEXT = ("text.", "text_pos", "text_proj")
_IMAGE = ("image.", "image_pos", "image_proj", "patch_")
# weight-name prefixes tuned besides the prompt
PARAMETER_GROUPS = {"prompt": (), "text_encoder": _TEXT, "image_encoder": _IMAGE,
                    "all": _TEXT + _IMAGE}


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
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.parameter_group not in PARAMETER_GROUPS:
            raise ValueError(f"unknown parameter group {self.parameter_group!r}")


def entropy(p):
    """Self-entropy -sum p_i ln max(p_i, 1e-12) of a distribution."""
    p = p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64)
    p = p.reshape(-1)
    if not np.all(np.isfinite(p)) or abs(p.sum() - 1.0) > 1e-8 or np.any(p < 0):
        raise ValueError("input is not a probability distribution")
    return float(row_entropies(p[None])[0])


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


_TEXT_READ = ("token_embedding",) + _TEXT  # the weights encode_texts reads

# The one kept start pass: (key, tape, leaf, features), text_features
# recorded on a tape of its own from `leaf`, a copy of the start prompt.
_start = None


def start_text_features(weights, config, prompt_state, classes):
    """text_features of an episode's start state as one op, recorded on
    the innermost active tape, from the kept start pass.

    The pass's key is what it reads: the prompt's values, the class ids,
    and each text weight's Tensor, values and requires_grad flag.  A
    differing key records the pass afresh and keeps it instead; the entry
    holds its activations and the key's copy of the text weights.  The
    record's output is a copy of the kept features.  Its backward walks
    the kept tape from the copy's gradient and adds the leaf's gradient
    into the prompt's, which the episode has zeroed: the sums a fresh
    pass would make."""
    global _start
    prompt = prompt_state.prompt
    text = [weights[n] for n in sorted(weights) if n.startswith(_TEXT_READ)]
    key = (prompt.data.tobytes(),
           [np.asarray(ids, dtype=np.intp).tobytes() for ids in classes],
           [(t, t.requires_grad, t.data.tobytes()) for t in text])
    if _start is None or _start[0] != key:
        leaf = PromptState(prompt.data)
        with ad.Tape() as kept:
            features = text_features(weights, config, leaf, classes)
        _start = (key, kept, leaf.prompt, features)
    _, kept, leaf, features = _start
    out = Tensor(features.data.copy())

    def bw():
        leaf.zero_grad()
        kept.walk(features, out.grad)
        prompt.grad += leaf.grad

    return ad._record(out, (prompt,), bw)


def predict_views(weights, config, prompt_state, classes, image_features):
    """N x K per-view class probabilities (a Tensor, on the tape) from the
    current prompt; image_features is an N x proj_dim Tensor."""
    tfeats = text_features(weights, config, prompt_state, classes)
    return mdl.class_probabilities(tfeats, image_features, config.logit_scale)


def select_and_average(probs, rho):
    """(averaged, selected, threshold) of N x K view probabilities.

    selected holds, ascending, the k = max(1, floor(rho * N)) lowest-
    entropy views, ties to the lower index so exactly k; threshold is the
    entropy of the k-th.  averaged is the mean of their rows, 1 x K on
    the tape; its divisor k keeps it a distribution for every rho and N.
    """
    entropies = row_entropies(probs.data)
    k = max(1, int(np.floor(rho * len(entropies))))
    order = np.argsort(entropies, kind="stable")
    selected = np.sort(order[:k])
    threshold = float(entropies[order[k - 1]])
    return ad.mean_rows(ad.gather_rows(probs, selected)), selected, threshold


def marginal_entropy_loss(averaged):
    """Differentiable entropy of the 1 x K averaged distribution."""
    return ad.scale(ad.sum_all(ad.mul(averaged, ad.log(averaged))), -1.0)


def tpt_classify(weights, config, prompt_state, classes, image, tpt_config,
                 record_views=False):
    """One full episode; returns (predicted class, final averaged dist, trace).

    The prompt and the parameter group's weights are tuned.  Each is
    snapshotted on entry and, on return or exception, restored bit-exactly
    with a zero gradient and the group frozen, so an episode may start
    from any prompt.  The view features are computed once, before any
    tuned state changes (encoding rejects bad input), unless the group
    holds image weights; then on each step's tape and for the final
    prediction.  The first step's text pass is the kept start pass
    (start_text_features), with the same values and gradients as a fresh
    one.  The views are made into the kept scratch (autodiff.scratch),
    which only the episode reads.  The final prediction is the argmax on
    the original image under the tuned state.  The trace keeps per-step
    loss/threshold/mask, the pre/post distributions of the original view, the number of
    distinct images among the N views and among the k views the first
    step selected, and stage_ms: the wall-clock milliseconds
    (time.perf_counter) of making the views, encoding them before any
    step (nothing when the group holds image weights, whose steps encode
    on their tape), the tuning steps, and the final prediction.
    """
    cfg = tpt_config
    prefixes = PARAMETER_GROUPS[cfg.parameter_group]
    image_tuned = any(p in _IMAGE for p in prefixes)
    tuned = [weights[name] for name in sorted(weights) if name.startswith(prefixes)]
    params = prompt_state.params() + tuned
    snapshot = [p.data.copy() for p in params]
    try:
        clock = [time.perf_counter()]
        views, index = generate_views(image, cfg.n_views, cfg.policy, cfg.seed,
                                      ad.scratch("views", (cfg.n_views,) + np.shape(image)))
        clock.append(time.perf_counter())
        feats = None if image_tuned else view_features(weights, config, views, index)
        clock.append(time.perf_counter())
        trace = {"losses": [], "thresholds": [], "k": None, "mask_indices": [],
                 "pre_original": None, "post_original": None,
                 "pre_views": None, "post_views": None,
                 "pre_averaged": None, "post_averaged": None,
                 "distinct_views": len(views), "distinct_selected": None}

        def predict(start=False):
            f = view_features(weights, config, views, index) if image_tuned else feats
            tfeats = (start_text_features if start else text_features)(
                weights, config, prompt_state, classes)
            probs = mdl.class_probabilities(tfeats, f, config.logit_scale)
            return (probs, *select_and_average(probs, cfg.rho))

        def record(when, probs, averaged):
            trace[f"{when}_original"] = probs.data[0].copy()
            trace[f"{when}_averaged"] = averaged.data[0].copy()
            if record_views:
                trace[f"{when}_views"] = probs.data.copy()

        mdl.set_trainable(tuned, True)
        opt = AdamW(params, lr=cfg.lr)
        for step in range(cfg.steps):
            with ad.Tape() as tape:
                probs, averaged, selected, threshold = predict(start=step == 0)
                loss = marginal_entropy_loss(averaged)
                opt.zero_grad()
                tape.backward(loss)
            if step == 0:
                record("pre", probs, averaged)
                trace["k"] = len(selected)
                trace["distinct_selected"] = len(np.unique(index[selected]))
            trace["losses"].append(loss.item())
            trace["thresholds"].append(threshold)
            trace["mask_indices"].append(selected.tolist())
            opt.step()
        clock.append(time.perf_counter())

        probs, averaged, _, _ = predict()  # inference with the tuned state, no tape
        record("post", probs, averaged)
        clock.append(time.perf_counter())
        trace["stage_ms"] = {stage: (end - start) * 1e3 for stage, start, end in zip(
            ("views", "encode", "tune", "predict"), clock, clock[1:])}
        return int(np.argmax(probs.data[0])), averaged.data[0].copy(), trace
    finally:
        for p, snap in zip(params, snapshot):
            p.data[...] = snap
            p.zero_grad()
        mdl.set_trainable(tuned, False)
