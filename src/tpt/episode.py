"""Episodic test-time prompt tuning.

One episode: augment the test image into N views and encode them
(encode_views), then keep the lowest-entropy fraction rho of the views'
predictions, minimize the entropy of their averaged distribution by
updating the prompt, and classify the original image with it
(tune_on_views), leaving no tuned state behind.  Every sample starts
from the same prompt and classes, so the first step's text pass, the
zero-shot classifier, is kept across episodes (start_text_features).
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .augment import AugmentPolicy, generate_views, split_seed
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

    def for_sample(self, sample_id):
        """The sample's episode: the seed split by its id, not its order."""
        return replace(self, seed=split_seed(self.seed, int(sample_id)))

    @property
    def image_tuned(self):  # whether the group holds image weights
        return any(p in _IMAGE for p in PARAMETER_GROUPS[self.parameter_group])


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
    """N x proj_dim features of the N views, row i that of views[index[i]]:
    each distinct view is encoded once, and on a tape the gradient rows of
    a view's copies sum in the gather before the encoder's backward pass."""
    return ad.gather_rows(mdl.encode_images(weights, config, views), index)


_TEXT_READ = ("token_embedding",) + _TEXT  # the weights encode_texts reads

# The one kept start pass: (key, tape, leaf, features), text_features
# recorded on a tape of its own from `leaf`, a copy of the start prompt.
_start = None


def start_text_features(weights, config, prompt_state, classes):
    """text_features of an episode's start state as one op on the innermost
    active tape, from the kept start pass.

    The pass's key is what it reads: the prompt's values, the class ids,
    and each text weight's Tensor, values and requires_grad flag; another
    key records and keeps the pass afresh.  The op's output is a copy of
    the kept features; its backward walks the kept tape from the copy's
    gradient and adds the leaf's into the prompt's, which the episode has
    zeroed: the sums a fresh pass would make."""
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


def encode_views(weights, config, image, tpt_config):
    """The image's half of an episode: (views, index, features, stage_ms).

    The views are made into the kept scratch (autodiff.scratch), which the
    next episode's views overwrite; view i is views[index[i]], numbered in the
    order first drawn.  features, their N x proj_dim view_features, are
    encoded untaped (None if the group holds image weights).  stage_ms
    times making ("views") and encoding ("encode") them, in ms."""
    cfg = tpt_config
    start = time.perf_counter()
    views, index = generate_views(image, cfg.n_views, cfg.policy, cfg.seed,
                                  ad.scratch("views", (cfg.n_views,) + np.shape(image)))
    made = time.perf_counter()
    features = None if cfg.image_tuned else view_features(weights, config, views, index)
    return views, index, features, {"views": (made - start) * 1e3,
                                    "encode": (time.perf_counter() - made) * 1e3}


def tune_on_views(weights, config, prompt_state, classes, views, index, features,
                  stage_ms, tpt_config, record_views=False):
    """The rest of an episode, from encode_views' output: (predicted class,
    final averaged dist, trace).  Of tpt_config it reads rho, steps, lr and
    parameter_group.

    The prompt and the group's weights are tuned, then restored bit-exactly
    on return or exception with a zero gradient and the group frozen.  A
    group that holds image weights encodes the views on each step's tape
    and for the final prediction, the others read features; the first
    step takes the kept start pass.  The prediction is the argmax on the
    original image under the tuned state.

    The trace's keys, in order: losses, k (views selected), thresholds
    (k-th lowest view entropy) and mask_indices, the lists one entry per
    step; distinct_views and distinct_selected (distinct images among the
    N views and the first step's k); pre_original, post_original,
    pre_averaged and post_averaged (the original view's and the selected
    views' averaged distribution, before and after tuning); with
    record_views, the N x K pre_views and post_views; and last stage_ms,
    stage_ms's entries and the ms of the steps ("tune") and the final
    prediction ("predict")."""
    cfg = tpt_config
    prefixes = PARAMETER_GROUPS[cfg.parameter_group]
    tuned = [weights[name] for name in sorted(weights) if name.startswith(prefixes)]
    params = prompt_state.params() + tuned
    snapshot = [p.data.copy() for p in params]
    try:
        clock = [time.perf_counter()]

        def predict(start=False):
            f = view_features(weights, config, views, index) if cfg.image_tuned else features
            tfeats = (start_text_features if start else text_features)(
                weights, config, prompt_state, classes)
            probs = mdl.class_probabilities(tfeats, f, config.logit_scale)
            return (probs, *select_and_average(probs, cfg.rho))

        mdl.set_trainable(tuned, True)
        opt = AdamW(params, lr=cfg.lr)
        losses, thresholds, masks = [], [], []
        for step in range(cfg.steps):
            with ad.Tape() as tape:
                probs, averaged, selected, threshold = predict(start=step == 0)
                loss = marginal_entropy_loss(averaged)
                opt.zero_grad()
                tape.backward(loss)
            if step == 0:
                pre = probs.data.copy() if record_views else probs.data[:1].copy()
                pre_averaged = averaged.data[0].copy()
            losses.append(loss.item())
            thresholds.append(threshold)
            masks.append(selected.tolist())
            opt.step()
        clock.append(time.perf_counter())

        probs, averaged, _, _ = predict()  # inference with the tuned state, no tape
        clock.append(time.perf_counter())
        trace = {"losses": losses, "k": len(masks[0]), "thresholds": thresholds,
                 "mask_indices": masks, "distinct_views": int(index.max()) + 1,
                 "distinct_selected": len(np.unique(index[masks[0]])),
                 "pre_original": pre[0].copy(), "post_original": probs.data[0].copy(),
                 "pre_averaged": pre_averaged, "post_averaged": averaged.data[0].copy()}
        if record_views:
            trace.update(pre_views=pre, post_views=probs.data.copy())
        trace["stage_ms"] = {**stage_ms, **{stage: (end - start) * 1e3 for stage, start, end
                                            in zip(("tune", "predict"), clock, clock[1:])}}
        return int(np.argmax(probs.data[0])), averaged.data[0].copy(), trace
    finally:
        for p, snap in zip(params, snapshot):
            p.data[...] = snap
            p.zero_grad()
        mdl.set_trainable(tuned, False)


def tpt_classify(weights, config, prompt_state, classes, image, tpt_config,
                 record_views=False):
    """One full episode: tune_on_views of encode_views."""
    return tune_on_views(weights, config, prompt_state, classes, *encode_views(
        weights, config, image, tpt_config), tpt_config, record_views)
