"""Context-dependent visual reasoning on synthetic concept tasks.

A task gives positive and negative support images for a hidden concept
plus a query.  The prompt and two binary label tokens are tuned jointly
on the support images with cross-entropy (negatives -> 0, positives ->
1), then the query is classified with the tuned text features.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import model as mdl
from .autodiff import Tensor
from .optim import AdamW
from .prompt import assemble, init_gaussian

SPLITS = ("pp", "pn", "np", "nn")  # generator-defined, for report format only
PROMPT_LEN = 4  # learnable prompt rows
SIGMA = 0.02  # std of the Gaussian init of the prompt and class tokens


@dataclass
class BongardSample:
    positives: list  # images exhibiting the concept
    negatives: list  # images without it
    query: np.ndarray
    query_label: int  # 0/1, evaluation only — never read during tuning
    concept: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.positives or not self.negatives:
            raise ValueError("need at least one support image per side")


@dataclass(frozen=True)
class ReasonConfig:
    steps: int = 64
    lr: float = 0.005
    seed: int = 0


def generate_tasks(n_tasks, seed=0, spec=None, support_per_side=3):
    """Synthetic concept tasks: the hidden concept is one pattern class;
    positives and negatives differ only in that class."""
    spec = spec or dat.DatasetSpec()
    rng = np.random.default_rng(seed)
    names = spec.class_names
    tasks = []
    for t in range(n_tasks):
        pos_k, neg_k = rng.choice(len(names), size=2, replace=False)
        proto_pos = dat.class_prototype(names[pos_k], spec.contrast)
        proto_neg = dat.class_prototype(names[neg_k], spec.contrast)

        def noisy(proto):
            img = proto + rng.normal(0.0, spec.noise_sigma, size=proto.shape)
            return np.clip(img, *dat.PIXEL_RANGE)

        positives = [noisy(proto_pos) for _ in range(support_per_side)]
        negatives = [noisy(proto_neg) for _ in range(support_per_side)]
        query_label = t % 2  # balanced across tasks
        query = noisy(proto_pos if query_label == 1 else proto_neg)
        half = len(names) // 2
        split = SPLITS[(pos_k >= half) * 2 + (neg_k >= half)]
        tasks.append(BongardSample(
            positives, negatives, query, query_label,
            concept={"present": names[pos_k], "absent": names[neg_k],
                     "split": split}))
    return tasks


def tpt_reason(weights, config, sample, reason_config=None):
    """Tune {prompt, cls1, cls2} on the support set, then judge the query.

    Returns (prediction in {0, 1}, trace with per-step loss and support
    accuracy).  Class column 0 is the negative token, column 1 positive.
    """
    cfg = reason_config or ReasonConfig()
    state = init_gaussian(PROMPT_LEN, config.embed_dim, SIGMA, cfg.seed, with_cls=True)
    support = list(sample.negatives) + list(sample.positives)
    labels = np.array([0] * len(sample.negatives) + [1] * len(sample.positives))
    encoded = mdl.encode_images(weights, config, support + [sample.query]).data
    feats, query = Tensor(encoded[:-1]), Tensor(encoded[-1:])
    onehot = Tensor(np.eye(2)[labels])

    opt = AdamW(state.params(), lr=cfg.lr)
    trace = {"losses": [], "support_acc": []}
    for _ in range(cfg.steps):
        with ad.Tape() as tape:
            tfeats = mdl.encode_texts(weights, config, assemble(state, state.cls))
            loss, probs = mdl.cross_entropy(
                mdl.class_logits(tfeats, feats, config.logit_scale), onehot)
            opt.zero_grad()
            tape.backward(loss)
        trace["losses"].append(loss.item())
        trace["support_acc"].append(
            float(np.mean(np.argmax(probs.data, axis=1) == labels)))
        opt.step()

    tfeats = mdl.encode_texts(weights, config, assemble(state, state.cls))
    final = mdl.class_logits(tfeats, feats, config.logit_scale).data
    trace["support_acc"].append(float(np.mean(np.argmax(final, axis=1) == labels)))
    return int(np.argmax(mdl.class_logits(tfeats, query, config.logit_scale).data)), trace
