"""Evaluation and orchestration: zero-shot, test-time tuning, baselines,
CoOp few-shot prompt training, ablation sweeps, gradient checks, and results
files (CSV rows under a reproducibility header)."""

import csv
import itertools
from dataclasses import replace

import numpy as np

from . import __version__
from . import autodiff as ad
from . import data as dat
from . import episode as ep
from . import model as mdl
from .autodiff import Tensor
from .bongard import fit_prompt
from .prompt import PromptState, init_from_template

VERSION = f"tpt-{__version__}"
COOP_SHOTS = 16  # labelled images per class, drawn from the pretraining images
COOP_EPOCHS = 50
COOP_LR = 0.01


def class_set(dataset):
    """The K class-name token-id lists that an episode tunes against; kept
    because perfbench/workloads.py calls it by name, until ROADMAP item 10."""
    return dataset.class_token_ids


def _template_text_features(weights, config, template_ids, classes):
    """Class text features under the untuned template prompt."""
    state = init_from_template(weights, config, template_ids)
    return ep.text_features(weights, config, state, classes)


def _classify_images(weights, config, tfeats, dataset):
    feats = mdl.encode_images(weights, config, dataset.images)
    preds = np.argmax(mdl.class_probabilities(tfeats, feats, config.logit_scale).data,
                      axis=1)
    return float(np.mean(preds == dataset.labels)), preds


def evaluate_zero_shot(weights, config, template_ids, classes, dataset):
    """Argmax over scaled cosine similarities, no tuning.

    Returns (accuracy, per-sample predictions)."""
    tfeats = _template_text_features(weights, config, template_ids, classes)
    return _classify_images(weights, config, tfeats, dataset)


def evaluate_tpt(weights, config, template_ids, classes, dataset, tpt_config):
    """Per-sample episodic tuning from one template prompt, which each
    episode restores, its seed split by the sample's id (for_sample).

    Returns (accuracy, predictions, traces); a trace is the sample's id,
    label and prediction, then its episode's record less the wall-clock
    stage_ms, arrays as lists (the lines of `tpt eval`'s X.traces.jsonl)."""
    state = init_from_template(weights, config, template_ids)
    preds, traces = [], []
    for image, sample_id, label in zip(dataset.images, dataset.ids, dataset.labels):
        pred, _, trace = ep.tpt_classify(weights, config, state, classes, image,
                                         tpt_config.for_sample(sample_id))
        preds.append(pred)
        traces.append({"sample_id": int(sample_id), "label": int(label), "prediction": pred,
                       **{k: v.tolist() if isinstance(v, np.ndarray) else v
                          for k, v in trace.items() if k != "stage_ms"}})
    preds = np.array(preds)
    return float(np.mean(preds == dataset.labels)), preds, traces


def fewshot_train_prompt(weights, config, classes, images, labels):
    """CoOp: cross-entropy tuning of the default template prompt on labeled
    shots, COOP_EPOCHS full-batch AdamW steps at COOP_LR.

    Returns the tuned PromptState.  An episode can start from it as it
    is: tpt_classify restores whatever it tunes."""
    state = init_from_template(weights, config, dat.template_ids())
    fit_prompt(weights, config, state, mdl.embed_tokens(weights, config, classes),
               mdl.encode_images(weights, config, images), np.asarray(labels),
               COOP_EPOCHS, COOP_LR)
    return state


def evaluate_coop(weights, config, classes, dataset, seed):
    """CoOp: a prompt trained on COOP_SHOTS labelled pretraining images per
    class (drawn by `seed`), then frozen and used for zero-shot scoring.

    Returns (accuracy, per-sample predictions)."""
    train = dat.generate(dat.DatasetSpec(), seed=mdl.TRAIN_DATA_SEED)
    rng = np.random.default_rng(seed)
    idx = [rng.choice(np.flatnonzero(train.labels == k), COOP_SHOTS, replace=False)
           for k in range(len(classes))]
    shots = train.subset(np.sort(np.concatenate(idx)))
    state = fewshot_train_prompt(weights, config, classes, shots.images, shots.labels)
    tfeats = ep.text_features(weights, config, state, classes)
    return _classify_images(weights, config, tfeats, dataset)


def prompt_ensemble(weights, config, classes, dataset):
    """Per-class feature = normalized mean of its CAPTION_TEMPLATES text features."""
    per_template = [_template_text_features(weights, config, dat.tokenize(t), classes).data
                    for t in dat.CAPTION_TEMPLATES]
    tfeats = ad.l2_normalize_rows(Tensor(np.mean(per_template, axis=0)))
    return _classify_images(weights, config, tfeats, dataset)


def _pool_views(weights, config, template_ids, classes, dataset, tpt_config,
                *pools):
    """Untuned per-view probabilities of the view batch that a prompt-group
    episode of tpt_config sees, reduced to one class by each pool(N x K
    probabilities): one prediction array per pool, from one encode_views."""
    tfeats = _template_text_features(weights, config, template_ids, classes)
    preds = np.empty((len(pools), len(dataset)), dtype=np.int64)
    for i, (image, sample_id) in enumerate(zip(dataset.images, dataset.ids)):
        feats = ep.encode_views(weights, config, image, tpt_config.for_sample(sample_id))[2]
        probs = mdl.class_probabilities(tfeats, feats, config.logit_scale).data
        preds[:, i] = [pool(probs) for pool in pools]
    return list(preds)


def averaged_prediction(probs):
    """Argmax of the mean probability over the views."""
    return np.argmax(probs.mean(axis=0))


def majority_vote(probs):
    """Majority vote over per-view argmaxes, ties to the lowest class id
    (argmax takes the first maximum)."""
    return np.argmax(np.bincount(np.argmax(probs, axis=1), minlength=probs.shape[1]))


def ablate(weights, config, template_ids, classes, dataset, base_config,
           grid, seeds, shift_label):
    """Grid sweep over {rho, n_views, steps, parameter_group}.

    grid maps field name to a list of values; returns ResultsTable rows
    (method, shift, accuracy, n, seed)."""
    fields = sorted(grid)
    rows = []
    for values in itertools.product(*(grid[f] for f in fields)):
        combo = dict(zip(fields, values))
        for seed in seeds:
            cfg = replace(base_config, seed=seed, **combo)
            acc, _, _ = evaluate_tpt(weights, config, template_ids, classes,
                                     dataset, cfg)
            method = "tpt" if not combo else "tpt[" + ",".join(
                f"{k}={v}" for k, v in sorted(combo.items())) + "]"
            rows.append({"method": method, "shift": shift_label,
                         "accuracy": acc, "n": len(dataset), "seed": seed})
    return rows


# ---------------------------------------------------------------------------
# gradient checking


def gradcheck_report(seed):
    """finite_diff_check over every differentiable op plus the end-to-end
    marginal-entropy loss w.r.t. prompt rows, with a fresh text pass and
    with the kept start pass.  Returns [(name, max_err)]."""
    rng = np.random.default_rng(seed)

    def normal(*shape):  # a leaf; check differentiates in its x alone
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def check(op, x, *args):
        """Error of d/dx sum(op(x, *args) * w), w drawn after x and args."""
        w = Tensor(rng.normal(size=op(Tensor(x.data.copy()), *args).data.shape))
        return ad.finite_diff_check(lambda t: ad.sum_all(ad.mul(op(t, *args), w)), x)

    checks = [
        ("matmul", check(ad.matmul, normal(3, 4), normal(4, 2))),
        ("softmax_rows", check(ad.softmax_rows, normal(3, 5))),
        ("layer_norm", check(ad.layer_norm, normal(2, 8), normal(1, 8), normal(1, 8))),
        ("gelu", check(ad.gelu, normal(3, 4))),
        ("l2_normalize_rows", check(ad.l2_normalize_rows, Tensor(
            rng.normal(size=(3, 4)) * 2.0, requires_grad=True))),
        ("mean_rows", check(ad.mean_rows, normal(4, 3))),
        ("log", check(ad.log, Tensor(rng.uniform(0.5, 2.0, size=(3, 4)),
                                     requires_grad=True))),
    ]

    # end-to-end: marginal-entropy loss of selected views w.r.t. the prompt.
    # A moderate logit scale keeps the softmax off its saturated plateau,
    # where the loss is constant to machine precision and central
    # differences would only measure roundoff; the differentiated ops are
    # the same at any scale.
    config = mdl.ModelConfig(logit_scale=10.0)
    weights = mdl.init_weights(config, seed=seed)
    classes = [[16], [17], [18]]
    img_feats = rng.normal(size=(8, config.proj_dim))
    img_feats /= np.linalg.norm(img_feats, axis=1, keepdims=True)
    img_feats = Tensor(img_feats)

    state = PromptState(rng.normal(0.0, 0.02, size=(4, config.embed_dim)))

    def view_probabilities(features):
        tfeats = features(weights, config, state, classes)
        return mdl.class_probabilities(tfeats, img_feats, config.logit_scale)

    # Selection is an argsort, so the loss is only piecewise smooth in the
    # prompt; the backward pass holds the selected set constant.  Fix the
    # selection at the base point so central differences probe the same
    # smooth branch the analytic gradient lives on.
    _, selected, _ = ep.select_and_average(view_probabilities(ep.text_features), 0.5)

    # the loss with a fresh text pass, then as an episode's step 0 takes
    # it: the text features are one record over the kept start pass's
    # replayed tape, and each perturbed prompt re-keys the kept entry
    for name, features in (("marginal_entropy_loss_vs_prompt", ep.text_features),
                           ("marginal_entropy_loss_vs_prompt_kept_start",
                            ep.start_text_features)):
        def loss(prompt):  # finite_diff_check perturbs it in place
            probs = view_probabilities(features)
            return ep.marginal_entropy_loss(ad.mean_rows(ad.gather_rows(probs, selected)))

        checks.append((name, ad.finite_diff_check(loss, state.prompt)))

    # batched ops: a 2-D weight shared by every item of a batch
    items = normal(3, 2, 4)
    checks.append(("matmul_shared_weight",
                   check(lambda t: ad.matmul(items, t), normal(4, 5))))

    # the transformer sublayers on a (2, 3, 4) batch, each checked in the
    # input and in its first weight (wq, w1), which every item shares
    def attention(t, *weights):  # two heads, causal
        return ad.attention(t, *weights, 2, mdl.causal_mask(3))

    for name, op, shapes in (("attention", attention, [(4, 4), (1, 4)] * 4),
                             ("mlp", ad.mlp, [(4, 8), (1, 8), (8, 4), (1, 4)])):
        x = normal(2, 3, 4)
        params = [normal(*s) for s in shapes]
        checks.append((name, max(check(op, x, *params),
                                 check(lambda t: op(x, t, *params[1:]), params[0]))))

    checks.append(("log_softmax_rows", check(ad.log_softmax_rows, normal(3, 5))))
    return checks


# ---------------------------------------------------------------------------
# run configuration and results files


def parse_config_file(path):
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{path}:{number}: expected key=value, got {line!r}")
            out[key.strip()] = value.strip()
    return out


def write_results(path, rows, run_config):
    """CSV rows under '# key=value' header lines: the code version, then
    every setting of the run."""
    with open(path, "w", newline="") as f:
        f.write(f"# version={VERSION}\n")
        for key in sorted(run_config):
            f.write(f"# {key}={run_config[key]}\n")
        writer = csv.DictWriter(f, fieldnames=["method", "shift", "accuracy",
                                               "n", "seed"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

