"""Evaluation and orchestration: zero-shot, test-time tuning, baselines,
few-shot prompt training, ablation sweeps, gradient checks, and results
files (CSV rows under a reproducibility header)."""

import csv
import io
import itertools
import json
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import episode as ep
from . import model as mdl
from .augment import generate_views, split_seed
from .autodiff import Tensor
from .optim import AdamW
from .prompt import PromptState, init_from_template

VERSION = "tpt-0.1.0"


def class_set(dataset):
    return mdl.ClassSet(list(dataset.class_names), dataset.class_token_ids)


def _template_text_features(weights, config, template_ids, classes):
    """Class text features under the untuned template prompt."""
    state = init_from_template(weights, config, template_ids)
    return ep.text_features(weights, config, state, classes)


def _classify_images(weights, config, tfeats, dataset):
    preds = np.array([
        int(np.argmax(mdl.class_probabilities(
            tfeats, mdl.encode_image(weights, config, image),
            config.logit_scale).data))
        for image in dataset.images])
    return float(np.mean(preds == dataset.labels)), preds


def evaluate_zero_shot(weights, config, template_ids, classes, dataset):
    """Argmax over scaled cosine similarities, no tuning.

    Returns (accuracy, per-sample predictions)."""
    tfeats = _template_text_features(weights, config, template_ids, classes)
    return _classify_images(weights, config, tfeats, dataset)


def evaluate_tpt(weights, config, template_ids, classes, dataset, tpt_config,
                 record_traces=False, record_views=False):
    """Per-sample episodic tuning.  The episode seed is derived from the
    sample's stable id, so evaluation order cannot change any prediction.

    Returns (accuracy, predictions, traces)."""
    preds, traces = [], []
    for image, sample_id, label in zip(dataset.images, dataset.ids, dataset.labels):
        state = init_from_template(weights, config, template_ids)
        cfg = replace(tpt_config, seed=split_seed(tpt_config.seed, int(sample_id)))
        pred, _, trace = ep.tpt_classify(weights, config, state, classes, image,
                                         cfg, record_views=record_views)
        preds.append(pred)
        if record_traces:
            traces.append({
                "sample_id": int(sample_id), "label": int(label), "prediction": pred,
                **{k: trace[k] for k in ("losses", "k", "thresholds", "mask_indices")},
                **{k: trace[k].tolist() for k in ("pre_original", "post_original",
                                                  "pre_averaged", "post_averaged")}})
    preds = np.array(preds)
    return (float(np.mean(preds == dataset.labels)), preds,
            traces if record_traces else None)


def fewshot_train_prompt(weights, config, classes, images, labels, epochs=50,
                         lr=0.01, template_ids=dat.template_ids()):
    """Cross-entropy prompt tuning on labeled shots; prompt only.

    Returns a PromptState whose init snapshot is the tuned prompt, so it
    can seed episodic test-time tuning afterwards."""
    state = init_from_template(weights, config, template_ids)
    if epochs == 0:
        return state
    feats = mdl.encode_images(weights, config, images)
    onehot = Tensor(np.eye(len(classes))[np.asarray(labels)])
    opt = AdamW(state.params(), lr=lr)
    for _ in range(epochs):
        with ad.Tape() as tape:
            tfeats = ep.text_features(weights, config, state, classes)
            loss, _ = mdl.cross_entropy(
                mdl.class_logits(tfeats, feats, config.logit_scale), onehot)
            opt.zero_grad()
            tape.backward(loss)
        opt.step()
    return PromptState(state.prompt.data)


def prompt_ensemble(weights, config, templates, classes, dataset):
    """Per-class feature = normalized mean of per-template text features."""
    per_template = [_template_text_features(weights, config, t, classes).data
                    for t in templates]
    mean = np.mean(per_template, axis=0)
    tfeats = mean / np.maximum(np.linalg.norm(mean, axis=1, keepdims=True), 1e-12)
    return _classify_images(weights, config, Tensor(tfeats), dataset)


def _pool_views(weights, config, template_ids, classes, dataset, tpt_config,
                pool):
    """Untuned per-view probabilities of the view batch an episode would
    see, reduced to one class by pool(N x K probabilities)."""
    tfeats = _template_text_features(weights, config, template_ids, classes)
    preds = []
    for image, sample_id in zip(dataset.images, dataset.ids):
        seed = split_seed(tpt_config.seed, int(sample_id))
        batch = generate_views(image, tpt_config.n_views, tpt_config.policy, seed)
        feats = mdl.encode_images(weights, config, batch.views)
        probs = mdl.class_probabilities(tfeats, feats, config.logit_scale).data
        preds.append(int(pool(probs)))
    preds = np.array(preds)
    return float(np.mean(preds == dataset.labels)), preds


def baseline_averaged_prediction(weights, config, template_ids, classes,
                                 dataset, tpt_config):
    """No optimization: argmax of the mean probability over the same
    view batch an episode would see."""
    return _pool_views(weights, config, template_ids, classes, dataset,
                       tpt_config, lambda probs: np.argmax(probs.mean(axis=0)))


def baseline_majority_vote(weights, config, template_ids, classes, dataset,
                           tpt_config):
    """No optimization: majority vote over per-view argmaxes, ties to the
    lowest class id (argmax takes the first maximum)."""
    def vote(probs):
        return np.argmax(np.bincount(np.argmax(probs, axis=1),
                                     minlength=len(classes)))

    return _pool_views(weights, config, template_ids, classes, dataset,
                       tpt_config, vote)


def ablate(weights, config, template_ids, classes, dataset, base_config,
           grid, seeds=(0,), shift_label="none"):
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


def dump_distributions(weights, config, template_ids, classes, image,
                       tpt_config):
    """Per-view class distributions before and after one episode.

    Returns (before N x K, after N x K); row 0 is the original image."""
    state = init_from_template(weights, config, template_ids)
    _, _, trace = ep.tpt_classify(weights, config, state, classes, image,
                                  tpt_config, record_views=True)
    return trace["pre_views"], trace["post_views"], trace


# ---------------------------------------------------------------------------
# gradient checking


def gradcheck_report(seed=0, h=1e-5):
    """finite_diff_check over every differentiable op plus the end-to-end
    marginal-entropy loss w.r.t. prompt rows.  Returns [(name, max_err)]."""
    rng = np.random.default_rng(seed)
    checks = []

    def scalarize(op, x, *args):
        w = Tensor(rng.normal(size=op(Tensor(x.data.copy()), *args).data.shape))
        return lambda t: ad.sum_all(ad.mul(op(t, *args), w))

    x34 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)))
    checks.append(("matmul", ad.finite_diff_check(
        scalarize(lambda t: ad.matmul(t, b), x34), x34, h)))

    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    checks.append(("softmax_rows", ad.finite_diff_check(
        scalarize(ad.softmax_rows, x), x, h)))

    x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    gain = Tensor(rng.normal(size=(1, 8)))
    bias = Tensor(rng.normal(size=(1, 8)))
    checks.append(("layer_norm", ad.finite_diff_check(
        scalarize(lambda t: ad.layer_norm(t, gain, bias), x), x, h)))

    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    checks.append(("gelu", ad.finite_diff_check(scalarize(ad.gelu, x), x, h)))

    x = Tensor(rng.normal(size=(3, 4)) * 2.0, requires_grad=True)
    checks.append(("l2_normalize_rows", ad.finite_diff_check(
        scalarize(ad.l2_normalize_rows, x), x, h)))

    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    checks.append(("mean_rows", ad.finite_diff_check(
        scalarize(ad.mean_rows, x), x, h)))

    x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    checks.append(("log", ad.finite_diff_check(scalarize(ad.log, x), x, h)))

    # end-to-end: marginal-entropy loss of selected views w.r.t. the prompt.
    # A moderate logit scale keeps the softmax off its saturated plateau,
    # where the loss is constant to machine precision and central
    # differences would only measure roundoff; the differentiated ops are
    # the same at any scale.
    config = mdl.ModelConfig(logit_scale=10.0)
    weights = mdl.init_weights(config, seed=seed)
    classes = mdl.ClassSet(["a", "b", "c"], [[16], [17], [18]])
    img_feats = rng.normal(size=(8, config.proj_dim))
    img_feats /= np.linalg.norm(img_feats, axis=1, keepdims=True)
    img_feats = Tensor(img_feats)

    state = PromptState(rng.normal(0.0, 0.02, size=(4, config.embed_dim)))

    def view_predictions():
        return ep.predict_views(weights, config, state, classes, img_feats)

    # Selection is an argsort, so the loss is only piecewise smooth in the
    # prompt; the backward pass holds the selected set constant.  Fix the
    # selection at the base point so central differences probe the same
    # smooth branch the analytic gradient lives on.
    selected = ep.select_and_average(view_predictions(), 0.5).selected

    def episode_loss(prompt):  # finite_diff_check perturbs it in place
        pred = view_predictions()
        pred.averaged = ad.mean_rows(ad.gather_rows(pred.probs, selected))
        return ep.marginal_entropy_loss(pred)

    checks.append(("marginal_entropy_loss_vs_prompt",
                   ad.finite_diff_check(episode_loss, state.prompt, h)))
    return checks


# ---------------------------------------------------------------------------
# run configuration and results files


def parse_config_file(path):
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def merge_run_config(file_config, flag_config):
    """File values overridden by CLI flags (flags win)."""
    merged = dict(file_config)
    merged.update({k: v for k, v in flag_config.items() if v is not None})
    return merged


def write_results(path, rows, run_config):
    """CSV rows under '#'-prefixed header lines carrying the full run
    config and code version."""
    with open(path, "w", newline="") as f:
        f.write(f"# version={VERSION}\n")
        for key in sorted(run_config):
            f.write(f"# {key}={run_config[key]}\n")
        writer = csv.DictWriter(f, fieldnames=["method", "shift", "accuracy",
                                               "n", "seed"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_results(path):
    header = {}
    rows = []
    with open(path) as f:
        body = []
        for line in f:
            if line.startswith("# "):
                key, _, value = line[2:].strip().partition("=")
                header[key] = value
            elif line.startswith("#"):
                header["version"] = line[1:].strip().partition("=")[2]
            else:
                body.append(line)
        for row in csv.DictReader(io.StringIO("".join(body))):
            rows.append(row)
    return header, rows


def write_traces(path, traces):
    with open(path, "w") as f:
        for trace in traces:
            f.write(json.dumps(trace) + "\n")
