"""Command line interface.

Subcommands: pretrain, gen-data, eval, fewshot-train, ablate, bongard,
dump-dist, gradcheck.  A key=value config file may set any flag; CLI
flags win.  Settings left unset keep the library defaults.
"""

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from . import bongard as bg
from . import data as dat
from . import harness as hz
from . import model as mdl
from .augment import AugmentPolicy
from .episode import TPTConfig


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output path")


def _add_eval_flags(p):
    p.add_argument("--weights", required=True, help="trained weights file")
    p.add_argument("--shift", default=None, help="KIND[:PARAM], e.g. noise:0.3")
    p.add_argument("--aug", choices=["rrc", "augmix"], default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="cap the number of evaluated samples")


def _run_config(args):
    file_cfg = hz.parse_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items()
             if k not in ("config", "func", "command") and v is not None}
    return hz.merge_run_config(file_cfg, {k: str(v) for k, v in flags.items()})


def _get(cfg, key, cast, default):
    return cast(cfg[key]) if key in cfg else default


# config key -> (keyword it sets, type); unset keys keep library defaults
_KEYS = {
    "samples_per_class": ("samples_per_class", int),
    "noise_sigma": ("noise_sigma", float), "contrast": ("contrast", float),
    "contrast_min": ("contrast_min", float), "aug": ("kind", str),
    "views": ("n_views", int), "rho": ("rho", float), "steps": ("steps", int),
    "lr": ("lr", float), "seed": ("seed", int), "epochs": ("epochs", int),
    "pretrain_lr": ("lr", float), "weight_decay": ("weight_decay", float),
    "embed_rescale": ("embed_rescale", float),
    "noise_patch_prob": ("noise_patch_prob", float),
}


def _pick(cfg, *keys):
    """Keyword arguments from those of the config keys the user set."""
    return {_KEYS[k][0]: _KEYS[k][1](cfg[k]) for k in keys if k in cfg}


def _build_dataset(cfg, data_seed=1):
    spec = dat.DatasetSpec(**_pick(cfg, "samples_per_class", "noise_sigma",
                                   "contrast", "contrast_min"))
    seed = _get(cfg, "data_seed", int, data_seed)
    ds = dat.generate(spec, seed=seed)
    if cfg.get("shift", "none") != "none":
        shift = dat.ShiftSpec.parse(cfg["shift"])
        ds = dat.apply_shift(ds, shift, seed=seed + 1)
    if "samples" in cfg:
        n = int(cfg["samples"])
        if n < 1:
            raise SystemExit(f"--samples {n}: need at least 1 sample")
        rng = np.random.default_rng(seed + 2)
        ds = ds.subset(np.sort(rng.permutation(len(ds))[:n]))
    return ds


def _load_model(args):
    """(config, weights), the weights file checked against the config."""
    config = mdl.ModelConfig()
    return config, mdl.load_weights(args.weights, config)


def _tpt_config(cfg):
    return TPTConfig(policy=AugmentPolicy(**_pick(cfg, "aug")),
                     **_pick(cfg, "views", "rho", "steps", "lr", "seed"))


def cmd_pretrain(args):
    cfg = _run_config(args)
    recipe = {**mdl.PRETRAIN, **_pick(cfg, "epochs", "pretrain_lr", "seed",
                                      "weight_decay", "embed_rescale")}
    policy = {**mdl.PRETRAIN_POLICY, **_pick(cfg, "noise_patch_prob")}
    if "pretrain_crop_min" in cfg:
        policy["scale_range"] = (float(cfg["pretrain_crop_min"]), 1.0)
    mconfig = mdl.ModelConfig()
    pairs = dat.caption_pairs(_build_dataset(cfg, data_seed=mdl.TRAIN_DATA_SEED))
    weights = mdl.init_weights(mconfig, seed=recipe["seed"])
    weights, losses = mdl.pretrain_contrastive(
        weights, mconfig, pairs, augment_policy=AugmentPolicy(**policy), **recipe)
    out = args.out or "weights.tptw"
    mdl.save_weights(weights, out)
    top1 = mdl.retrieval_top1(weights, mconfig, pairs[:64])
    print(f"final loss {losses[-1]:.4f}  retrieval@1 {top1:.3f}  -> {out}")
    return 0


def cmd_gen_data(args):
    cfg = _run_config(args)
    ds = _build_dataset(cfg)
    out = args.out or "dataset"
    manifest = dat.save_dataset(ds, out)
    print(f"{len(ds)} images -> {manifest}")
    return 0


def cmd_eval(args):
    cfg = _run_config(args)
    mconfig, weights = _load_model(args)
    ds = _build_dataset(cfg)
    classes = hz.class_set(ds)
    template = dat.template_ids()
    tcfg = _tpt_config(cfg)
    method = args.method
    traces = None
    if method == "zeroshot":
        acc, _ = hz.evaluate_zero_shot(weights, mconfig, template, classes, ds)
    elif method == "tpt":
        acc, _, traces = hz.evaluate_tpt(weights, mconfig, template, classes,
                                         ds, tcfg, record_traces=True)
    elif method == "ensemble":
        templates = [dat.tokenize(t) for t in dat.CAPTION_TEMPLATES]
        acc, _ = hz.prompt_ensemble(weights, mconfig, templates, classes, ds)
    elif method == "avgpred":
        acc, _ = hz.baseline_averaged_prediction(weights, mconfig, template,
                                                 classes, ds, tcfg)
    elif method == "vote":
        acc, _ = hz.baseline_majority_vote(weights, mconfig, template,
                                           classes, ds, tcfg)
    else:
        raise SystemExit(f"unknown method {method}")
    row = {"method": method, "shift": cfg.get("shift", "none"),
           "accuracy": acc, "n": len(ds), "seed": tcfg.seed}
    if args.out:
        hz.write_results(args.out, [row], cfg)
        if traces is not None:
            hz.write_traces(args.out + ".traces.jsonl", traces)
    print(f"{method}: accuracy {acc:.4f} on {len(ds)} samples")
    return 0


def cmd_fewshot_train(args):
    cfg = _run_config(args)
    mconfig, weights = _load_model(args)
    ds = _build_dataset(cfg)
    classes = hz.class_set(ds)
    shots = _get(cfg, "shots", int, 16)
    rng = np.random.default_rng(_get(cfg, "seed", int, 0))
    idx = []
    for k in range(len(classes)):
        pool = np.flatnonzero(ds.labels == k)
        idx.extend(rng.choice(pool, size=min(shots, len(pool)), replace=False))
    sub = ds.subset(np.sort(idx))
    state = hz.fewshot_train_prompt(
        weights, mconfig, classes, sub.images, sub.labels,
        **_pick(cfg, "epochs", "lr"))
    out = args.out or "prompt.tptw"
    mdl.save_weights({"prompt": state.prompt}, out)
    print(f"few-shot prompt ({shots}-shot) -> {out}")
    return 0


def cmd_ablate(args):
    cfg = _run_config(args)
    mconfig, weights = _load_model(args)
    ds = _build_dataset(cfg)
    classes = hz.class_set(ds)
    flags = {"rho": (float, args.grid_rho), "n_views": (int, args.grid_views),
             "steps": (int, args.grid_steps),
             "parameter_group": (str, args.grid_group)}
    grid = {field: [cast(x) for x in value.split(",")]
            for field, (cast, value) in flags.items() if value}
    seeds = [int(s) for s in (args.seeds or "0").split(",")]
    rows = hz.ablate(weights, mconfig, dat.template_ids(), classes, ds,
                     _tpt_config(cfg), grid, seeds=seeds,
                     shift_label=cfg.get("shift", "none"))
    out = args.out or "ablation.csv"
    hz.write_results(out, rows, cfg)
    for row in rows:
        print(f"{row['method']}: {row['accuracy']:.4f} (seed {row['seed']})")
    return 0


def cmd_bongard(args):
    cfg = _run_config(args)
    mconfig, weights = _load_model(args)
    seed = _get(cfg, "seed", int, 0)
    rcfg = bg.ReasonConfig(**_pick(cfg, "steps", "lr"))
    tasks = bg.generate_tasks(args.tasks, seed=seed)
    by_split = {s: [] for s in bg.SPLITS}
    for i, task in enumerate(tasks):
        pred, _ = bg.tpt_reason(weights, mconfig, task,
                                replace(rcfg, seed=seed + i))
        by_split[task.concept["split"]].append(pred == task.query_label)
    out = args.out or "bongard.csv"
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["split", "accuracy", "n", "prompt_len", "steps", "lr", "seed"])
        for split in bg.SPLITS:
            hits = by_split[split]
            acc = float(np.mean(hits)) if hits else float("nan")
            writer.writerow([split, f"{acc:.4f}", len(hits), bg.PROMPT_LEN,
                             rcfg.steps, rcfg.lr, seed])
            print(f"{split}: {acc:.4f} ({len(hits)} tasks)")
    return 0


def cmd_dump_dist(args):
    cfg = _run_config(args)
    mconfig, weights = _load_model(args)
    ds = _build_dataset(cfg)
    classes = hz.class_set(ds)
    i = args.sample
    if not 0 <= i < len(ds):
        raise SystemExit(f"--sample {i} is out of range: the dataset has "
                         f"{len(ds)} samples, 0 to {len(ds) - 1}")
    before, after = hz.dump_distributions(
        weights, mconfig, dat.template_ids(), classes, ds.images[i],
        _tpt_config(cfg))
    out = args.out or "distributions"
    for tag, mat in (("before", before), ("after", after)):
        path = f"{out}.{tag}.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["view"] + list(ds.class_names))
            for v, row in enumerate(mat):
                writer.writerow([v] + [f"{p:.6f}" for p in row])
        print(f"-> {path}")
    return 0


def cmd_gradcheck(args):
    cfg = _run_config(args)
    checks = hz.gradcheck_report(**_pick(cfg, "seed"))
    worst = 0.0
    for name, err in checks:
        status = "ok" if err <= 1e-4 else "FAIL"
        print(f"{name:<36s} max rel err {err:.3e}  {status}")
        worst = max(worst, err)
    return 0 if worst <= 1e-4 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tpt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="contrastive pretraining")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--shift", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("eval", help="evaluate a method")
    _add_common(p)
    _add_eval_flags(p)
    p.add_argument("--method", required=True,
                   choices=["zeroshot", "tpt", "ensemble", "avgpred", "vote"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fewshot-train", help="train a prompt on labeled shots")
    _add_common(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.set_defaults(func=cmd_fewshot_train)

    p = sub.add_parser("ablate", help="grid sweeps")
    _add_common(p)
    _add_eval_flags(p)
    p.add_argument("--grid-rho")
    p.add_argument("--grid-views")
    p.add_argument("--grid-steps")
    p.add_argument("--grid-group")
    p.add_argument("--seeds")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bongard", help="context-dependent reasoning tasks")
    _add_common(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--tasks", type=int, default=100)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.set_defaults(func=cmd_bongard)

    p = sub.add_parser("dump-dist", help="per-view distributions before/after")
    _add_common(p)
    _add_eval_flags(p)
    p.add_argument("--sample", type=int, default=0)
    p.set_defaults(func=cmd_dump_dist)

    p = sub.add_parser("gradcheck", help="finite-difference gradient report")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
