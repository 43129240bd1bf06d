"""Command line interface.

Subcommands: pretrain, gen-data, eval, fewshot-train, ablate, bongard,
dump-dist, gradcheck.  Every setting is a flag whose default is the
library's (TPTConfig, ReasonConfig, model.PRETRAIN, ...).  `--config
FILE` sets any flag of the subcommand from `key=value` lines, and a flag
given on the command line wins.  eval and ablate write CSV under a
header that records every setting the command used (for eval, those its
method reads); bongard and dump-dist write plain CSV.
"""

import argparse
import csv
import sys

import numpy as np

from . import bongard as bg
from . import data as dat
from . import harness as hz
from . import model as mdl
from .augment import AugmentPolicy
from .episode import TPTConfig

_DATA_SEED = 1  # the evaluation set; pretraining draws mdl.TRAIN_DATA_SEED
_TPT = TPTConfig()
_REASON = bg.ReasonConfig()


def _comma_list(cast):
    """argparse type: comma-separated values, each read by `cast`."""
    def parse(text):
        return [cast(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _add_eval_flags(p):
    p.add_argument("--weights", required=True, help="trained weights file")
    p.add_argument("--shift", default="none", help="KIND[:PARAM], e.g. noise:0.3")
    p.add_argument("--aug", choices=["rrc", "augmix"], default=_TPT.policy.kind)
    p.add_argument("--rho", type=float, default=_TPT.rho)
    p.add_argument("--views", type=int, default=_TPT.n_views)
    p.add_argument("--steps", type=int, default=_TPT.steps)
    p.add_argument("--lr", type=float, default=_TPT.lr)
    p.add_argument("--samples", type=int, help="cap the number of evaluated samples")


# The eval flags a method does not read: zero-shot and the ensemble
# classify the image alone, and the pooling baselines do not tune.
_VIEW_FLAGS = ("aug", "views", "seed")
_TUNING_FLAGS = ("rho", "steps", "lr")
_UNREAD = {"zeroshot": _VIEW_FLAGS + _TUNING_FLAGS,
           "ensemble": _VIEW_FLAGS + _TUNING_FLAGS,
           "avgpred": _TUNING_FLAGS, "vote": _TUNING_FLAGS, "tpt": ()}


def _settings(args, unread=()):
    """Every setting the command reads, for a results header."""
    return {k: v for k, v in vars(args).items()
            if k not in ("config", "func", *unread)}


def _build_dataset(args, seed=_DATA_SEED):
    ds = dat.generate(dat.DatasetSpec(), seed=seed)
    if args.shift != "none":
        ds = dat.apply_shift(ds, dat.ShiftSpec.parse(args.shift), seed=seed + 1)
    if args.samples is not None:
        if args.samples < 1:
            raise SystemExit(f"--samples {args.samples}: need at least 1 sample")
        rng = np.random.default_rng(seed + 2)
        ds = ds.subset(np.sort(rng.permutation(len(ds))[:args.samples]))
    return ds


def _load_model(args):
    """(config, weights), the weights file checked against the config."""
    config = mdl.ModelConfig()
    return config, mdl.load_weights(args.weights, config)


def _tpt_config(args, seed):
    return TPTConfig(n_views=args.views, rho=args.rho, steps=args.steps,
                     lr=args.lr, seed=seed, policy=AugmentPolicy(kind=args.aug))


def cmd_pretrain(args):
    if args.epochs < 1:
        raise SystemExit(f"--epochs {args.epochs}: need at least 1 epoch")
    recipe = {**mdl.PRETRAIN, "epochs": args.epochs, "seed": args.seed}
    mconfig = mdl.ModelConfig()
    pairs = dat.caption_pairs(dat.generate(dat.DatasetSpec(),
                                           seed=mdl.TRAIN_DATA_SEED))
    weights = mdl.init_weights(mconfig, seed=args.seed)
    weights, losses = mdl.pretrain_contrastive(
        weights, mconfig, pairs,
        augment_policy=AugmentPolicy(**mdl.PRETRAIN_POLICY), **recipe)
    mdl.save_weights(weights, args.out)
    top1 = mdl.retrieval_top1(weights, mconfig, pairs[:64])
    print(f"final loss {losses[-1]:.4f}  retrieval@1 {top1:.3f}  -> {args.out}")
    return 0


def cmd_gen_data(args):
    ds = _build_dataset(args, seed=args.seed)
    manifest = dat.save_dataset(ds, args.out)
    print(f"{len(ds)} images -> {manifest}")
    return 0


def cmd_eval(args):
    mconfig, weights = _load_model(args)
    ds = _build_dataset(args)
    classes = hz.class_set(ds)
    template = dat.template_ids()
    tcfg = _tpt_config(args, args.seed)
    method = args.method
    traces = None
    if method == "zeroshot":
        acc, _ = hz.evaluate_zero_shot(weights, mconfig, template, classes, ds)
    elif method == "tpt":
        acc, _, traces = hz.evaluate_tpt(weights, mconfig, template, classes,
                                         ds, tcfg)
    elif method == "ensemble":
        templates = [dat.tokenize(t) for t in dat.CAPTION_TEMPLATES]
        acc, _ = hz.prompt_ensemble(weights, mconfig, templates, classes, ds)
    elif method == "avgpred":
        acc, _ = hz.baseline_averaged_prediction(weights, mconfig, template,
                                                 classes, ds, tcfg)
    elif method == "vote":
        acc, _ = hz.baseline_majority_vote(weights, mconfig, template,
                                           classes, ds, tcfg)
    unread = _UNREAD[method]
    row = {"method": method, "shift": args.shift, "accuracy": acc,
           "n": len(ds), "seed": "" if "seed" in unread else args.seed}
    if args.out:
        hz.write_results(args.out, [row], _settings(args, unread))
        if traces is not None:
            hz.write_traces(args.out + ".traces.jsonl", traces)
    print(f"{method}: accuracy {acc:.4f} on {len(ds)} samples")
    return 0


def cmd_fewshot_train(args):
    if args.shots < 1:
        raise SystemExit(f"--shots {args.shots}: need at least 1 shot per class")
    mconfig, weights = _load_model(args)
    ds = dat.generate(dat.DatasetSpec(), seed=_DATA_SEED)
    classes = hz.class_set(ds)
    rng = np.random.default_rng(args.seed)
    idx = []
    for k in range(len(classes)):
        pool = np.flatnonzero(ds.labels == k)
        idx.extend(rng.choice(pool, size=min(args.shots, len(pool)), replace=False))
    sub = ds.subset(np.sort(idx))
    state = hz.fewshot_train_prompt(weights, mconfig, classes, sub.images,
                                    sub.labels, epochs=args.epochs, lr=args.lr)
    mdl.save_weights({"prompt": state.prompt}, args.out)
    print(f"few-shot prompt ({args.shots}-shot) -> {args.out}")
    return 0


def cmd_ablate(args):
    mconfig, weights = _load_model(args)
    ds = _build_dataset(args)
    classes = hz.class_set(ds)
    grid = {field: values for field, values in (
        ("rho", args.grid_rho), ("n_views", args.grid_views),
        ("steps", args.grid_steps), ("parameter_group", args.grid_group))
        if values}
    # the base config's seed is replaced by each of --seeds
    rows = hz.ablate(weights, mconfig, dat.template_ids(), classes, ds,
                     _tpt_config(args, args.seeds[0]), grid, seeds=args.seeds,
                     shift_label=args.shift)
    hz.write_results(args.out, rows, _settings(args))
    for row in rows:
        print(f"{row['method']}: {row['accuracy']:.4f} (seed {row['seed']})")
    return 0


def cmd_bongard(args):
    if args.tasks < 1:
        raise SystemExit(f"--tasks {args.tasks}: need at least 1 task")
    mconfig, weights = _load_model(args)
    tasks = bg.generate_tasks(args.tasks, seed=args.seed)
    by_split = {s: [] for s in bg.SPLITS}
    for i, task in enumerate(tasks):
        rcfg = bg.ReasonConfig(steps=args.steps, lr=args.lr, seed=args.seed + i)
        pred, _ = bg.tpt_reason(weights, mconfig, task, rcfg)
        by_split[task.concept["split"]].append(pred == task.query_label)
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["split", "accuracy", "n", "prompt_len", "steps", "lr", "seed"])
        for split in bg.SPLITS:
            hits = by_split[split]
            if not hits:
                continue
            acc = float(np.mean(hits))
            writer.writerow([split, f"{acc:.4f}", len(hits), bg.PROMPT_LEN,
                             args.steps, args.lr, args.seed])
            print(f"{split}: {acc:.4f} ({len(hits)} tasks)")
    return 0


def cmd_dump_dist(args):
    mconfig, weights = _load_model(args)
    ds = _build_dataset(args)
    classes = hz.class_set(ds)
    i = args.sample
    if not 0 <= i < len(ds):
        raise SystemExit(f"--sample {i} is out of range: the dataset has "
                         f"{len(ds)} samples, 0 to {len(ds) - 1}")
    before, after = hz.dump_distributions(
        weights, mconfig, dat.template_ids(), classes, ds.images[i],
        _tpt_config(args, args.seed))
    for tag, mat in (("before", before), ("after", after)):
        path = f"{args.out}.{tag}.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["view"] + list(ds.class_names))
            for v, row in enumerate(mat):
                writer.writerow([v] + [f"{p:.6f}" for p in row])
        print(f"-> {path}")
    return 0


def cmd_gradcheck(args):
    checks = hz.gradcheck_report(seed=args.seed)
    worst = 0.0
    for name, err in checks:
        status = "ok" if err <= 1e-4 else "FAIL"
        print(f"{name:<36s} max rel err {err:.3e}  {status}")
        worst = max(worst, err)
    return 0 if worst <= 1e-4 else 1


def _build_parser():
    parser = argparse.ArgumentParser(prog="tpt", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="file of key=value lines, each "
                                        "setting the flag --key")
        p.set_defaults(func=func)
        return p

    p = command("pretrain", cmd_pretrain, "contrastive pretraining")
    p.add_argument("--epochs", type=int, default=mdl.PRETRAIN["epochs"])
    p.add_argument("--seed", type=int, default=mdl.PRETRAIN["seed"])
    p.add_argument("--out", default="weights.tptw")

    p = command("gen-data", cmd_gen_data, "generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=_DATA_SEED, help="data seed")
    p.add_argument("--shift", default="none")
    p.add_argument("--samples", type=int)
    p.add_argument("--out", default="dataset")

    p = command("eval", cmd_eval, "evaluate a method")
    _add_eval_flags(p)
    p.add_argument("--method", required=True,
                   choices=["zeroshot", "tpt", "ensemble", "avgpred", "vote"])
    p.add_argument("--seed", type=int, default=_TPT.seed)
    p.add_argument("--out", help="results CSV; none prints the accuracy only")

    p = command("fewshot-train", cmd_fewshot_train,
                "train a prompt on labeled shots")
    p.add_argument("--weights", required=True)
    p.add_argument("--shots", type=int, default=16)
    p.add_argument("--epochs", type=int, default=hz.FEWSHOT["epochs"])
    p.add_argument("--lr", type=float, default=hz.FEWSHOT["lr"])
    p.add_argument("--seed", type=int, default=0, help="seed of the shot draw")
    p.add_argument("--out", default="prompt.tptw")

    p = command("ablate", cmd_ablate, "grid sweeps")
    _add_eval_flags(p)
    p.add_argument("--grid-rho", type=_comma_list(float))
    p.add_argument("--grid-views", type=_comma_list(int))
    p.add_argument("--grid-steps", type=_comma_list(int))
    p.add_argument("--grid-group", type=_comma_list(str))
    p.add_argument("--seeds", type=_comma_list(int), default=[_TPT.seed])
    p.add_argument("--out", default="ablation.csv")

    p = command("bongard", cmd_bongard, "context-dependent reasoning tasks")
    p.add_argument("--weights", required=True)
    p.add_argument("--tasks", type=int, default=100)
    p.add_argument("--steps", type=int, default=_REASON.steps)
    p.add_argument("--lr", type=float, default=_REASON.lr)
    p.add_argument("--seed", type=int, default=_REASON.seed)
    p.add_argument("--out", default="bongard.csv")

    p = command("dump-dist", cmd_dump_dist, "per-view distributions before/after")
    _add_eval_flags(p)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--seed", type=int, default=_TPT.seed)
    p.add_argument("--out", default="distributions")

    p = command("gradcheck", cmd_gradcheck, "finite-difference gradient report")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _with_config_flags(argv):
    """argv with each key=value line of its --config file turned into the
    flag --key=value, placed after the subcommand and before the given
    flags.  argparse then types and checks file settings like any flag,
    and a flag given on both wins, because argparse keeps the last."""
    pre = argparse.ArgumentParser(prog="tpt", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    flags = [f"--{key}={value}" for key, value in hz.parse_config_file(path).items()]
    return argv[:1] + flags + argv[1:]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_with_config_flags(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
