"""Command line interface.

Subcommands: pretrain, eval, ablate, bongard, dump-dist, gradcheck.
Every setting is a flag whose default is the library's (TPTConfig,
ReasonConfig, model.PRETRAIN, ...).  `--config FILE` sets any flag of
the subcommand from `key=value` lines, and a flag given on the command
line wins.  eval, ablate and dump-dist regenerate the evaluation set
from _DATA_SEED.  eval and ablate write CSV under a header that records
every setting the command used (for eval, those its method reads; for
ablate, not the base flags its grids replace); bongard and dump-dist
write plain CSV.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import bongard as bg
from . import data as dat
from . import harness as hz
from . import model as mdl
from .augment import AugmentPolicy
from .episode import PARAMETER_GROUPS, TPTConfig, tpt_classify
from .prompt import init_from_template

# the evaluation set; pretraining and CoOp's shots draw mdl.TRAIN_DATA_SEED
_DATA_SEED = 1
_TPT = TPTConfig()
_REASON = bg.ReasonConfig()


def _checked(cast, valid, takes):
    """argparse type: `cast` of the text, rejected unless it is `valid`."""
    def parse(text):
        if not valid(value := cast(text)):
            raise argparse.ArgumentTypeError(f"takes {takes}, got {text!r}")
        return value
    parse.__name__ = cast.__name__
    return parse


_COUNT = _checked(int, lambda n: n >= 1, "an integer of 1 or more")
_NONNEGATIVE = _checked(int, lambda n: n >= 0, "an integer of 0 or more")
_RHO = _checked(float, lambda r: 0.0 < r <= 1.0, "a fraction in (0, 1]")
_LR = _checked(float, lambda r: 0.0 <= r < np.inf, "a finite rate of 0 or more")
_GROUP = _checked(str, lambda g: g in PARAMETER_GROUPS,
                  "one of " + ", ".join(PARAMETER_GROUPS))


def _shift(text):
    """argparse type: a KIND[:PARAM] shift, checked by ShiftSpec and kept
    as the text."""
    try:
        dat.ShiftSpec.parse(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def _comma_list(cast):
    """argparse type: comma-separated values, each read by `cast`."""
    def parse(text):
        return [cast(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _add_eval_flags(p):
    p.add_argument("--weights", required=True, help="trained weights file")
    p.add_argument("--shift", type=_shift, default="none",
                   help="KIND[:PARAM], e.g. noise:0.3")
    p.add_argument("--aug", choices=["rrc", "augmix"], default=_TPT.policy.kind)
    p.add_argument("--rho", type=_RHO, default=_TPT.rho)
    p.add_argument("--views", type=_COUNT, default=_TPT.n_views)
    p.add_argument("--steps", type=_COUNT, default=_TPT.steps)
    p.add_argument("--lr", type=_LR, default=_TPT.lr)
    p.add_argument("--samples", type=_COUNT, help="cap the number of evaluated samples")


# Each eval method and the eval flags it does not read: zero-shot, the
# ensemble and CoOp classify the image alone, and the pooling baselines
# do not tune.
_VIEW_FLAGS = ("aug", "views", "seed")
_TUNING_FLAGS = ("rho", "steps", "lr")
_UNREAD = {"zeroshot": _VIEW_FLAGS + _TUNING_FLAGS, "tpt": (),
           "ensemble": _VIEW_FLAGS + _TUNING_FLAGS,
           "coop": ("aug", "views") + _TUNING_FLAGS,
           "avgpred": _TUNING_FLAGS, "vote": _TUNING_FLAGS}
# the pool each pooling baseline reduces an episode's untuned views with
_POOLS = {"avgpred": hz.averaged_prediction, "vote": hz.majority_vote}


def _settings(args, unread=()):
    """Every setting the command reads, for a results header."""
    return {k: v for k, v in vars(args).items()
            if k not in ("config", "func", *unread)}


def _build_dataset(args):
    ds = dat.generate(dat.DatasetSpec(), seed=_DATA_SEED)
    ds = dat.apply_shift(ds, dat.ShiftSpec.parse(args.shift), seed=_DATA_SEED + 1)
    if args.samples is not None:
        rng = np.random.default_rng(_DATA_SEED + 2)
        ds = ds.subset(np.sort(rng.permutation(len(ds))[:args.samples]))
    return ds


def _tpt_config(args, seed):
    return TPTConfig(n_views=args.views, rho=args.rho, steps=args.steps,
                     lr=args.lr, seed=seed, policy=AugmentPolicy(kind=args.aug))


def cmd_pretrain(args):
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


def cmd_eval(args):
    mconfig, weights = mdl.ModelConfig(), mdl.load_weights(args.weights)
    ds = _build_dataset(args)
    classes = ds.class_token_ids
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
        acc, _ = hz.prompt_ensemble(weights, mconfig, classes, ds)
    elif method == "coop":
        acc, _ = hz.evaluate_coop(weights, mconfig, classes, ds, args.seed)
    elif method in _POOLS:
        [preds] = hz._pool_views(weights, mconfig, template, classes, ds, tcfg,
                                 _POOLS[method])
        acc = float(np.mean(preds == ds.labels))
    unread = _UNREAD[method]
    row = {"method": method, "shift": args.shift, "accuracy": acc,
           "n": len(ds), "seed": "" if "seed" in unread else args.seed}
    if args.out:
        hz.write_results(args.out, [row], _settings(args, unread))
        if traces is not None:
            with open(args.out + ".traces.jsonl", "w") as f:
                for trace in traces:
                    f.write(json.dumps(trace) + "\n")
    print(f"{method}: accuracy {acc:.4f} on {len(ds)} samples")
    return 0


def cmd_ablate(args):
    mconfig, weights = mdl.ModelConfig(), mdl.load_weights(args.weights)
    ds = _build_dataset(args)
    classes = ds.class_token_ids
    grid = {field: values for field, values in (
        ("rho", args.grid_rho), ("n_views", args.grid_views),
        ("steps", args.grid_steps), ("parameter_group", args.grid_group))
        if values}
    # the base config's seed is replaced by each of --seeds
    rows = hz.ablate(weights, mconfig, dat.template_ids(), classes, ds,
                     _tpt_config(args, args.seeds[0]), grid, seeds=args.seeds,
                     shift_label=args.shift)
    # and a grid's values replace its base flag, which no row then reads
    replaced = [flag for field, flag in (("rho", "rho"), ("n_views", "views"),
                                         ("steps", "steps")) if field in grid]
    hz.write_results(args.out, rows, _settings(args, replaced))
    for row in rows:
        print(f"{row['method']}: {row['accuracy']:.4f} (seed {row['seed']})")
    return 0


def cmd_bongard(args):
    mconfig, weights = mdl.ModelConfig(), mdl.load_weights(args.weights)
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
    mconfig, weights = mdl.ModelConfig(), mdl.load_weights(args.weights)
    ds = _build_dataset(args)
    classes = ds.class_token_ids
    i = args.sample
    if not 0 <= i < len(ds):
        raise SystemExit(f"--sample {i} is out of range: the dataset has "
                         f"{len(ds)} samples, 0 to {len(ds) - 1}")
    state = init_from_template(weights, mconfig, dat.template_ids())
    tcfg = _tpt_config(args, args.seed).for_sample(ds.ids[i])  # as evaluate_tpt's
    _, _, trace = tpt_classify(weights, mconfig, state, classes, ds.images[i],
                               tcfg, record_views=True)
    for tag, when in (("before", "pre"), ("after", "post")):
        path = f"{args.out}.{tag}.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["view"] + list(ds.class_names))
            for v, row in enumerate(trace[f"{when}_views"]):
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
    p.add_argument("--epochs", type=_COUNT, default=mdl.PRETRAIN["epochs"])
    p.add_argument("--seed", type=_NONNEGATIVE, default=mdl.PRETRAIN["seed"])
    p.add_argument("--out", default="weights.tptw")

    p = command("eval", cmd_eval, "evaluate a method")
    _add_eval_flags(p)
    p.add_argument("--method", required=True, choices=list(_UNREAD))
    p.add_argument("--seed", type=_NONNEGATIVE, default=_TPT.seed)
    p.add_argument("--out", help="results CSV; none prints the accuracy only")

    p = command("ablate", cmd_ablate, "grid sweeps")
    _add_eval_flags(p)
    p.add_argument("--grid-rho", type=_comma_list(_RHO))
    p.add_argument("--grid-views", type=_comma_list(_COUNT))
    p.add_argument("--grid-steps", type=_comma_list(_COUNT))
    p.add_argument("--grid-group", type=_comma_list(_GROUP))
    p.add_argument("--seeds", type=_comma_list(_NONNEGATIVE), default=[_TPT.seed])
    p.add_argument("--out", default="ablation.csv")

    p = command("bongard", cmd_bongard, "context-dependent reasoning tasks")
    p.add_argument("--weights", required=True)
    p.add_argument("--tasks", type=_COUNT, default=100)
    p.add_argument("--steps", type=_NONNEGATIVE, default=_REASON.steps)
    p.add_argument("--lr", type=_LR, default=_REASON.lr)
    p.add_argument("--seed", type=_NONNEGATIVE, default=_REASON.seed)
    p.add_argument("--out", default="bongard.csv")

    p = command("dump-dist", cmd_dump_dist, "per-view distributions before/after")
    _add_eval_flags(p)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--seed", type=_NONNEGATIVE, default=_TPT.seed)
    p.add_argument("--out", default="distributions")

    p = command("gradcheck", cmd_gradcheck, "finite-difference gradient report")
    p.add_argument("--seed", type=_NONNEGATIVE, default=0)
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
