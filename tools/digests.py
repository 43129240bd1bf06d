"""SHA-256 digests of the program's outputs, to show a change leaves them
bit-identical.

    PYTHONPATH=<parent tree>/src python tools/digests.py --out before.json
    PYTHONPATH=src python tools/digests.py --out after.json
    PYTHONPATH=src python tools/digests.py --compare before.json after.json

--out runs fixed inputs through the public entry points and writes
{name: sha256 hex} as JSON.  The inputs are the benchmark checkpoint
(read, never written) and every 32nd sample of data seed 1 under
noise:0.3; data seed 1 itself is digested clean and under every shift
kind.  The tool calls only long-standing entry points (data generation,
harness, tpt_classify, bongard, pretraining, the CLI), so it runs
against the `src/` of an older tree as well.  --compare names each
digest that differs between two files, or that one of them lacks, and
exits 1 if any does.  No test pins a digest: they change whenever an output is
meant to change, and then the comparison lists which outputs did.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np

from tpt import bongard as bg
from tpt import cli
from tpt import data as dat
from tpt import episode as ep
from tpt import harness as hz
from tpt import model as mdl
from tpt.augment import AugmentPolicy, split_seed
from tpt.prompt import init_from_template

CHECKPOINT = (pathlib.Path(__file__).resolve().parents[1]
              / "perfbench" / "checkpoint" / "pretrained.tptw")
SHIFT = "noise:0.3"
SHIFTS = ("none", "noise:0", "noise:0.3", "invert", "channel_drop:0", "channel_drop:1",
          "channel_drop:2", "blur:0", "blur:2", "style")


def _feed(h, obj):
    """Hash obj's type, shape and exact value, recursing into containers."""
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    else:  # str, int, float, bool, None, numpy scalars: repr is exact
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _data_digests(clean):
    """generate's dataset, the same under every shift kind, and Bongard
    task images; a dataset's contrasts are left out, as older trees have
    none."""
    out = {"generate": digest([clean.images, clean.labels, clean.ids])}
    for text in SHIFTS:
        shifted = dat.apply_shift(clean, dat.ShiftSpec.parse(text), seed=2)
        out[f"apply_shift/{text}"] = digest([shifted.images, shifted.labels, shifted.ids])
    out["generate_tasks"] = digest([(t.positives, t.negatives, t.query, t.query_label,
                                     t.concept) for t in bg.generate_tasks(16, seed=0)])
    return out


def _library_digests(weights, config):
    clean = dat.generate(dat.DatasetSpec(), seed=1)
    full = dat.apply_shift(clean, dat.ShiftSpec.parse(SHIFT), seed=2)
    ds = full.subset(np.arange(0, len(full), 32))
    classes = hz.class_set(ds)
    template = dat.template_ids()
    tcfg = ep.TPTConfig()
    out = _data_digests(clean)
    for group in ep.PARAMETER_GROUPS:
        for kind in ("rrc", "augmix"):
            cfg = ep.TPTConfig(steps=2, parameter_group=group,
                               policy=AugmentPolicy(kind=kind))
            out[f"evaluate_tpt/{group}/{kind}"] = digest(
                hz.evaluate_tpt(weights, config, template, classes, ds, cfg))

    def episode(image, sample_id, scale=1.0, **fields):
        """A default episode but for `fields`, from the template prompt,
        less its wall-clock times; the text embeddings are scaled by
        `scale` in place after the prompt is read, and back after."""
        state = init_from_template(weights, config, template)
        cfg = ep.TPTConfig(seed=split_seed(tcfg.seed, int(sample_id)), **fields)
        mdl.rescale_text_embeddings(weights, scale)
        pred, averaged, trace = ep.tpt_classify(weights, config, state, classes,
                                                image, cfg, record_views=True)
        mdl.rescale_text_embeddings(weights, 1.0 / scale)
        del trace["stage_ms"]
        return pred, averaged, trace

    out["tpt_classify/record_views"] = digest(
        [episode(image, sample_id) for image, sample_id in zip(ds.images, ds.ids)])

    # parameter groups interleaved on the same samples, each flagging other
    # weights for its episode, then an episode from the same prompt with
    # the text embeddings halved in place (and doubled back, exactly)
    episodes = []
    for image, sample_id in zip(ds.images[::4], ds.ids[::4]):
        for group, scale in (("prompt", 1.0), ("text_encoder", 1.0), ("prompt", 1.0),
                             ("all", 1.0), ("prompt", 0.5)):
            episodes.append(episode(image, sample_id, scale, steps=2, parameter_group=group))
    out["tpt_classify/interleaved_groups"] = digest(episodes)
    # a default episode right after one that encodes its views on the tape
    out["tpt_classify/prompt_after_image_encoder"] = digest(
        [episode(image, sample_id, parameter_group=group)
         for image, sample_id in zip(ds.images[1::4], ds.ids[1::4])
         for group in ("image_encoder", "prompt")])

    out["zero_shot"] = digest(hz.evaluate_zero_shot(weights, config, template,
                                                    classes, ds))
    out["avgpred"] = digest(hz.baseline_averaged_prediction(
        weights, config, template, classes, ds, tcfg))
    out["vote"] = digest(hz.baseline_majority_vote(weights, config, template,
                                                   classes, ds, tcfg))
    out["coop"] = digest(hz.evaluate_coop(weights, config, classes, ds, 0))
    # on these samples every baseline predicts the labels, so digest CoOp's
    # tuned prompt too
    train = dat.generate(dat.DatasetSpec(), seed=mdl.TRAIN_DATA_SEED)
    state = hz.fewshot_train_prompt(weights, config, classes, train.images[::32],
                                    train.labels[::32])
    out["coop_prompt"] = digest([p.data for p in state.params()])
    out["gradcheck_report"] = digest(hz.gradcheck_report(0))

    tasks = bg.generate_tasks(4, seed=0)
    out["bongard"] = digest([bg.tpt_reason(weights, config, task, bg.ReasonConfig(seed=i))
                             for i, task in enumerate(tasks)])

    # batches of 16, 16 and 8 pairs: image passes of one and two encode
    # blocks, and 6 optimizer steps, well past the first bias corrections
    pairs = dat.caption_pairs(train)[:40]
    trained, losses = mdl.pretrain_contrastive(
        mdl.init_weights(config, seed=0), config, pairs,
        augment_policy=AugmentPolicy(**mdl.PRETRAIN_POLICY),
        **{**mdl.PRETRAIN, "epochs": 2})
    out["pretrain_2_epochs"] = digest((losses, {k: v.data for k, v in trained.items()}))

    # untaped encodes of one, part of one and several blocks, each right
    # after a taped pretraining batch
    encodes = []
    for n in (1, 7, 9, 23):
        _, losses = mdl.pretrain_contrastive(
            mdl.init_weights(config, seed=n), config, pairs[:16],
            augment_policy=AugmentPolicy(**mdl.PRETRAIN_POLICY),
            **{**mdl.PRETRAIN, "epochs": 1})
        encodes.append((losses, mdl.encode_images(weights, config, full.images[:n]).data))
    out["encode_images/after_pretraining_batches"] = digest(encodes)
    return out


def _cli_digests():
    """The files the CLI writes, run in a scratch directory with relative
    paths so that no results header holds a path that differs by run.
    none.csv is `eval` under the default --shift none."""
    runs = [["eval", "--weights", "w.tptw", "--method", "tpt", "--shift", SHIFT,
             "--samples", "8", "--out", "eval.csv"],
            ["eval", "--weights", "w.tptw", "--method", "tpt",
             "--samples", "8", "--out", "none.csv"],
            ["dump-dist", "--weights", "w.tptw", "--shift", SHIFT,
             "--samples", "8", "--sample", "3", "--out", "dist"],
            ["bongard", "--weights", "w.tptw", "--tasks", "4", "--out", "bongard.csv"]]
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copyfile(CHECKPOINT, os.path.join(tmp, "w.tptw"))
        os.chdir(tmp)
        try:
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"tpt {' '.join(argv)} failed")
            for path in sorted(os.listdir(".")):
                if path != "w.tptw":
                    out[f"cli/{path}"] = digest(pathlib.Path(path).read_bytes())
        finally:
            os.chdir(cwd)
    return out


def compute():
    config = mdl.ModelConfig()
    return {**_library_digests(mdl.load_weights(CHECKPOINT), config), **_cli_digests()}


def compare(a, b):
    """Names of the digests that differ between dicts a and b, or that one
    of them lacks."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="digests", description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the digests of this tree as JSON")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="name each digest that differs between two files")
    args = parser.parse_args(argv)
    if args.out:
        digests = compute()
        with open(args.out, "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
        print(f"{len(digests)} digests -> {args.out}")
        return 0
    with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    differ = compare(a, b)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} digests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
