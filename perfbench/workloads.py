"""The three closed-loop workloads: one process, one client, and each op
starts only after the previous one has completed.

A workload is built from the benchmark seed alone.  `prepare` is one
set-up repetition (checkpoint load and check, input generation, one
warm-up op); run.py repeats it and keeps the last.  `run` executes
the timed phases and checks every op's output; `finish` makes the
once-per-run checks.  Checks are invariants, not golden values, so a
change that only reorders float sums still passes.
"""

import hashlib
import json
import math
import pathlib
import traceback
from dataclasses import replace
from time import perf_counter

import numpy as np

from tpt import bongard as bg
from tpt import data as dat
from tpt import episode as ep
from tpt import harness as hz
from tpt import model as mdl
from tpt.augment import AugmentPolicy, split_seed
from tpt.autodiff import Tape
from tpt.optim import AdamW
from tpt.prompt import init_from_template

from reference import reference_ms, smoothed
from tracing import Patches

CHECKPOINT_DIR = pathlib.Path(__file__).resolve().parent / "checkpoint"
MANIFEST = CHECKPOINT_DIR / "checkpoint.json"


class SetupError(Exception):
    """The benchmark cannot start: its fixed inputs are missing or wrong."""


def read_manifest():
    return json.loads(MANIFEST.read_text())


def load_checkpoint(path, expected_sha256, config):
    """Load the fixed model, refusing a file whose bytes or shapes differ."""
    path = pathlib.Path(path)
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise SetupError(f"cannot read checkpoint {path}: {exc}") from exc
    if digest != expected_sha256:
        raise SetupError(
            f"checkpoint {path} has sha256 {digest}, expected {expected_sha256}; "
            "regenerate it with: python3 perfbench/make_checkpoint.py")
    weights = mdl.load_weights(path)
    expected = mdl.weight_shapes(config)
    got = {name: t.data.shape for name, t in weights.items()}
    if got != expected:
        raise SetupError(f"checkpoint {path} does not match the default ModelConfig")
    return weights


def weights_digest(weights):
    h = hashlib.sha256()
    for name in sorted(weights):
        h.update(name.encode())
        h.update(weights[name].data.tobytes())
    return h.hexdigest()


class Phase:
    """A stretch of consecutive ops, timed or traced, with their latencies
    and the reference-kernel time measured right after each op."""

    def __init__(self, name, seconds, traced):
        self.name = name
        self.seconds = seconds
        self.traced = traced
        self.latencies = []  # seconds; math.inf for a failed op
        self.refs = []  # reference kernel ms after each op
        self.t_start = self.t_end = None

    def record(self, latency):
        self.latencies.append(latency)
        self.refs.append(reference_ms())

    def ref_latencies(self):
        """Op latencies in reference units (ref_ms)."""
        return [lat * 1e3 / ref for lat, ref in zip(self.latencies, smoothed(self.refs))]

    def ref_rate(self):
        """Ops per reference second of op time."""
        return 1e3 * self.ops / sum(self.ref_latencies())

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def wall(self):
        return self.t_end - self.t_start

    @property
    def op_rate(self):
        """Ops per second of op time: the reference kernel and the checks
        between ops are left out."""
        return self.ops / sum(self.latencies)

    def expired(self, now):
        return now - self.t_start >= self.seconds


class Workload:
    name = None

    def __init__(self, seed, checkpoint=None, fault_op=None):
        self.seed = seed
        self.manifest = read_manifest()
        self.checkpoint = pathlib.Path(checkpoint or CHECKPOINT_DIR / self.manifest["file"])
        self.fault_op = fault_op
        self.config = mdl.ModelConfig()
        self.attempted = 0
        self.failures = {}  # op index (or "run") -> first failure message
        self.correct_preds = 0
        self.labelled_ops = 0

    # -- bookkeeping -----------------------------------------------------

    def fail(self, op, message):
        self.failures.setdefault(op, message)

    @property
    def failed(self):
        return min(len(self.failures), self.attempted)

    def accuracy(self):
        return self.correct_preds / max(1, self.labelled_ops)

    def layer_metrics(self, tracer):
        return {}

    def _closed_loop(self, phases, tracer, do_op):
        """Run ops back to back until each phase's time is used up."""
        i = 0
        for phase in phases:
            if phase.traced:
                tracer.install()
                tracer.reset_counts()
            phase.t_start = perf_counter()
            while not phase.expired(perf_counter()):
                if tracer is not None:
                    tracer.op = i
                self.attempted += 1
                try:
                    latency = do_op(i, phase.traced)
                except Exception:
                    self.fail(i, traceback.format_exc(limit=4))
                    latency = math.inf
                if i in self.failures:
                    latency = math.inf
                phase.record(latency)
                i += 1
            phase.t_end = perf_counter()
            if phase.traced:
                tracer.uninstall()


class EpisodeNoise(Workload):
    """One default TPT episode per op on a held-out noise:0.3 image."""

    name = "episode-noise"
    shift = "noise:0.3"
    cross_check_samples = 3

    def prepare(self, rep):
        config = self.config
        self.weights = load_checkpoint(self.checkpoint, self.manifest["sha256"], config)
        self.weights_sha = weights_digest(self.weights)
        clean = dat.generate(dat.DatasetSpec(), seed=split_seed(self.seed, 0))
        self.ds = dat.apply_shift(clean, dat.ShiftSpec.parse(self.shift),
                                  seed=split_seed(self.seed, 1))
        self.classes = hz.class_set(self.ds)
        self.template = dat.template_ids()
        self.prompt_init = self.weights["token_embedding"].data[self.template].copy()
        self.tpt_config = ep.TPTConfig()
        self.k = max(1, int(np.floor(self.tpt_config.rho * self.tpt_config.n_views)))
        # the split is class-ordered: a seeded permutation spreads ops over
        # every class
        self.order = np.random.default_rng(split_seed(self.seed, 2)).permutation(len(self.ds))
        self.outputs = {}
        self._episode(int(self.order[0]), record_views=False)

    def _episode(self, sample, record_views):
        """As harness.evaluate_tpt runs one sample."""
        state = init_from_template(self.weights, self.config, self.template)
        cfg = replace(self.tpt_config,
                      seed=split_seed(self.tpt_config.seed, int(self.ds.ids[sample])))
        pred, averaged, trace = ep.tpt_classify(
            self.weights, self.config, state, self.classes, self.ds.images[sample],
            cfg, record_views=record_views)
        return state, pred, averaged, trace

    def _check(self, i, state, pred, averaged, trace):
        if trace["k"] != self.k:
            self.fail(i, f"selected {trace['k']} views, expected {self.k}")
        if not np.array_equal(state.prompt.data, self.prompt_init) or state.prompt.grad.any():
            self.fail(i, "prompt not reset to its init after the episode")
        if not (np.all(np.isfinite(averaged)) and abs(averaged.sum() - 1.0) <= 1e-9):
            self.fail(i, f"averaged distribution invalid: {averaged}")
        if pred != int(np.argmax(trace["post_original"])):
            self.fail(i, "prediction is not the argmax of post_original")

    def run(self, phases, tracer):
        n = len(self.order)
        stats = {"views_selected": 0.0, "selected_right": 0.0, "all_right": 0.0,
                 "right_to_wrong": 0, "wrong_to_right": 0, "entropy_drop": 0.0,
                 "ops": 0}
        self.layer_stats = stats

        def do_op(i, traced):
            sample = int(self.order[i % n])
            t0 = perf_counter()
            state, pred, averaged, trace = self._episode(sample, record_views=traced)
            latency = perf_counter() - t0
            if i == self.fault_op:
                averaged = averaged * np.nan
            self._check(i, state, pred, averaged, trace)
            label = int(self.ds.labels[sample])
            self.labelled_ops += 1
            self.correct_preds += pred == label
            if i < self.cross_check_samples:
                self.outputs[i] = (sample, pred, averaged, trace)
            if traced:
                self._selection_stats(stats, label, pred, trace)
            return latency

        self._closed_loop(phases, tracer, do_op)

    @staticmethod
    def _selection_stats(stats, label, pred, trace):
        views = trace["pre_views"]
        selected = trace["mask_indices"][0]
        view_preds = np.argmax(views, axis=1)
        before = int(np.argmax(trace["pre_original"]))
        stats["ops"] += 1
        stats["views_selected"] += len(selected) / len(views)
        stats["selected_right"] += float(np.mean(view_preds[selected] == label))
        stats["all_right"] += float(np.mean(view_preds == label))
        stats["right_to_wrong"] += before == label and pred != label
        stats["wrong_to_right"] += before != label and pred == label
        stats["entropy_drop"] += (ep.entropy(trace["pre_averaged"])
                                  - ep.entropy(trace["post_averaged"]))

    def finish(self):
        if 0 not in self.outputs:
            return  # op 0 raised; it already counts as failed
        sample, pred, averaged, trace = self.outputs[0]
        _, pred2, averaged2, trace2 = self._episode(sample, record_views=False)
        if (pred2 != pred or averaged2.tobytes() != averaged.tobytes()
                or trace2["losses"] != trace["losses"]
                or trace2["post_original"].tobytes() != trace["post_original"].tobytes()):
            self.fail(0, "repeated episode is not bit-identical")
        ops = sorted(self.outputs)
        samples = [self.outputs[i][0] for i in ops]
        _, preds, _ = hz.evaluate_tpt(self.weights, self.config, self.template,
                                      self.classes, self.ds.subset(samples),
                                      self.tpt_config)
        for i, p in zip(ops, preds):
            if int(p) != self.outputs[i][1]:
                self.fail(i, "op prediction differs from harness.evaluate_tpt")
        if weights_digest(self.weights) != self.weights_sha:
            self.fail("run", "model weights changed during the run")

    def layer_metrics(self, tracer):
        s = self.layer_stats
        n = max(1, s["ops"])
        return {
            "episode.views_selected_ratio": s["views_selected"] / n,
            "episode.selected_view_accuracy": s["selected_right"] / n,
            "episode.all_view_accuracy": s["all_right"] / n,
            "episode.flips_right_to_wrong": s["right_to_wrong"] / n,
            "episode.flips_wrong_to_right": s["wrong_to_right"] / n,
            "episode.marginal_entropy_drop": s["entropy_drop"] / n,
        }


class Bongard(Workload):
    """One bongard.tpt_reason task per op, default ReasonConfig."""

    name = "bongard"
    n_tasks = 128

    def prepare(self, rep):
        self.weights = load_checkpoint(self.checkpoint, self.manifest["sha256"], self.config)
        self.weights_sha = weights_digest(self.weights)
        self.tasks = bg.generate_tasks(self.n_tasks, seed=split_seed(self.seed, 0))
        self.reason_config = bg.ReasonConfig()
        self.first = None
        bg.tpt_reason(self.weights, self.config, self.tasks[0], self.reason_config)

    def run(self, phases, tracer):
        def do_op(i, traced):
            task = self.tasks[i % len(self.tasks)]
            t0 = perf_counter()
            pred, trace = bg.tpt_reason(self.weights, self.config, task,
                                        self.reason_config)
            latency = perf_counter() - t0
            if i == self.fault_op:
                pred = 2
            if pred not in (0, 1):
                self.fail(i, f"prediction {pred} not in {{0, 1}}")
            if not np.all(np.isfinite(trace["losses"])):
                self.fail(i, "non-finite support loss")
            self.labelled_ops += 1
            self.correct_preds += pred == task.query_label
            if i == 0:
                self.first = (pred, trace["losses"])
            return latency

        self._closed_loop(phases, tracer, do_op)

    def finish(self):
        pred, trace = bg.tpt_reason(self.weights, self.config, self.tasks[0],
                                    self.reason_config)
        if (pred, trace["losses"]) != self.first:
            self.fail(0, "repeated task is not bit-identical")
        if weights_digest(self.weights) != self.weights_sha:
            self.fail("run", "model weights changed during the run")


class _StopTraining(Exception):
    pass


class Pretrain(Workload):
    """Contrastive pretraining from init_weights with the checkpoint's
    recipe; one op is one batch, timed from one AdamW.step return to the
    next.

    A run trains for too few epochs to leave the loss plateau, so its own
    weights say nothing steady about quality.  `accuracy` is therefore the
    zero-shot accuracy, on held-out images, of the checkpoint that the
    full recipe produces.
    """

    name = "pretrain"
    warmup_pairs = 16
    heldout_per_class = 32

    def prepare(self, rep):
        self.checkpoint_weights = load_checkpoint(
            self.checkpoint, self.manifest["sha256"], self.config)
        recipe = self.manifest["recipe"]
        self.train_args = {k: v for k, v in recipe["pretrain"].items() if k != "epochs"}
        self.policy = AugmentPolicy(**{k: tuple(v) if isinstance(v, list) else v
                                       for k, v in recipe["policy"].items()})
        train = dat.generate(dat.DatasetSpec(), seed=split_seed(self.seed, 0))
        self.pairs = dat.caption_pairs(train)
        heldout = dat.generate(dat.DatasetSpec(samples_per_class=self.heldout_per_class),
                               seed=split_seed(self.seed, 1))
        self.heldout = heldout
        batch = self.train_args["batch"]
        self.batches_per_epoch = sum(
            1 for s in range(0, len(self.pairs), batch) if len(self.pairs[s:s + batch]) >= 2)
        self.weights = mdl.init_weights(self.config, seed=self.train_args["seed"])
        warm = mdl.init_weights(self.config, seed=self.train_args["seed"])
        mdl.pretrain_contrastive(warm, self.config, self.pairs[:self.warmup_pairs],
                                 epochs=1, augment_policy=self.policy, **self.train_args)

    def run(self, phases, tracer):
        """One pretrain_contrastive call per phase, each from init_weights,
        so that a traced phase is traced from the call's first line."""
        self.op_spans = []  # (op, ms) of traced ops
        self.epoch_losses = None
        for n, phase in enumerate(phases):
            if n:
                self.weights = mdl.init_weights(self.config, seed=self.train_args["seed"])
            # the first call must cover the two epochs the loss check compares
            losses = self._train(phase, tracer,
                                 min_ops=2 * self.batches_per_epoch if n == 0 else 1)
            if n == 0:
                self.epoch_losses = losses
            if not all(np.all(np.isfinite(t.data)) for t in self.weights.values()):
                self.fail("run", "non-finite weights after training")

    def _train(self, phase, tracer, min_ops):
        losses = []
        last = {"t": None}

        def tick():
            now = perf_counter()
            i = self.attempted
            self.attempted += 1
            latency = now - last["t"]
            last["t"] = now
            if i == self.fault_op:
                losses[-1] = math.nan
            if len(losses) != phase.ops + 1 or not math.isfinite(losses[-1]):
                self.fail(i, "non-finite or missing batch loss")
                latency = math.inf
            phase.record(latency)
            if phase.traced:
                self.op_spans.append((i, latency * 1e3))
            if phase.expired(now) and len(losses) >= min_ops:
                phase.t_end = now
                raise _StopTraining
            if tracer is not None:
                tracer.op = self.attempted
            last["t"] = perf_counter()  # the next batch starts after the probe

        def backward(tape, loss):
            losses.append(loss.item())
            return original_backward(tape, loss)

        def step(opt):
            original_step(opt)
            tick()

        # the tracer goes in first, so that its spans exclude the hooks
        if phase.traced:
            tracer.install()
            tracer.reset_counts()
        original_backward, original_step = Tape.backward, AdamW.step
        hooks = Patches()
        hooks.replace(Tape, "backward", backward)
        hooks.replace(AdamW, "step", step)
        if tracer is not None:
            tracer.op = self.attempted
        phase.t_start = last["t"] = perf_counter()
        try:
            mdl.pretrain_contrastive(self.weights, self.config, self.pairs,
                                     epochs=10 ** 6, augment_policy=self.policy,
                                     **self.train_args)
            self.fail("run", "pretraining ended before the benchmark stopped it")
        except _StopTraining:
            pass
        except Exception:  # the batch that raised is a failed op
            self.fail(self.attempted, traceback.format_exc(limit=4))
            self.attempted += 1
            phase.record(math.inf)
        finally:
            if phase.t_end is None:
                phase.t_end = perf_counter()
            hooks.undo()
            if phase.traced:
                tracer.uninstall()
        return losses

    def finish(self):
        bpe, losses = self.batches_per_epoch, self.epoch_losses
        if len(losses) >= 2 * bpe:
            first = float(np.mean(losses[:bpe]))
            second = float(np.mean(losses[bpe:2 * bpe]))
            if not second < first:
                self.fail("run", f"mean loss did not fall: epoch 1 {first:.4f}, "
                                 f"epoch 2 {second:.4f}")
        else:
            self.fail("run", "fewer than two epochs trained")
        self.zero_shot, _ = hz.evaluate_zero_shot(
            self.checkpoint_weights, self.config, dat.template_ids(),
            hz.class_set(self.heldout), self.heldout)

    def accuracy(self):
        return self.zero_shot

    def layer_metrics(self, tracer):
        root = tracer.root_ms()
        self_ms = [ms - root.get(i, 0.0) for i, ms in self.op_spans]
        return {"model.pretrain_contrastive.self_ms_per_op":
                sum(self_ms) / max(1, len(self_ms))}


WORKLOADS = {w.name: w for w in (EpisodeNoise, Bongard, Pretrain)}
