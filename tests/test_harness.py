import argparse
import csv
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import read_results

from tpt import cli
from tpt import data as dat
from tpt import episode as ep
from tpt import harness as hz
from tpt import model as mdl
from tpt.augment import AugmentPolicy, split_seed
from tpt.autodiff import Tape, Tensor
from tpt.episode import TPTConfig
from tpt.optim import AdamW
from tpt.prompt import init_from_template


@pytest.fixture(scope="module")
def config():
    return mdl.ModelConfig()


@pytest.fixture(scope="module")
def weights(config):
    return mdl.init_weights(config, seed=0)


@pytest.fixture(scope="module")
def varied_weights(config):
    """Random weights whose predictions differ across the dataset's samples
    (under seed 0 every sample gets class 0)."""
    return mdl.init_weights(config, seed=2)


@pytest.fixture(scope="module")
def dataset():
    return dat.generate(dat.DatasetSpec(samples_per_class=2), seed=3)


@pytest.fixture(scope="module")
def classes(dataset):
    return hz.class_set(dataset)


TEMPLATE = dat.template_ids()
FAST = TPTConfig(n_views=4, rho=0.5)


class TestZeroShot:
    def test_prediction_shape_and_range(self, weights, config, classes, dataset):
        acc, preds = hz.evaluate_zero_shot(weights, config, TEMPLATE, classes,
                                           dataset)
        assert preds.shape == (len(dataset),)
        assert 0.0 <= acc <= 1.0
        assert preds.min() >= 0 and preds.max() < len(classes)

    def test_matches_tpt_with_zero_lr(self, varied_weights, config, classes,
                                      dataset):
        # a null update must reproduce zero-shot exactly
        _, zero_shot = hz.evaluate_zero_shot(varied_weights, config, TEMPLATE,
                                             classes, dataset)
        _, tuned, _ = hz.evaluate_tpt(varied_weights, config, TEMPLATE, classes,
                                      dataset, replace(FAST, lr=0.0))
        assert len(set(zero_shot.tolist())) > 1
        np.testing.assert_array_equal(tuned, zero_shot)


class TestEvaluateTpt:
    def test_order_invariance(self, weights, config, classes, dataset):
        _, preds, _ = hz.evaluate_tpt(weights, config, TEMPLATE, classes,
                                      dataset, FAST)
        perm = np.random.default_rng(0).permutation(len(dataset))
        _, shuffled, _ = hz.evaluate_tpt(weights, config, TEMPLATE, classes,
                                         dataset.subset(perm), FAST)
        np.testing.assert_array_equal(shuffled, preds[perm])

    def test_traces_align_with_predictions(self, weights, config, classes,
                                           dataset):
        _, preds, traces = hz.evaluate_tpt(weights, config, TEMPLATE, classes,
                                           dataset, FAST)
        assert len(traces) == len(dataset)
        for i, t in enumerate(traces):
            assert t["prediction"] == preds[i]
            assert t["sample_id"] == int(dataset.ids[i])
            assert len(t["pre_original"]) == len(classes)
            assert 1 <= t["distinct_selected"] <= t["k"]
            assert t["distinct_selected"] <= t["distinct_views"] <= FAST.n_views

    def test_traces_leave_out_the_stage_timings(self, weights, config, classes, dataset):
        """The episode's wall-clock stage_ms stays out of the traces, so a
        rerun writes the same traces."""
        runs = [hz.evaluate_tpt(weights, config, TEMPLATE, classes, dataset, FAST)[2]
                for _ in range(2)]
        assert all("stage_ms" not in t for t in runs[0])
        assert runs[0] == runs[1]


class TestBaselines:
    def test_outputs_in_range(self, weights, config, classes, dataset):
        for fn in (hz.baseline_averaged_prediction, hz.baseline_majority_vote):
            acc, preds = fn(weights, config, TEMPLATE, classes, dataset, FAST)
            assert 0.0 <= acc <= 1.0
            assert preds.shape == (len(dataset),)

    def test_pool_the_episode_view_distributions(self, varied_weights, config,
                                                 classes, dataset):
        _, avg = hz.baseline_averaged_prediction(varied_weights, config, TEMPLATE,
                                                 classes, dataset, FAST)
        _, vote = hz.baseline_majority_vote(varied_weights, config, TEMPLATE,
                                            classes, dataset, FAST)
        for i in range(len(dataset)):
            cfg = replace(FAST, seed=split_seed(FAST.seed, int(dataset.ids[i])))
            state = init_from_template(varied_weights, config, TEMPLATE)
            _, _, trace = ep.tpt_classify(varied_weights, config, state, classes,
                                          dataset.images[i], cfg, record_views=True)
            views = trace["pre_views"]
            assert avg[i] == np.argmax(views.mean(axis=0))
            votes = np.bincount(np.argmax(views, axis=1), minlength=len(classes))
            assert vote[i] == np.argmax(votes)
        assert len(set(avg.tolist())) > 1

    def test_pooled_rows_are_the_episode_view_distributions(
            self, varied_weights, config, classes, dataset):
        """Each distinct view is encoded once, yet the pool sees all N
        views' distributions, bit for bit, copies included."""
        cfg = TPTConfig()
        pooled = []
        hz._pool_views(varied_weights, config, TEMPLATE, classes, dataset.subset([0, 5]),
                       cfg, lambda probs: pooled.append(probs) or 0)
        for i, probs in zip((0, 5), pooled, strict=True):
            seeded = replace(cfg, seed=split_seed(cfg.seed, int(dataset.ids[i])))
            state = init_from_template(varied_weights, config, TEMPLATE)
            _, _, trace = ep.tpt_classify(varied_weights, config, state, classes,
                                          dataset.images[i], seeded, record_views=True)
            np.testing.assert_array_equal(probs, trace["pre_views"])

    def test_several_pools_take_one_pass(self, varied_weights, config, classes,
                                         dataset, monkeypatch):
        """One prediction array per pool, each that of its baseline, from
        one set of views per sample."""
        calls = []
        views = hz.generate_views
        monkeypatch.setattr(hz, "generate_views", lambda *a: calls.append(1) or views(*a))
        pooled = hz._pool_views(varied_weights, config, TEMPLATE, classes, dataset, FAST,
                                hz.averaged_prediction, hz.majority_vote)
        assert len(calls) == len(dataset)
        monkeypatch.undo()
        for fn, preds in zip((hz.baseline_averaged_prediction, hz.baseline_majority_vote),
                             pooled, strict=True):
            acc, want = fn(varied_weights, config, TEMPLATE, classes, dataset, FAST)
            assert preds.tobytes() == want.tobytes() and preds.dtype == want.dtype
            assert acc == np.mean(preds == dataset.labels)

    def test_single_view_baselines_agree(self, weights, config, classes,
                                         dataset):
        cfg = TPTConfig(n_views=1, rho=1.0)
        _, a = hz.baseline_averaged_prediction(weights, config, TEMPLATE,
                                               classes, dataset, cfg)
        _, b = hz.baseline_majority_vote(weights, config, TEMPLATE, classes,
                                         dataset, cfg)
        _, z = hz.evaluate_zero_shot(weights, config, TEMPLATE, classes, dataset)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, z)  # single view is the original image


class TestFewshot:
    def test_training_reduces_support_loss(self, weights, config, classes,
                                           dataset):
        def support_loss(state):
            tf = ep.text_features(weights, config, state, classes).data
            feats = np.concatenate(
                [mdl.encode_image(weights, config, im).data
                 for im in dataset.images[:8]])
            logits = config.logit_scale * (feats @ tf.T)
            z = logits - logits.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            rows = p[np.arange(8), dataset.labels[:8]]
            return -np.log(np.maximum(rows, 1e-12)).mean()

        before = init_from_template(weights, config, TEMPLATE)
        after = hz.fewshot_train_prompt(weights, config, classes,
                                        dataset.images[:8], dataset.labels[:8])
        assert support_loss(after) < support_loss(before)

    def test_episode_from_the_coop_state_restores_it(self, varied_weights,
                                                     config, classes, dataset):
        state = hz.fewshot_train_prompt(varied_weights, config, classes,
                                        dataset.images[:4], dataset.labels[:4])
        tuned = state.prompt.data.copy()
        assert state.prompt.grad.any()  # the fit's last backward is left in place
        _, _, trace = ep.tpt_classify(varied_weights, config, state, classes,
                                      dataset.images[5], FAST)
        assert not np.array_equal(trace["pre_original"], trace["post_original"])
        np.testing.assert_array_equal(state.prompt.data, tuned)
        assert not state.prompt.grad.any()

    def test_prompt_equals_inline_reference(self, varied_weights, config, classes,
                                            dataset):
        images, labels = dataset.images[:8], dataset.labels[:8]
        got = hz.fewshot_train_prompt(varied_weights, config, classes, images, labels)
        want = reference_coop_prompt(varied_weights, config, classes, images, labels)
        assert not np.array_equal(want, init_from_template(
            varied_weights, config, TEMPLATE).prompt.data)
        np.testing.assert_array_equal(got.prompt.data, want)


def reference_coop_prompt(weights, config, classes, images, labels):
    """The CoOp prompt from its training loop written inline, as it was
    before the loop moved into bongard.fit_prompt."""
    state = init_from_template(weights, config, dat.template_ids())
    feats = mdl.encode_images(weights, config, images)
    onehot = Tensor(np.eye(len(classes))[np.asarray(labels)])
    opt = AdamW(state.params(), lr=hz.COOP_LR)
    for _ in range(hz.COOP_EPOCHS):
        with Tape() as tape:
            tfeats = ep.text_features(weights, config, state, classes)
            loss, _ = mdl.cross_entropy(
                mdl.class_logits(tfeats, feats, config.logit_scale), onehot)
            opt.zero_grad()
            tape.backward(loss)
        opt.step()
    return state.prompt.data


class TestAblate:
    def test_grid_expansion(self, weights, config, classes, dataset):
        rows = hz.ablate(weights, config, TEMPLATE, classes, dataset, FAST,
                         {"rho": [0.5, 1.0], "steps": [1]}, seeds=(0, 1),
                         shift_label="none")
        assert len(rows) == 4
        methods = {r["method"] for r in rows}
        assert methods == {"tpt[rho=0.5,steps=1]", "tpt[rho=1.0,steps=1]"}
        assert {r["seed"] for r in rows} == {0, 1}

    def test_empty_grid_single_run(self, weights, config, classes, dataset):
        rows = hz.ablate(weights, config, TEMPLATE, classes, dataset, FAST, {},
                         seeds=(0,), shift_label="none")
        assert len(rows) == 1 and rows[0]["method"] == "tpt"


class TestGradcheck:
    def test_all_ops_pass(self):
        checks = hz.gradcheck_report(seed=0)
        # every check, in order: c01 passes whatever subset the report returns
        assert [n for n, _ in checks] == [
            "matmul", "softmax_rows", "layer_norm", "gelu", "l2_normalize_rows",
            "mean_rows", "log", "marginal_entropy_loss_vs_prompt",
            "marginal_entropy_loss_vs_prompt_kept_start", "matmul_shared_weight",
            "attention", "mlp", "log_softmax_rows"]
        for name, err in checks:
            assert err <= 1e-4, f"{name}: {err}"


class TestResultsFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [{"method": "tpt", "shift": "noise:0.3", "accuracy": 0.75,
                 "n": 16, "seed": 0}]
        hz.write_results(path, rows, {"shift": "noise:0.3", "seed": "0"})
        header, back = read_results(path)
        assert header["version"] == hz.VERSION
        assert header["shift"] == "noise:0.3"
        assert back[0]["method"] == "tpt"
        assert float(back[0]["accuracy"]) == 0.75


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestConfigFile:
    """`--config FILE`: each key=value line sets the flag --key, parsed
    by argparse together with the command line."""

    @staticmethod
    def parse_eval(monkeypatch, argv):
        """The typed args that `tpt eval ARGV` hands to cmd_eval."""
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args) or 0)
        assert cli.main(["eval", *argv]) == 0
        return seen[0]

    def test_file_lines_become_flags(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "# comment\nrho = 0.5\nviews=8  # trailing\n"
                                     "\nshift=noise:0.3\naug=augmix\n")
        args = self.parse_eval(monkeypatch, ["--weights", "w", "--method", "tpt",
                                             "--config", cfg])
        assert (args.rho, args.views, args.shift, args.aug) == (0.5, 8, "noise:0.3",
                                                                "augmix")
        assert args.steps == TPTConfig().steps and args.samples is None

    def test_command_line_wins(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "rho=0.1\nviews=8\n")
        for argv in (["--config", cfg, "--rho", "0.5"],
                     ["--rho", "0.5", "--config", cfg]):
            args = self.parse_eval(monkeypatch,
                                   ["--weights", "w", "--method", "tpt", *argv])
            assert (args.rho, args.views) == (0.5, 8)

    def test_required_flags_from_the_file(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "weights=w.tptw\nmethod=vote\n")
        args = self.parse_eval(monkeypatch, ["--config", cfg])
        assert (args.weights, args.method) == ("w.tptw", "vote")

    def test_unknown_key_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, "roh=0.5\n")
        with pytest.raises(SystemExit) as exit_:
            self.parse_eval(monkeypatch, ["--weights", "w", "--method", "tpt",
                                          "--config", cfg])
        assert exit_.value.code == 2
        assert "--roh=0.5" in capsys.readouterr().err

    def test_value_is_typed_like_the_flag(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, "views=abc\n")
        with pytest.raises(SystemExit) as exit_:
            self.parse_eval(monkeypatch, ["--weights", "w", "--method", "tpt",
                                          "--config", cfg])
        assert exit_.value.code == 2
        assert "argument --views: invalid int value: 'abc'" in capsys.readouterr().err

    def test_line_without_equals_names_the_file(self, tmp_path):
        cfg = write_config(tmp_path, "rho=0.1\nviews\n")
        with pytest.raises(ValueError,
                           match=r"run\.cfg:2: expected key=value, got 'views'"):
            cli.main(["eval", "--weights", "w", "--method", "tpt", "--config", cfg])

    def test_header_records_every_setting_read(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "res.csv"
        cfg = write_config(tmp_path, "views=2\n")
        assert cli.main(["eval", "--weights", str(wpath), "--method", "tpt",
                         "--samples", "1", "--config", cfg, "--out", str(out)]) == 0
        header, _ = read_results(out)
        assert header == {
            "version": hz.VERSION, "command": "eval", "weights": str(wpath),
            "method": "tpt", "shift": "none", "aug": "rrc", "rho": "0.1",
            "views": "2", "steps": "1", "lr": "0.005", "samples": "1", "seed": "0",
            "out": str(out)}


class TestCli:
    def test_eval_zeroshot_writes_results_csv(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "res.csv"
        rc = cli.main(["eval", "--weights", str(wpath), "--method", "zeroshot",
                       "--samples", "8", "--out", str(out)])
        assert rc == 0
        header, rows = read_results(out)
        assert rows[0]["method"] == "zeroshot"
        assert int(rows[0]["n"]) == 8

    def test_cli_tpt_writes_traces(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "res.csv"
        rc = cli.main(["eval", "--weights", str(wpath), "--method", "tpt",
                       "--samples", "2", "--views", "4", "--rho", "0.5",
                       "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "res.csv.traces.jsonl").exists()

    def test_eval_rejects_weights_of_another_config(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights({**weights, "token_embedding": Tensor(np.zeros((64, 16)))},
                         wpath)
        with pytest.raises(ValueError, match="w.tptw: tensor"):
            cli.main(["eval", "--weights", str(wpath), "--method", "zeroshot",
                      "--samples", "2"])

    def test_pretrain_uses_the_recipe(self, tmp_path, monkeypatch):
        seen = {}

        def fake_pretrain(weights, config, pairs, **kwargs):
            seen.update(kwargs, pairs=pairs)
            return weights, [0.0]

        monkeypatch.setattr(mdl, "pretrain_contrastive", fake_pretrain)
        assert cli.main(["pretrain", "--out", str(tmp_path / "w.tptw")]) == 0
        policy = seen.pop("augment_policy")
        train = dat.generate(dat.DatasetSpec(), seed=mdl.TRAIN_DATA_SEED)
        expected = dat.caption_pairs(train)
        pairs = seen.pop("pairs")
        assert seen == mdl.PRETRAIN
        assert policy == AugmentPolicy(**mdl.PRETRAIN_POLICY)
        assert len(pairs) == len(expected)
        for (img, ids), (want_img, want_ids) in zip(pairs, expected):
            np.testing.assert_array_equal(img, want_img)
            assert list(ids) == list(want_ids)

    def test_gradcheck_exit_code(self):
        assert cli.main(["gradcheck"]) == 0

    @pytest.mark.parametrize("shift", ["none", "noise:0.3"])
    def test_dump_dist_writes_the_episode_eval_runs(self, tmp_path, varied_weights,
                                                   config, shift):
        """The dumped views are those of the episode evaluate_tpt runs on
        the sample: the episode seed is split by the sample's id."""
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(varied_weights, wpath)
        out = tmp_path / "dist"
        assert cli.main(["dump-dist", "--weights", str(wpath), "--sample", "3",
                         "--views", "8", "--rho", "0.5", "--samples", "8",
                         "--shift", shift, "--seed", "4", "--out", str(out)]) == 0
        ds = cli._build_dataset(argparse.Namespace(shift=shift, samples=8))
        cfg = TPTConfig(n_views=8, rho=0.5, seed=split_seed(4, int(ds.ids[3])))
        state = init_from_template(varied_weights, config, TEMPLATE)
        _, _, trace = ep.tpt_classify(varied_weights, config, state,
                                      hz.class_set(ds), ds.images[3], cfg,
                                      record_views=True)
        for tag, when in (("before", "pre"), ("after", "post")):
            with open(f"{out}.{tag}.csv", newline="") as f:
                rows = list(csv.reader(f))
            assert rows[0] == ["view", *ds.class_names]
            assert rows[1:] == [[str(v), *(f"{p:.6f}" for p in row)]
                                for v, row in enumerate(trace[f"{when}_views"])]

    def test_ablate_writes_a_row_per_grid_point_and_seed(self, tmp_path,
                                                        varied_weights, config):
        """Each row is evaluate_tpt's accuracy for its config; the header
        records the grids and leaves out the base flags they replace."""
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(varied_weights, wpath)
        out = tmp_path / "ablation.csv"
        assert cli.main(["ablate", "--weights", str(wpath), "--samples", "6",
                         "--views", "8", "--shift", "noise:0.3",
                         "--grid-rho", "0.5,1.0", "--grid-steps", "1,2",
                         "--seeds", "0,1", "--out", str(out)]) == 0
        header, rows = read_results(out)
        assert header["grid_rho"] == "[0.5, 1.0]"
        assert header["grid_steps"] == "[1, 2]"
        assert header["views"] == "8"
        assert "rho" not in header and "steps" not in header
        assert len(rows) == 8
        ds = cli._build_dataset(argparse.Namespace(shift="noise:0.3", samples=6))
        classes = hz.class_set(ds)
        runs = [(rho, steps, seed) for rho in (0.5, 1.0) for steps in (1, 2)
                for seed in (0, 1)]
        assert [(r["method"], r["seed"]) for r in rows] == [
            (f"tpt[rho={rho},steps={steps}]", str(seed)) for rho, steps, seed in runs]
        for row, (rho, steps, seed) in zip(rows, runs):
            cfg = TPTConfig(n_views=8, rho=rho, steps=steps, seed=seed)
            acc, _, _ = hz.evaluate_tpt(varied_weights, config, TEMPLATE, classes,
                                        ds, cfg)
            assert float(row["accuracy"]) == acc

    def test_dump_dist_rejects_sample_out_of_range(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        for sample in ("-1", "2"):
            with pytest.raises(SystemExit, match=f"--sample {sample} is out of range: "
                                                 "the dataset has 2 samples, 0 to 1"):
                cli.main(["dump-dist", "--weights", str(wpath), "--sample", sample,
                          "--samples", "2", "--out", str(tmp_path / "dist")])
        assert not (tmp_path / "dist.before.csv").exists()

    @pytest.mark.parametrize("command,flag,bad", [
        *[(c, f, v) for c in ("eval", "ablate", "dump-dist")
          for f in ("--samples", "--views", "--steps") for v in ("0", "-3")],
        ("pretrain", "--epochs", "0"), ("pretrain", "--epochs", "-1"),
        ("bongard", "--tasks", "0"), ("bongard", "--tasks", "-3"),
        ("ablate", "--grid-views", "2,0"), ("ablate", "--grid-steps", "1,-1"),
        ("bongard", "--steps", "-1"),
        *[(c, "--rho", v) for c in ("eval", "ablate", "dump-dist")
          for v in ("0", "1.5", "nan")],
        ("ablate", "--grid-rho", "0.1,0"),
        *[(c, "--lr", v) for c in ("eval", "ablate", "dump-dist", "bongard")
          for v in ("nan", "inf", "-0.01")],
        ("ablate", "--grid-group", "prompt,logit_scale"),
    ])
    def test_bad_flag_value_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                    command, flag, bad):
        """Every count, fraction, rate and group flag is checked by argparse,
        before any file is read or written."""
        out = tmp_path / "out"
        required = {"eval": ["--method", "tpt"]}.get(command, [])
        weights = [] if command == "pretrain" else [
            "--weights", str(tmp_path / "absent.tptw")]
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, *weights, *required, f"{flag}={bad}",
                      "--out", str(out)])
        assert exit_.value.code == 2
        assert f"argument {flag}: takes " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "ablate", "dump-dist"])
    @pytest.mark.parametrize("bad", ["noise:-1", "noise:x", "fog", "channel_drop:3"])
    def test_bad_shift_exits_2_naming_the_flag(self, tmp_path, capsys, command, bad):
        """--shift is parsed and checked by argparse, before any file is
        read or written."""
        out = tmp_path / "out"
        required = {"eval": ["--method", "tpt"]}.get(command, [])
        weights = ["--weights", str(tmp_path / "absent.tptw")]
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, *weights, *required, f"--shift={bad}", "--out", str(out)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "argument --shift: " in err and err.count("--shift") == 1
        assert not out.exists()

    def test_fewshot_shots_come_from_the_training_images(self, tmp_path, weights,
                                                         monkeypatch):
        """CoOp's shots are pretraining images, none of them one that
        `tpt eval` scores."""
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        shots = []
        train = hz.fewshot_train_prompt

        def recording(w, c, classes, images, labels):
            shots.extend(images)
            return train(w, c, classes, images, labels)

        monkeypatch.setattr(hz, "fewshot_train_prompt", recording)
        assert cli.main(["eval", "--weights", str(wpath), "--method", "coop",
                         "--samples", "2"]) == 0

        def images(seed):
            return {im.tobytes()
                    for im in dat.generate(dat.DatasetSpec(), seed=seed).images}

        evaluated, training = images(cli._DATA_SEED), images(mdl.TRAIN_DATA_SEED)
        assert len(shots) == hz.COOP_SHOTS * len(dat.DatasetSpec.class_names)
        assert len({im.tobytes() for im in shots}) == len(shots)
        assert all(im.tobytes() in training and im.tobytes() not in evaluated
                   for im in shots)

    @pytest.mark.parametrize("shift,samples", [("none", None), ("noise:0.3", 8)])
    def test_eval_scores_the_data_seed_set(self, tmp_path, weights, monkeypatch,
                                           shift, samples):
        """`tpt eval` scores the set of data seed 1 whatever its --seed,
        which seeds the episodes: the shift draws from seed 2 and the
        --samples subset from seed 3."""
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        scored = []

        def recording(w, c, template, classes, dataset):
            scored.append(dataset)
            return 1.0, np.zeros(len(dataset), dtype=int)

        monkeypatch.setattr(hz, "evaluate_zero_shot", recording)
        subset = [] if samples is None else ["--samples", str(samples)]
        for seed in ("0", "5"):
            assert cli.main(["eval", "--weights", str(wpath), "--method", "zeroshot",
                             "--shift", shift, *subset, "--seed", seed]) == 0
        want = dat.generate(dat.DatasetSpec(), seed=1)
        if shift != "none":
            want = dat.apply_shift(want, dat.ShiftSpec.parse(shift), seed=2)
        if samples is not None:
            keep = np.random.default_rng(3).permutation(len(want))[:samples]
            want = want.subset(np.sort(keep))
        assert len(scored) == 2
        for ds in scored:
            np.testing.assert_array_equal(ds.images, want.images)
            np.testing.assert_array_equal(ds.labels, want.labels)
            np.testing.assert_array_equal(ds.ids, want.ids)

    @pytest.mark.parametrize("command", ["gen-data", "fewshot-train"])
    def test_removed_command_exits_2(self, tmp_path, capsys, command):
        """Commands that wrote files nothing reads are gone: argparse
        refuses them as unknown."""
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gradcheck_takes_no_out(self):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["gradcheck", "--out", "report.txt"])
        assert exit_.value.code == 2

    def test_bongard_csv(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "bongard.csv"
        rc = cli.main(["bongard", "--weights", str(wpath), "--tasks", "2",
                       "--steps", "2", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("split,")

    def test_bongard_reports_only_splits_with_tasks(self, tmp_path, weights, capsys):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "bongard.csv"
        assert cli.main(["bongard", "--weights", str(wpath), "--tasks", "2",
                         "--steps", "1", "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(rows) >= 1
        assert sum(int(r["n"]) for r in rows) == 2
        for row, line in zip(rows, printed):
            assert int(row["n"]) >= 1 and row["accuracy"] != "nan"
            assert line.startswith(row["split"] + ": ") and "nan" not in line

    @pytest.mark.parametrize("method, read", [
        ("zeroshot", {}), ("ensemble", {}),
        ("avgpred", {"aug": "rrc", "views": "4", "seed": "3"}),
        ("vote", {"aug": "rrc", "views": "4", "seed": "3"}),
        ("coop", {"seed": "3"})])
    def test_header_records_only_what_the_method_reads(self, tmp_path, weights,
                                                       method, read):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "res.csv"
        assert cli.main(["eval", "--weights", str(wpath), "--method", method,
                         "--views", "4", "--seed", "3", "--samples", "2",
                         "--out", str(out)]) == 0
        header, rows = read_results(out)
        assert header == {"version": hz.VERSION, "command": "eval",
                          "weights": str(wpath), "method": method, "shift": "none",
                          "samples": "2", "out": str(out), **read}
        assert rows[0]["seed"] == read.get("seed", "")


def readme_commands():
    """Every `tpt ...` line of README's CLI block, as an argv list."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tpt ")]


def test_readme_shows_every_subcommand():
    subparsers, = (a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in readme_commands()} == set(subparsers.choices)


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv, monkeypatch):
    called = []
    for name in list(vars(cli)):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name))
    cli.main(argv)
    assert called == ["cmd_" + argv[0].replace("-", "_")]
