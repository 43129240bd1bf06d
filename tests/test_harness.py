import csv
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tpt import cli
from tpt import data as dat
from tpt import harness as hz
from tpt import model as mdl
from tpt.augment import AugmentPolicy, split_seed
from tpt.episode import TPTConfig


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
            views, _ = hz.dump_distributions(varied_weights, config, TEMPLATE,
                                                classes, dataset.images[i], cfg)
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
            views, _ = hz.dump_distributions(varied_weights, config, TEMPLATE,
                                             classes, dataset.images[i], seeded)
            np.testing.assert_array_equal(probs, views)

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
    def test_zero_epochs_is_template_prompt(self, weights, config, classes,
                                            dataset):
        state = hz.fewshot_train_prompt(weights, config, classes,
                                        dataset.images[:4], dataset.labels[:4],
                                        epochs=0)
        np.testing.assert_array_equal(
            state.prompt.data, weights["token_embedding"].data[list(TEMPLATE)])

    def test_training_reduces_support_loss(self, weights, config, classes,
                                           dataset):
        import tpt.episode as ep

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

        before = hz.fewshot_train_prompt(weights, config, classes,
                                         dataset.images[:8], dataset.labels[:8],
                                         epochs=0)
        after = hz.fewshot_train_prompt(weights, config, classes,
                                        dataset.images[:8], dataset.labels[:8],
                                        epochs=25, lr=0.01)
        assert support_loss(after) < support_loss(before)

    def test_returned_state_resets_to_tuned_values(self, weights, config,
                                                   classes, dataset):
        state = hz.fewshot_train_prompt(weights, config, classes,
                                        dataset.images[:4], dataset.labels[:4],
                                        epochs=2)
        tuned = state.prompt.data.copy()
        state.prompt.data += 1.0
        state.reset()
        np.testing.assert_array_equal(state.prompt.data, tuned)


class TestAblate:
    def test_grid_expansion(self, weights, config, classes, dataset):
        rows = hz.ablate(weights, config, TEMPLATE, classes, dataset, FAST,
                         {"rho": [0.5, 1.0], "steps": [1]}, seeds=(0, 1))
        assert len(rows) == 4
        methods = {r["method"] for r in rows}
        assert methods == {"tpt[rho=0.5,steps=1]", "tpt[rho=1.0,steps=1]"}
        assert {r["seed"] for r in rows} == {0, 1}

    def test_empty_grid_single_run(self, weights, config, classes, dataset):
        rows = hz.ablate(weights, config, TEMPLATE, classes, dataset, FAST, {})
        assert len(rows) == 1 and rows[0]["method"] == "tpt"


class TestGradcheck:
    def test_all_ops_pass(self):
        checks = hz.gradcheck_report(seed=0)
        names = [n for n, _ in checks]
        assert "marginal_entropy_loss_vs_prompt" in names
        for name, err in checks:
            assert err <= 1e-4, f"{name}: {err}"


class TestResultsFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [{"method": "tpt", "shift": "noise:0.3", "accuracy": 0.75,
                 "n": 16, "seed": 0}]
        hz.write_results(path, rows, {"shift": "noise:0.3", "seed": "0"})
        header, back = hz.read_results(path)
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
        header, _ = hz.read_results(out)
        assert header == {
            "version": hz.VERSION, "command": "eval", "weights": str(wpath),
            "method": "tpt", "shift": "none", "aug": "rrc", "rho": "0.1",
            "views": "2", "steps": "1", "lr": "0.005", "samples": "1", "seed": "0",
            "out": str(out)}


class TestCli:
    def test_gen_data_and_eval_roundtrip(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "res.csv"
        rc = cli.main(["eval", "--weights", str(wpath), "--method", "zeroshot",
                       "--samples", "8", "--out", str(out)])
        assert rc == 0
        header, rows = hz.read_results(out)
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

    def test_gen_data_writes_manifest(self, tmp_path):
        out = tmp_path / "ds"
        rc = cli.main(["gen-data", "--samples", "4", "--out", str(out)])
        assert rc == 0
        back = dat.load_dataset(str(out))
        assert len(back) == 4

    def test_eval_rejects_weights_of_another_config(self, tmp_path):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(mdl.init_weights(mdl.ModelConfig(embed_dim=16)), wpath)
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

    def test_dump_dist_writes_csvs(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "dist"
        rc = cli.main(["dump-dist", "--weights", str(wpath), "--sample", "0",
                       "--views", "4", "--rho", "0.5", "--samples", "2",
                       "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "dist.before.csv").exists()
        assert (tmp_path / "dist.after.csv").exists()

    def test_dump_dist_rejects_sample_out_of_range(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        for sample in ("-1", "2"):
            with pytest.raises(SystemExit, match=f"--sample {sample} is out of range: "
                                                 "the dataset has 2 samples, 0 to 1"):
                cli.main(["dump-dist", "--weights", str(wpath), "--sample", sample,
                          "--samples", "2", "--out", str(tmp_path / "dist")])
        assert not (tmp_path / "dist.before.csv").exists()

    def test_samples_must_be_positive(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        for samples in ("0", "-3"):
            with pytest.raises(SystemExit, match=f"--samples {samples}: need at least 1"):
                cli.main(["eval", "--weights", str(wpath), "--method", "zeroshot",
                          "--samples", samples, "--out", str(tmp_path / "res.csv")])
        assert not (tmp_path / "res.csv").exists()

    def test_epochs_must_be_positive(self, tmp_path):
        out = tmp_path / "w.tptw"
        for epochs in ("0", "-1"):
            with pytest.raises(SystemExit, match=f"--epochs {epochs}: need at least 1"):
                cli.main(["pretrain", "--epochs", epochs, "--out", str(out)])
        assert not out.exists()

    def test_shots_must_be_positive(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "prompt.tptw"
        for shots in ("0", "-2"):
            with pytest.raises(SystemExit, match=f"--shots {shots}: need at least 1"):
                cli.main(["fewshot-train", "--weights", str(wpath), "--shots", shots,
                          "--out", str(out)])
        assert not out.exists()

    def test_tasks_must_be_positive(self, tmp_path, weights):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "bongard.csv"
        for tasks in ("0", "-3"):
            with pytest.raises(SystemExit, match=f"--tasks {tasks}: need at least 1"):
                cli.main(["bongard", "--weights", str(wpath), "--tasks", tasks,
                          "--out", str(out)])
        assert not out.exists()

    def test_gen_data_seed_is_the_data_seed(self, tmp_path):
        def images(*flags):
            out = tmp_path / "-".join(("ds",) + flags)
            assert cli.main(["gen-data", "--samples", "4", *flags,
                             "--out", str(out)]) == 0
            return dat.load_dataset(str(out)).images

        np.testing.assert_array_equal(images(), images("--seed", "1"))
        assert not np.array_equal(images("--seed", "5"), images("--seed", "9"))

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
        ("avgpred", {"aug": "rrc", "views": "4", "seed": "0"}),
        ("vote", {"aug": "rrc", "views": "4", "seed": "0"})])
    def test_header_records_only_what_the_method_reads(self, tmp_path, weights,
                                                       method, read):
        wpath = tmp_path / "w.tptw"
        mdl.save_weights(weights, wpath)
        out = tmp_path / "res.csv"
        assert cli.main(["eval", "--weights", str(wpath), "--method", method,
                         "--views", "4", "--samples", "2", "--out", str(out)]) == 0
        header, rows = hz.read_results(out)
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
    assert {argv[0] for argv in readme_commands()} == {
        "pretrain", "gen-data", "eval", "fewshot-train", "ablate", "bongard",
        "dump-dist", "gradcheck"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv, monkeypatch):
    called = []
    for name in list(vars(cli)):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name))
    cli.main(argv)
    assert called == ["cmd_" + argv[0].replace("-", "_")]
