"""Acceptance suite: one test per release criterion.

Criteria 5-9 are directional analogues of the reference experiments at
miniature scale: the orderings (tuned > untuned, confidence selection
helps, prompt beats encoder tuning, more views help, optimization beats
naive view pooling) must hold on a noise-shifted split, averaged over
3 seeds.  The shared pretrained model comes from conftest.py.

Only an episode's view making and encoding read the image and the seed,
so each seed's view features of the shifted split are encoded once
(view_tables): c03, c05, c06 and c08 tune and c09 pools from them, and
c04 checks that this gives evaluate_tpt's predictions.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from tpt import data as dat
from tpt import episode as ep
from tpt import harness as hz
from tpt import model as mdl
from tpt.autodiff import Tensor
from tpt.bongard import ReasonConfig, generate_tasks, tpt_reason
from tpt.episode import TPTConfig
from tpt.prompt import init_from_template

pytestmark = pytest.mark.acceptance

TEMPLATE = dat.template_ids()
SEEDS = (0, 1, 2)
TEST_DATA_SEED = 200
SHIFT = dat.ShiftSpec.parse("noise:0.3")


def _softmax(rng, k, sharp=1.0):
    z = sharp * rng.normal(size=k)
    e = np.exp(z - z.max())
    return e / e.sum()


@pytest.fixture(scope="module")
def split500():
    """The 500-sample evaluation split and its noise(0.3) counterpart."""
    ds = dat.generate(dat.DatasetSpec(), seed=TEST_DATA_SEED)
    ds = ds.subset(np.arange(500))
    return ds, dat.apply_shift(ds, SHIFT, seed=0)


@pytest.fixture(scope="module")
def classes(split500):
    return hz.class_set(split500[0])


@pytest.fixture(scope="module")
def zero_shot_shifted(pretrained, model_config, classes, split500):
    return hz.evaluate_zero_shot(pretrained, model_config, TEMPLATE, classes,
                                 split500[1])


@pytest.fixture(scope="module")
def view_tables(pretrained, model_config, split500):
    """One (index, features) per shifted sample for each seed: the default
    episode's 64 views of the sample, made and encoded by
    episode.encode_views as evaluate_tpt's episode for that seed does."""
    t0 = time.monotonic()
    ds = split500[1]
    tables = {seed: [ep.encode_views(pretrained, model_config, image,
                                     TPTConfig(seed=seed).for_sample(sample_id))[1:3]
                     for image, sample_id in zip(ds.images, ds.ids)] for seed in SEEDS}
    tables["elapsed"] = time.monotonic() - t0
    return tables


def _tuned(pretrained, model_config, classes, ds, table, cfg):
    """(accuracy, predictions, final averaged distributions) of
    prompt-group episodes on `ds`, the first len(ds) samples of the
    shifted split, each tuned by episode.tune_on_views from the first
    cfg.n_views rows of its sample's entry in `table`, one seed's
    view_tables.  Under the default policy those rows are the
    cfg.n_views-view table (test_episode), so for cfg's seed these are
    evaluate_tpt's predictions."""
    state = init_from_template(pretrained, model_config, TEMPLATE)
    n = cfg.n_views
    runs = [ep.tune_on_views(pretrained, model_config, state, classes, None, index[:n],
                             Tensor(feats.data[:n]), {}, cfg)[:2]
            for index, feats in table[:len(ds)]]
    preds = np.array([pred for pred, _ in runs])
    return float(np.mean(preds == ds.labels)), preds, np.array([avg for _, avg in runs])


@pytest.fixture(scope="module")
def tpt_shifted(pretrained, model_config, classes, split500, view_tables):
    """Default-config TPT on the shifted split, one _tuned per seed, from
    view_tables; elapsed counts their encoding too."""
    t0 = time.monotonic()
    out = {seed: _tuned(pretrained, model_config, classes, split500[1], view_tables[seed],
                        TPTConfig(seed=seed)) for seed in SEEDS}
    out["elapsed"] = view_tables["elapsed"] + time.monotonic() - t0
    return out


def _default_accuracy(tpt_shifted, ds):
    """3-seed mean accuracy of the default episodes on `ds`, the first
    len(ds) samples of the shifted split, read from tpt_shifted.  Each
    episode's seed comes from its sample id and order changes nothing
    (c04), so a rerun on `ds` would give the same predictions."""
    return np.mean([np.mean(tpt_shifted[s][1][:len(ds)] == ds.labels) for s in SEEDS])


def test_c01_gradient_fidelity():
    t0 = time.monotonic()
    for seed in range(20):
        for name, err in hz.gradcheck_report(seed=seed):
            assert err <= 1e-4, f"seed {seed}: {name} rel err {err:.3e}"
    assert time.monotonic() - t0 < 60.0


def test_c02_selection_reductions():
    rng = np.random.default_rng(0)
    # rho = 1.0 collapses to the plain elementwise mean
    for _ in range(20):
        probs = np.stack([_softmax(rng, 6, 3.0) for _ in range(16)])
        averaged, _, _ = ep.select_and_average(Tensor(probs), 1.0)
        np.testing.assert_allclose(averaged.data[0], probs.mean(axis=0),
                                   atol=1e-12)
    # selected set == brute-force k-lowest-entropy oracle
    for trial in range(100):
        n = int(rng.integers(2, 40))
        rho = float(rng.uniform(0.05, 1.0))
        probs = np.stack([_softmax(rng, 5, 2.0) for _ in range(n)])
        _, selected, _ = ep.select_and_average(Tensor(probs), rho)
        k = max(1, int(np.floor(rho * n)))
        oracle = np.sort(np.argsort(ep.row_entropies(probs), kind="stable")[:k])
        np.testing.assert_array_equal(selected, oracle)
    # the headline k rule
    probs = np.stack([_softmax(rng, 5, 2.0) for _ in range(64)])
    assert len(ep.select_and_average(Tensor(probs), 0.1)[1]) == 6


def test_c03_null_update_identity(pretrained, model_config, classes, split500,
                                  view_tables, zero_shot_shifted):
    _, zs_preds = zero_shot_shifted
    _, preds, _ = _tuned(pretrained, model_config, classes, split500[1], view_tables[0],
                         TPTConfig(lr=0.0, seed=0))
    np.testing.assert_array_equal(preds, zs_preds)


def test_c04_episodic_isolation_and_determinism(pretrained, model_config,
                                                classes, split500, tpt_shifted,
                                                tmp_path):
    ds = split500[1].subset(np.arange(64))
    cfg = TPTConfig(seed=0)
    acc, preds, traces = hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes,
                                         ds, cfg)
    # the shared tables give the program's episodes, which c03-c09 read
    np.testing.assert_array_equal(preds, tpt_shifted[0][1][:len(ds)])
    assert (np.array([t["post_averaged"] for t in traces]).tobytes()
            == tpt_shifted[0][2][:len(ds)].tobytes())
    # shuffling evaluation order changes no per-sample prediction
    perm = np.random.default_rng(7).permutation(len(ds))
    _, shuffled, _ = hz.evaluate_tpt(pretrained, model_config, TEMPLATE,
                                     classes, ds.subset(perm), cfg)
    np.testing.assert_array_equal(shuffled, preds[perm])
    # identical seeds give bit-identical results files
    run_cfg = {"shift": "noise:0.3", "seed": "0"}
    paths = []
    for tag in ("a", "b"):
        _, p, _ = hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes,
                                  ds, cfg)
        rows = [{"method": "tpt", "shift": "noise:0.3",
                 "accuracy": float(np.mean(p == ds.labels)),
                 "n": len(ds), "seed": 0}]
        path = tmp_path / f"run_{tag}.csv"
        hz.write_results(path, rows, run_cfg)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_c05_tpt_beats_zero_shot_under_shift(tpt_shifted, zero_shot_shifted):
    zs_acc, _ = zero_shot_shifted
    tpt_acc = np.mean([tpt_shifted[s][0] for s in SEEDS])
    print(f"\n[c05] zero-shot {zs_acc:.4f}  tpt(3-seed) {tpt_acc:.4f}  "
          f"margin {tpt_acc - zs_acc:+.4f}")
    assert tpt_shifted["elapsed"] < 600.0
    assert tpt_acc > zs_acc


def test_c06_confidence_selection_helps(pretrained, model_config, classes,
                                        split500, view_tables, tpt_shifted):
    ds = split500[1].subset(np.arange(192))
    accs = {0.1: _default_accuracy(tpt_shifted, ds)}
    accs[1.0] = np.mean([
        _tuned(pretrained, model_config, classes, ds, view_tables[s],
               TPTConfig(rho=1.0, seed=s))[0] for s in SEEDS])
    print(f"\n[c06] rho=0.1 {accs[0.1]:.4f}  rho=1.0 {accs[1.0]:.4f}")
    assert accs[0.1] >= accs[1.0]


def test_c07_prompt_beats_image_encoder(pretrained, model_config, classes,
                                        split500, tpt_shifted):
    ds = split500[1].subset(np.arange(96))
    accs = {"prompt": _default_accuracy(tpt_shifted, ds)}
    accs["image_encoder"] = np.mean([
        hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes, ds,
                        TPTConfig(parameter_group="image_encoder", seed=s))[0]
        for s in SEEDS])
    print(f"\n[c07] prompt {accs['prompt']:.4f}  "
          f"image_encoder {accs['image_encoder']:.4f}")
    assert accs["prompt"] >= accs["image_encoder"]


def test_c08_accuracy_grows_with_views(pretrained, model_config, classes,
                                       split500, view_tables, tpt_shifted):
    ds = split500[1].subset(np.arange(192))
    accs = [np.mean([
        _tuned(pretrained, model_config, classes, ds, view_tables[s],
               TPTConfig(n_views=n, seed=s))[0] for s in SEEDS])
        for n in (2, 8, 32)]
    accs.append(_default_accuracy(tpt_shifted, ds))
    print(f"\n[c08] N=2/8/32/64 -> {['%.4f' % a for a in accs]}")
    for lo, hi in zip(accs, accs[1:]):
        assert hi >= lo - 0.005


def test_c09_tpt_beats_naive_view_pooling(pretrained, model_config, classes,
                                          split500, view_tables, tpt_shifted):
    ds = split500[1]
    tpt_acc = np.mean([tpt_shifted[s][0] for s in SEEDS])
    pools = (hz.averaged_prediction, hz.majority_vote)
    tfeats = hz._template_text_features(pretrained, model_config, TEMPLATE, classes)

    def pooled(table):
        """Both baselines from shared tables, as harness._pool_views pools
        its views' features: one prediction array per pool."""
        probs = [mdl.class_probabilities(tfeats, feats, model_config.logit_scale).data
                 for _, feats in table]
        return [np.array([pool(p) for p in probs]) for pool in pools]

    few = ds.subset(np.arange(32))
    for got, want in zip(hz._pool_views(pretrained, model_config, TEMPLATE, classes, few,
                                        TPTConfig(seed=0), *pools),
                         pooled(view_tables[0][:len(few)]), strict=True):
        np.testing.assert_array_equal(got, want)
    accs = [[np.mean(p == ds.labels) for p in pooled(view_tables[s])] for s in SEEDS]
    base = dict(zip(("avgpred", "vote"), np.mean(accs, axis=0)))
    print(f"\n[c09] tpt {tpt_acc:.4f}  avgpred {base['avgpred']:.4f}  "
          f"vote {base['vote']:.4f}")
    assert tpt_acc >= base["avgpred"]
    assert tpt_acc >= base["vote"]


def test_c10_bongard_support_fit_and_query(pretrained, model_config):
    tasks = generate_tasks(100, seed=0)
    full_support, query_hits = 0, 0
    for i, task in enumerate(tasks):
        pred, trace = tpt_reason(pretrained, model_config, task,
                                 replace(ReasonConfig(), seed=i))
        full_support += trace["support_acc"][-1] == 1.0
        query_hits += pred == task.query_label
    print(f"\n[c10] support fitted {full_support}/100  query {query_hits}/100")
    assert full_support >= 95
    assert query_hits >= 80
    # untuned prompts are uninformative: chance-level queries
    tasks = generate_tasks(1000, seed=1)
    hits = np.mean([
        tpt_reason(pretrained, model_config, t,
                   replace(ReasonConfig(), steps=0, seed=1000 + i))[0]
        == t.query_label for i, t in enumerate(tasks)])
    print(f"[c10] steps=0 query accuracy {hits:.3f}")
    assert 0.45 <= hits <= 0.55


def test_c11_probability_and_entropy_invariants(pretrained, model_config,
                                                classes, split500):
    k = len(classes)
    assert abs(ep.entropy(np.full(k, 1.0 / k)) - np.log(k)) <= 1e-12
    assert ep.entropy(np.eye(k)[0]) == 0.0
    state = init_from_template(pretrained, model_config, TEMPLATE)
    feats = np.concatenate(
        [mdl.encode_image(pretrained, model_config, img).data
         for img in split500[1].images[:32]])
    probs = mdl.class_probabilities(
        ep.text_features(pretrained, model_config, state, classes), Tensor(feats),
        model_config.logit_scale).data
    sums = probs.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-10)
    entropies = ep.row_entropies(probs)
    assert np.all(entropies >= 0.0)
    assert np.all(entropies <= np.log(k) + 1e-12)


def test_c12_persistence_roundtrips(pretrained, tmp_path):
    wpath = tmp_path / "w.tptw"
    mdl.save_weights(pretrained, wpath)
    back = mdl.load_weights(wpath)
    assert set(back) == set(pretrained)
    for name, t in pretrained.items():
        np.testing.assert_array_equal(back[name].data, t.data)
