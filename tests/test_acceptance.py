"""Acceptance suite: one test per release criterion.

Criteria 5-9 are directional analogues of the reference experiments at
miniature scale: the orderings (tuned > untuned, confidence selection
helps, prompt beats encoder tuning, more views help, optimization beats
naive view pooling) must hold on a noise-shifted split, averaged over
3 seeds.  The shared pretrained model comes from conftest.py.
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
def tpt_shifted(pretrained, model_config, classes, split500):
    """Default-config TPT on the shifted split, one entry per seed."""
    t0 = time.monotonic()
    out = {}
    for seed in SEEDS:
        out[seed] = hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes,
                                    split500[1], TPTConfig(seed=seed))
    out["elapsed"] = time.monotonic() - t0
    return out


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
        pred = ep.PredictionSet(probs=Tensor(probs),
                                entropies=ep.row_entropies(probs))
        ep.select_and_average(pred, 1.0)
        np.testing.assert_allclose(pred.averaged.data[0], probs.mean(axis=0),
                                   atol=1e-12)
    # selected set == brute-force k-lowest-entropy oracle
    for trial in range(100):
        n = int(rng.integers(2, 40))
        rho = float(rng.uniform(0.05, 1.0))
        probs = np.stack([_softmax(rng, 5, 2.0) for _ in range(n)])
        pred = ep.PredictionSet(probs=Tensor(probs),
                                entropies=ep.row_entropies(probs))
        ep.select_and_average(pred, rho)
        k = max(1, int(np.floor(rho * n)))
        oracle = np.sort(np.argsort(pred.entropies, kind="stable")[:k])
        np.testing.assert_array_equal(pred.selected, oracle)
    # the headline k rule
    assert ep.confidence_threshold(np.linspace(0.0, 1.0, 64), 0.1)[1] == 6


def test_c03_null_update_identity(pretrained, model_config, classes, split500,
                                  zero_shot_shifted):
    _, zs_preds = zero_shot_shifted
    cfg = TPTConfig(lr=0.0, seed=0)
    _, preds, _ = hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes,
                                  split500[1], cfg)
    np.testing.assert_array_equal(preds, zs_preds)


def test_c04_episodic_isolation_and_determinism(pretrained, model_config,
                                                classes, split500, tmp_path):
    ds = split500[1].subset(np.arange(64))
    cfg = TPTConfig(seed=0)
    acc, preds, _ = hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes,
                                    ds, cfg)
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
                                        split500):
    ds = split500[1].subset(np.arange(192))
    accs = {}
    for rho in (0.1, 1.0):
        accs[rho] = np.mean([
            hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes, ds,
                            TPTConfig(rho=rho, seed=s))[0] for s in SEEDS])
    print(f"\n[c06] rho=0.1 {accs[0.1]:.4f}  rho=1.0 {accs[1.0]:.4f}")
    assert accs[0.1] >= accs[1.0]


def test_c07_prompt_beats_image_encoder(pretrained, model_config, classes,
                                        split500):
    ds = split500[1].subset(np.arange(96))
    accs = {}
    for group in ("prompt", "image_encoder"):
        accs[group] = np.mean([
            hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes, ds,
                            TPTConfig(parameter_group=group, seed=s))[0]
            for s in SEEDS])
    print(f"\n[c07] prompt {accs['prompt']:.4f}  "
          f"image_encoder {accs['image_encoder']:.4f}")
    assert accs["prompt"] >= accs["image_encoder"]


def test_c08_accuracy_grows_with_views(pretrained, model_config, classes,
                                       split500):
    ds = split500[1].subset(np.arange(192))
    accs = []
    for n in (2, 8, 32, 64):
        accs.append(np.mean([
            hz.evaluate_tpt(pretrained, model_config, TEMPLATE, classes, ds,
                            TPTConfig(n_views=n, seed=s))[0] for s in SEEDS]))
    print(f"\n[c08] N=2/8/32/64 -> {['%.4f' % a for a in accs]}")
    for lo, hi in zip(accs, accs[1:]):
        assert hi >= lo - 0.005


def test_c09_tpt_beats_naive_view_pooling(pretrained, model_config, classes,
                                          split500, tpt_shifted):
    ds = split500[1]
    tpt_acc = np.mean([tpt_shifted[s][0] for s in SEEDS])
    base = {}
    for name, fn in (("avgpred", hz.baseline_averaged_prediction),
                     ("vote", hz.baseline_majority_vote)):
        base[name] = np.mean([
            fn(pretrained, model_config, TEMPLATE, classes, ds,
               TPTConfig(seed=s))[0] for s in SEEDS])
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
    from tpt.prompt import init_from_template

    k = len(classes)
    assert abs(ep.entropy(np.full(k, 1.0 / k)) - np.log(k)) <= 1e-12
    assert ep.entropy(np.eye(k)[0]) == 0.0
    state = init_from_template(pretrained, model_config, TEMPLATE)
    feats = np.concatenate(
        [mdl.encode_image(pretrained, model_config, img).data
         for img in split500[1].images[:32]])
    pred = ep.predict_views(pretrained, model_config, state, classes,
                            Tensor(feats))
    sums = pred.probs.data.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-10)
    assert np.all(pred.entropies >= 0.0)
    assert np.all(pred.entropies <= np.log(k) + 1e-12)


def test_c12_persistence_roundtrips(pretrained, tmp_path):
    wpath = tmp_path / "w.tptw"
    mdl.save_weights(pretrained, wpath)
    back = mdl.load_weights(wpath)
    assert set(back) == set(pretrained)
    for name, t in pretrained.items():
        np.testing.assert_array_equal(back[name].data, t.data)
    img = np.random.default_rng(0).random((3, 32, 32))
    ipath = tmp_path / "img.tptimg"
    dat.save_image(img, ipath)
    np.testing.assert_array_equal(dat.load_image(ipath), img)
