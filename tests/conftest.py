"""Shared fixtures.

A single contrastively pretrained model backs the acceptance suite.
Training it takes a few minutes on one core, so the weights are cached
on disk next to the tests and reused across pytest runs; delete
tests/.cache to force a retrain.
"""

import pathlib

import pytest

from tpt import data as dat
from tpt import model as mdl
from tpt.augment import AugmentPolicy

CACHE_DIR = pathlib.Path(__file__).parent / ".cache"

# the default training recipe, defined in tpt.model: everything downstream
# (acceptance criteria, README numbers, the benchmark checkpoint) assumes
# exactly this model
PRETRAIN = dict(mdl.PRETRAIN)
PRETRAIN_POLICY = dict(mdl.PRETRAIN_POLICY)
TRAIN_DATA_SEED = mdl.TRAIN_DATA_SEED


@pytest.fixture(scope="session")
def model_config():
    return mdl.ModelConfig()


@pytest.fixture(scope="session")
def pretrained(model_config):
    """Weights pretrained on the default synthetic dataset (disk-cached)."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / "pretrained.tptw"
    if path.exists():
        return mdl.load_weights(path, model_config)
    train = dat.generate(dat.DatasetSpec(), seed=TRAIN_DATA_SEED)
    weights = mdl.init_weights(model_config, seed=PRETRAIN["seed"])
    weights, _ = mdl.pretrain_contrastive(
        weights, model_config, dat.caption_pairs(train),
        augment_policy=AugmentPolicy(**PRETRAIN_POLICY), **PRETRAIN)
    mdl.save_weights(weights, path)
    return weights
