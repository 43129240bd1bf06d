"""Shared fixtures.

A single contrastively pretrained model backs the acceptance suite.
Training it takes about 18 s on one core, so the weights are cached
on disk next to the tests and reused across pytest runs.  The cached
file is named by a digest of what trains it: the recipe below and the
source of every module that training runs through.  A change to either
gives a new name, so the suite retrains instead of loading a stale
model, and the stale file is removed.  Deleting tests/.cache also
forces a retrain.
"""

import csv
import hashlib
import pathlib

import pytest

from tpt import augment, autodiff, optim
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


def recipe_digest():
    """Hex digest of the recipe and of the sources training runs through."""
    h = hashlib.sha256(repr((sorted(PRETRAIN.items()), sorted(PRETRAIN_POLICY.items()),
                             TRAIN_DATA_SEED)).encode())
    for module in (mdl, autodiff, optim, augment, dat):
        h.update(pathlib.Path(module.__file__).read_bytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="session")
def model_config():
    return mdl.ModelConfig()


@pytest.fixture(scope="session")
def pretrained(model_config):
    """Weights pretrained on the default synthetic dataset (disk-cached)."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"pretrained-{recipe_digest()}.tptw"
    if path.exists():
        return mdl.load_weights(path)
    for stale in CACHE_DIR.glob("pretrained*.tptw"):
        stale.unlink()
    train = dat.generate(dat.DatasetSpec(), seed=TRAIN_DATA_SEED)
    weights = mdl.init_weights(model_config, seed=PRETRAIN["seed"])
    weights, _ = mdl.pretrain_contrastive(
        weights, model_config, dat.caption_pairs(train),
        augment_policy=AugmentPolicy(**PRETRAIN_POLICY), **PRETRAIN)
    mdl.save_weights(weights, path)
    return weights


def read_results(path):
    """(header, rows) of a results file that harness.write_results wrote:
    the '# key=value' lines as a dict, then the CSV rows as dicts."""
    with open(path) as f:
        lines = f.readlines()
    header = dict(line[2:].strip().partition("=")[::2] for line in lines
                  if line.startswith("# "))
    return header, list(csv.DictReader(line for line in lines if not line.startswith("# ")))
