"""Regenerate the benchmark's fixed model checkpoint.

    python3 perfbench/make_checkpoint.py [--out PATH]

Trains the dual encoder with the repository's default recipe (the
`PRETRAIN`, `PRETRAIN_POLICY` and `TRAIN_DATA_SEED` constants of
tests/conftest.py, read from that file so the recipe is not copied
here), writes the weights and, beside them, checkpoint.json with their
SHA-256 and the recipe.  The benchmark refuses a checkpoint whose digest
differs, and its pretrain workload trains with the recorded recipe.  The
result is byte-identical to the acceptance suite's cached model.  Takes
about 5 minutes on one core.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tpt import data as dat  # noqa: E402
from tpt import model as mdl  # noqa: E402
from tpt.augment import AugmentPolicy  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent / "checkpoint" / "pretrained.tptw"


def load_recipe():
    spec = importlib.util.spec_from_file_location(
        "_tpt_test_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    return conftest.PRETRAIN, conftest.PRETRAIN_POLICY, conftest.TRAIN_DATA_SEED


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    pretrain, policy, data_seed = load_recipe()
    config = mdl.ModelConfig()
    train = dat.generate(dat.DatasetSpec(), seed=data_seed)
    weights = mdl.init_weights(config, seed=pretrain["seed"])
    weights, losses = mdl.pretrain_contrastive(
        weights, config, dat.caption_pairs(train),
        augment_policy=AugmentPolicy(**policy), **pretrain)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    mdl.save_weights(weights, args.out)
    digest = hashlib.sha256(args.out.read_bytes()).hexdigest()
    manifest = {
        "file": args.out.name,
        "sha256": digest,
        "recipe": {"pretrain": pretrain, "policy": policy, "train_data_seed": data_seed},
        "regenerate": "python3 perfbench/make_checkpoint.py",
    }
    (args.out.parent / "checkpoint.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"final epoch loss {losses[-1]:.4f}")
    print(f"{digest}  {args.out}")


if __name__ == "__main__":
    main()
