"""Where a default TPT episode's time goes, stage by stage.

    PYTHONPATH=src python tools/stages.py --samples 200 --passes 3

Runs default episodes (as harness.evaluate_tpt runs them) on the first
--samples samples of the acceptance split (data seed 200, noise:0.3,
shift seed 0) with the benchmark checkpoint, --passes times over, and
prints the medians over the last pass of each stage of
`tpt_classify`'s trace["stage_ms"] (views, image encode, tune, final
predict), of their total, and of the minor page faults per episode
(getrusage).  The earlier passes warm the process up.  As perfbench
does, the tool fixes BLAS at one thread and glibc's mmap threshold at
128 KB before numpy is imported, so its fault counts are the
benchmark's; a C library without mallopt leaves the threshold dynamic,
and the output says so.  The last line is the medians as one JSON
object.
"""

import ctypes
import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
MMAP_THRESHOLD = 128 * 1024
try:
    _mallopt = ctypes.CDLL("libc.so.6").mallopt
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    MALLOC_PINNED = _mallopt(-3, MMAP_THRESHOLD) == 1  # M_MMAP_THRESHOLD
except OSError:
    MALLOC_PINNED = False

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from tpt import data as dat  # noqa: E402
from tpt import episode as ep  # noqa: E402
from tpt import model as mdl  # noqa: E402
from tpt.augment import split_seed  # noqa: E402
from tpt.prompt import init_from_template  # noqa: E402

CHECKPOINT = (pathlib.Path(__file__).resolve().parents[1]
              / "perfbench" / "checkpoint" / "pretrained.tptw")
STAGES = ("views", "encode", "tune", "predict")


def episode_costs(samples, passes):
    """Per-episode {stage ms..., "total", "faults"} dicts of the last pass."""
    weights, config = mdl.load_weights(CHECKPOINT), mdl.ModelConfig()
    ds = dat.apply_shift(dat.generate(dat.DatasetSpec(), seed=200),
                         dat.ShiftSpec.parse("noise:0.3"), seed=0).subset(np.arange(samples))
    template, base = dat.template_ids(), ep.TPTConfig()
    for _ in range(passes):
        costs = []
        for image, sample_id in zip(ds.images, ds.ids):
            state = init_from_template(weights, config, template)
            cfg = replace(base, seed=split_seed(base.seed, int(sample_id)))
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _, _, trace = ep.tpt_classify(weights, config, state, ds.class_token_ids,
                                          image, cfg)
            cost = {s: trace["stage_ms"][s] for s in STAGES}
            cost["total"] = sum(cost.values())
            cost["faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            costs.append(cost)
    return costs


def main(argv=None):
    parser = argparse.ArgumentParser(prog="stages", description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    if args.samples < 1 or args.passes < 1:
        parser.error("--samples and --passes must be at least 1")
    costs = episode_costs(args.samples, args.passes)
    medians = {key: statistics.median(c[key] for c in costs) for key in costs[0]}
    threshold = f"{MMAP_THRESHOLD // 1024} KB" if MALLOC_PINNED else "dynamic"
    print(f"{args.samples} samples, median of pass {args.passes}, "
          f"mmap threshold {threshold}")
    for key in STAGES + ("total",):
        print(f"{key:8s} {medians[key]:7.3f} ms")
    print(f"faults   {medians['faults']:7.0f}")
    print(json.dumps(medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
