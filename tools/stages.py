"""Where a default TPT episode's time goes, stage by stage.

    PYTHONPATH=src python tools/stages.py --samples 200 --passes 3

Runs default episodes (as harness.evaluate_tpt runs them) on the first
--samples samples (at most its 512) of the acceptance split (data seed
200, noise:0.3, shift seed 0) with the benchmark checkpoint, --passes
times over, and prints the medians over the last pass of each stage of
`tpt_classify`'s trace["stage_ms"] (views, image encode, tune, final
predict), of their total, and of the minor page faults per episode
(getrusage), in all and split into view generation, image encode and
the rest of the episode.  The split wraps `episode.generate_views` and
`episode.view_features` in this process only.  The earlier passes warm
the process up.  As perfbench does, the tool fixes BLAS at one thread
and glibc's mmap threshold at 128 KB before numpy is imported, so its
fault counts are the benchmark's; a C library without mallopt leaves
the threshold dynamic, and the output says so.  The last line is the
medians as one JSON object.
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

import numpy as np  # noqa: E402

from tpt import data as dat  # noqa: E402
from tpt import episode as ep  # noqa: E402
from tpt import model as mdl  # noqa: E402
from tpt.prompt import init_from_template  # noqa: E402

CHECKPOINT = (pathlib.Path(__file__).resolve().parents[1]
              / "perfbench" / "checkpoint" / "pretrained.tptw")
STAGES = ("views", "encode", "tune", "predict")
FAULTS = ("views_faults", "encode_faults", "rest_faults")
SPLIT_SIZE = dat.DatasetSpec.samples_per_class * len(dat.DatasetSpec.class_names)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counting_faults(fn, key, counts):
    """fn, adding the minor faults of each call to counts[key]."""
    def wrapped(*args, **kwargs):
        start = minor_faults()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[key] += minor_faults() - start
    return wrapped


def episode_costs(samples, passes):
    """Per-episode {stage ms..., "total", "faults", FAULTS...} dicts of the
    last pass."""
    weights, config = mdl.load_weights(CHECKPOINT), mdl.ModelConfig()
    ds = dat.apply_shift(dat.generate(dat.DatasetSpec(), seed=200),
                         dat.ShiftSpec.parse("noise:0.3"), seed=0).subset(np.arange(samples))
    state, base = init_from_template(weights, config, dat.template_ids()), ep.TPTConfig()
    counts = dict.fromkeys(FAULTS, 0)
    ep.generate_views = counting_faults(ep.generate_views, "views_faults", counts)
    ep.view_features = counting_faults(ep.view_features, "encode_faults", counts)
    for _ in range(passes):
        costs = []
        for image, sample_id in zip(ds.images, ds.ids):
            cfg = base.for_sample(sample_id)
            counts.update(dict.fromkeys(FAULTS, 0))
            faults = minor_faults()
            _, _, trace = ep.tpt_classify(weights, config, state, ds.class_token_ids,
                                          image, cfg)
            cost = {s: trace["stage_ms"][s] for s in STAGES}
            cost["total"] = sum(cost.values())
            cost["faults"] = minor_faults() - faults
            counts["rest_faults"] = (cost["faults"] - counts["views_faults"]
                                     - counts["encode_faults"])
            costs.append({**cost, **counts})
    return costs


def main(argv=None):
    parser = argparse.ArgumentParser(prog="stages", description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    if args.samples < 1 or args.passes < 1:
        parser.error("--samples and --passes must be at least 1")
    if args.samples > SPLIT_SIZE:
        parser.error(f"--samples must be at most {SPLIT_SIZE}, the size of the split")
    costs = episode_costs(args.samples, args.passes)
    medians = {key: statistics.median(c[key] for c in costs) for key in costs[0]}
    threshold = f"{MMAP_THRESHOLD // 1024} KB" if MALLOC_PINNED else "dynamic"
    print(f"{args.samples} samples, median of pass {args.passes}, "
          f"mmap threshold {threshold}")
    for key in STAGES + ("total",):
        print(f"{key:8s} {medians[key]:7.3f} ms")
    print(f"faults   {medians['faults']:7.0f}  (views {medians['views_faults']:.0f}, "
          f"encode {medians['encode_faults']:.0f}, rest {medians['rest_faults']:.0f})")
    print(json.dumps(medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
