"""Closed-loop benchmark of the tpt package.

    python3 perfbench/run.py --workload episode-noise --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Runs one workload (see workloads.py) in this process, one op after the
other, and checks every op's output.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it spends half the time untraced and
half traced, and prints the per-layer metrics, including the tracing
overhead.  Times are in reference units (reference.py), which do not
drift with the speed of a shared machine; wall-clock figures are printed
too.  Each metric is printed as a line `name value unit`; the last line
is one JSON object {correct, attempted, failed, metrics}.  Run metadata
goes to a `# meta` line and, with the result, to perfbench/out/.
"""

from time import perf_counter

_T0 = perf_counter()

import ctypes  # noqa: E402
import os  # noqa: E402

_LOADAVG = os.getloadavg()

# One BLAS thread, fixed before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "TPT_THREADS": "1"}
os.environ.update(THREAD_ENV)

# A fixed glibc mmap threshold: with the default dynamic one, whether the
# set-up's 12 MB image arrays come back to the OS depends on allocation
# history, and peak RSS jumps between two values from run to run.
MMAP_THRESHOLD = 128 * 1024
try:
    _MALLOC_PINNED = ctypes.CDLL("libc.so.6").mallopt(-3, MMAP_THRESHOLD) == 1
except OSError:
    _MALLOC_PINNED = False

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
WORKLOAD_NAMES = ("episode-noise", "bongard", "pretrain")

# (name, unit): printed in this order; see BENCHMARK.json for bounds.
# Op times are in reference units (see reference.py); the same figures
# in wall-clock units are printed too, and kept in the run metadata.
END_TO_END = [
    ("setup_s", "s"),
    ("latency_ref_ms_p50", "ref_ms"),
    ("latency_ref_ms_p90", "ref_ms"),
    ("throughput_ops_ref_s", "1/ref_s"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
]
WALL = [("setup_s", "s"), ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"),
        ("throughput_ops_s", "1/s"), ("reference_ms", "ms")]

PER_LAYER = [
    ("model.encode_image.ms_per_op", "ms"),
    ("model.encode_image.calls_per_op", "count"),
    ("model.encode_text.ms_per_op", "ms"),
    ("model.encode_text.calls_per_op", "count"),
    ("autodiff.Tape.backward.ms_per_op", "ms"),
    ("autodiff.Tape.backward.calls_per_op", "count"),
    ("autodiff.tape_records_per_backward", "count"),
    ("autodiff.tensors_per_op", "count"),
    ("augment.generate_views.ms_per_op", "ms"),
    ("augment.make_view.ms_per_op", "ms"),
    ("augment.make_view.calls_per_op", "count"),
    ("optim.AdamW.step.ms_per_op", "ms"),
    ("prompt.assemble.calls_per_op", "count"),
    ("episode.tpt_classify.self_ms_per_op", "ms"),
    ("episode.select_and_average.ms_per_op", "ms"),
    ("bongard.tpt_reason.self_ms_per_op", "ms"),
    ("model.pretrain_contrastive.self_ms_per_op", "ms"),
    ("episode.views_selected_ratio", "ratio"),
    ("episode.selected_view_accuracy", "ratio"),
    ("episode.all_view_accuracy", "ratio"),
    ("episode.flips_right_to_wrong", "ratio"),
    ("episode.flips_wrong_to_right", "ratio"),
    ("episode.marginal_entropy_drop", "nat"),
    ("model.load_weights.ms", "ms"),
    ("data.generate.ms", "ms"),
    ("data.apply_shift.ms", "ms"),
    ("bongard.generate_tasks.ms", "ms"),
    ("trace.ops", "count"),
    ("trace.overhead_ratio", "ratio"),
]
SETUP_LAYERS = ["model.load_weights", "data.generate", "data.apply_shift",
                "bongard.generate_tasks"]


def parse_args(argv):
    p = argparse.ArgumentParser(description="closed-loop tpt benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the self-tests: another checkpoint file, and a corrupted op output
    p.add_argument("--checkpoint", help=argparse.SUPPRESS)
    p.add_argument("--inject-fault", type=int, dest="fault_op", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, q):
    """Nearest-rank percentile; failed ops are +inf and rank last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def git_commit(root):
    """HEAD's commit read from .git without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tpt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_metadata(args):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "malloc_mmap_threshold": MMAP_THRESHOLD if _MALLOC_PINNED else None,
        "loadavg_start": list(_LOADAVG),
    }


def run_one(args):
    if not (SRC / "tpt" / "__init__.py").is_file():
        print(f"no tpt sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    meta = run_metadata(args)
    sys.path.insert(0, str(SRC))
    import tpt
    if pathlib.Path(tpt.__file__).resolve().parent != SRC / "tpt":
        print(f"imported tpt from {tpt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from reference import reference_ms
    from tracing import Tracer
    from workloads import WORKLOADS, Phase, SetupError
    import_s = perf_counter() - _T0

    wl = WORKLOADS[args.workload](args.seed, checkpoint=args.checkpoint,
                                  fault_op=args.fault_op)
    tracer = Tracer() if args.trace else None
    reps, rep_refs, setup_refs = [], [], []
    try:
        for rep in range(SETUP_REPS):
            setup_refs.append(reference_ms())
            if tracer is not None:
                tracer.op = -1 - rep
                tracer.install()
            t = perf_counter()
            try:
                wl.prepare(rep)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            reps.append(perf_counter() - t)
            setup_refs.append(reference_ms())
            rep_refs.append((setup_refs[-2] + setup_refs[-1]) / 2)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        half = args.seconds / 2
        phases = [Phase("untraced", half, False), Phase("traced", half, True)]
    else:
        phases = [Phase("timed", args.seconds, False)]
    wl.run(phases, tracer)
    wl.finish()

    untraced = phases[0]
    wall = {
        "setup_s": import_s + statistics.median(reps),
        "latency_ms_p50": percentile(untraced.latencies, 50) * 1e3,
        "latency_ms_p90": percentile(untraced.latencies, 90) * 1e3,
        "throughput_ops_s": untraced.op_rate,
        "reference_ms": statistics.median(untraced.refs),
    }
    if args.trace:
        metrics = layer_metrics(wl, tracer, phases)
        units = dict(PER_LAYER)
    else:
        ref_lat = untraced.ref_latencies()
        metrics = {
            # in reference seconds, like the op times; the imports, made
            # before the kernel can run, against the set-up's median kernel
            "setup_s": import_s / statistics.median(setup_refs) + statistics.median(
                r / ref for r, ref in zip(reps, rep_refs)),
            "latency_ref_ms_p50": percentile(ref_lat, 50),
            "latency_ref_ms_p90": percentile(ref_lat, 90),
            "throughput_ops_ref_s": untraced.ref_rate(),
            "accuracy": wl.accuracy(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    correct = not wl.failures
    meta.update({
        "ops": {"attempted": wl.attempted, "succeeded": wl.attempted - wl.failed,
                "failed": wl.failed},
        "error_rate": wl.failed / max(1, wl.attempted),
        "latency_samples": untraced.ops,
        "wall": wall,
        "phases": {p.name: {"ops": p.ops, "wall_s": p.wall,
                            "latency_ms": [x * 1e3 for x in p.latencies],
                            "reference_ms": p.refs}
                   for p in phases},
        "import_s": import_s,
        "setup_reps_s": reps,
        "setup_reference_ms": setup_refs,
        "failures": {str(k): v for k, v in list(wl.failures.items())[:10]},
    })

    for msg in list(wl.failures.values())[:5]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"# meta {json.dumps({k: v for k, v in meta.items() if k != 'phases'})}")
    print(f"{args.workload}: {wl.attempted} ops attempted, {wl.failed} failed, "
          f"latency from {meta['latency_samples']} ops")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:14.6g} {unit}")
    for name, unit in WALL:
        print(f"  {'wall.' + name:44s} {wall[name]:14.6g} {unit}   (no bound)")
    print(f"  {'error_rate':44s} {meta['error_rate']:14.6g} ratio")
    result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result},
                                                 indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


def layer_metrics(wl, tracer, phases):
    untraced, traced = phases
    n = max(1, traced.ops)
    per_op = tracer.per_op(n)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, (total, self_ms, calls) in per_op.items():
        for key, value in (("ms_per_op", total), ("self_ms_per_op", self_ms),
                           ("calls_per_op", calls)):
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] = value
    backward_calls = per_op.get("autodiff.Tape.backward", (0, 0, 0))[2] * n
    out["autodiff.tape_records_per_backward"] = (
        tracer.counts["tape_records"] / backward_calls if backward_calls else 0.0)
    out["autodiff.tensors_per_op"] = tracer.counts["tensors"] / n
    for name in SETUP_LAYERS:
        out[f"{name}.ms"] = statistics.median(tracer.setup_ms(name))
    out.update(wl.layer_metrics(tracer))
    out["trace.ops"] = float(traced.ops)
    out["trace.overhead_ratio"] = untraced.ref_rate() / traced.ref_rate()
    return out


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
