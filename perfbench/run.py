#!/usr/bin/env python3
"""Benchmark for scalefuse: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload train-fff-sfs --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` there.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` gives the
end-to-end metrics.  `--trace 1` runs the workload twice in one process,
untraced and then with a span around every layer, and gives the per-layer
metrics, the tracing overhead among them; a line before it holds per-layer
figures outside BENCHMARK.json's list.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before every import below

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read by OpenBLAS when numpy loads

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("train-fff-sfs", "infer-heldout", "ablate-ladder")
WINDOWS = 10  # step and scene percentiles: see percentile_ms

# Errors the program raises for a failed operation: NumericError, ConfigurationError, ...
OPERATION_ERRORS = (ArithmeticError, ValueError, RuntimeError)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    """Put this checkout's src/ first on the path; refuse any other copy."""
    package = SRC / "scalefuse"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no scalefuse sources at {package}")
    sys.path.insert(0, str(SRC))
    import scalefuse
    if Path(scalefuse.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported scalefuse from {scalefuse.__file__}, not {package}")


def measure(name, seed, seconds, origin, tracer=None):
    """Set up and run one workload, then check its outputs."""
    from tracing import Markers, Patches
    from workloads import WORKLOADS, run_durations

    run_dir = RUNS / f"{name}-seed{seed}-pid{os.getpid()}{'-traced' if tracer else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        w = WORKLOADS[name](seed, seconds, run_dir)
        markers = Markers(keep_decisions=w.keep_decisions)
        patches = Patches()
        markers.install(patches)
        if tracer is not None:
            tracer.install(patches)
        error, repeat_s = None, []
        try:
            w.setup()
            setup_s = time.perf_counter() - origin - w.fixture_s
            for rep in range(w.repeats):
                t0 = time.perf_counter()
                try:
                    excluded = w.body(rep)
                except OPERATION_ERRORS as e:
                    error = e
                    break
                repeat_s.append(time.perf_counter() - t0 - excluded)
        finally:
            patches.restore()
        if error is not None:
            failures = [f"workload stopped: {type(error).__name__}: {error}"]
            durations = {}
        else:
            failures = w.check(markers)
            durations = run_durations(w.run_dirs)
        return dict(setup_s=setup_s, wall_s=min(repeat_s, default=0.0), attempted=w.attempted,
                    failed=w.attempted - w.completed(markers), failures=failures,
                    variant=w.variant, step_s={**markers.step_s, **w.step_s},
                    infer_s=markers.infer_s,
                    miou=w.miou, durations=durations)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def percentile_ms(samples, q):
    """The q-th percentile of each of WINDOWS equal runs of the samples, in time order; the lowest.

    A slow spell of the host then has to cover every window to show.
    """
    if not len(samples):
        return 0.0
    parts = np.array_split(samples, min(WINDOWS, len(samples)))
    return 1e3 * min(float(np.percentile(part, q)) for part in parts)


def peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def end_to_end(r):
    steps, scenes = r["step_s"].get(r["variant"], []), r["infer_s"].get(r["variant"], [])
    values = {
        "setup_s": (r["setup_s"], "s"),
        "wall_s": (r["wall_s"], "s"),
        "train_step_ms_p50": (percentile_ms(steps, 50), "ms"),
        "train_step_ms_p90": (percentile_ms(steps, 90), "ms"),
        "infer_scene_ms_p50": (percentile_ms(scenes, 50), "ms"),
        "infer_scene_ms_p90": (percentile_ms(scenes, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "heldout_miou": (r["miou"], "1"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def per_variant(r):
    """Median step and scene times, and their sample counts, of every variant the workload ran."""
    detail = {}
    for kind, samples in (("train_step", r["step_s"]), ("infer_scene", r["infer_s"])):
        for variant, xs in samples.items():
            v = variant.replace("+", "_")
            detail[f"{kind}_ms_p50.{v}"] = percentile_ms(xs, 50)
            detail[f"{kind}_count.{v}"] = len(xs)
    return detail


def main(argv=None):
    args = parse_args(argv)
    import_program()
    RUNS.mkdir(exist_ok=True)
    if args.trace:
        from tracing import Tracer
        plain = measure(args.workload, args.seed, args.seconds, _T0)
        tracer = Tracer()
        traced = measure(args.workload, args.seed, args.seconds, time.perf_counter(), tracer)
        metrics, detail = tracer.metrics(traced["durations"], traced["wall_s"] - plain["wall_s"],
                                         plain["wall_s"])
        failures = plain["failures"] + traced["failures"]
    else:
        plain = measure(args.workload, args.seed, args.seconds, _T0)
        metrics, detail = end_to_end(plain), per_variant(plain)
        failures = plain["failures"]
    print(json.dumps({"detail": detail}, sort_keys=True))
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": plain["attempted"],
                      "failed": plain["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
