"""Benchmark of `delayfw run` on one workload and one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
`--trace 0` times full runs with nothing wrapped and prints the end-to-end
metrics.  `--trace 1` prints the per-layer split: pairs of an untraced run
and a run with spans around every module's public functions, and one
exact-count run under `sys.setprofile` and `tracemalloc`.  Every run's
output is checked.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  Exit code 2
means the checkout holds no program to benchmark.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, so that a run's
# time does not depend on how the scheduler places helper threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "baseline.json"

END_TO_END = {"run_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics in the result line.  Each says which end-to-end metric
# it should move, and on which workload.
PER_LAYER = {
    "geometry.lmo_batch.calls": "count",      # steps_per_s, central_quad
    "geometry.lmo_batch.rows": "count",       # rows/calls is what batching raises
    "geometry.self_s": "s",                   # steps_per_s, central_quad
    "oracle.query.calls": "count",            # steps_per_s, central_quad, net_quad_n64
    "oracle.feedback.calls": "count",
    "oracle.self_s": "s",
    "losses.grad.calls": "count",             # steps_per_s, net_softmax
    "losses.value.calls": "count",            # steps_per_s, net_quad_n64 (regret losses)
    "losses.total_grad.calls": "count",       # run_s, net_softmax (comparator)
    "losses.self_s": "s",
    "losses.build_s": "s",                    # setup_s
    "delay.push.calls": "count",              # steps_per_s, central_quad
    "delay.released": "count",
    "delay.self_s": "s",
    "engine.run.self_s": "s",                 # steps_per_s, every workload
    "engine.py_calls_per_round": "count",
    "metrics.comparator.s": "s",              # run_s, net_softmax
    "metrics.comparator.iterations": "count",
    "metrics.regret.s": "s",                  # run_s, central_quad
    "metrics.csv.s": "s",                     # run_s, central_quad
    "metrics.csv.bytes": "bytes",
    "runner.config.s": "s",                   # setup_s
    "runner.constants.s": "s",                # setup_s
    "runner.self_s": "s",
    "memory.tracemalloc_peak_mb": "MB",
}

# Printed with the split but kept out of the result line, where a metric
# may not read 0: each of these is exactly zero on a workload that never
# enters its code, and the overhead is a difference of two noisy times
# that falls below zero where tracing costs less than the noise.
PER_LAYER_PRINTED = {
    "network.mix.calls": "count",             # steps_per_s, net_quad_n64
    "network.floats_per_agent_round": "floats",  # computed from the topology
    "network.self_s": "s",
    "network.mix.self_s": "s",                # steps_per_s, net_quad_n64
    "network.setup_s": "s",                   # setup_s, net_quad_n64
    "delmfw.run.self_s": "s",
    "de2mfw.run.self_s": "s",
    "metrics.per_agent_losses.s": "s",        # steps_per_s and run_s, net_quad_n64
    "trace.total_s": "s",
    "trace.overhead_s": "s",                  # median over adjacent untraced/traced pairs
}


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def baseline_digest(workload: str, seed: int):
    if not BASELINE.is_file():
        return None
    base = json.loads(BASELINE.read_text())
    return base.get("workloads", {}).get(workload, {}).get("trace_sha256", {}).get(str(seed))


def describe_samples(samples: list, seed: int, workload: str) -> tuple:
    """Print per-run checks and information; return (attempted, failed)."""
    failed = 0
    for i, s in enumerate(samples):
        if s is None or s.problems:
            failed += 1
            print(f"run {i}: FAILED {'(see above)' if s is None else '; '.join(s.problems)}")
    good = [s for s in samples if s]
    if good:
        s, base = good[0], baseline_digest(workload, seed)
        info({"final_regret": s.final_regret, "trace_sha256": s.digest,
              "vs_baseline": ("none" if base is None else
                              "same" if base == s.digest else "differs"),
              "a_cap_warnings_per_run": sorted({x.a_cap_warnings for x in good})})
    print(f"failed_runs {failed}/{len(samples)}")
    return len(samples), failed


def info(fields: dict) -> None:
    """Information that never gates a result, one JSON object per line."""
    print("info: " + json.dumps(fields))


def report(name: str, value: float, unit: str, n=None, spread=None) -> dict:
    extra = f"  n={n}" if n is not None else ""
    if spread is not None:
        extra += f"  q1={spread[0]:.6g} q3={spread[1]:.6g}"
    print(f"{name:32s} {value:>14.6g} {unit:7s}{extra}")
    return {"value": value, "unit": unit}


def timed(dfw, wl, seconds: float) -> tuple:
    samples = harness.timed_pass(dfw, wl, seconds)
    attempted, failed = describe_samples(samples, wl.seed, wl.name)
    good = [s for s in samples if s]
    metrics = {}
    if good:
        for name, values in (("run_s", [s.run_s for s in good]),
                             ("setup_s", [s.setup_s for s in good])):
            q1, med, q3 = harness.quartiles(values)
            metrics[name] = report(name, med, END_TO_END[name], len(values), (q1, q3))
        # Steps over the summed engine time of all runs: on net_softmax the
        # engine call lasts well under a second, too short for a steady median.
        steps_per_s = sum(s.steps for s in good) / sum(s.engine_s for s in good)
        metrics["steps_per_s"] = report("steps_per_s", steps_per_s, "1/s", len(good))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = report("peak_rss_mb", rss_mb, "MB", 1)
    return attempted, failed, metrics


def traced(dfw, wl, seconds: float) -> tuple:
    res = harness.traced_pass(dfw, wl, seconds)
    attempted, failed = describe_samples(res.samples, wl.seed, wl.name)
    if not res.metrics:
        return attempted, failed, {}
    total = res.metrics["trace.total_s"]
    print("layer self time in the median traced run:")
    for layer, s in sorted(res.layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {s:10.4f} s  {100 * s / total:5.1f}%")
    print(f"  {'sum':10s} {sum(res.layers.values()):10.4f} s  (traced total {total:.4f} s)")
    info({"layer_self_s": res.layers,
          "per_layer": {k: res.metrics[k] for k in {**PER_LAYER, **PER_LAYER_PRINTED}}})
    metrics = {}
    for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
        label = " (computed)" if name == "network.floats_per_agent_round" else ""
        entry = report(name + label, res.metrics[name], unit)
        if name in PER_LAYER:
            metrics[name] = entry
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        dfw = harness.load_delayfw()
    except harness.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info({"machine": machine_info()})
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'timed'}, {args.seconds:g} s)")
    wl = harness.Workload(dfw, args.workload, args.seed)
    try:
        attempted, failed, metrics = (traced if args.trace else timed)(dfw, wl, args.seconds)
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)
        if harness.WORK.is_dir() and not any(harness.WORK.iterdir()):
            harness.WORK.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
