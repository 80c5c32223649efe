"""Run every workload over seeds 0-9 and summarise, or record the baseline.

    python3 perfbench/suite.py [--seconds S] [--write LABEL]

Each seed of each workload in BENCHMARK.json is one fresh `run.py --trace 0`
process; then one `run.py --trace 1` process per workload on seed 0.
--seconds defaults to BENCHMARK.json's run_seconds.  Prints, per workload
and end-to-end metric, the median over seeds, the quartiles, the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, and
failed/attempted runs.  --write stores the result as
perfbench/baseline.json under the given label.  Run from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SEEDS = range(10)


def invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result line merged with its info lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("info: "):
            out.update(json.loads(line[len("info: "):]))
    return out


def summarise(runs: dict) -> dict:
    """Per end-to-end metric: median, quartiles and spread over the seeds."""
    out = {}
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in runs.values() if name in r["metrics"]]
        q1, med, q3 = harness.quartiles(values)
        out[name] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "runs": len(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--write", metavar="LABEL")
    args = parser.parse_args()
    record = {"label": args.write, "seconds": args.seconds, "seeds": list(SEEDS),
              "workloads": {}}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        started = time.time()
        runs = {s: invoke(workload, s, args.seconds, 0) for s in SEEDS}
        record["machine"] = runs[SEEDS[0]]["machine"]
        attempted = sum(r["attempted"] for r in runs.values())
        failed = sum(r["failed"] for r in runs.values())
        summary = summarise(runs)
        entry = {
            "end_to_end": summary,
            "failed_runs": {"failed": failed, "attempted": attempted},
            "trace_sha256": {str(s): r.get("trace_sha256") for s, r in runs.items()},
            "final_regret": {str(s): r.get("final_regret") for s, r in runs.items()},
        }
        print(f"== {workload}: {len(SEEDS)} processes, {time.time() - started:.0f} s, "
              f"failed_runs {failed}/{attempted}")
        for name, m in summary.items():
            bound = BOUNDS[name]
            flag = "" if m["spread"] < bound / 3 else "  <-- spread >= bound/3"
            steady &= flag == ""
            print(f"  {name:12s} median {m['median']:12.6g} {m['unit']:4s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:6.3f} "
                  f"(bound {bound}) n={m['runs']}{flag}")
        traced = invoke(workload, SEEDS[0], args.seconds, 1)
        entry["traced_seed"] = SEEDS[0]
        entry["per_layer"] = traced["per_layer"]
        entry["layer_self_s"] = traced["layer_self_s"]
        total = traced["per_layer"]["trace.total_s"]
        split = ", ".join(f"{k} {v / total:.0%}" for k, v in
                          sorted(traced["layer_self_s"].items(), key=lambda kv: -kv[1]))
        print(f"  traced seed {SEEDS[0]}: total {total:.3f} s; {split}")
        record["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady: a spread is at least a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
