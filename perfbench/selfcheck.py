"""Checks of the benchmark itself, on shrunken copies of its workloads.

    python3 perfbench/selfcheck.py

Run from anywhere inside a checkout; takes well under a minute.
"""

from __future__ import annotations

import run  # first: it pins the BLAS threads before numpy is imported

import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent

TINY = {
    "tiny_central": dict(WORKLOADS["central_quad"], T=64, delay={"dmax": 32, "seed": 0}),
    "tiny_net": dict(WORKLOADS["net_quad_n64"], T=12, topology={"kind": "cycle", "n": 6}),
    "tiny_softmax": dict(WORKLOADS["net_softmax"], T=10, topology={"kind": "grid", "n": 4},
                         delay={"dmax": 5, "seed": 0, "delayed_agent_count": 2}),
}
WORKLOADS.update(TINY)
# counters that must repeat exactly; times and the tracemalloc peak need not
EXACT = [name for name, unit in {**run.PER_LAYER, **run.PER_LAYER_PRINTED}.items()
         if unit in ("count", "bytes", "floats")]


def print_counts(name: str) -> None:
    """Child-process entry: print the exact counters of one traced pass."""
    dfw = harness.load_delayfw()
    wl = harness.Workload(dfw, name, 3)
    try:
        res = harness.traced_pass(dfw, wl, 0.0)
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)
    print(json.dumps({k: res.metrics[k] for k in EXACT}))


class SelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dfw = harness.load_delayfw()

    def workload(self, name: str, seed: int = 0) -> harness.Workload:
        wl = harness.Workload(self.dfw, name, seed)
        self.addCleanup(shutil.rmtree, wl.dir, True)
        return wl

    def test_counts_repeat_across_invocations(self):
        for name in TINY:
            outs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-c", f"import selfcheck; selfcheck.print_counts({name!r})"],
                    cwd=HERE, capture_output=True, text=True, timeout=300, check=True)
                self.assertEqual(proc.stderr, "", "warnings must not reach stderr")
                outs.append(json.loads(proc.stdout.splitlines()[-1]))
            self.assertEqual(outs[0], outs[1], name)

    def test_counts_match_the_round_structure(self):
        for name in TINY:
            res = harness.traced_pass(self.dfw, self.workload(name), 0.0)
            meta = res.samples[-1].meta
            n, K, T = int(meta.get("n", 1)), int(meta["K"]), int(meta["T"])
            m = res.metrics
            self.assertEqual(m["oracle.query.calls"], n * K * T, name)
            self.assertEqual(m["delay.push.calls"], n * T, name)
            self.assertEqual(m["network.mix.calls"], 0 if n == 1 else 2 * K * T, name)
            self.assertEqual(m["geometry.lmo_batch.rows"], m["geometry.lmo_batch.calls"], name)
            self.assertGreater(m["engine.py_calls_per_round"], 0, name)

    def test_layer_self_times_sum_to_traced_total(self):
        # Self times telescope to the outermost span, so only rounding
        # separates their sum from it: tolerance 1 microsecond.  The
        # outermost span encloses the run's own timer: it may exceed the
        # run's wall time by at most 1 ms of span bookkeeping.
        for name in TINY:
            wl, hook, tracer = self.workload(name), harness.EngineHook(self.dfw), tracing.Tracer()
            with tracing.patched(hook.replacements()):
                with tracing.patched(tracer.replacements(self.dfw)):
                    sample = wl.full(hook, lambda: tracer.span("runner.run"))
            total = tracer.total_s["runner.run"]
            self.assertAlmostEqual(sum(tracer.layer_self_s().values()), total, delta=1e-6)
            self.assertLessEqual(sample.run_s, total)
            self.assertLessEqual(total, sample.run_s + 1e-3)
            self.assertGreater(tracer.calls["geometry.lmo"], 0)

    def test_timed_run_after_traced_run_sees_originals(self):
        targets = [(o, a) for o, a, _ in tracing.span_targets(self.dfw)]
        originals = [vars(o)[a] for o, a in targets]
        wl = self.workload("tiny_net")
        harness.traced_pass(self.dfw, wl, 0.0)
        self.assertEqual([vars(o)[a] for o, a in targets], originals)
        tracer = tracing.Tracer()
        with tracing.patched(tracer.replacements(self.dfw)):
            pass
        cpus = os.sched_getaffinity(0)
        samples = harness.timed_pass(self.dfw, wl, 0.0)
        self.assertEqual(os.sched_getaffinity(0), cpus)
        self.assertEqual(dict(tracer.calls), {})
        self.assertTrue(all(s and not s.problems for s in samples))
        self.assertEqual([vars(o)[a] for o, a in targets], originals)

    def test_a_corrupt_trace_fails_the_run(self):
        trace_cls = self.dfw.metrics.RunTrace
        good_text = trace_cls.csv_text

        def nan_text(trace):  # round 2's inst_loss becomes nan
            return re.sub(r"\n2,[^,]*,", "\n2,nan,", good_text(trace), count=1)

        wl, hook = self.workload("tiny_central"), harness.EngineHook(self.dfw)
        with tracing.patched(hook.replacements()):
            with tracing.patched([(trace_cls, "csv_text", nan_text)]):
                sample = wl.full(hook)
        self.assertIn("non-finite value in trace CSV", sample.problems)

    def test_a_corrupt_summary_fails_the_run(self):
        runner = self.dfw.runner
        write = runner._write_atomic

        def shifted_total(path, text):  # the summary's total_loss doubles
            if path.endswith("summary.csv"):
                head, row = text.splitlines()
                seed, total, rest = row.split(",", 2)
                text = f"{head}\n{seed},{2 * float(total):.9g},{rest}\n"
            write(path, text)

        wl, hook = self.workload("tiny_central"), harness.EngineHook(self.dfw)
        with tracing.patched(hook.replacements()):
            with tracing.patched([(runner, "_write_atomic", shifted_total)]):
                sample = wl.full(hook)
        self.assertIn("summary.csv disagrees with the trace", sample.problems)

    def test_a_nondeterministic_trace_fails_the_repeat(self):
        trace_cls = self.dfw.metrics.RunTrace
        good_text = trace_cls.csv_text
        calls = []

        def drifting_text(trace):
            calls.append(None)
            return f"#drift={len(calls)}\n" + good_text(trace)

        wl, hook = self.workload("tiny_central"), harness.EngineHook(self.dfw)
        with tracing.patched(hook.replacements()):
            with tracing.patched([(trace_cls, "csv_text", drifting_text)]):
                first, second = wl.full(hook), wl.full(hook)
        self.assertEqual(first.problems, [])
        self.assertIn("trace bytes differ from the first repeat", second.problems)

    def test_result_names_match_benchmark_json(self):
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in WORKLOADS if w not in TINY])

    def test_fails_without_the_program(self):
        bare = harness.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "central_quad", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
