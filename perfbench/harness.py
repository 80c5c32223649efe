"""Timed, traced and counted passes over one workload and seed.

A sample is one `parse_config` + `run_experiment` call for one seed, the
path `delayfw run` takes.  Every full sample's output is checked: a sample
fails if it raises, writes a non-finite trace value, writes trace bytes
that differ from the first sample of the same invocation, or writes a
trace that disagrees with the decisions the algorithm returned.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc
import types
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import config_body

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
A_CAP_TEXT = "fixed point did not converge"


class MissingProgram(RuntimeError):
    """The checkout holds no `src/delayfw` to benchmark."""


def load_delayfw() -> types.SimpleNamespace:
    """Import `delayfw` from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "delayfw" / "__init__.py").is_file():
        raise MissingProgram(f"no delayfw package under {src}")
    sys.path.insert(0, str(src))
    import delayfw
    from delayfw import de2mfw, delay, geometry, losses, metrics, network, oracle, runner
    if Path(delayfw.__file__).resolve().parent != (src / "delayfw").resolve():
        raise MissingProgram(f"delayfw imported from {delayfw.__file__}, not {src}")
    return types.SimpleNamespace(runner=runner, de2mfw=de2mfw, delay=delay,
                                 geometry=geometry, losses=losses, metrics=metrics,
                                 network=network, oracle=oracle)


class EngineHook:
    """Wraps runner's by-name engine entry points to see the algorithm phase.

    Records the entry and exit times, the engine's arguments and returned
    trace, and, while a call counter is active, the Python calls made inside
    the engine call.
    """

    def __init__(self, dfw):
        self.dfw = dfw
        self.counter = None
        self.entered = self.exited = None
        self.args = self.trace = None
        self.py_calls = None

    def _wrap(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def engine(*args, **kwargs):
            self.entered = clock()
            counter = self.counter
            before = counter.total if counter else 0
            trace = fn(*args, **kwargs)
            after = counter.total if counter else 0
            self.exited = clock()
            self.py_calls = after - before
            self.args, self.trace = args, trace
            return trace

        return engine

    def replacements(self) -> list:
        r = self.dfw.runner
        return [(r, name, self._wrap(vars(r)[name])) for name in ("delmfw_run", "de2mfw_run")]


@dataclass
class Sample:
    run_s: float
    setup_s: float
    engine_s: float
    steps: int
    digest: str
    final_regret: float
    csv_bytes: int
    meta: dict
    a_cap_warnings: int
    problems: list = field(default_factory=list)


class Workload:
    """A workload's config on disk and its output directory, for one seed."""

    def __init__(self, dfw, name: str, seed: int):
        self.dfw, self.name, self.seed = dfw, name, seed
        self.dir = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(config_body(name, seed)))
        self.out = self.dir / "out"
        self.first_digest = None

    def full(self, hook: EngineHook, region=contextlib.nullcontext):
        """One checked run of parse_config + run_experiment inside `region`.

        None if it raised or its output could not be read.  Its set-up time
        ends where `hook` sees the engine entered.
        """
        hook.entered = hook.exited = hook.trace = None
        runner = self.dfw.runner
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with region():
                    start = time.perf_counter()
                    cfg = runner.parse_config(str(self.config))
                    res = runner.run_experiment(cfg, str(self.out))
                    wall = time.perf_counter() - start
            problems, digest, meta, data = check_outputs(self, res, hook)
        except Exception as e:  # noqa: BLE001 - counted as a failed run
            print(f"failed run: {type(e).__name__}: {e}")
            return None
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("trace bytes differ from the first repeat")
        steps = int(meta.get("n", 1)) * int(meta["K"]) * int(meta["T"])
        return Sample(
            run_s=wall, setup_s=hook.entered - start,
            engine_s=hook.exited - hook.entered, steps=steps, digest=digest,
            final_regret=res["rows"][0][2], csv_bytes=len(data), meta=meta,
            a_cap_warnings=sum(A_CAP_TEXT in str(w.message) for w in caught),
            problems=problems)


def check_outputs(wl: Workload, res: dict, hook: EngineHook):
    """Validate the trace CSV and summary.csv of one run against the engine's trace."""
    problems = []
    path = Path(res["traces"][0])
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    meta, header, rows = {}, None, []
    for line in data.decode().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    T = int(meta["T"])
    if len(rows) != T or any(len(r) != len(header) for r in rows):
        problems.append(f"trace has {len(rows)} rows or a row of the wrong width, "
                        f"expected {T} rows of {len(header)}")
        return problems, digest, meta, data
    table = np.array(rows, dtype=float)
    if not np.all(np.isfinite(table)):
        problems.append("non-finite value in trace CSV")
    col = {name: table[:, i] for i, name in enumerate(header)}
    if not np.array_equal(col["t"], np.arange(1, T + 1)):
        problems.append("round column is not 1..T")
    inst, cum = col["inst_loss"], col["cum_loss"]
    step_err = np.abs(np.diff(cum, prepend=0.0) - inst)
    if np.any(step_err > 1e-7 * (np.abs(cum) + np.abs(inst) + 1.0)):
        problems.append("cum_loss is not the running sum of inst_loss")
    # Both files hold 9 significant digits, and total_loss is a sum taken
    # in another order than cum_loss, so the last digit may differ.
    summary = Path(res["summary"]).read_text().splitlines()
    if summary[0] != "seed,total_loss,final_regret,wall_time_s" or len(summary) != 2:
        problems.append("summary.csv is not one header and one row")
    else:
        seed, total, regret, _ = summary[1].split(",")
        if int(seed) != wl.seed or not math.isclose(float(total), cum[-1], rel_tol=1e-7) \
                or not math.isclose(float(regret), col["regret_prefix"][-1],
                                    rel_tol=1e-7, abs_tol=1e-9):
            problems.append("summary.csv disagrees with the trace")
    problems += _check_decisions(hook, inst)
    return problems, digest, meta, data


def _check_decisions(hook: EngineHook, inst: np.ndarray) -> list:
    """Decisions lie in the set; quadratic losses match a direct recomputation."""
    cset, stream, trace = hook.args[0], hook.args[1], hook.trace
    x = trace.decisions
    if cset.kind != "l1_ball":
        return [f"decision check supports l1_ball only, got {cset.kind}"]
    problems = []
    if not np.all(np.isfinite(x)) or np.any(np.abs(x).sum(axis=-1) > cset.radius * (1 + 1e-9)):
        problems.append("a decision lies outside the constraint set")
    if stream.kind == "quadratic":
        theta = np.array([[stream.loss(i, t).theta for t in range(1, stream.T + 1)]
                          for i in range(stream.n_agents)])  # (n, T, m)
        if x.ndim == 2:
            expect = 0.5 * np.sum((x - theta[0]) ** 2, axis=1)
        else:  # max over agents i of F_t(x_i) = mean_j 0.5 ||x_i - theta_j||^2
            sq = (np.sum(x**2, axis=2)[:, :, None]
                  - 2.0 * np.einsum("tim,jtm->tij", x, theta)
                  + np.sum(theta**2, axis=2).T[:, None, :])
            expect = 0.5 * sq.mean(axis=2).max(axis=1)
        if not np.allclose(inst, expect, rtol=1e-7, atol=1e-9):
            problems.append("inst_loss disagrees with the decisions")
    return problems


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_for(seconds: float, one) -> list:
    """Call `one` until the next call would end past `seconds`; at least once.

    Successive calls run on successive CPUs.  On a shared machine each CPU
    slows down and recovers independently of the others, over tens of
    seconds; a pass that stayed on one CPU would carry that CPU's luck.
    """
    cpus = sorted(os.sched_getaffinity(0))
    out, start = [], time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(out) % len(cpus)]})
            gc.collect()  # every call starts with an empty collector, like a fresh process
            call_start = time.perf_counter()
            out.append(one())
            last = time.perf_counter() - call_start
            if time.perf_counter() - start + last > seconds:
                return out
    finally:
        os.sched_setaffinity(0, cpus)


def timed_pass(dfw, wl: Workload, seconds: float) -> list:
    """Full checked runs until `seconds` are used: a Sample, or None, per run."""
    hook = EngineHook(dfw)
    with tracing.patched(hook.replacements()):
        return run_for(seconds, lambda: wl.full(hook))


@contextlib.contextmanager
def counting(counter: tracing.CallCounter):
    """Profile Python calls and trace allocations for the enclosed block."""
    tracemalloc.start()
    sys.setprofile(counter.hook())
    try:
        yield
    finally:
        sys.setprofile(None)
        counter.peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@dataclass
class TracedPass:
    samples: list  # every full run of the pass, untraced, traced and counted
    metrics: dict  # name -> value
    layers: dict  # layer -> self time in the median traced run


def traced_pass(dfw, wl: Workload, seconds: float) -> TracedPass:
    """Pairs of an untraced and a traced run, and one exact-count run, within `seconds`.

    The two runs of a pair follow each other on one CPU, so their difference
    measures the tracing overhead with little of the machine's drift in it.
    The count run follows the first pair so that it sees a warm process.
    """
    start = time.perf_counter()
    hook = EngineHook(dfw)
    tracers = []

    def pair():
        untraced = wl.full(hook)
        tracer = tracing.Tracer()
        with tracing.patched(tracer.replacements(dfw)):
            traced = wl.full(hook, functools.partial(tracer.span, "runner.run"))
        tracers.append(tracer)
        return untraced, traced

    with tracing.patched(hook.replacements()):
        pairs = [pair()]
        counter = tracing.CallCounter(dfw)
        hook.counter = counter
        try:
            counted = wl.full(hook, functools.partial(counting, counter))
        finally:
            hook.counter = None
        engine_py_calls = hook.py_calls
        pairs += run_for(seconds - (time.perf_counter() - start), pair)
    samples = [s for p in pairs for s in p] + [counted]
    if not all(samples):
        return TracedPass(samples, {}, {})
    overhead = statistics.median(t.total_s["runner.run"] - u.run_s
                                 for t, (u, _) in zip(tracers, pairs))
    # the traced run with the median total stands for all, so its layer
    # self times still add up to its total
    tracers.sort(key=lambda t: t.total_s["runner.run"])
    rep = tracers[(len(tracers) - 1) // 2]
    metrics = _time_metrics(rep, overhead)
    metrics.update(_count_metrics(dfw, wl, counter, engine_py_calls, counted))
    return TracedPass(samples, metrics, rep.layer_self_s())


def _time_metrics(t: tracing.Tracer, overhead_s: float) -> dict:
    layer = t.layer_self_s()
    total = t.total_s["runner.run"]
    return {
        "geometry.self_s": layer.get("geometry", 0.0),
        "oracle.self_s": layer.get("oracle", 0.0),
        "losses.self_s": layer.get("losses", 0.0),
        "losses.build_s": t.total_s.get("losses.build", 0.0),
        "network.self_s": layer.get("network", 0.0),
        "network.mix.self_s": t.self_s.get("network.mix", 0.0),
        "network.setup_s": t.total_s.get("network.setup", 0.0),
        "delay.self_s": layer.get("delay", 0.0),
        "delmfw.run.self_s": t.self_s.get("delmfw.run", 0.0),
        "de2mfw.run.self_s": t.self_s.get("de2mfw.run", 0.0),
        "engine.run.self_s": t.self_s.get("delmfw.run", 0.0) + t.self_s.get("de2mfw.run", 0.0),
        "metrics.comparator.s": t.total_s.get("metrics.comparator", 0.0),
        "metrics.per_agent_losses.s": t.total_s.get("metrics.per_agent_losses", 0.0),
        "metrics.regret.s": t.total_s.get("metrics.regret", 0.0),
        "metrics.csv.s": t.total_s.get("metrics.csv", 0.0),
        "runner.config.s": t.total_s.get("runner.config", 0.0),
        "runner.constants.s": t.total_s.get("runner.constants", 0.0),
        "runner.self_s": layer.get("runner", 0.0),
        "trace.total_s": total,
        "trace.overhead_s": overhead_s,
    }


def _count_metrics(dfw, wl: Workload, counter, engine_py_calls: int,
                   counted: Sample) -> dict:
    meta = counted.meta
    n, K, m, T = (int(meta.get("n", 1)), int(meta["K"]), int(meta["dim"]), int(meta["T"]))
    topo = config_body(wl.name, wl.seed).get("topology")
    degree = 0.0
    if topo is not None:
        degree = float(dfw.network.topology(topo["kind"], n).degrees().mean())
    calls = counter.by_name
    return {
        "geometry.lmo_batch.calls": calls["geometry.lmo_batch"],
        "geometry.lmo_batch.rows": counter.rows,
        "oracle.query.calls": calls["oracle.query"],
        "oracle.feedback.calls": calls["oracle.feedback"],
        "losses.grad.calls": calls["losses.grad"],
        "losses.value.calls": calls["losses.value"],
        "losses.total_grad.calls": calls["losses.total_grad"],
        "network.mix.calls": calls["network.mix"],
        # computed, not measured: each of the 2K exchanges per round sends
        # m floats to every neighbour
        "network.floats_per_agent_round": 2 * K * m * degree,
        "delay.push.calls": calls["delay.push"],
        "delay.released": counter.released,
        "engine.py_calls_per_round": engine_py_calls / T,
        "metrics.comparator.iterations": int(meta["comparator_iterations"]),
        "metrics.csv.bytes": counted.csv_bytes,
        "memory.tracemalloc_peak_mb": counter.peak_bytes / 2**20,
    }
