"""Shared golden-fixture definitions: small runs with hand-checkable inputs.

Used by test_golden.py (comparison) and make_golden.py (regeneration).
Everything here is pinned: exact thetas, schedules, params, and seeds.
The softmax fixtures also record the comparator's gap with ``repr``, as
``runner.run_single`` does, so their bytes pin the loss kernel to the bit.
Also holds ``write_schedule_csv``, the file writer for delay-schedule tests,
``round_recorder``, an observer that copies every round of an engine run,
``bits``, the bit patterns that bitwise comparisons of float arrays read,
``ftpl_noise``, the noise rows for oracle banks built directly,
``feedback_spy``, which records the feedback calls oracle banks absorb,
``read_trace_csv``, which parses a written trace back into arrays,
``read_golden``, the text of a committed golden file, and
``bench_workload_digest``, the trace digest of a benchmark workload.
"""

import hashlib
import os

import numpy as np

from delayfw import runner
from delayfw.baselines import dofw_run
from delayfw.de2mfw import AlgoParams, de2mfw_run, delmfw_run
from delayfw.delay import DelaySchedule
from delayfw.geometry import ConstraintSet
from delayfw.losses import LossStream, QuadraticLoss, synth_stream
from delayfw.metrics import attach_regret, compute_comparator
from delayfw.network import topology
from delayfw.oracle import FtplOracle

CSET = ConstraintSet("l1_ball", 1.0, 2)
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def read_golden(name):
    """The text of the committed file tests/golden/<name>."""
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def write_schedule_csv(path, delays) -> None:
    """Write delays in the one-column ``d`` CSV format that schedule_from_csv reads."""
    with open(path, "w") as fh:
        fh.write("d\n" + "".join(f"{int(v)}\n" for v in delays))


def bits(a):
    """The uint64 bit patterns of a float64 array, so that -0.0 differs from +0.0."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def ftpl_noise(seeds, m):
    """(len(seeds), m) oracle noise, row r drawn as default_rng(seeds[r]).uniform(size=m)."""
    return np.array([np.random.default_rng(s).uniform(size=m) for s in seeds])


def feedback_spy(monkeypatch):
    """Wrap FtplOracle.feedback; the returned list gets the bank of every call that returns."""
    absorbed = []
    feedback = FtplOracle.feedback

    def spy(bank, g):
        feedback(bank, g)
        absorbed.append(bank)

    monkeypatch.setattr(FtplOracle, "feedback", spy)
    return absorbed


def round_recorder(run):
    """An observe callback for ``run_rounds`` and the dict it fills.

    rounds[t] holds copies of round t's arrays, agent-major: "subs" the
    (n, K+1, m) sub-iterates x, and "v", "y", "d", "s" the (n, K, m) oracle
    outputs, mixed iterates, tracked gradients and local gradient sums S.
    Call observe(t) after round t's absorb_round when driving the run by hand.
    """
    rounds = {}

    def observe(t):
        rounds[t] = {key: np.swapaxes(arr, 0, 1).copy() for key, arr in (
            ("subs", run.ring[t % run.window]), ("v", run.vs), ("y", run.ys),
            ("d", run.ds), ("s", run.sums))}

    return rounds, observe


DELMFW_THETAS = (
    (0.5, 0.0),
    (0.0, -0.5),
    (0.25, 0.25),
    (-0.5, 0.5),
)
DELMFW_DELAYS = (1, 3, 1, 2)
DELMFW_PARAMS = AlgoParams(T=4, K=4, A=3.0, zeta=0.5, B_est=7.0)

DE2MFW_THETAS = (
    ((0.5, 0.0), (0.0, 0.5), (0.25, -0.25)),
    ((-0.5, 0.25), (0.25, 0.0), (0.0, -0.5)),
    ((0.125, 0.5), (-0.25, 0.25), (0.5, 0.125)),
)
DE2MFW_DELAYS = ((1, 2, 1), (2, 1, 1), (1, 1, 2))
DE2MFW_PARAMS = AlgoParams(T=3, K=4, A=3.0, zeta=0.25, B_est=4.0)

DOFW_THETAS = ((0.5, 0.25), (-0.25, 0.5), (0.25, -0.125))
DOFW_DELAYS = (1, 2, 1)
DOFW_ETA_REG = 0.5


def quad_stream(per_agent_thetas):
    return LossStream(QuadraticLoss(np.array(per_agent_thetas)))


def golden_delmfw():
    stream = quad_stream((DELMFW_THETAS,))
    schedule = DelaySchedule(DELMFW_DELAYS, dmax=3)
    trace = delmfw_run(CSET, stream, schedule, DELMFW_PARAMS, seed=0)
    attach_regret(trace, compute_comparator(stream, CSET), stream)
    return trace, stream, schedule


def golden_de2mfw():
    stream = quad_stream(DE2MFW_THETAS)
    schedules = [DelaySchedule(d, dmax=2) for d in DE2MFW_DELAYS]
    topo = topology("grid", 3)
    trace = de2mfw_run(CSET, stream, schedules, topo, DE2MFW_PARAMS, seed=0)
    attach_regret(trace, compute_comparator(stream, CSET), stream)
    return trace, stream, schedules


def golden_dofw():
    stream = quad_stream((DOFW_THETAS,))
    schedule = DelaySchedule(DOFW_DELAYS, dmax=2)
    trace = dofw_run(CSET, stream, schedule, eta_reg=DOFW_ETA_REG, seed=0)
    attach_regret(trace, compute_comparator(stream, CSET), stream)
    return trace, stream, schedule


SOFTMAX_NET_DELAYS = ((1, 3, 2, 1, 1), (2, 1, 1, 3, 1), (1, 1, 3, 1, 2))
SOFTMAX_NET_PARAMS = AlgoParams(T=5, K=3, A=3.0, zeta=0.5, B_est=15.0)
SOFTMAX_CENTRAL_DELAYS = (1, 2, 1, 3, 1)
SOFTMAX_CENTRAL_PARAMS = AlgoParams(T=5, K=3, A=3.0, zeta=0.5, B_est=8.0)


def with_comparator(trace, stream, cset):
    """Attach regret and the comparator's metadata lines, as runner.run_single writes them."""
    comparator = compute_comparator(stream, cset)
    attach_regret(trace, comparator, stream)
    trace.metadata.update({"comparator_gap": repr(comparator.gap),
                           "comparator_iterations": comparator.iterations,
                           "comparator_converged": comparator.converged})
    return trace


def golden_softmax_net():
    """De2MFW on the 3-agent path with diagnostics, softmax with C = 3, dmax = 3."""
    stream = synth_stream(7, T=5, p=2, C=3, batch=2, n_agents=3)
    cset = ConstraintSet("l1_ball", 4.0, stream.dim)
    schedules = [DelaySchedule(d, dmax=3) for d in SOFTMAX_NET_DELAYS]
    trace = de2mfw_run(cset, stream, schedules, topology("grid", 3), SOFTMAX_NET_PARAMS, seed=0)
    return with_comparator(trace, stream, cset), stream, schedules


def golden_softmax_central():
    """Centralized DeLMFW on softmax with C = 9, where numpy's class sum is pairwise."""
    stream = synth_stream(11, T=5, p=2, C=9, batch=3)
    cset = ConstraintSet("l1_ball", 4.0, stream.dim)
    schedule = DelaySchedule(SOFTMAX_CENTRAL_DELAYS, dmax=3)
    trace = delmfw_run(cset, stream, schedule, SOFTMAX_CENTRAL_PARAMS, seed=0)
    return with_comparator(trace, stream, cset), stream, schedule


# The one golden built from a config: it pins the default K and zeta and
# de2mfw.algorithm_constants, which every hand-made AlgoParams above bypasses.
DE2MFW_CONFIG = {
    "mode": "distributed",
    "T": 8,
    "set": {"kind": "l1_ball", "radius": 1.0, "dim": 3},
    "loss": {"kind": "quadratic"},
    "topology": {"kind": "cycle", "n": 3},
    "delay": {"dmax": 2},
    "seeds": [0],
}


def golden_de2mfw_config():
    """De2MFW through runner.run_single, as `delayfw run` builds it: cycle n = 3, T = 8."""
    cfg = runner.config_from_dict(DE2MFW_CONFIG)
    return runner.run_single(cfg, 0), cfg


# The benchmark's workloads, seed 0: copies of the bodies in perfbench/workloads.py.
# Their trace digests (golden/bench_workloads.sha256) catch a moved benchmark
# trace, which the benchmark's own stale baseline no longer does.
BENCH_WORKLOADS = {
    "central_quad": {
        "mode": "centralized",
        "T": 2048,
        "set": {"kind": "l1_ball", "radius": 1.0, "dim": 8},
        "loss": {"kind": "quadratic", "seed": 0},
        "delay": {"dmax": 1024, "seed": 0},
        "zeta_mode": "true_B",
        "seeds": [0],
    },
    "net_quad_n64": {
        "mode": "distributed",
        "T": 100,
        "set": {"kind": "l1_ball", "radius": 1.0, "dim": 8},
        "loss": {"kind": "quadratic", "seed": 0},
        "topology": {"kind": "cycle", "n": 64},
        "delay": {"dmax": 1, "seed": 0},
        "seeds": [0],
    },
    "net_softmax": {
        "mode": "distributed",
        "T": 100,
        "set": {"kind": "l1_ball", "radius": 8.0, "p": 10, "C": 3},
        "loss": {"kind": "softmax_xent", "batch": 5, "seed": 0},
        "topology": {"kind": "grid", "n": 9},
        "delay": {"dmax": 20, "seed": 0, "delayed_agent_count": 4},
        "zeta_mode": "dmax_bound",
        "diagnostics": True,
        "seeds": [0],
    },
}


def bench_workload_digest(name):
    """sha256 of the trace CSV of a benchmark workload's seed-0 run through runner.run_single."""
    trace = runner.run_single(runner.config_from_dict(BENCH_WORKLOADS[name]), 0)
    return hashlib.sha256(trace.csv_text().encode()).hexdigest()


def read_trace_csv(path):
    """Parse a trace CSV back into (metadata dict, column dict of arrays)."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key] = val
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return meta, {name: data[:, i] for i, name in enumerate(header)}
