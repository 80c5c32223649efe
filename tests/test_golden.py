"""Golden traces: straight-line hand simulations, then byte-exact CSV checks.

Each fixture is re-derived here with independent inline arithmetic (own LMO,
own gossip weights, own update loops) and compared to the library run; the
library's CSV text is then compared byte-for-byte against the committed
files under tests/golden/.  The two softmax fixtures are compared by bytes
only; their comparator gap is written with repr, so they pin the softmax
kernel to the last bit.  The sixth fixture is built from a config through
runner.run_single and compared by bytes only: it pins the default tuning.
The benchmark's three workloads, run for seed 0, are pinned by the sha256
of their trace CSVs (bench_workloads.sha256), so a moved benchmark trace
fails here and not only in a benchmark run.
"""

import numpy as np
import pytest

from _fixtures import (
    BENCH_WORKLOADS,
    CSET,
    DE2MFW_DELAYS,
    DE2MFW_PARAMS,
    DE2MFW_THETAS,
    DELMFW_DELAYS,
    DELMFW_PARAMS,
    DELMFW_THETAS,
    DOFW_DELAYS,
    DOFW_ETA_REG,
    DOFW_THETAS,
    bench_workload_digest,
    golden_de2mfw,
    golden_de2mfw_config,
    golden_delmfw,
    golden_dofw,
    golden_softmax_central,
    golden_softmax_net,
    read_golden,
)
from delayfw import seeding
from delayfw.metrics import compute_comparator
from delayfw.network import metropolis_weights, topology


def l1_lmo(z):
    i = int(np.argmax(np.abs(z)))
    s = 1.0 if z[i] > 0 else -1.0
    out = np.zeros(2)
    out[i] = -1.0 * s
    return out


def releases(delays, T):
    """release round -> sorted origin list, dropping past-horizon feedback."""
    table = {t: [] for t in range(1, T + 1)}
    for s, d in enumerate(delays, start=1):
        r = s + d - 1
        if r <= T:
            table[r].append(s)
    return table


def quad_value(x, theta):
    return 0.5 * float(np.sum((x - np.asarray(theta)) ** 2))


def hand_regret_curve(inst, comp_x, value_at):
    comp = np.array([value_at(comp_x, t) for t in range(1, len(inst) + 1)])
    return np.cumsum(inst) - np.cumsum(comp)


# -- fixture 1: centralized run, T=4, K=4, delays (1,3,1,2) ------------------------


def hand_delmfw():
    T, K, A, zeta = 4, 4, 3.0, 0.5
    thetas = [np.array(th) for th in DELMFW_THETAS]
    noises = seeding.rng_for(0, seeding.STREAM_ORACLE).uniform(size=(K, 2))
    accums = [np.zeros(2) for _ in range(K)]
    rel = releases(DELMFW_DELAYS, T)
    stored = {}
    decisions, inst = [], []
    for t in range(1, T + 1):
        x = l1_lmo(np.zeros(2))
        subs = []
        for k in range(1, K + 1):
            subs.append(x)
            v = l1_lmo(zeta * accums[k - 1] + noises[k - 1])
            eta = min(1.0, A / k)
            x = (1.0 - eta) * x + eta * v
        stored[t] = subs
        decisions.append(x)
        inst.append(quad_value(x, thetas[t - 1]))
        for k in range(K):
            total = None
            for s in rel[t]:
                g = stored[s][k] - thetas[s - 1]
                total = g.copy() if total is None else total + g
            if total is not None:
                accums[k] = accums[k] + total
    return np.array(decisions), np.array(inst)


def test_delmfw_hand_simulation():
    trace, stream, _ = golden_delmfw()
    decisions, inst = hand_delmfw()
    assert np.array_equal(trace.decisions, decisions)
    assert np.array_equal(trace.inst_loss, inst)
    comp = compute_comparator(stream, CSET)
    want = hand_regret_curve(inst, comp.x, lambda x, t: stream.average_value(x, t))
    assert np.array_equal(trace.regret_prefix, want)
    # the undelivered round-4 feedback (release at t=5 > T) never lands
    assert DELMFW_DELAYS[3] + 4 - 1 > 4


def test_delmfw_golden_bytes():
    trace, _, _ = golden_delmfw()
    committed = read_golden("delmfw_t4.csv")
    assert trace.csv_text() == committed


# -- fixture 2: network run, n=3 path, T=3, K=4 -------------------------------------


def hand_metropolis_path3():
    w = np.zeros((3, 3))
    deg = [1, 2, 1]
    for i, j in [(0, 1), (1, 2)]:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w

def max_dev(rows, center):
    return float(np.max(np.linalg.norm(rows - center, axis=-1)))


def hand_de2mfw():
    n, T, K, zeta, A = 3, 3, 4, 0.25, 3.0
    w = hand_metropolis_path3()
    thetas = [[np.array(th) for th in agent] for agent in DE2MFW_THETAS]
    noises = seeding.rng_for(0, seeding.STREAM_ORACLE).uniform(size=(n * K, 2)).reshape(n, K, 2)
    accums = [[np.zeros(2) for _ in range(K)] for _ in range(n)]
    rel = [releases(DE2MFW_DELAYS[i], T) for i in range(n)]
    stored = {}
    decisions, consensus, tracking = [], [], []
    for t in range(1, T + 1):
        X = np.tile(l1_lmo(np.zeros(2)), (n, 1))
        subs = np.empty((n, K + 1, 2))
        cons = []
        for k in range(1, K + 1):
            subs[:, k - 1] = X
            V = np.array([l1_lmo(zeta * accums[i][k - 1] + noises[i][k - 1])
                          for i in range(n)])
            Y = w @ X
            cons.append(max_dev(Y, X.mean(axis=0)))
            eta = min(1.0, A / k)
            X = (1.0 - eta) * Y + eta * V
        subs[:, K] = X
        stored[t] = subs
        decisions.append(X)
        consensus.append(cons)

        def local_sums(col):
            out = np.zeros((n, 2))
            for i in range(n):
                total = None
                for s in rel[i][t]:
                    g = stored[s][i, col] - thetas[i][s - 1]
                    total = g.copy() if total is None else total + g
                if total is not None:
                    out[i] = total
            return out

        S = local_sums(0)
        G = S
        track = []
        for k in range(1, K + 1):
            Dk = w @ G
            track.append(max_dev(Dk, S.mean(axis=0)))
            for i in range(n):
                accums[i][k - 1] = accums[i][k - 1] + Dk[i]
            if k < K:
                S_next = local_sums(k)
                G = S_next + (Dk - S)
                S = S_next
        tracking.append(track)
    return np.array(decisions), np.array(consensus), np.array(tracking)


def test_de2mfw_hand_simulation():
    trace, stream, _ = golden_de2mfw()
    assert np.array_equal(metropolis_weights(topology("grid", 3)).w,
                          hand_metropolis_path3())
    decisions, consensus, tracking = hand_de2mfw()
    assert np.array_equal(trace.decisions, decisions)
    assert np.array_equal(trace.consensus, consensus)
    assert np.array_equal(trace.tracking, tracking)
    # worst-agent / mean-agent global losses and the max-agent regret curve
    pal = np.empty((3, 3))
    for t in range(1, 4):
        for i in range(3):
            vals = [quad_value(decisions[t - 1, i], DE2MFW_THETAS[j][t - 1])
                    for j in range(3)]
            pal[t - 1, i] = sum(vals) / 3
    assert np.array_equal(trace.per_agent_loss, pal)
    assert np.array_equal(trace.inst_loss, pal.max(axis=1))
    assert np.array_equal(trace.per_agent_loss.mean(axis=1), pal.mean(axis=1))
    comp = compute_comparator(stream, CSET)
    comp_cum = np.cumsum([stream.average_value(comp.x, t) for t in range(1, 4)])
    want = np.max(np.cumsum(pal, axis=0) - comp_cum[:, None], axis=1)
    assert np.array_equal(trace.regret_prefix, want)


def test_de2mfw_golden_bytes():
    trace, _, _ = golden_de2mfw()
    committed = read_golden("de2mfw_n3.csv")
    assert trace.csv_text() == committed


# -- fixture 3: delayed online Frank-Wolfe, T=3 --------------------------------------


def hand_dofw():
    T = 3
    thetas = [np.array(th) for th in DOFW_THETAS]
    rel = releases(DOFW_DELAYS, T)
    anchor = l1_lmo(np.zeros(2))
    x = anchor.copy()
    accum = np.zeros(2)
    decisions, inst = [], []
    for t in range(1, T + 1):
        decisions.append(x.copy())
        inst.append(quad_value(x, thetas[t - 1]))
        for s in rel[t]:
            accum = accum + (decisions[s - 1] - thetas[s - 1])
        grad_phi = DOFW_ETA_REG * accum + 2.0 * (x - anchor)
        v = l1_lmo(grad_phi)
        wdir = v - x
        wsq = float(wdir @ wdir)
        step = min(1.0, max(0.0, -float(grad_phi @ wdir) / (2.0 * wsq))) if wsq > 0 else 0.0
        x = x + step * wdir
    return np.array(decisions), np.array(inst)


def test_dofw_hand_simulation():
    trace, stream, _ = golden_dofw()
    decisions, inst = hand_dofw()
    assert np.array_equal(trace.decisions, decisions)
    assert np.array_equal(trace.inst_loss, inst)
    comp = compute_comparator(stream, CSET)
    want = hand_regret_curve(inst, comp.x, lambda x, t: stream.average_value(x, t))
    assert np.array_equal(trace.regret_prefix, want)


def test_dofw_golden_bytes():
    trace, _, _ = golden_dofw()
    committed = read_golden("dofw_t3.csv")
    assert trace.csv_text() == committed


# -- fixtures 4 and 5: softmax runs, bytes only ---------------------------------------


@pytest.mark.parametrize("name, build", [("softmax_net_c3.csv", golden_softmax_net),
                                         ("softmax_central_c9.csv", golden_softmax_central)])
def test_softmax_golden_bytes(name, build):
    """C = 3 on a network with diagnostics, and C = 9, where numpy sums the classes pairwise."""
    trace = build()[0]
    committed = read_golden(name)
    assert trace.csv_text() == committed


# -- fixture 6: a config-built De2MFW run, bytes only ---------------------------------


def test_de2mfw_config_golden_bytes():
    """The default K, zeta and network A, as `delayfw run` resolves them."""
    trace = golden_de2mfw_config()[0]
    committed = read_golden("de2mfw_config.csv")
    assert trace.csv_text() == committed


# -- fixture 7: the benchmark's workloads, seed 0, by digest -------------------------


def bench_digests():
    lines = read_golden("bench_workloads.sha256").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_bench_workload_trace_digests(name):
    assert bench_workload_digest(name) == bench_digests()[name]
