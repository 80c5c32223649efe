"""Batched evaluation: stacked losses, oracle banks and per-round call counts.

The engine answers a round's oracle queries with one LMO call and evaluates
losses on stacks of points.  That is only sound because every batched
result is bitwise equal to the row-by-row computation; these properties
check it, and the counting tests keep the batching from quietly regressing.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import bits, feedback_spy, ftpl_noise
from delayfw import de2mfw, metrics, seeding
from delayfw.de2mfw import NetworkRun, algorithm_constants, de2mfw_run, delmfw_run, tuned_params
from delayfw.delay import gen_delays
from delayfw.geometry import KINDS, ConstraintSet
from delayfw.losses import QuadraticLoss, SoftmaxLoss, estimate_constants, synth_quadratic_stream, \
    synth_stream
from delayfw.metrics import Comparator, RunTrace, per_agent_global_losses, regret
from delayfw.network import metropolis_weights, topology
from delayfw.oracle import FtplOracle

PROPERTY = settings(max_examples=60, deadline=None)


# -- (a) stacked losses equal row-by-row calls ------------------------------------


def assert_rows_bitwise(f, X):
    values, grads = f.value(X), f.grad(X)
    assert values.shape == X.shape[:-1] and grads.shape == X.shape
    for r in range(X.shape[0]):
        one = f.value(X[r])
        assert type(one) is float
        assert values[r] == one
        np.testing.assert_array_equal(grads[r], f.grad(X[r]))


@PROPERTY
@given(dim=st.integers(1, 16), rows=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_quadratic_stack_bitwise_equals_rows(dim, rows, seed):
    rng = np.random.default_rng(seed)
    f = QuadraticLoss(rng.normal(size=dim))
    assert_rows_bitwise(f, rng.normal(scale=2.0, size=(rows, dim)))


@PROPERTY
@given(p=st.integers(1, 12), C=st.integers(1, 20), batch=st.integers(1, 8),
       rows=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_softmax_stack_bitwise_equals_rows(p, C, batch, rows, seed):
    rng = np.random.default_rng(seed)
    f = synth_stream(seed, T=1, p=p, C=C, batch=batch).loss(0, 1)
    assert_rows_bitwise(f, rng.normal(scale=3.0, size=(rows, p * C)))


def test_stacked_losses_keep_leading_axes():
    rng = np.random.default_rng(0)
    f = SoftmaxLoss(rng.normal(size=(4, 3)), [0, 2, 1, 2], 3)
    X = rng.normal(size=(2, 5, 9))
    np.testing.assert_array_equal(f.grad(X)[1], f.grad(X[1]))
    np.testing.assert_array_equal(f.value(X)[1], f.value(X[1]))
    q = QuadraticLoss(np.ones(9))
    np.testing.assert_array_equal(q.grad(X)[0], q.grad(X[0]))
    with pytest.raises(ValueError):
        q.value(np.zeros((3, 8)))
    with pytest.raises(ValueError):
        f.grad(np.zeros((3, 8)))


def standalone(f):
    """The same loss rebuilt from private copies of its data."""
    if f.kind == "quadratic":
        return QuadraticLoss(np.array(f.theta))
    return SoftmaxLoss(np.array(f.features), np.array(f.labels), f.n_classes)


@PROPERTY
@given(kind=st.sampled_from(["quadratic", "softmax_xent"]), n=st.integers(1, 12),
       T=st.integers(1, 5), p=st.integers(1, 5), C=st.integers(1, 4), batch=st.integers(1, 4),
       k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stream_losses_and_constants_bitwise_equal_per_loss_reference(kind, n, T, p, C, batch,
                                                                     k, seed):
    # n up to 12 crosses 8, where a pairwise np.sum over agents would round differently
    if kind == "quadratic":
        stream = synth_quadratic_stream(seed, T, dim=p * C, n_agents=n)
    else:
        stream = synth_stream(seed, T, p=p, C=C, batch=batch, n_agents=n)
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=2.0, size=(k, stream.dim))
    for t in range(1, T + 1):
        for x in (X[0], X):
            for i in range(n):
                f, g = stream.loss(i, t), standalone(stream.loss(i, t))
                np.testing.assert_array_equal(f.value(x), g.value(x))
                np.testing.assert_array_equal(f.grad(x), g.grad(x))
            want = sum(stream.loss(i, t).value(x) for i in range(n)) / n
            got = stream.average_value(x, t)
            assert type(got) is type(want)
            np.testing.assert_array_equal(got, want)
    losses = [stream.loss(i, t) for i in range(n) for t in range(1, T + 1)]
    cset = ConstraintSet("l1_ball", 1.0, stream.dim)
    if kind == "quadratic":  # the per-loss reference for the stacked (G, beta)
        far = max(float(np.linalg.norm(f.theta - cset.centroid())) for f in losses)
        want = (cset.diameter() / 2.0 + far, 1.0)
    else:
        want = (max(float(np.linalg.norm(f.features, axis=1).sum()) for f in losses) * np.sqrt(2.0),
                max(float(np.sum(f.features**2)) for f in losses))
    assert estimate_constants(stream, cset) == want


def test_average_value_on_agent_stack():
    stream = synth_quadratic_stream(seed=4, T=3, dim=5, n_agents=6)
    X = np.random.default_rng(1).normal(size=(6, 5))
    stacked = stream.average_value(X, 2)
    for i in range(6):
        assert stacked[i] == stream.average_value(X[i], 2)


# -- (b) bank rows are the per-(agent, k) oracles ------------------------------------


@PROPERTY
@given(n=st.integers(1, 5), K=st.integers(1, 6), dim=st.integers(1, 6), more=st.integers(1, 3),
       seed=st.one_of(st.integers(0, 2**31 - 1), st.integers(2**32, 2**80),
                      st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 1])))
def test_bank_noise_rows_follow_oracle_streams(n, K, dim, more, seed):
    # seeds from 2**32 on are two or more entropy words of the SeedSequence
    cset = ConstraintSet("l1_ball", 1.0, dim)
    params = tuned_params(T=4, G=1.0, beta=1.0, D=2.0, B_est=4.0, A=3.0, K=K)

    def bank_noise(agents):
        gossip = metropolis_weights(topology("cycle", agents))
        return NetworkRun(cset, gossip, params, seed, window=1).bank.noise

    def draw(rows):
        return seeding.rng_for(seed, seeding.STREAM_ORACLE).uniform(size=(rows, dim))

    # draw row i*K + k - 1 is oracle k of agent i; the bank keeps it in row (k-1)*agents + i
    agent, step = np.divmod(np.arange(n * K), K)
    draws = draw(n * K)
    noise = bank_noise(n)
    assert noise.shape == (n * K, dim)
    np.testing.assert_array_equal(bits(noise[step * n + agent]), bits(draws))
    one = seeding.oracle_noise(seed, 1, 1, dim)  # n*K = 1
    np.testing.assert_array_equal(bits(one), bits(draw(1)))
    np.testing.assert_array_equal(bits(seeding.oracle_noise(seed, n, K, dim)), bits(draws))
    np.testing.assert_array_equal(bits(bank_noise(n + more)[step * (n + more) + agent]),
                                  bits(draws))


@PROPERTY
@given(kind=st.sampled_from(KINDS), rows=st.integers(1, 40), dim=st.integers(1, 8),
       zeta=st.floats(1e-3, 10.0), feeds=st.integers(0, 4), seed=st.integers(0, 2**31 - 1))
def test_bank_query_rows_equal_single_lmo(kind, rows, dim, zeta, feeds, seed):
    cset = ConstraintSet(kind, 1.5, dim)
    rng = np.random.default_rng(seed)
    bank = FtplOracle(cset, zeta, ftpl_noise([seed + r for r in range(rows)], dim))
    for _ in range(feeds):
        bank.feedback(rng.normal(scale=5.0, size=(rows, dim)))
    some = sorted(rng.choice(rows, size=rows // 2, replace=False).tolist())
    g = np.zeros((rows, dim))  # only some rows get a nonzero gradient
    g[some] = rng.normal(size=(len(some), dim))
    bank.feedback(g)
    out = bank.query()
    for r in range(rows):
        np.testing.assert_array_equal(out[r], cset.lmo(zeta * bank.accum[r] + bank.noise[r]))


@PROPERTY
@given(kind=st.sampled_from(KINDS), rows=st.integers(1, 12), dim=st.integers(1, 6),
       b=st.integers(1, 5), zeta=st.floats(1e-3, 10.0), seed=st.integers(0, 2**31 - 1))
def test_stacked_feedback_equals_one_call_per_gradient(kind, rows, dim, b, zeta, seed):
    # a (b, N, m) stack is absorbed in order; one query answers all b running sums
    cset = ConstraintSet(kind, 1.5, dim)
    rng = np.random.default_rng(seed)
    noise = ftpl_noise([seed + r for r in range(rows)], dim)
    stacked, single = FtplOracle(cset, zeta, noise), FtplOracle(cset, zeta, noise)
    g = rng.normal(scale=5.0, size=(b, rows, dim))
    g[rng.random(g.shape) < 0.2] = -0.0
    sums = stacked.feedback(g)
    outs = stacked.query(sums)
    assert sums.shape == outs.shape == (b, rows, dim)
    for i in range(b):
        single.feedback(g[i])
        assert np.array_equal(bits(sums[i]), bits(single.accum))
        assert np.array_equal(bits(outs[i]), bits(single.query()))
    assert np.array_equal(bits(stacked.accum), bits(single.accum))
    assert not np.shares_memory(stacked.accum, sums)


# -- (c) non-finite state still raises ---------------------------------------------


@PROPERTY
@given(rows=st.integers(1, 10), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_bank_rejects_non_finite(rows, bad, data):
    cset = ConstraintSet("l1_ball", 1.0, 3)
    bank = FtplOracle(cset, 0.5, ftpl_noise(range(rows), 3))
    r = data.draw(st.integers(0, rows - 1))
    g = np.zeros((rows, 3))
    g[r, data.draw(st.integers(0, 2))] = bad
    with pytest.MonkeyPatch.context() as mp:  # Hypothesis reruns the body; no fixture
        absorbed = feedback_spy(mp)
        with pytest.raises(ValueError):
            bank.feedback(g)  # zero rows beside the bad one
    assert absorbed == []
    assert not np.any(bank.accum)  # the good rows were not absorbed either
    with pytest.raises(ValueError):
        bank.feedback(np.stack([np.zeros((rows, 3)), g]))  # a stack, the bad gradient last
    assert not np.any(bank.accum)
    bank.accum[r, 0] = bad  # only reachable by writing the state directly
    with pytest.raises(ValueError):
        bank.query()


# -- call counts per round ----------------------------------------------------------


class Counter:
    """Replaces one method on a class and counts its calls."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def released_by_end(schedule, T):
    """The origins s with s + d_s - 1 <= T, whose feedback arrives within the run."""
    return int(np.count_nonzero(np.arange(1, T + 1) + schedule.d - 1 <= T))


def rounds_with_releases(schedules, T):
    """The rounds t at which at least one agent's release set is non-empty."""
    due = np.concatenate([np.arange(1, T + 1) + s.d - 1 for s in schedules])
    return np.unique(due[due <= T]).size


def blocks_of(schedule, T):
    """The dependency blocks of a one-agent run: (p, u) for rounds p+1..u."""
    due = np.arange(T) + schedule.d  # s + d_s - 1 for s = 1..T
    ends, p = [], 0
    while p < T:
        u = min(T, int(due[p:].min()))  # the first release of an origin after p
        ends.append((p, u))
        p = u
    return ends


def test_delmfw_one_lmo_call_per_block(monkeypatch):
    T, dim = 60, 4
    cset = ConstraintSet("l1_ball", 1.0, dim)
    stream = synth_quadratic_stream(seed=3, T=T, dim=dim)
    schedule = gen_delays(T, 9, seed=4)
    G, beta = estimate_constants(stream, cset)
    D = cset.diameter()
    params = tuned_params(T, G, beta, D, schedule.B, algorithm_constants(G, beta, D, 1))
    rows, lmo_batch = [], ConstraintSet.lmo_batch
    monkeypatch.setattr(ConstraintSet, "lmo_batch", lambda c, z: rows.append(len(z)) or lmo_batch(c, z))
    query = Counter(monkeypatch, FtplOracle, "query")
    grad = Counter(monkeypatch, QuadraticLoss, "grad")
    delmfw_run(cset, stream, schedule, params, seed=1)
    # rounds p+1..u see only feedback from rounds up to p: one query per block
    blocks = blocks_of(schedule, T)
    assert query.calls == len(blocks) < T
    assert len(rows) == query.calls + 1  # plus the start vertex, computed once per run
    # each running sum is answered once: the empty one and one per round t < T with releases
    due = np.arange(1, T + 1) + schedule.d - 1
    assert rows[0] == 1 and sum(rows[1:]) == params.K * (1 + np.unique(due[due < T]).size)
    # one gathered call per block whose rounds p..u-1 release, and one for the release at T
    releases = [bool(np.any((due >= max(p, 1)) & (due < u))) for p, u in blocks]
    assert grad.calls == sum(releases) + bool(np.any(due == T))
    assert grad.calls < rounds_with_releases([schedule], T)  # fewer than one per release round


def test_de2mfw_one_lmo_call_per_round(monkeypatch):
    n, T, dim = 5, 20, 3
    cset = ConstraintSet("l1_ball", 1.0, dim)
    topo = topology("cycle", n)
    stream = synth_quadratic_stream(seed=3, T=T, dim=dim, n_agents=n)
    schedules = [gen_delays(T, 4, seed=10 + i) for i in range(n)]
    params = tuned_params(T, 1.0, 1.0, 2.0, 8.0, A=3.0, K=4)
    lmo = Counter(monkeypatch, ConstraintSet, "lmo_batch")
    query = Counter(monkeypatch, FtplOracle, "query")
    grad = Counter(monkeypatch, QuadraticLoss, "grad")
    de2mfw_run(cset, stream, schedules, topo, params, seed=2)
    assert query.calls == T
    assert lmo.calls == T + 1  # plus the start vertex, computed once per run
    assert grad.calls == rounds_with_releases(schedules, T)
    assert grad.calls < sum(released_by_end(s, T) for s in schedules)


@pytest.mark.parametrize("diagnostics", [False, True])
def test_diagnostics_cost_consensus_calls_only_when_on(monkeypatch, diagnostics):
    n, T, K = 4, 12, 5
    cset = ConstraintSet("l1_ball", 1.0, 3)
    topo = topology("grid", n)
    stream = synth_quadratic_stream(seed=5, T=T, dim=3, n_agents=n)
    schedules = [gen_delays(T, 3, seed=20 + i) for i in range(n)]
    params = tuned_params(T, 1.0, 1.0, 2.0, 8.0, A=3.0, K=K)
    consensus = Counter(monkeypatch, de2mfw, "consensus_error")
    trace = de2mfw_run(cset, stream, schedules, topo, params, seed=0, diagnostics=diagnostics)
    # one stacked consensus and one tracking call per round, or none at all
    assert consensus.calls == (2 * T if diagnostics else 0)
    assert (trace.consensus is not None) == diagnostics
    assert (trace.tracking is not None) == diagnostics


def block_kernel(cls):
    """The call per_agent_global_losses makes once a block: a class sum for quadratic losses."""
    return (metrics, "_class_sum") if cls is QuadraticLoss else (cls, "value")


def round_blocks(stream, T):
    """How many blocks of rounds per_agent_global_losses evaluates: n*n losses' data a round."""
    f, n = stream.losses, stream.n_agents
    per_loss = f.theta.shape[-1] if stream.kind == "quadratic" else f.features[0, 0].size
    rounds = max(1, metrics._BLOCK_FLOATS // (n * n * per_loss))
    return -(-T // rounds)


def assert_per_agent_losses_bitwise(stream, decisions):
    """Every (t, i) entry equals the average_value call at that one decision."""
    out = per_agent_global_losses(stream, decisions)
    T, n = decisions.shape[:2]
    assert out.shape == (T, n)
    for t in range(1, T + 1):
        for i in range(n):
            assert bits(out[t - 1, i]) == bits(stream.average_value(decisions[t - 1, i], t))


@pytest.mark.parametrize("loss", ["quadratic", "softmax"])
def test_per_agent_losses_make_one_value_call_per_block(monkeypatch, loss):
    # 12 agents: 14 quadratic or 37 softmax rounds a block, so 3 blocks either way;
    # a quadratic block is one coordinate-major class sum and no value call
    n = 12
    if loss == "quadratic":
        T, cls = 30, QuadraticLoss
        stream = synth_quadratic_stream(seed=0, T=T, dim=16, n_agents=n)
    else:
        T, cls = 80, SoftmaxLoss
        stream = synth_stream(0, T, p=3, C=2, batch=2, n_agents=n)
    decisions = np.random.default_rng(0).normal(size=(T, n, stream.dim))
    value = Counter(monkeypatch, cls, "value")
    kernel = Counter(monkeypatch, *block_kernel(cls))
    per_agent_global_losses(stream, decisions)
    assert kernel.calls == round_blocks(stream, T) == 3
    assert value.calls == (0 if loss == "quadratic" else 3)
    assert_per_agent_losses_bitwise(stream, decisions)


@PROPERTY
@given(kind=st.sampled_from(["quadratic", "softmax"]), n=st.integers(1, 12),
       T=st.integers(1, 12), block=st.sampled_from([1, 40, 300, metrics._BLOCK_FLOATS]),
       seed=st.integers(0, 2**32 - 1))
def test_per_agent_losses_bitwise_equal_average_value(kind, n, T, block, seed):
    # n up to 12 crosses 8, where a pairwise np.sum over agents would round
    # differently; a small block size splits the rounds into several calls
    stream, cls = stream_of(kind, seed, T, n)
    decisions = np.random.default_rng(seed).normal(scale=2.0, size=(T, n, stream.dim))
    with mock.patch.object(metrics, "_BLOCK_FLOATS", block):
        owner, name = block_kernel(cls)
        calls, kernel = [], getattr(owner, name)
        with mock.patch.object(owner, name, lambda *a: calls.append(1) or kernel(*a)):
            per_agent_global_losses(stream, decisions)
        assert len(calls) == round_blocks(stream, T)
        assert_per_agent_losses_bitwise(stream, decisions)


@pytest.mark.parametrize("dim", [1, 8, 9, 130])
def test_quadratic_per_agent_losses_bitwise_across_dims(dim):
    # dim picks the class-sum order: one by one, 8 accumulators (9: and a tail), or halving
    stream = synth_quadratic_stream(dim, T=5, dim=dim, n_agents=9)
    decisions = np.random.default_rng(dim).normal(scale=2.0, size=(5, 9, dim))
    assert_per_agent_losses_bitwise(stream, decisions)


def stream_of(kind, seed, T, n):
    if kind == "quadratic":
        return synth_quadratic_stream(seed, T, dim=5, n_agents=n), QuadraticLoss
    return synth_stream(seed, T, p=3, C=2, batch=2, n_agents=n), SoftmaxLoss


def comparator_at(x):
    return Comparator(x=x, gap=0.0, iterations=0, converged=True)


@PROPERTY
@given(kind=st.sampled_from(["quadratic", "softmax"]), n=st.integers(1, 12),
       T=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_regret_comparator_losses_bitwise_equal_per_round(kind, n, T, seed):
    # n up to 12 crosses 8, where a pairwise np.sum over agents would round differently
    stream, _ = stream_of(kind, seed, T, n)
    x = np.random.default_rng(seed).normal(scale=2.0, size=stream.dim)
    trace = RunTrace(np.zeros((T, 1, stream.dim)), np.zeros((T, 1)), {})
    want = -np.cumsum([stream.average_value(x, t) for t in range(1, T + 1)])
    np.testing.assert_array_equal(regret(trace, comparator_at(x), stream), want)


@pytest.mark.parametrize("loss", ["quadratic", "softmax"])
def test_regret_makes_one_value_call_for_the_comparator(monkeypatch, loss):
    n, T = 5, 9
    stream, cls = stream_of(loss, 0, T, n)
    x = np.random.default_rng(1).normal(size=stream.dim)
    decisions = np.random.default_rng(0).normal(size=(T, n, stream.dim))
    pal = per_agent_global_losses(stream, decisions)
    trace = RunTrace(decisions, pal, {})
    value = Counter(monkeypatch, cls, "value")
    curve = regret(trace, comparator_at(x), stream)
    assert value.calls == 1  # one stacked call over all (agent, round) losses
    assert curve.shape == (T,)
