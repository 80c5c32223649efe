"""Batched evaluation: stacked losses, oracle banks and per-round call counts.

The engine answers a round's oracle queries with one LMO call and evaluates
losses on stacks of points.  That is only sound because every batched
result is bitwise equal to the row-by-row computation; these properties
check it, and the counting tests keep the batching from quietly regressing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayfw import de2mfw, seeding
from delayfw.de2mfw import NetworkRun, centralized_params, de2mfw_run, delmfw_run, distributed_params
from delayfw.delay import gen_delays
from delayfw.geometry import KINDS, ConstraintSet
from delayfw.losses import QuadraticLoss, SoftmaxLoss, estimate_constants, synth_quadratic_stream, \
    synth_stream
from delayfw.metrics import per_agent_global_losses
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
@given(p=st.integers(1, 12), C=st.integers(1, 6), batch=st.integers(1, 8),
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


def test_average_value_on_agent_stack():
    stream = synth_quadratic_stream(seed=4, T=3, dim=5, n_agents=6)
    X = np.random.default_rng(1).normal(size=(6, 5))
    stacked = stream.average_value(X, 2)
    for i in range(6):
        assert stacked[i] == stream.average_value(X[i], 2)


# -- (b) bank rows are the per-(agent, k) oracles ------------------------------------


@PROPERTY
@given(n=st.integers(1, 5), K=st.integers(1, 6), dim=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_bank_noise_rows_follow_oracle_streams(n, K, dim, seed):
    cset = ConstraintSet("l1_ball", 1.0, dim)
    params = distributed_params(T=4, G=1.0, beta=1.0, D=2.0, B_est=4.0, a_dist=3.0, K=K)
    run = NetworkRun(cset, metropolis_weights(topology("cycle", n)), params, seed)
    assert run.bank.noise.shape == (n * K, dim)
    for i in range(n):
        for k in range(1, K + 1):
            want = seeding.oracle_rng(seed, i, k).uniform(size=dim)
            np.testing.assert_array_equal(run.bank.noise[i * K + k - 1], want)
    central = NetworkRun(cset, metropolis_weights(topology("complete", 1)), params, seed)
    np.testing.assert_array_equal(central.bank.noise, run.bank.noise[:K])


@PROPERTY
@given(kind=st.sampled_from(KINDS), rows=st.integers(1, 40), dim=st.integers(1, 8),
       zeta=st.floats(1e-3, 10.0), feeds=st.integers(0, 4), seed=st.integers(0, 2**31 - 1))
def test_bank_query_rows_equal_single_lmo(kind, rows, dim, zeta, feeds, seed):
    cset = ConstraintSet(kind, 1.5, dim)
    rng = np.random.default_rng(seed)
    bank = FtplOracle(cset, zeta, [seed + r for r in range(rows)])
    for _ in range(feeds):
        bank.feedback(rng.normal(scale=5.0, size=(rows, dim)))
    some = sorted(rng.choice(rows, size=rows // 2, replace=False).tolist())
    bank.feedback(rng.normal(size=(len(some), dim)), rows=some)
    out = bank.query()
    for r in range(rows):
        np.testing.assert_array_equal(out[r], cset.lmo(zeta * bank.accum[r] + bank.noise[r]))


# -- (c) non-finite state still raises ---------------------------------------------


@PROPERTY
@given(rows=st.integers(1, 10), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_bank_rejects_non_finite(rows, bad, data):
    cset = ConstraintSet("l1_ball", 1.0, 3)
    bank = FtplOracle(cset, 0.5, list(range(rows)))
    r = data.draw(st.integers(0, rows - 1))
    g = np.zeros((rows, 3))
    g[r, data.draw(st.integers(0, 2))] = bad
    with pytest.raises(ValueError):
        bank.feedback(g)
    with pytest.raises(ValueError):
        bank.feedback(g[r:r + 1], rows=[r])
    assert bank.feedback_count.tolist() == [0] * rows
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
    return T - schedule.outstanding_count(T)


def test_delmfw_one_lmo_call_per_round(monkeypatch):
    T, dim = 60, 4
    cset = ConstraintSet("l1_ball", 1.0, dim)
    stream = synth_quadratic_stream(seed=3, T=T, dim=dim)
    schedule = gen_delays(T, 9, seed=4)
    G, beta = estimate_constants(stream, cset)
    params = centralized_params(T, G, beta, cset.diameter(), schedule.B)
    lmo = Counter(monkeypatch, ConstraintSet, "lmo_batch")
    query = Counter(monkeypatch, FtplOracle, "query")
    grad = Counter(monkeypatch, QuadraticLoss, "grad")
    delmfw_run(cset, stream, schedule, params, seed=1)
    assert query.calls == T
    assert lmo.calls == T + 1  # plus the start vertex, computed once per run
    assert grad.calls == released_by_end(schedule, T)  # one per released loss, all K at once


def test_de2mfw_one_lmo_call_per_round(monkeypatch):
    n, T, dim = 5, 20, 3
    cset = ConstraintSet("l1_ball", 1.0, dim)
    topo = topology("cycle", n)
    stream = synth_quadratic_stream(seed=3, T=T, dim=dim, n_agents=n)
    schedules = [gen_delays(T, 4, seed=10 + i) for i in range(n)]
    params = distributed_params(T, 1.0, 1.0, 2.0, 8.0, a_dist=3.0, K=4)
    lmo = Counter(monkeypatch, ConstraintSet, "lmo_batch")
    query = Counter(monkeypatch, FtplOracle, "query")
    grad = Counter(monkeypatch, QuadraticLoss, "grad")
    de2mfw_run(cset, stream, schedules, topo, params, seed=2)
    assert query.calls == T
    assert lmo.calls == T + 1  # plus the start vertex, computed once per run
    assert grad.calls == sum(released_by_end(s, T) for s in schedules)


@pytest.mark.parametrize("diagnostics", [False, True])
def test_diagnostics_cost_consensus_calls_only_when_on(monkeypatch, diagnostics):
    n, T, K = 4, 12, 5
    cset = ConstraintSet("l1_ball", 1.0, 3)
    topo = topology("grid", n)
    stream = synth_quadratic_stream(seed=5, T=T, dim=3, n_agents=n)
    schedules = [gen_delays(T, 3, seed=20 + i) for i in range(n)]
    params = distributed_params(T, 1.0, 1.0, 2.0, 8.0, a_dist=3.0, K=K)
    consensus = Counter(monkeypatch, de2mfw, "consensus_error")
    trace = de2mfw_run(cset, stream, schedules, topo, params, seed=0, diagnostics=diagnostics)
    # one consensus and one tracking error per step and round, or none at all
    assert consensus.calls == (2 * K * T if diagnostics else 0)
    assert (trace.consensus is not None) == diagnostics
    assert (trace.tracking is not None) == diagnostics


@pytest.mark.parametrize("loss", ["quadratic", "softmax"])
def test_per_agent_losses_make_t_times_n_value_calls(monkeypatch, loss):
    n, T = 6, 7
    if loss == "quadratic":
        stream, cls = synth_quadratic_stream(seed=0, T=T, dim=4, n_agents=n), QuadraticLoss
    else:
        stream, cls = synth_stream(0, T, p=3, C=2, batch=2, n_agents=n), SoftmaxLoss
    decisions = np.random.default_rng(0).normal(size=(T, n, stream.dim))
    value = Counter(monkeypatch, cls, "value")
    out = per_agent_global_losses(stream, decisions)
    assert value.calls == T * n
    assert out.shape == (T, n)
    assert out[T - 1, n - 1] == stream.average_value(decisions[T - 1, n - 1], T)
