"""Distributed algorithm tests: reductions, gossip algebra, tracking identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import bits, feedback_spy, round_recorder
from _reference import gossip_fw_round, meta_fw_run
from delayfw import runner
from delayfw.de2mfw import (AlgoParams, NetworkRun, de2mfw_run, delmfw_run,
                            distributed_params, run_rounds)
from delayfw.delay import DelaySchedule, gen_delays
from delayfw.geometry import KINDS, ConstraintSet
from delayfw.losses import QuadraticLoss, estimate_constants, synth_quadratic_stream
from delayfw.network import GossipMatrix, metropolis_weights, topology

L1 = ConstraintSet("l1_ball", 1.0, 3)


def params_for(K, T=10, zeta=0.5, A=3.0):
    return AlgoParams(T=T, K=K, A=A, zeta=zeta, B_est=1.0)


def network_setup(n, T, dmax, seed, kind="cycle", dim=3, K=None):
    cset = ConstraintSet("l1_ball", 1.0, dim)
    topo = topology(kind, n, seed=seed)
    gossip = metropolis_weights(topo)
    stream = synth_quadratic_stream(seed=seed + 50, T=T, dim=dim, n_agents=n, scale=0.7)
    schedules = [gen_delays(T, dmax, seed=seed + 100 + i) for i in range(n)]
    G, beta = estimate_constants(stream, cset)
    b_est = float(np.mean([s.B for s in schedules]))
    # a fixed A: these tests pin the engine's arithmetic, not the tuning
    params = distributed_params(T, G, beta, cset.diameter(), b_est, a_dist=3.0,
                                K=K or math.ceil(math.sqrt(T)))
    run = NetworkRun(cset, gossip, params, seed, dmax)
    return cset, topo, gossip, stream, schedules, params, run


def drive(run, stream, schedules, T, observe=None):
    assert T == run.params.T
    return run_rounds(run, stream, schedules, observe)


def test_distributed_params():
    p = distributed_params(T=100, G=2.0, beta=1.0, D=2.0, B_est=9.0, a_dist=7.5)
    assert p.K == 10 and p.A == 7.5
    assert p.zeta == pytest.approx(1.0 / (2.0 * 3.0))
    with pytest.raises(ValueError):
        distributed_params(T=100, G=0.0, beta=1.0, D=2.0, B_est=9.0, a_dist=3.0)


def test_default_tuning_regret_is_sublinear_on_a_cycle():
    """Built from configs through runner.run_single: K, zeta and the network A as
    `delayfw run` resolves them.  Mean final regret over two seeds must grow
    with a log-log slope of at most 0.8 from T = 256 to T = 1024 (0.98 when
    every eta_k was 1)."""
    means = {}
    for T in (64, 256, 1024):
        cfg = runner.config_from_dict({
            "mode": "distributed", "T": T,
            "set": {"kind": "l1_ball", "radius": 1.0, "dim": 8},
            "loss": {"kind": "quadratic"}, "topology": {"kind": "cycle", "n": 9},
            "delay": {"dmax": 4}, "diagnostics": False, "seeds": [0, 1]})
        means[T] = float(np.mean([runner.run_single(cfg, s).final_regret for s in cfg.seeds]))
    slopes = [math.log(means[4 * T] / means[T]) / math.log(4) for T in (64, 256)]
    assert slopes[1] <= 0.8, f"mean final regret {means}, local slopes {slopes}"


# -- n = 1 reduction -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 40), K=st.integers(1, 8), dim=st.integers(1, 5),
       zeta=st.floats(0.05, 5.0), data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_single_agent_run_matches_delayed_reference(T, K, dim, zeta, data, seed):
    dmax = data.draw(st.integers(1, T))
    cset = ConstraintSet("l1_ball", 1.0, dim)
    stream = synth_quadratic_stream(seed=seed + 1, T=T, dim=dim, scale=0.7)
    schedule = gen_delays(T, dmax, seed=seed + 2)
    params = AlgoParams(T=T, K=K, A=3.0, zeta=zeta, B_est=float(schedule.B))
    trace = delmfw_run(cset, stream, schedule, params, seed=seed)
    ref_dec, ref_inst = meta_fw_run(cset, stream, params, seed, schedule)
    assert np.array_equal(trace.decisions, ref_dec)
    assert np.array_equal(trace.inst_loss, ref_inst)


def test_single_agent_run_bitwise_equals_centralized():
    T, dmax, seed = 20, 4, 11
    cset = ConstraintSet("l1_ball", 1.0, 3)
    stream = synth_quadratic_stream(seed=99, T=T, dim=3, scale=0.6)
    schedule = gen_delays(T, dmax, seed=5)
    G, beta = estimate_constants(stream, cset)
    params = AlgoParams(T=T, K=5, A=3.0, zeta=1.0 / (G * math.sqrt(schedule.B)), B_est=schedule.B)
    central = delmfw_run(cset, stream, schedule, params, seed=seed)
    net = de2mfw_run(cset, stream, [schedule], topology("complete", 1), params, seed=seed)
    assert np.array_equal(net.decisions[:, 0, :], central.decisions)
    assert np.array_equal(net.inst_loss, central.inst_loss)
    assert np.array_equal(net.per_agent_loss.mean(axis=1), central.inst_loss)


# -- gossip algebra --------------------------------------------------------------


def test_gossip_step_matches_hand_matrix_product():
    _, _, _, stream, schedules, _, run = network_setup(
        n=3, T=4, dmax=2, seed=7, kind="grid"
    )
    W = np.array([[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]])
    rounds, observe = round_recorder(run)
    drive(run, stream, schedules, 4, observe)
    for t in (1, 3):
        det = rounds[t]
        for k in range(det["y"].shape[1]):
            np.testing.assert_allclose(det["y"][:, k], W @ det["subs"][:, k], atol=1e-15)


def test_convex_combination_update():
    _, _, _, stream, schedules, params, run = network_setup(
        n=4, T=3, dmax=2, seed=1
    )
    rounds, observe = round_recorder(run)
    drive(run, stream, schedules, 3, observe)
    det = rounds[2]
    for k in range(1, params.K + 1):
        eta = params.eta(k)
        want = (1.0 - eta) * det["y"][:, k - 1] + eta * det["v"][:, k - 1]
        np.testing.assert_array_equal(det["subs"][:, k], want)


def test_symmetry_on_complete_graph():
    # equal noises, equal losses, equal schedules: agents never diverge
    params = params_for(K=3, T=5)
    gossip = metropolis_weights(topology("complete", 4))
    run = NetworkRun(L1, gossip, params, seed=0, window=1)
    noise = run.bank.noise.reshape(4, 3, 3)  # (agent, k, m) view of the bank rows
    for k in range(3):
        shared = noise[0, k]
        for i in range(1, 4):
            noise[i, k] = shared.copy()
    losses = QuadraticLoss(np.tile([0.4, -0.1, 0.2], (4, 1, 1)))  # (4, 1) stack
    for t in range(1, 6):
        X = run.predict_round(t)
        for i in range(1, 4):
            np.testing.assert_array_equal(X[i], X[0])
        run.absorb_round(t, np.array([[i, t] for i in range(4)]), losses)


# -- tracking ----------------------------------------------------------------------


def test_tracking_average_identity():
    _, _, _, stream, schedules, params, run = network_setup(
        n=4, T=12, dmax=4, seed=3
    )
    rounds, observe = round_recorder(run)
    drive(run, stream, schedules, 12, observe)
    for t in range(1, 13):
        det = rounds[t]
        for k in range(params.K):
            mean_d = det["d"][:, k].mean(axis=0)
            mean_s = det["s"][:, k].mean(axis=0)
            assert np.linalg.norm(mean_d - mean_s) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), kind=st.sampled_from(["complete", "cycle", "grid"]),
       dmax=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_tracking_first_step_is_local_gradient_sum(n, kind, dmax, seed):
    # S^i_k is agent i's released gradients at x^i_{s,k}, added one by one in origin order
    T = 6
    cset, _, _, stream, schedules, params, run = network_setup(
        n=n, T=T, dmax=dmax, seed=seed, kind=kind, K=3
    )
    rounds, observe = round_recorder(run)
    drive(run, stream, schedules, T, observe)
    for t in range(1, T + 1):
        det = rounds[t]
        for i in range(n):
            want = np.zeros((params.K, cset.dim))
            for s in range(1, t + 1):
                if s + schedules[i].delay(s) - 1 == t:
                    want = want + stream.loss(i, s).grad(rounds[s]["subs"][i, :params.K])
            np.testing.assert_array_equal(det["s"][i], want)


def test_mean_recursion_identity():
    _, _, _, stream, schedules, params, run = network_setup(
        n=5, T=8, dmax=3, seed=13, kind="grid"
    )
    rounds, observe = round_recorder(run)
    drive(run, stream, schedules, 8, observe)
    for t in range(1, 9):
        det = rounds[t]
        for k in range(1, params.K + 1):
            xbar = det["subs"][:, k - 1].mean(axis=0)
            vbar = det["v"][:, k - 1].mean(axis=0)
            eta = params.eta(k)
            want = xbar + eta * (vbar - xbar)
            assert np.linalg.norm(det["subs"][:, k].mean(axis=0) - want) <= 1e-12


def test_consensus_bound():
    cset, _, gossip, stream, schedules, params, run = network_setup(
        n=6, T=10, dmax=3, seed=21, kind="cycle", K=8
    )
    rounds, observe = round_recorder(run)
    decs = drive(run, stream, schedules, 10, observe)
    c_d = gossip.k0 * math.sqrt(6) * cset.diameter()
    for t in range(1, 11):
        det = rounds[t]
        for k in range(1, params.K + 1):
            xbar = det["subs"][:, k - 1].mean(axis=0)
            err = np.max(np.linalg.norm(det["y"][:, k - 1] - xbar, axis=1))
            assert err <= c_d / k + 1e-12
    assert decs.shape == (10, 6, 3)


# -- empty rounds and feedback gating ---------------------------------------------


def test_all_empty_round_is_zero_feedback(monkeypatch):
    absorbed = feedback_spy(monkeypatch)
    params = params_for(K=2, T=4)
    gossip = metropolis_weights(topology("cycle", 3))
    run = NetworkRun(L1, gossip, params, seed=2, window=1)
    run.predict_round(1)
    before = run.bank.accum.copy()
    q_before = run.bank.query()
    run.absorb_round(1, np.empty((0, 2), dtype=int), None)
    q_after = run.bank.query()
    assert absorbed == [run.bank]  # zero vectors were fed
    for i in range(3):
        for k in range(2):
            r = i * 2 + k  # bank row of agent i's oracle k+1
            np.testing.assert_array_equal(run.bank.accum[r], before[r])
            np.testing.assert_array_equal(q_after[r], q_before[r])


def test_neighbor_information_flows_to_empty_agents():
    # agent 1's oracles move even though only agent 0 released
    params = params_for(K=1, T=4)
    gossip = metropolis_weights(topology("cycle", 3))
    run = NetworkRun(L1, gossip, params, seed=2, window=1)
    run.predict_round(1)
    run.absorb_round(1, np.array([[0, 1]]), QuadraticLoss([[[5.0, 0.0, 0.0]]]))
    # K = 1: bank row i is agent i's only oracle
    assert np.linalg.norm(run.bank.accum[1]) > 0.0
    assert np.linalg.norm(run.bank.accum[2]) > 0.0


# -- repeated prefix of a round's steps ---------------------------------------------


def start_of(run):
    """The (n, m) start vertex x^i_{t,1} of every agent."""
    return np.tile(run.cset.lmo(np.zeros(run.cset.dim)), (run.n, 1))


def etas_of(params):
    return [params.eta(k) for k in range(1, params.K + 1)]


def repeated_prefix(prev, vs):
    """How many leading steps of vs (K, n, m) repeat prev's outputs bit for bit."""
    j = 0
    while j < len(vs) and np.array_equal(bits(prev[j]), bits(vs[j])):
        j += 1
    return j


def count_mixes(monkeypatch):
    """Record every GossipMatrix.mix call from now on; returns the list of calls."""
    calls, mix = [], GossipMatrix.mix
    monkeypatch.setattr(GossipMatrix, "mix", lambda g, x, out=None: calls.append(1) or mix(g, x, out))
    return calls


def scripted_run(n, K, window, outputs):
    """A complete-graph run whose bank answers round t with outputs[t-1], (n*K, m) each."""
    gossip = metropolis_weights(topology("complete", n))
    run = NetworkRun(L1, gossip, params_for(K=K, T=len(outputs)), seed=0, window=window)
    run.bank.query = iter(outputs).__next__
    return run


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), K=st.integers(1, 8), T=st.integers(1, 12),
       kind=st.sampled_from(KINDS), wide=st.booleans(), zeta=st.sampled_from([1e-3, 0.1, 2.0]),
       data=st.data(), seed=st.integers(0, 2**16))
def test_every_round_equals_a_straight_line_round(n, K, T, kind, wide, zeta, data, seed):
    # window 1 (every delay 1) reuses the slot it writes; a wider ring copies from slot t-1
    dmax = data.draw(st.integers(1, T)) if wide else 1
    cset = ConstraintSet(kind, 1.0, 3)
    stream = synth_quadratic_stream(seed=seed + 1, T=T, dim=3, n_agents=n, scale=0.7)
    schedules = [gen_delays(T, dmax, seed=seed + 2 + i) for i in range(n)]
    params = AlgoParams(T=T, K=K, A=3.0, zeta=zeta, B_est=1.0)
    gossip = metropolis_weights(topology("cycle", n))
    run = NetworkRun(cset, gossip, params, seed, window=dmax + 1 if wide else 1)
    start, etas = start_of(run), etas_of(params)

    def observe(t):
        subs, ys = gossip_fw_round(start, run.vs, gossip.w, etas)
        assert np.array_equal(bits(run.ring[t % run.window]), bits(subs))
        assert np.array_equal(bits(run.ys), bits(ys))

    decisions = run_rounds(run, stream, schedules, observe)
    if n == 1:
        ref_dec, _ = meta_fw_run(cset, stream, params, seed, schedules[0])
        assert np.array_equal(bits(decisions[:, 0]), bits(ref_dec))


def test_gossip_mixes_skip_the_repeated_prefix(monkeypatch):
    # releases only at rounds 8, 16 and 24: absorb_round mixes K times every
    # round, predict_round only for the steps after the repeated prefix j_t
    T, K, n = 24, 5, 3
    delays = [8 * math.ceil(s / 8) - s + 1 for s in range(1, T + 1)]
    schedules = [DelaySchedule(delays, dmax=8)] * n
    stream = synth_quadratic_stream(seed=3, T=T, dim=3, n_agents=n, scale=0.7)
    gossip = metropolis_weights(topology("cycle", n))
    run = NetworkRun(L1, gossip, params_for(K=K, T=T), seed=3, window=8)
    prefixes, last = [], []

    def observe(t):
        prefixes.append(repeated_prefix(last[-1], run.vs) if last else 0)
        last.append(run.vs.copy())

    calls = count_mixes(monkeypatch)
    run_rounds(run, stream, schedules, observe)
    assert len(calls) == K * T + sum(K - j for j in prefixes)
    assert len(calls) < 2 * K * T
    assert any(0 < j < K for j in prefixes)  # a partial prefix is reused too


@pytest.mark.parametrize("j", [0, 1, 3])
def test_sign_of_zero_ends_the_repeated_prefix(monkeypatch, j):
    K, n = 4, 2
    first = L1.lmo_batch(np.random.default_rng(j).uniform(-1.0, 1.0, (n * K, 3)))
    second = first.copy()
    row = K + j  # agent 1's oracle j + 1
    second[row, np.flatnonzero(second[row] == 0.0)[0]] = -0.0  # equal under ==
    assert np.array_equal(first, second)
    run = scripted_run(n, K, 2, [first, second])
    calls = count_mixes(monkeypatch)
    run.predict_round(1)
    run.predict_round(2)
    assert len(calls) == K + (K - j)
    want, _ = gossip_fw_round(start_of(run), second.reshape(n, K, 3).swapaxes(0, 1),
                              run.gossip.w, etas_of(run.params))
    assert np.array_equal(bits(run.ring[0]), bits(want))


def test_first_round_computes_every_step(monkeypatch):
    K, n = 3, 2
    outputs = [L1.lmo_batch(np.random.default_rng(1).uniform(-1.0, 1.0, (n * K, 3)))] * 2
    run = scripted_run(n, K, 2, outputs)
    run.ring[:] = np.nan  # no earlier round to copy from
    calls = count_mixes(monkeypatch)
    run.predict_round(1)
    assert len(calls) == K
    want, _ = gossip_fw_round(start_of(run), run.vs, run.gossip.w, etas_of(run.params))
    assert np.array_equal(bits(run.ring[1]), bits(want))
    run.predict_round(2)  # every output repeats: nothing is mixed
    assert len(calls) == K
    assert np.array_equal(bits(run.ring[0]), bits(want))


def test_quiet_rounds_copy_the_previous_round_without_a_query():
    # one agent, releases only at rounds 8, 16 and 24 (rounds 25-28 report
    # after T): round 1 and each round after a release query the bank, and
    # every other round copies round t-1's ring slot whole
    T, K = 28, 5
    delays = [8 * math.ceil(s / 8) - s + 1 for s in range(1, 25)] + [8] * 4
    schedule = DelaySchedule(delays, dmax=8)
    stream = synth_quadratic_stream(seed=3, T=T, dim=3, scale=0.7)
    params = params_for(K=K, T=T)
    run = NetworkRun(L1, metropolis_weights(topology("complete", 1)), params, seed=3, window=8)
    queries, query = [], run.bank.query
    run.bank.query = lambda: queries.append(1) or query()
    start, etas = start_of(run), etas_of(params)
    queried = []

    def observe(t):
        if len(queries) == len(queried) + 1:
            queried.append(t)
        slot = run.ring[t % run.window]
        subs, ys = gossip_fw_round(start, run.vs, run.gossip.w, etas)
        assert np.array_equal(bits(slot), bits(subs))
        assert np.array_equal(bits(run.ys), bits(ys))
        assert np.shares_memory(run.ys, slot)  # y = x in round t's own slot
        assert not np.shares_memory(run.ys, run.ring[(t - 1) % run.window])

    decisions = run_rounds(run, stream, [schedule], observe)
    assert queried == [1, 9, 17, 25]
    want, _ = meta_fw_run(L1, stream, params, 3, schedule)
    assert np.array_equal(bits(decisions[:, 0]), bits(want))


# -- bookkeeping --------------------------------------------------------------------


def test_history_persists_until_all_agents_release():
    # agent 0 releases round 1 at t=1, agent 1 at t=3: a ring of 3 slots
    # still holds round 1's sub-iterates then, a ring of 2 does not
    params = params_for(K=2, T=6)
    gossip = metropolis_weights(topology("complete", 2))
    loss = QuadraticLoss([[[0.1, 0.2, 0.3]]])
    for window in (3, 2):
        run = NetworkRun(L1, gossip, params, seed=4, window=window)
        rounds, observe = round_recorder(run)
        run.predict_round(1)
        run.absorb_round(1, np.array([[0, 1]]), loss)
        observe(1)
        for t in (2, 3):
            run.predict_round(t)
        if window == 2:
            with pytest.raises(ValueError):
                run.absorb_round(3, np.array([[1, 1]]), loss)
        else:
            run.absorb_round(3, np.array([[1, 1]]), loss)
            observe(3)
            subs = rounds[1]["subs"][1, :2]  # agent 1's x_{1,1..K}
            np.testing.assert_array_equal(rounds[3]["s"][1], loss.grad(subs)[0])


def test_absorb_unknown_origin():
    params = params_for(K=1, T=4)
    run = NetworkRun(L1, metropolis_weights(topology("complete", 2)), params, seed=0, window=2)
    run.predict_round(1)
    loss = QuadraticLoss(np.zeros((1, 1, 3)))
    with pytest.raises(ValueError):
        run.absorb_round(1, np.array([[0, 2]]), loss)  # round 2 is still to come
    with pytest.raises(ValueError):
        run.absorb_round(1, np.array([[0, 0]]), loss)  # there is no round 0
    with pytest.raises(ValueError):
        run.absorb_round(2, np.array([[0, 2]]), loss)  # round 2 is not predicted yet


def test_run_deterministic_and_validated():
    cset, topo, _, stream, schedules, params, _ = network_setup(n=4, T=8, dmax=3, seed=6)
    a = de2mfw_run(cset, stream, schedules, topo, params, seed=6)
    b = de2mfw_run(cset, stream, schedules, topo, params, seed=6)
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.inst_loss, b.inst_loss)
    with pytest.raises(ValueError):
        de2mfw_run(cset, stream, schedules[:-1], topo, params, seed=6)
    wrong_stream = synth_quadratic_stream(seed=1, T=8, dim=3, n_agents=3)
    with pytest.raises(ValueError):
        de2mfw_run(cset, wrong_stream, schedules, topo, params, seed=6)


def test_diagnostics_do_not_perturb_the_run():
    cset, topo, _, stream, schedules, params, _ = network_setup(n=5, T=9, dmax=4, seed=17,
                                                                kind="grid")
    on = de2mfw_run(cset, stream, schedules, topo, params, seed=17, diagnostics=True)
    off = de2mfw_run(cset, stream, schedules, topo, params, seed=17, diagnostics=False)
    assert np.array_equal(on.decisions, off.decisions)
    assert np.array_equal(on.inst_loss, off.inst_loss)
    assert on.consensus.shape == on.tracking.shape == (9, params.K)
    assert off.consensus is None and off.tracking is None


def test_trace_losses_match_manual_average():
    cset, topo, _, stream, schedules, params, _ = network_setup(n=3, T=5, dmax=2, seed=8)
    trace = de2mfw_run(cset, stream, schedules, topo, params, seed=8)
    for t in range(1, 6):
        vals = [stream.average_value(trace.decisions[t - 1, i], t) for i in range(3)]
        assert trace.inst_loss[t - 1] == pytest.approx(max(vals), rel=1e-12)
        assert trace.per_agent_loss.mean(axis=1)[t - 1] == pytest.approx(np.mean(vals), rel=1e-12)
        assert trace.per_agent_loss[t - 1].tolist() == pytest.approx(vals, rel=1e-12)
    assert trace.consensus.shape == (5, params.K)
    assert trace.tracking.shape == (5, params.K)


def test_trace_feasibility():
    cset, topo, _, stream, schedules, params, _ = network_setup(n=4, T=6, dmax=4, seed=14)
    trace = de2mfw_run(cset, stream, schedules, topo, params, seed=14)
    for t in range(6):
        for i in range(4):
            assert cset.contains(trace.decisions[t, i], tol=1e-9)
