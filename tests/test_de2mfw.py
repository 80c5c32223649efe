"""Distributed algorithm tests: reductions, gossip algebra, tracking identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _fixtures import bits, feedback_spy, round_recorder
from _reference import gossip_fw_round, meta_fw_run
from delayfw import runner
from delayfw.de2mfw import (AlgoParams, NetworkRun, de2mfw_run, delmfw_run, run_rounds,
                            tuned_params)
from delayfw.delay import DelaySchedule, FeedbackBuffer, gen_delays
from delayfw.geometry import KINDS, ConstraintSet
from delayfw.losses import QuadraticLoss, estimate_constants, synth_quadratic_stream, synth_stream
from delayfw.metrics import agent_mean, consensus_error
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
    params = tuned_params(T, G, beta, cset.diameter(), b_est, A=3.0,
                          K=K or math.ceil(math.sqrt(T)))
    run = NetworkRun(cset, gossip, params, seed, dmax)
    return cset, topo, gossip, stream, schedules, params, run


def drive(run, stream, schedules, T, observe=None):
    assert T == run.params.T
    return run_rounds(run, stream, schedules, observe)


def test_tuned_params():
    p = tuned_params(T=100, G=2.0, beta=1.0, D=2.0, B_est=9.0, A=7.5)
    assert p.K == 10 and p.A == 7.5
    assert p.zeta == pytest.approx(1.0 / (2.0 * 3.0))
    with pytest.raises(ValueError):
        tuned_params(T=100, G=0.0, beta=1.0, D=2.0, B_est=9.0, A=3.0)


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
    assert np.array_equal(trace.decisions[:, 0], ref_dec)
    assert np.array_equal(trace.inst_loss, ref_inst)


def test_single_agent_run_bitwise_equals_centralized():
    T, dmax, seed = 20, 4, 11
    cset = ConstraintSet("l1_ball", 1.0, 3)
    stream = synth_quadratic_stream(seed=99, T=T, dim=3, scale=0.6)
    schedule = gen_delays(T, dmax, seed=5)
    G, beta = estimate_constants(stream, cset)
    params = AlgoParams(T=T, K=5, A=3.0, zeta=1.0 / (G * math.sqrt(schedule.B)), B_est=schedule.B)
    central = delmfw_run(cset, stream, schedule, params, seed=seed)
    # the observer makes the network run predict round by round, not in dependency blocks
    net = de2mfw_run(cset, stream, [schedule], topology("complete", 1), params, seed=seed)
    assert np.array_equal(net.decisions, central.decisions)
    assert np.array_equal(net.inst_loss, central.inst_loss)
    assert np.array_equal(net.per_agent_loss, central.per_agent_loss)


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
    noise = run.bank.noise.reshape(3, 4, 3)  # (k, agent, m) view of the step-major bank rows
    for k in range(3):
        shared = noise[k, 0]
        for i in range(1, 4):
            noise[k, i] = shared.copy()
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
            r = k * 3 + i  # bank row of agent i's oracle k+1
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
    """A complete-graph run whose bank answers round t with outputs[t-1], (K*n, m) step-major."""
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
    row = j * n + 1  # agent 1's oracle j + 1: the bank rows are step-major
    second[row, np.flatnonzero(second[row] == 0.0)[0]] = -0.0  # equal under ==
    assert np.array_equal(first, second)
    run = scripted_run(n, K, 2, [first, second])
    calls = count_mixes(monkeypatch)
    run.predict_round(1)
    run.predict_round(2)
    assert len(calls) == K + (K - j)
    want, _ = gossip_fw_round(start_of(run), second.reshape(K, n, 3), run.gossip.w,
                              etas_of(run.params))
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


def late(T, s):
    """A delay that puts round s's feedback after round T."""
    return T - s + 2


# T = 16, window 3: rounds 1-3 report at rounds 3-5, rounds 4-12 after T and
# rounds 13-16 at once.  The blocks are rounds 1-3, 4-13, 14, 15 and 16;
# rounds 4-13 play three states (after the releases of rounds 3, 4 and 5)
# and are longer than the ring.
THREE_STATE_BLOCK = (16, 3, 3, [3, 3, 3] + [late(16, s) for s in range(4, 13)] + [1] * 4)


def test_one_query_per_block_answers_each_running_sum_once():
    T, K, window, delays = THREE_STATE_BLOCK
    schedule = DelaySchedule(delays, dmax=max(delays))
    stream = synth_quadratic_stream(seed=3, T=T, dim=3, scale=0.7)
    params = params_for(K=K, T=T)
    run = NetworkRun(L1, metropolis_weights(topology("complete", 1)), params, seed=3, window=window)
    answered, query = [], run.bank.query
    run.bank.query = lambda accum=None: answered.append(1 if accum is None else len(accum)) or query(accum)
    decisions = run_rounds(run, stream, [schedule])
    assert answered == [1, 3, 1, 1, 1]  # one query per block, one row per running sum
    want, _ = meta_fw_run(L1, stream, params, 3, schedule)
    assert np.array_equal(bits(decisions[:, 0]), bits(want))


@pytest.mark.parametrize("watched", [False, True])
def test_one_agent_absorbs_only_release_rounds_unless_observed(monkeypatch, watched):
    # releases only at rounds 8, 16 and 24: unobserved, the bank absorbs those
    # three rounds' sums, one stack per block, and absorb_round runs only for
    # the (empty) release at T; an observer sees every round's absorb_round
    T, K = 28, 5
    delays = [8 * math.ceil(s / 8) - s + 1 for s in range(1, 25)] + [8] * 4
    stream = synth_quadratic_stream(seed=3, T=T, dim=3, scale=0.7)
    run = NetworkRun(L1, metropolis_weights(topology("complete", 1)), params_for(K=K, T=T),
                     seed=3, window=8)
    absorbed, absorb = [], NetworkRun.absorb_round
    monkeypatch.setattr(NetworkRun, "absorb_round",
                        lambda r, t, *args: absorbed.append(t) or absorb(r, t, *args))
    fed, feedback = [], run.bank.feedback
    run.bank.feedback = lambda g: fed.append(np.shape(g)) or feedback(g)
    zero = []
    observe = (lambda t: zero.append(not run.sums.any())) if watched else None
    run_rounds(run, stream, [DelaySchedule(delays, dmax=8)], observe)
    assert absorbed == (list(range(1, T + 1)) if watched else [T])
    assert zero == ([t % 8 != 0 or t > 24 for t in range(1, T + 1)] if watched else [])
    assert fed == [(K, 3) if watched else (1, K, 3)] * 3  # the sums of rounds 8, 16 and 24


@st.composite
def one_agent_schedules(draw):
    """(T, K, window, delays): random or blocked releases, some of them due after T.

    The window is 1, dmax or dmax + 1; every delay whose feedback comes by T
    is at most the window, so its origin is still in the ring.
    """
    T, K = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    dmax = draw(st.integers(1, T))
    window = draw(st.sampled_from([1, dmax, dmax + 1]))
    reach = min(dmax, window)
    if draw(st.booleans()):
        delays = draw(st.lists(st.integers(1, reach), min_size=T, max_size=T))
    else:  # every round of a block of b rounds reports at the block's end
        b = draw(st.integers(1, reach))
        delays = [b * math.ceil(s / b) - s + 1 for s in range(1, T + 1)]
    for s in draw(st.sets(st.integers(1, T))):  # never released
        delays[s - 1] = late(T, s)
    return T, K, window, delays


def drive_round_by_round(run, stream, schedule):
    """predict_round/absorb_round for every round, with no dependency block."""
    table = FeedbackBuffer()
    table.push([schedule.d])
    decisions = np.empty((run.params.T, 1, run.cset.dim))
    for t in range(1, run.params.T + 1):
        decisions[t - 1] = run.predict_round(t)
        rows = table.release(t)
        run.absorb_round(t, rows, stream.losses[rows[:, 0], rows[:, 1] - 1, None] if len(rows) else None)
    return decisions


def check_blocks(case, cset, stream):
    """Blocks, unobserved, and an observed run equal a round-by-round drive bit for bit."""
    T, K, window, delays = case
    schedule = DelaySchedule(delays, dmax=max(delays))
    params = params_for(K=K, T=T)
    one = metropolis_weights(topology("complete", 1))
    runs = [NetworkRun(cset, one, params, seed=5, window=window) for _ in range(3)]
    want = drive_round_by_round(runs[0], stream, schedule)
    seen = []

    def observe(t):  # an observer gets every round, ys in that round's own slot
        seen.append(t)
        assert np.shares_memory(runs[2].ys, runs[2].ring[t % window])

    written = sorted({t % window for t in range(1, T + 1)})  # ring slots of rounds 1..T
    for run, watch in zip(runs[1:], (None, observe)):
        decisions = run_rounds(run, stream, [schedule], watch)
        assert np.array_equal(bits(decisions), bits(want))
        assert np.array_equal(bits(run.ring[written]), bits(runs[0].ring[written]))
        assert np.array_equal(bits(run.bank.accum), bits(runs[0].bank.accum))
        assert np.array_equal(bits(run.ys), bits(runs[0].ys))
    assert seen == list(range(1, T + 1))
    ref, _ = meta_fw_run(cset, stream, params, 5, schedule)
    assert np.array_equal(bits(want[:, 0]), bits(ref))


@settings(max_examples=80, deadline=None)
@given(case=one_agent_schedules())
# round 2 releases, rounds 3-15 report after T: rounds 3-16 are one block, longer than the ring
@example(case=(20, 3, 2, [2, 1] + [late(20, s) for s in range(3, 16)] + [1] * 5))
# the last release is at round 5: the block after it runs to T
@example(case=(10, 2, 3, [1, 1, 3] + [late(10, s) for s in range(4, 11)]))
# nothing is ever released: one query, and rounds 1..T are one block
@example(case=(6, 4, 1, [late(6, s) for s in range(1, 7)]))
# dmax = 1: every round releases itself, so every block is one round
@example(case=(7, 3, 1, [1] * 7))
# a block of three states, longer than the ring
@example(case=THREE_STATE_BLOCK)
# rounds 8-10 all report at T = 10, the last round
@example(case=(10, 2, 4, [1, 4, 1, 1, 1, 1, 1, 3, 2, 1]))
def test_dependency_blocks_equal_a_round_by_round_drive(case):
    T = case[0]
    check_blocks(case, L1, synth_quadratic_stream(seed=T, T=T, dim=3, scale=0.7))


@pytest.mark.parametrize("kind, softmax", [("l2_ball", False), ("simplex", False),
                                           ("hypercube", False), ("l1_ball", True)])
@settings(max_examples=10, deadline=None)
@given(case=one_agent_schedules())
def test_dependency_blocks_hold_on_every_set_and_on_softmax(kind, softmax, case):
    T = case[0]
    if softmax:
        stream = synth_stream(T, T=T, p=2, C=3, batch=2)
    else:
        stream = synth_quadratic_stream(seed=T, T=T, dim=3, scale=0.7)
    check_blocks(case, ConstraintSet(kind, 1.0, stream.dim), stream)


class FixedGradients:
    """A loss stack whose grad returns the same (r, K, m) gradients at any points."""

    def __init__(self, g):
        self.g = g

    def grad(self, x):
        assert x.shape == self.g.shape
        return self.g


@st.composite
def gradient_stacks(draw):
    """(r, K, m) gradients with signed zeros among finite entries."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
    return draw(arrays(np.float64, shape, elements=entries))


@settings(max_examples=100, deadline=None)
@given(g=gradient_stacks())
@example(g=np.array([-0.0, -0.0, 1.5, -1.5, -0.0, 0.0, 2.0**-30, -0.0, 3.0]).reshape(9, 1, 1))
@example(g=np.full((8, 1, 1), -0.0))
def test_one_agent_release_sums_equal_the_scatter(g):
    # row by row into a zero seed, as np.add.at adds: a leading -0.0 sums to +0.0
    r, K, m = g.shape
    run = NetworkRun(ConstraintSet("l1_ball", 1.0, m), metropolis_weights(topology("complete", 1)),
                     params_for(K=K, T=1), seed=0, window=1)
    run.predict_round(1)
    run.absorb_round(1, np.tile([0, 1], (r, 1)), FixedGradients(g))
    want = np.zeros((1, K, m))
    np.add.at(want, np.zeros(r, dtype=np.int64), g)
    assert np.array_equal(bits(run.sums.swapaxes(0, 1)), bits(want))
    assert np.array_equal(bits(run.bank.accum), bits(want[0]))


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(0, 4), min_size=2, max_size=5), data=st.data())
def test_network_release_sums_equal_the_scatter(counts, data):
    # each agent's rows in origin order into its zero seed, as np.add.at adds them: rank-major
    # rows with their rank ends, and agent-major rows with every row its own rank
    n, r = len(counts), sum(counts)
    K, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
    g = data.draw(arrays(np.float64, (r, K, m), elements=entries))
    ranks = [[i for i in range(n) if counts[i] > j] for j in range(max(counts))]
    rank_major = np.array([i for rank in ranks for i in rank], dtype=np.int64)
    rank_ends = np.cumsum([len(rank) for rank in ranks]).tolist()
    for agents, ends in ((rank_major, rank_ends), (np.repeat(np.arange(n), counts), None)):
        run = NetworkRun(ConstraintSet("l1_ball", 1.0, m), metropolis_weights(topology("cycle", n)),
                         params_for(K=K, T=1), seed=0, window=1)
        run.predict_round(1)
        rows = np.column_stack([agents, np.ones(r, dtype=np.int64)])
        run.absorb_round(1, rows, FixedGradients(g), ends)
        want = np.zeros((n, K, m))
        np.add.at(want, agents, g)
        assert np.array_equal(bits(run.sums.swapaxes(0, 1)), bits(want))


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


@pytest.mark.parametrize("n", [1, 3])
def test_run_rounds_rejects_a_ring_shorter_than_a_released_delay(n):
    # round 1 releases at round 3 (a delay of 3); a delay of 9 from round 2 never comes by T = 5
    delays = [3, 9, 1, 1, 1]
    stream = synth_quadratic_stream(seed=1, T=5, dim=3, n_agents=n)
    for window, ok in ((2, False), (3, True)):
        run = NetworkRun(L1, metropolis_weights(topology("complete", n)), params_for(K=2, T=5),
                         seed=0, window=window)
        if ok:
            run_rounds(run, stream, [DelaySchedule(delays, dmax=9)] * n)
        else:
            with pytest.raises(ValueError, match="ring"):
                run_rounds(run, stream, [DelaySchedule(delays, dmax=9)] * n)


def test_one_agent_absorb_rejects_origins_outside_the_ring():
    # one agent's rows are sorted by origin, so their ends bound them
    run = NetworkRun(L1, metropolis_weights(topology("complete", 1)), params_for(K=2, T=6), seed=0,
                     window=2)
    loss = QuadraticLoss(np.zeros((3, 1, 3)))
    for t in (1, 2, 3):
        run.predict_round(t)
    for origins in ([1, 2, 3], [2, 3, 4], [1], [4]):  # round 1 is overwritten, round 4 is to come
        with pytest.raises(ValueError):
            run.absorb_round(3, np.array([[0, s] for s in origins]), loss[:len(origins)])
    run.absorb_round(3, np.array([[0, 2], [0, 3]]), loss[:2])


def test_predict_block_rejects_rounds_it_cannot_compute():
    params, none = params_for(K=2, T=8), np.empty((0, 2), dtype=int)
    loss = QuadraticLoss(np.zeros((2, 1, 3)))
    two = NetworkRun(L1, metropolis_weights(topology("complete", 2)), params, seed=0, window=2)
    with pytest.raises(ValueError):  # a block is one agent's
        two.predict_block(1, none, np.zeros(1, int), None, np.empty((1, 2, 3)))
    run = NetworkRun(L1, metropolis_weights(topology("complete", 1)), params, seed=0, window=2)
    for u in (0, 9):  # no rounds, or past T
        with pytest.raises(ValueError):
            run.predict_block(u, none, np.zeros(max(u, 1), int), None, np.empty((max(u, 1), 1, 3)))
    run.predict_block(3, none, np.zeros(3, int), None, np.empty((3, 1, 3)))
    # rounds 3..4 release: round 1 has left the ring, round 4 is in the block, round 3 releases nothing
    for origins, sizes in (([1, 3], [1, 1]), ([3, 4], [1, 1]), ([3], [0, 1])):
        rows = np.array([[0, s] for s in origins])
        with pytest.raises(ValueError):
            run.predict_block(5, rows, np.array(sizes), loss[:len(origins)], np.empty((2, 1, 3)))
    run.predict_block(5, np.array([[0, 2], [0, 3]]), np.array([2, 0]), loss, np.empty((2, 1, 3)))


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


@pytest.mark.parametrize("softmax", [False, True])
def test_reused_consensus_rows_equal_a_recomputation(monkeypatch, softmax):
    # the observer copies the rows of the steps predict_round reused; consensus_error on every
    # round's full arrays gives the same grid, from round 1, which reuses nothing, to the rounds
    # before a release, which reuse all K steps
    T, K, n = 24, 6, 4
    delays = [8 * math.ceil(s / 8) - s + 1 for s in range(1, T + 1)]  # releases at 8, 16, 24
    if softmax:  # radius and zeta picked so that a release round reuses 3 steps
        stream, radius, zeta = synth_stream(1, T=T, p=2, C=3, batch=2, n_agents=n), 8.0, 5.0
    else:
        stream = synth_quadratic_stream(seed=5, T=T, dim=3, n_agents=n, scale=0.7)
        radius, zeta = 1.0, 0.5
    cset = ConstraintSet("l1_ball", radius, stream.dim)
    full, reused, predict = [], [], NetworkRun.predict_round

    def recomputed(run, t):
        played = predict(run, t)
        reused.append(run.reused)
        full.append(consensus_error(run.ys, agent_mean(run.ring[t % run.window, :-1])))
        return played

    monkeypatch.setattr(NetworkRun, "predict_round", recomputed)
    trace = de2mfw_run(cset, stream, [DelaySchedule(delays, dmax=8)] * n, topology("grid", n),
                       params_for(K=K, T=T, zeta=zeta), seed=5)
    assert np.array_equal(bits(trace.consensus), bits(np.array(full)))
    assert reused[0] == 0 and K in reused and any(0 < j < K for j in reused), reused


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
