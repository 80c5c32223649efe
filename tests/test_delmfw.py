"""Centralized algorithm tests: parameter defaults, step algebra, reductions."""

import math

import numpy as np
import pytest

from delayfw.de2mfw import AlgoParams, NetworkRun, centralized_params, delmfw_run
from delayfw.delay import DelaySchedule, FeedbackBuffer, gen_delays
from delayfw.geometry import ConstraintSet
from delayfw.losses import LossStream, QuadraticLoss, estimate_constants, synth_quadratic_stream
from delayfw.network import metropolis_weights, topology

from _reference import meta_fw_run

L1 = ConstraintSet("l1_ball", 1.0, 2)


def quad_stream(thetas):
    return LossStream(QuadraticLoss([thetas]))


# -- parameters ---------------------------------------------------------------


def test_default_params():
    p = centralized_params(T=100, G=1.0, beta=1.0, D=2.0, B_est=7.0)
    assert p.K == 10
    assert p.A == 3.0  # G/(beta*D) = 0.5 < 3
    assert p.zeta == pytest.approx(1.0 / math.sqrt(7.0))
    assert centralized_params(T=10, G=1.0, beta=1.0, D=2.0, B_est=4.0).K == 4  # ceil


def test_param_overrides_and_validation():
    p = centralized_params(T=100, G=8.0, beta=1.0, D=2.0, B_est=7.0, K=3, zeta=0.1)
    assert (p.K, p.A, p.zeta) == (3, 4.0, 0.1)  # A = max(3, G/(beta D)) is not overridable
    with pytest.raises(ValueError):
        AlgoParams(T=10, K=0, A=3.0, zeta=0.1, B_est=1.0)
    with pytest.raises(ValueError):
        AlgoParams(T=10, K=2, A=2.0, zeta=0.1, B_est=1.0)
    with pytest.raises(ValueError):
        AlgoParams(T=10, K=2, A=3.0, zeta=0.0, B_est=1.0)
    with pytest.raises(ValueError):
        centralized_params(T=10, G=0.0, beta=1.0, D=1.0, B_est=1.0)


def test_eta_schedule():
    p = AlgoParams(T=10, K=8, A=3.0, zeta=0.1, B_est=1.0)
    assert [p.eta(k) for k in range(1, 9)] == [1.0, 1.0, 1.0, 3 / 4, 3 / 5, 3 / 6, 3 / 7, 3 / 8]


# -- predict ------------------------------------------------------------------


def params_for(K, zeta=1.0, A=3.0, T=10):
    return AlgoParams(T=T, K=K, A=A, zeta=zeta, B_est=1.0)


def central_run(cset, params, seed, window=1):
    """The engine on the one-node graph, as delmfw_run drives it."""
    return NetworkRun(cset, metropolis_weights(topology("complete", 1)), params, seed, window)


def ring_subs(state, origin):
    """x_{origin,1..K+1} of the one agent, read from the ring."""
    return state.ring[origin % state.window, :, 0]


def release(origins, losses):
    """Rows and loss stack of a one-agent release set, as run_rounds builds them."""
    return np.array([[0, s] for s in origins]), losses[np.array(origins) - 1, None]


def test_predict_k1_plays_oracle_output():
    state = central_run(L1, params_for(K=1), seed=0)
    want = state.bank.query()[0]
    np.testing.assert_array_equal(state.predict_round(1)[0], want)


def test_predict_identical_oracles_returns_common_vertex():
    state = central_run(L1, params_for(K=4), seed=0)
    state.bank.noise[:] = np.array([0.3, 0.6])
    np.testing.assert_array_equal(state.predict_round(1)[0], [0.0, -1.0])


def test_predict_k2_hand_unroll():
    # A=3 makes eta_1 = eta_2 = 1: x_{t,2} = v_1, x_t = v_2
    state = central_run(L1, params_for(K=2), seed=5)
    state.bank.noise[0] = np.array([0.2, 0.5])
    state.bank.noise[1] = np.array([0.9, 0.1])
    x = state.predict_round(1)[0]
    np.testing.assert_array_equal(x, [-1.0, 0.0])  # lmo of second noise
    np.testing.assert_array_equal(ring_subs(state, 1)[0], [1.0, 0.0])  # x_{1,1} = start vertex
    np.testing.assert_array_equal(ring_subs(state, 1)[1], [0.0, -1.0])  # x_{1,2} = v_1


def test_predict_fractional_eta_hand_unroll():
    # A=3, K=5: eta_4 = 3/4, eta_5 = 3/5; replay the recursion by hand
    state = central_run(L1, params_for(K=5), seed=7)
    x = state.predict_round(1)[0]
    vs = state.bank.query()
    want = vs[2]  # after three eta=1 steps
    want = 0.25 * want + 0.75 * vs[3]
    want = 0.4 * want + 0.6 * vs[4]
    np.testing.assert_array_equal(x, want)


def test_predict_order_enforced():
    state = central_run(L1, params_for(K=1), seed=0)
    state.predict_round(1)
    with pytest.raises(ValueError):
        state.predict_round(1)
    with pytest.raises(ValueError):
        state.predict_round(3)


def test_predict_feasible_and_stores_history():
    cset = ConstraintSet("simplex", 2.0, 4)
    state = central_run(cset, params_for(K=6), seed=3, window=3)
    assert state.ring.shape == (3, 7, 1, 4)  # x_{t,1..K+1} of the last 3 rounds
    for t in range(1, 6):
        x = state.predict_round(t)[0]
        assert cset.contains(x, tol=1e-9)
        np.testing.assert_array_equal(ring_subs(state, t)[-1], x)
        x[:] = 9.0  # the played decision is a copy, not a view of the ring
        assert all(cset.contains(s, tol=1e-9) for s in ring_subs(state, t))


# -- absorb ---------------------------------------------------------------------


def test_absorb_empty_is_noop():
    state = central_run(L1, params_for(K=3), seed=2)
    state.predict_round(1)
    before = state.bank.accum.copy()
    state.absorb_round(1, np.empty((0, 2), dtype=int), None)
    for k in range(3):
        np.testing.assert_array_equal(state.bank.accum[k], before[k])
    assert state.bank.feedback_count == 0


def test_absorb_single_quadratic():
    state = central_run(L1, params_for(K=2), seed=4)
    state.predict_round(1)
    theta = np.array([0.25, -0.5])
    subs = ring_subs(state, 1).copy()
    state.absorb_round(1, *release([1], QuadraticLoss([theta])))
    for k in range(2):
        np.testing.assert_array_equal(state.bank.accum[k], subs[k] - theta)


def test_absorb_sums_release_set():
    state = central_run(L1, params_for(K=3), seed=6, window=4)
    losses = QuadraticLoss([[0.1 * t, -0.2 * t] for t in range(1, 6)])
    for t in range(1, 6):
        state.predict_round(t)
    subs = {t: ring_subs(state, t).copy() for t in (2, 5)}
    state.absorb_round(5, *release([2, 5], losses))
    for k in range(3):
        want = losses[1].grad(subs[2][k]) + losses[4].grad(subs[5][k])
        np.testing.assert_array_equal(state.bank.accum[k], want)


def test_absorb_unknown_or_double_release():
    # with window 1 round 1's sub-iterates are gone by round 2
    state = central_run(L1, params_for(K=1), seed=0)
    losses = QuadraticLoss(np.zeros((3, 2)))
    state.predict_round(1)
    state.absorb_round(1, *release([1], losses))
    state.predict_round(2)
    with pytest.raises(ValueError):
        state.absorb_round(2, *release([1], losses))
    with pytest.raises(ValueError):
        state.absorb_round(2, *release([3], losses))


# -- full runs -------------------------------------------------------------------


def run_setup(T, dmax, seed, dim=3, scale=0.8):
    cset = ConstraintSet("l1_ball", 1.0, dim)
    stream = synth_quadratic_stream(seed=seed + 1000, T=T, dim=dim, scale=scale)
    schedule = gen_delays(T, dmax, seed=seed + 2000)
    G, beta = estimate_constants(stream, cset)
    params = centralized_params(T, G, beta, cset.diameter(), B_est=schedule.B)
    return cset, stream, schedule, params


def test_run_no_delay_matches_reference_bitwise():
    cset, stream, schedule, params = run_setup(T=40, dmax=1, seed=0)
    trace = delmfw_run(cset, stream, schedule, params, seed=0)
    ref_dec, ref_inst = meta_fw_run(cset, stream, params, seed=0)
    assert np.array_equal(trace.decisions, ref_dec)
    assert np.array_equal(trace.inst_loss, ref_inst)


def test_run_deterministic():
    cset, stream, schedule, params = run_setup(T=30, dmax=5, seed=1)
    a = delmfw_run(cset, stream, schedule, params, seed=1)
    b = delmfw_run(cset, stream, schedule, params, seed=1)
    assert np.array_equal(a.decisions, b.decisions)
    c = delmfw_run(cset, stream, schedule, params, seed=2)
    assert not np.array_equal(a.decisions, c.decisions)


def test_run_feasibility_and_metadata():
    cset, stream, schedule, params = run_setup(T=30, dmax=4, seed=5)
    trace = delmfw_run(cset, stream, schedule, params, seed=5)
    for x in trace.decisions:
        assert cset.contains(x, tol=1e-9)
    assert trace.metadata["B"] == schedule.B
    assert trace.metadata["K"] == params.K
    np.testing.assert_allclose(trace.cum_loss, np.cumsum(trace.inst_loss), atol=1e-9)


def test_delayed_feedback_reaches_oracles_late():
    # single round-1 loss delayed by 3 rounds: accumulators stay zero until then
    cset = ConstraintSet("l1_ball", 1.0, 2)
    stream = quad_stream([np.array([0.5, 0.0])] * 4)
    schedule = DelaySchedule(np.array([3, 1, 1, 1]), dmax=3)
    params = params_for(K=2, zeta=0.5, T=4)
    state = central_run(cset, params, seed=0, window=schedule.dmax)
    table = FeedbackBuffer()
    table.push([schedule.d])
    buf_grads = {}
    for t in range(1, 5):
        state.predict_round(t)
        if t < 3:
            buf_grads[t] = state.bank.accum.copy()
        rows = table.release(t)
        state.absorb_round(t, rows, stream.losses[0, rows[:, 1] - 1, None] if len(rows) else None)
    np.testing.assert_array_equal(buf_grads[1][0], np.zeros(2))
    np.testing.assert_array_equal(buf_grads[2][0], np.zeros(2))  # round 1 still pending
    # releases: F_2={2}, F_3={1,3} (one summed feedback), F_4={4}
    assert state.bank.feedback_count == 3


def test_run_input_validation():
    cset, stream, schedule, params = run_setup(T=30, dmax=4, seed=5)
    bad = gen_delays(29, 4, seed=0)
    with pytest.raises(ValueError):
        delmfw_run(cset, stream, bad, params, seed=5)
    two_agent = synth_quadratic_stream(seed=0, T=30, dim=3, n_agents=2)
    with pytest.raises(ValueError):
        delmfw_run(cset, two_agent, schedule, params, seed=5)
