"""Baseline algorithm tests: stationarity, line search, projection, feasibility."""

import math
import time

import numpy as np
import pytest

from delayfw import runner
from delayfw.baselines import DgdState, DofwState, dgd_run, dofw_run
from delayfw.delay import DelaySchedule, gen_delays
from delayfw.geometry import ConstraintSet
from delayfw.losses import QuadraticLoss, estimate_constants, synth_quadratic_stream

L1 = ConstraintSet("l1_ball", 1.0, 3)


def test_dofw_stationary_without_releases():
    state = DofwState(L1, eta_reg=0.5)
    start = state.x.copy()
    for _ in range(10):
        state.round([])
    np.testing.assert_array_equal(state.x, start)


def test_dofw_huge_eta_converges_to_lmo_of_gradient():
    state = DofwState(L1, eta_reg=1e6)
    g = np.array([-2.0, 0.5, 0.0])
    target = L1.lmo(g)
    state.round([g])
    for _ in range(60):
        state.round([])
    assert np.linalg.norm(state.x - target) < 1e-3


def test_dofw_line_search_hand_value():
    # from the anchor with one gradient, s* = -<grad_phi, w> / (2 ||w||^2)
    state = DofwState(L1, eta_reg=1.0)
    anchor = state.x.copy()
    g = np.array([3.0, 0.0, 0.0])
    grad_phi = g.copy()  # accum = g, x = anchor
    v = L1.lmo(grad_phi)
    w = v - anchor
    s = min(1.0, max(0.0, -float(grad_phi @ w) / (2.0 * float(w @ w))))
    x_next = state.round([g])
    np.testing.assert_allclose(x_next, anchor + s * w, atol=1e-15)


def test_dofw_step_stays_feasible():
    rng = np.random.default_rng(0)
    for kind, r, m in [("l1_ball", 1.5, 4), ("simplex", 1.0, 5), ("hypercube", 0.5, 3)]:
        cset = ConstraintSet(kind, r, m)
        state = DofwState(cset, eta_reg=0.7)
        for _ in range(25):
            state.round([rng.normal(size=m)])
            assert cset.contains(state.x, tol=1e-9)


def test_dgd_no_release_is_identity():
    state = DgdState(L1, eta_dgd=0.3)
    x0 = state.x.copy()
    np.testing.assert_array_equal(state.round([]), x0)


def test_dgd_interior_step_is_plain_gradient_step():
    cset = ConstraintSet("l2_ball", 10.0, 3)
    state = DgdState(cset, eta_dgd=0.25)
    x0 = state.x.copy()
    g = np.array([0.4, -0.8, 0.1])
    np.testing.assert_allclose(state.round([g]), x0 - 0.25 * g, atol=1e-15)


def test_dgd_boundary_step_matches_projection():
    state = DgdState(L1, eta_dgd=2.0)
    x0 = state.x.copy()
    g = np.array([-3.0, 1.0, -2.0])
    stepped = x0 - 2.0 * g
    np.testing.assert_allclose(state.round([g]), L1.project(stepped), atol=1e-15)
    assert L1.contains(state.x, tol=1e-12)


def test_dgd_sums_multiple_releases():
    state = DgdState(ConstraintSet("l2_ball", 50.0, 2), eta_dgd=1.0)
    x0 = state.x.copy()
    gs = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([-0.5, -0.5])]
    np.testing.assert_allclose(state.round(gs), x0 - sum(gs), atol=1e-15)


def test_bad_steps_rejected():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            DofwState(L1, eta_reg=bad)
        with pytest.raises(ValueError):
            DgdState(L1, eta_dgd=bad)


def test_run_drivers():
    T, dmax = 30, 4
    cset = ConstraintSet("l1_ball", 1.0, 3)
    stream = synth_quadratic_stream(seed=4, T=T, dim=3, scale=0.5)
    schedule = gen_delays(T, dmax, seed=9)
    for run, mode, step_key in [(dofw_run, "baseline_dofw", "eta_reg"),
                                (dgd_run, "baseline_dgd", "eta_dgd")]:
        trace = run(cset, stream, schedule, 0.3, seed=4)
        again = run(cset, stream, schedule, 0.3, seed=4)
        assert trace.metadata["mode"] == mode
        assert trace.decisions.shape == (T, 1, 3) and trace.per_agent_loss.shape == (T, 1)
        assert np.array_equal(trace.decisions, again.decisions)
        assert trace.metadata[step_key] == repr(0.3)
        assert trace.metadata["B"] == schedule.B
        for t, (x,) in enumerate(trace.decisions):
            assert cset.contains(x, tol=1e-9)
            assert trace.inst_loss[t] == stream.loss(0, t + 1).value(x)


def baseline_config(mode, **over):
    return runner.config_from_dict({
        "mode": mode, "T": 50, "set": {"kind": "l1_ball", "radius": 1.0, "dim": 8},
        "loss": {"kind": "quadratic", "seed": 0}, "delay": {"dmax": 10, "seed": 0},
        "seeds": [0], **over})


STEP_KEYS = (("baseline_dofw", "eta_reg"), ("baseline_dgd", "eta_dgd"))


def step_root(cfg, seed):
    """sqrt(T) for DOFW, sqrt(2B) for DGD: the step rules' denominators without G."""
    if cfg.mode == "baseline_dofw":
        return math.sqrt(cfg.T)
    (schedule,) = runner._build_schedules(cfg, seed)
    return math.sqrt(2.0 * schedule.B)


def test_default_steps_match_formulas():
    # auto constants: G is the stream's bound and D the set's diameter
    for mode, key in STEP_KEYS:
        cfg = baseline_config(mode, T=16, set={"kind": "l2_ball", "radius": 2.0, "dim": 3})
        cset = ConstraintSet("l2_ball", 2.0, 3)
        G, _ = estimate_constants(runner._build_stream(cfg, 1), cset)
        D = cset.diameter()
        meta = runner.run_single(cfg, 1).metadata
        assert (meta["G"], meta["D"]) == (repr(G), repr(D))
        assert meta[key] == repr(D / (G * step_root(cfg, 1)))


def test_configured_constants_set_the_steps():
    # the trace's #G and #D are the ones its step was computed from
    for mode, key in STEP_KEYS:
        cfg = baseline_config(mode, constants={"G": 5.0, "D": 7.0})
        meta = runner.run_single(cfg, 0).metadata
        assert (meta["G"], meta["D"]) == ("5.0", "7.0")
        assert meta[key] == repr(7.0 / (5.0 * step_root(cfg, 0)))
        if mode == "baseline_dofw":
            assert float(meta[key]) == pytest.approx(0.19799, abs=1e-5)  # 7/(5 sqrt 50)


def test_dgd_regret_grows_as_the_square_root_of_t():
    """DGD's regret is O(sqrt(T + B)), and B grows in proportion to T at a fixed dmax."""
    start = time.perf_counter()
    horizons = (1024, 4096, 16384)
    means = []
    for T in horizons:
        cfg = baseline_config("baseline_dgd", T=T, seeds=[0, 1, 2])  # quadratic, dim 8, dmax 10
        means.append(float(np.mean([runner.run_single(cfg, s).final_regret for s in cfg.seeds])))
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    assert 0.4 <= slope <= 0.6, f"log-log slope {slope:.3f} of mean final regret {means}"
    wall = time.perf_counter() - start
    print(f"DGD mean final regret {means}, slope {slope:.3f}, {wall:.2f}s")


def test_dofw_gradients_use_origin_round_decisions():
    # d=(3,1,1): round 1's gradient arrives at t=3 and must be evaluated at x_1
    T = 3
    cset = ConstraintSet("l2_ball", 5.0, 2)
    thetas = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    stream_losses = QuadraticLoss(thetas)
    from delayfw.losses import LossStream

    stream = LossStream(stream_losses[None])
    schedule = DelaySchedule((3, 1, 1), dmax=3)
    trace = dofw_run(cset, stream, schedule, eta_reg=0.5)
    # replay by hand
    state = DofwState(cset, eta_reg=0.5)
    xs = []
    for t, rel in [(1, []), (2, [2]), (3, [1, 3])]:
        xs.append(state.x.copy())
        state.round([stream_losses[s - 1].grad(xs[s - 1]) for s in rel])
    np.testing.assert_array_equal(trace.decisions[:, 0], np.array(xs))


def test_horizon_and_agent_validation():
    stream = synth_quadratic_stream(seed=0, T=5, dim=3)
    with pytest.raises(ValueError):
        dofw_run(L1, stream, gen_delays(6, 2, seed=0), 0.5)
    multi = synth_quadratic_stream(seed=0, T=5, dim=3, n_agents=2)
    with pytest.raises(ValueError):
        dgd_run(L1, multi, gen_delays(5, 2, seed=0), 0.5)
