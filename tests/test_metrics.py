"""Metrics tests: comparator fixtures, regret arithmetic, trace CSV format."""

import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import read_trace_csv
from _reference import comparator_four_calls, consensus_error_trailing
from delayfw import runner
from delayfw.geometry import KINDS, ConstraintSet
from delayfw.losses import LossStream, QuadraticLoss, synth_quadratic_stream, synth_stream
from delayfw.metrics import (
    Comparator,
    RunTrace,
    agent_mean,
    attach_regret,
    compute_comparator,
    consensus_error,
    per_agent_global_losses,
    regret,
    write_atomic,
)

L1_2D = ConstraintSet("l1_ball", 1.0, 2)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def alternating_stream(T):
    a, b = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    return LossStream(QuadraticLoss([[a if t % 2 == 0 else b for t in range(T)]]))


def trace_for(decisions, stream):
    """A one-agent trace of the (T, m) decisions, its losses f_t(x_t) computed one by one."""
    decisions = np.asarray(decisions, dtype=float)[:, None]
    inst = [[stream.loss(0, t + 1).value(x)] for t, (x,) in enumerate(decisions)]
    return RunTrace(decisions, np.array(inst), {"mode": "delmfw", "seed": 0})


# -- comparator -----------------------------------------------------------------


def test_comparator_alternating_symmetric_stream():
    T = 10
    comp = compute_comparator(alternating_stream(T), L1_2D)
    assert np.linalg.norm(comp.x) < 0.1
    total = sum(alternating_stream(T).average_value(comp.x, t) for t in range(1, T + 1))
    # optimum is T/2 at x* = 0; allow the Frank-Wolfe gap budget
    assert T / 2 <= total <= T / 2 + 0.05
    assert L1_2D.contains(comp.x, tol=1e-12)


def test_comparator_vertex_optimum():
    stream = LossStream(QuadraticLoss([[[2.0, 0.0]]]))
    comp = compute_comparator(stream, L1_2D)
    np.testing.assert_allclose(comp.x, [1.0, 0.0], atol=1e-12)
    # grid search over the ball confirms no better point
    best = math.inf
    for u in np.linspace(-1, 1, 201):
        for v in np.linspace(-1, 1, 201):
            if abs(u) + abs(v) <= 1.0:
                best = min(best, stream.average_value(np.array([u, v]), 1))
    assert stream.average_value(comp.x, 1) <= best + 1e-9


def test_comparator_interior_mean():
    cset = ConstraintSet("l2_ball", 5.0, 3)
    stream = synth_quadratic_stream(seed=7, T=40, dim=3, scale=0.8)
    thetas = np.array([stream.loss(0, t).theta for t in range(1, 41)])
    comp = compute_comparator(stream, cset)
    assert np.linalg.norm(comp.x - thetas.mean(axis=0)) < 0.05
    assert comp.gap >= 0.0


def test_comparator_infinite_tol_returns_start_vertex():
    comp = compute_comparator(alternating_stream(6), L1_2D, tol=math.inf)
    np.testing.assert_array_equal(comp.x, L1_2D.lmo(np.zeros(2)))
    assert comp.iterations == 0


def test_comparator_respects_max_iters():
    comp = compute_comparator(alternating_stream(8), L1_2D, max_iters=3)
    assert comp.iterations <= 3


@settings(max_examples=60, deadline=None)
@given(loss=st.sampled_from(["quadratic", "softmax"]), kind=st.sampled_from(KINDS),
       n=st.integers(1, 4), T=st.integers(1, 12), p=st.integers(1, 4), C=st.integers(1, 3),
       radius=st.floats(0.1, 8.0), tol=st.sampled_from([None, 1e-3, 1e-9]),
       seed=st.integers(0, 2**32 - 1))
def test_comparator_certificate_properties(loss, kind, n, T, p, C, radius, tol, seed):
    dim = p * C
    if loss == "quadratic":
        stream = synth_quadratic_stream(seed, T, dim, n_agents=n, scale=radius)
    else:
        stream = synth_stream(seed, T, p=p, C=C, batch=2, n_agents=n)
    cset = ConstraintSet(kind, radius, dim)
    comp = compute_comparator(stream, cset, max_iters=2000, tol=tol)
    assert cset.contains(comp.x, 1e-9)
    if tol is None:  # the documented default
        tol = 1e-6 * max(1.0, stream.total_value(cset.lmo(np.zeros(dim))) / T)
    assert comp.converged == (comp.gap <= tol * T)
    # the Frank-Wolfe gap bounds suboptimality against every feasible point
    phi = stream.total_value(comp.x)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        u = cset.project(rng.normal(scale=2.0 * radius, size=dim))
        phi_u = stream.total_value(u)
        assert phi <= phi_u + comp.gap + 1e-9 * (1.0 + abs(phi_u))
    if loss == "quadratic":
        # Phi = (T/2)||x - c||^2 + const has minimizer x* = project(c) with c the mean
        # target, and gap >= <grad, x - x*> >= T ||x - x*||^2 on the set
        thetas = stream.losses.theta.reshape(-1, dim)
        xstar = cset.project(thetas.sum(axis=0) / len(thetas))
        dist2 = float(np.sum((comp.x - xstar) ** 2))
        assert dist2 <= comp.gap / T + 1e-12 * (1.0 + radius * radius)


def assert_same_comparator(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert (repr(a.gap), a.iterations, a.converged) == (repr(b.gap), b.iterations, b.converged)


@settings(max_examples=60, deadline=None)
@given(loss=st.sampled_from(["quadratic", "softmax"]), kind=st.sampled_from(KINDS),
       n=st.integers(1, 4), T=st.integers(1, 12), p=st.integers(1, 4), C=st.integers(1, 4),
       radius=st.floats(0.1, 8.0), max_iters=st.sampled_from([3, 300]),
       seed=st.integers(0, 2**32 - 1))
def test_comparator_matches_four_call_loop(loss, kind, n, T, p, C, radius, max_iters, seed):
    dim = p * C
    if loss == "quadratic":
        stream = synth_quadratic_stream(seed, T, dim, n_agents=n, scale=radius)
    else:
        stream = synth_stream(seed, T, p=p, C=C, batch=3, n_agents=n)
    cset = ConstraintSet(kind, radius, dim)
    assert_same_comparator(compute_comparator(stream, cset, max_iters=max_iters),
                           comparator_four_calls(stream, cset, max_iters=max_iters))


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name for the rest of the test."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_comparator_halving_and_capped_runs_match_four_call_loop(kind, monkeypatch):
    stream = synth_stream(3, T=20, p=3, C=3, batch=4, n_agents=2)
    cset = ConstraintSet(kind, 4.0, 9)
    projects = counting(monkeypatch, ConstraintSet, "project")
    comp = compute_comparator(stream, cset)
    assert comp.converged and projects[0] > comp.iterations  # L doubled at least once
    assert_same_comparator(comp, comparator_four_calls(stream, cset))
    capped = compute_comparator(stream, cset, max_iters=4)
    assert (capped.iterations, capped.converged) == (4, False)
    assert_same_comparator(capped, comparator_four_calls(stream, cset, max_iters=4))


def test_comparator_evaluates_each_point_once(monkeypatch):
    # the shipped distributed softmax example, seed 0 (the net_softmax benchmark workload)
    cfg = runner.parse_config(os.path.join(ROOT, "configs", "distributed_softmax.json"))
    stream = runner._build_stream(cfg, 0)
    cset = ConstraintSet(cfg.set["kind"], cfg.set["radius"], cfg.dim)
    evaluations = counting(monkeypatch, LossStream, "total_grad")
    projects = counting(monkeypatch, ConstraintSet, "project")
    comp = compute_comparator(stream, cset)
    # the start vertex, every momentum point after the first, every trial point
    assert evaluations[0] == comp.iterations + projects[0]
    assert (comp.iterations, projects[0]) == (76, 81)


# -- regret ----------------------------------------------------------------------


def test_constant_comparator_policy_has_zero_regret():
    T = 12
    stream = alternating_stream(T)
    comp = compute_comparator(stream, L1_2D)
    trace = trace_for(np.tile(comp.x, (T, 1)), stream)
    curve = regret(trace, comp, stream)
    np.testing.assert_allclose(curve, np.zeros(T), atol=1e-12)


def test_fixed_suboptimal_point_linear_regret():
    theta = np.array([0.25, 0.0])
    T = 9
    stream = LossStream(QuadraticLoss(np.tile(theta, (1, T, 1))))
    comp = Comparator(x=theta, gap=0.0, iterations=0, converged=True)
    z = np.array([0.0, 0.5])
    trace = trace_for(np.tile(z, (T, 1)), stream)
    curve = regret(trace, comp, stream)
    slope = stream.loss(0, 1).value(z) - stream.loss(0, 1).value(theta)
    np.testing.assert_allclose(np.diff(curve), np.full(T - 1, slope), atol=1e-12)
    np.testing.assert_allclose(curve[0], slope, atol=1e-12)


def test_hand_regret_fixture():
    # thetas (1,0),(-1,0),(1,0),(-1,0); play the theta for t<4, then (0,1)
    stream = alternating_stream(4)
    decisions = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    trace = trace_for(decisions, stream)
    np.testing.assert_allclose(trace.inst_loss, [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    comp = Comparator(x=np.zeros(2), gap=0.0, iterations=0, converged=True)
    curve = regret(trace, comp, stream)
    np.testing.assert_allclose(curve, [-0.5, -1.0, -1.5, -1.0], atol=1e-15)


def test_distributed_regret_is_worst_agent():
    theta0, theta1 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    stream = LossStream(QuadraticLoss([[theta0, theta0], [theta1, theta1]]))
    decisions = np.array([
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ])
    pal = per_agent_global_losses(stream, decisions)
    # global average loss F(x) = (|x-t0|^2 + |x-t1|^2)/4 = (|x|^2 + 1)/2
    np.testing.assert_allclose(pal, [[1.0, 0.5], [1.0, 0.5]], atol=1e-15)
    trace = RunTrace(decisions, pal, {})
    comp = Comparator(x=np.zeros(2), gap=0.0, iterations=0, converged=True)
    curve = regret(trace, comp, stream)
    np.testing.assert_allclose(curve, [0.5, 1.0], atol=1e-15)


def test_attach_regret_and_final():
    stream = alternating_stream(4)
    comp = Comparator(x=np.zeros(2), gap=0.0, iterations=0, converged=True)
    trace = trace_for(np.zeros((4, 2)), stream)
    attach_regret(trace, comp, stream)
    assert trace.final_regret == pytest.approx(0.0, abs=1e-15)
    assert trace.total_loss == pytest.approx(2.0)
    np.testing.assert_allclose(trace.cum_loss, np.cumsum(trace.inst_loss), atol=0)


# -- csv --------------------------------------------------------------------------


def test_csv_requires_regret(tmp_path):
    trace = trace_for(np.zeros((3, 2)), alternating_stream(3))
    with pytest.raises(ValueError):
        trace.csv_text()


def test_csv_round_trip(tmp_path):
    stream = alternating_stream(5)
    comp = compute_comparator(stream, L1_2D)
    trace = trace_for(np.full((5, 2), 0.25), stream)
    trace.metadata = {"mode": "delmfw", "seed": 3, "T": 5, "zeta": repr(0.125)}
    attach_regret(trace, comp, stream)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    text = path.read_text()
    assert text.startswith("#T=5\n#mode=delmfw\n#seed=3\n#zeta=0.125\n")
    assert "t,inst_loss,cum_loss,regret_prefix\n" in text
    meta, cols = read_trace_csv(path)
    assert meta["mode"] == "delmfw" and meta["zeta"] == "0.125"
    assert float(meta["zeta"]) == 0.125
    np.testing.assert_array_equal(cols["t"], np.arange(1, 6))
    np.testing.assert_allclose(cols["inst_loss"], trace.inst_loss, rtol=1e-8)
    np.testing.assert_allclose(cols["cum_loss"], trace.cum_loss, rtol=1e-8)
    np.testing.assert_allclose(cols["regret_prefix"], trace.regret_prefix, rtol=1e-8, atol=1e-12)


def test_csv_diagnostic_columns(tmp_path):
    trace = trace_for(np.zeros((3, 2)), alternating_stream(3))
    trace.consensus = np.array([[0.5, 0.25], [0.4, 0.6], [0.0, 0.0]])
    trace.tracking = np.array([[1.0, 2.0], [0.1, 0.05], [0.0, 0.0]])
    trace.regret_prefix = np.zeros(3)
    path = tmp_path / "d.csv"
    trace.write_csv(path)
    _, cols = read_trace_csv(path)
    np.testing.assert_allclose(cols["consensus_max"], [0.5, 0.6, 0.0], atol=1e-12)
    np.testing.assert_allclose(cols["tracking_max"], [2.0, 0.1, 0.0], atol=1e-12)


def test_csv_nine_significant_digits(tmp_path):
    trace = RunTrace(np.zeros((1, 1, 2)), np.array([[1.0 / 3.0]]), {"mode": "delmfw"},
                     regret_prefix=np.array([2.0 / 3.0]))
    assert "0.333333333" in trace.csv_text()
    assert "0.666666667" in trace.csv_text()


def test_csv_rows_print_each_float_with_format_9g():
    vals = np.array([0.0, -0.0, 1e-320, 1e17, -2.5e-7, 1.0 / 3.0, math.inf, math.nan])
    T = len(vals)
    # inst_loss is the row max: -inf never wins it, nan always does
    pal = np.column_stack([np.full(T, -math.inf), vals])
    trace = RunTrace(np.zeros((T, 2, 1)), pal, {}, regret_prefix=vals[::-1].copy(),
                     consensus=np.column_stack([vals, vals]), tracking=np.ones((T, 3)))
    rows = trace.csv_text().splitlines()[1:]
    cum = np.cumsum(vals)
    for t in range(T):
        want = [vals[t], cum[t], vals[T - 1 - t], vals[t], 1.0]
        assert rows[t] == ",".join([str(t + 1)] + [f"{v:.9g}" for v in want])


def test_write_is_atomic_no_temp_left(tmp_path):
    trace = trace_for(np.zeros((2, 2)), alternating_stream(2))
    trace.regret_prefix = np.zeros(2)
    path = tmp_path / "out.csv"
    trace.write_csv(path)
    trace.write_csv(path)  # overwrite works
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=oct)
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_atomic(tmp_path / "new.csv", "x\n")
        write_atomic(tmp_path / "new.csv", "y\n")  # a replaced file gets the same mode
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "new.csv").st_mode) == mode


# -- consensus -------------------------------------------------------------------


def test_consensus_error_identical_agents():
    agents = np.tile([0.3, -0.2], (5, 1))  # (n, m)
    assert consensus_error(agents, agents.mean(axis=0)) == 0.0


def test_consensus_error_path_fixture():
    y = np.array([[4.0 / 3.0], [2.0], [8.0 / 3.0]])  # three agents, m = 1
    assert consensus_error(y, y.mean(axis=0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert consensus_error(y, np.array([2.0])) == pytest.approx(2.0 / 3.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 6), n=st.integers(1, 7), m=st.integers(1, 12), centered=st.booleans(),
       seed=st.integers(0, 2**31 - 1), strided=st.booleans(), scale=st.integers(-150, 150))
def test_consensus_error_stack_equals_slice_calls(K, n, m, centered, seed, strided, scale):
    rng = np.random.default_rng(seed)
    # strided: a step-major view of an agent-major array
    stack = rng.normal(size=(n, K, m)).swapaxes(0, 1) if strided else rng.normal(size=(K, n, m))
    stack *= 10.0 ** scale
    center = rng.normal(size=(K, m)) if centered else stack.mean(axis=1)
    errs = consensus_error(stack, center)
    assert errs.shape == (K,)
    # the max of the row norms, bit for bit
    want = np.max(np.linalg.norm(stack - center[:, None, :], axis=-1), axis=-1)
    assert np.array_equal(errs.view(np.uint64), want.view(np.uint64))
    for k in range(K):
        one = consensus_error(stack[k], center[k])  # one (n, m) slice
        assert one.shape == ()
        assert errs[k] == one


@settings(max_examples=100, deadline=None)
@given(K=st.integers(1, 12), n=st.integers(1, 80), m=st.integers(1, 40), flat=st.booleans(),
       strided=st.booleans(), zeros=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_consensus_error_is_the_trailing_axis_formula(K, n, m, flat, strided, zeros, seed):
    # n >= m sums coordinate-major, n < m along the trailing axis: both give its bits
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(n, K, m)).swapaxes(0, 1) if strided else rng.normal(size=(K, n, m))
    stack *= 10.0 ** rng.integers(-8, 8, size=(K, 1, m))
    if zeros:
        stack[rng.random(stack.shape) < 0.5] = -0.0
    center = agent_mean(stack)
    if flat:
        stack, center = stack[0], center[0]
    got, want = consensus_error(stack, center), consensus_error_trailing(stack, center)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(K=st.integers(1, 12), n=st.integers(1, 130), m=st.integers(1, 12),
       zeros=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_agent_mean_is_mean_over_agents_bitwise(K, n, m, zeros, seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(K, n, m)) * 10.0 ** rng.integers(-12, 12, size=(K, n, m))
    if zeros:
        stack[rng.random(stack.shape) < 0.5] = -0.0
    got = agent_mean(stack)
    assert np.array_equal(got.view(np.uint64), stack.mean(axis=1).view(np.uint64))
