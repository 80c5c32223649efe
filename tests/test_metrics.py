"""Metrics tests: comparator fixtures, regret arithmetic, trace CSV format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayfw.geometry import KINDS, ConstraintSet
from delayfw.losses import LossStream, QuadraticLoss, synth_quadratic_stream, synth_stream
from delayfw.metrics import (
    Comparator,
    RunTrace,
    attach_regret,
    compute_comparator,
    consensus_error,
    per_agent_global_losses,
    read_trace_csv,
    regret,
)

L1_2D = ConstraintSet("l1_ball", 1.0, 2)


def alternating_stream(T):
    a, b = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    return LossStream(QuadraticLoss([[a if t % 2 == 0 else b for t in range(T)]]))


def trace_for(decisions, stream):
    decisions = np.asarray(decisions, dtype=float)
    inst = np.array([stream.loss(0, t + 1).value(decisions[t]) for t in range(len(decisions))])
    return RunTrace(mode="delmfw", decisions=decisions, inst_loss=inst,
                    metadata={"mode": "delmfw", "seed": 0})


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
    trace = RunTrace(mode="de2mfw", decisions=decisions,
                     inst_loss=pal.max(axis=1), metadata={}, per_agent_loss=pal)
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
    trace = RunTrace(mode="delmfw", decisions=np.zeros((1, 2)),
                     inst_loss=np.array([1.0 / 3.0]), metadata={"mode": "delmfw"},
                     regret_prefix=np.array([2.0 / 3.0]))
    assert "0.333333333" in trace.csv_text()
    assert "0.666666667" in trace.csv_text()


def test_write_is_atomic_no_temp_left(tmp_path):
    trace = trace_for(np.zeros((2, 2)), alternating_stream(2))
    trace.regret_prefix = np.zeros(2)
    path = tmp_path / "out.csv"
    trace.write_csv(path)
    trace.write_csv(path)  # overwrite works
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# -- consensus -------------------------------------------------------------------


def test_consensus_error_identical_agents():
    assert consensus_error(np.tile([0.3, -0.2], (5, 1))) == 0.0


def test_consensus_error_path_fixture():
    y = np.array([4.0 / 3.0, 2.0, 8.0 / 3.0])
    assert consensus_error(y) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert consensus_error(y, center=np.array([2.0])) == pytest.approx(2.0 / 3.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 6), n=st.integers(1, 7), m=st.integers(1, 12), centered=st.booleans(),
       seed=st.integers(0, 2**31 - 1), strided=st.booleans())
def test_consensus_error_stack_equals_slice_calls(K, n, m, centered, seed, strided):
    rng = np.random.default_rng(seed)
    # strided: a step-major view of an agent-major array, as the engine hands out
    stack = rng.normal(size=(n, K, m)).swapaxes(0, 1) if strided else rng.normal(size=(K, n, m))
    center = rng.normal(size=(K, m)) if centered else None
    errs = consensus_error(stack, center)
    assert errs.shape == (K,)
    for k in range(K):
        one = consensus_error(stack[k], None if center is None else center[k])
        assert type(one) is float
        assert errs[k] == one
