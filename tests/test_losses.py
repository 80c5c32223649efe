"""Loss-stream tests: values/gradients vs finite differences and hand fixtures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from _reference import softmax_grad, softmax_value

from delayfw.geometry import ConstraintSet
from delayfw.losses import (
    LossStream,
    QuadraticLoss,
    SoftmaxLoss,
    _class_sum,
    csv_ingest,
    estimate_constants,
    synth_quadratic_stream,
    synth_stream,
)


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient oracle."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
    return g


# -- values ------------------------------------------------------------------


def test_quadratic_value_and_grad():
    f = QuadraticLoss([1.0, -2.0])
    assert f.value([1.0, -2.0]) == 0.0
    np.testing.assert_array_equal(f.grad([1.0, -2.0]), [0.0, 0.0])
    assert f.value([2.0, 0.0]) == pytest.approx(0.5 * (1.0 + 4.0))
    np.testing.assert_array_equal(f.grad([2.0, 0.0]), [1.0, 2.0])


def test_softmax_uniform_at_zero():
    f = SoftmaxLoss([[1.0, 0.0]], [0], n_classes=2)
    assert f.value(np.zeros(4)) == pytest.approx(math.log(2.0))
    np.testing.assert_allclose(f.grad(np.zeros(4)), [-0.5, 0.0, 0.5, 0.0], atol=1e-15)


def test_softmax_three_class_value():
    # blocks x_0=(1,0), x_1=x_2=0 on a=(1,0), y=0: logits (1,0,0)
    f = SoftmaxLoss([[1.0, 0.0]], [0], n_classes=3)
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    want = -math.log(math.e / (math.e + 2.0))
    assert f.value(x) == pytest.approx(want, abs=1e-12)
    assert f.value(x) == pytest.approx(0.551445, abs=1e-6)


def test_softmax_batch_is_sum_of_samples():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(5, 3))
    labs = rng.integers(0, 4, size=5)
    f = SoftmaxLoss(feats, labs, 4)
    x = rng.normal(size=12)
    parts = [SoftmaxLoss(feats[b : b + 1], labs[b : b + 1], 4) for b in range(5)]
    assert f.value(x) == pytest.approx(sum(p.value(x) for p in parts))
    np.testing.assert_allclose(f.grad(x), sum(p.grad(x) for p in parts), atol=1e-12)


def test_softmax_stable_under_large_logits():
    f = SoftmaxLoss([[1.0]], [0], n_classes=2)
    x = np.array([800.0, -800.0])
    assert f.value(x) == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(f.grad(x)))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def kernel_point(rng, kind, shape, p, C):
    """Points (shape..., p*C): normal, with tied class blocks, or all signed zeros."""
    if kind == "normal":
        return rng.normal(scale=3.0, size=shape + (p * C,))
    if kind == "ties":  # every class block one of two blocks: tied logits and tied maxima
        pair = rng.normal(scale=3.0, size=shape + (2, p))
        return pair[..., rng.integers(0, 2, size=C), :].reshape(shape + (p * C,))
    return np.copysign(0.0, rng.normal(size=shape + (p * C,)))


@settings(max_examples=120, deadline=None)
@given(C=st.one_of(st.integers(1, 20), st.integers(1, 300),
                   st.sampled_from([7, 8, 9, 127, 128, 129, 136, 144, 257, 300])),
       p=st.integers(1, 12), batch=st.integers(1, 8), r=st.integers(1, 4), K=st.integers(1, 4),
       kind=st.sampled_from(["normal", "ties", "zeros"]), seed=st.integers(0, 2**32 - 1))
def test_softmax_kernel_bitwise_equals_reference(C, p, batch, r, K, kind, seed):
    """The class-major kernel returns the trailing-axis formulas' bits on every call shape."""
    rng = np.random.default_rng(seed)
    stack = SoftmaxLoss(rng.normal(size=(r, batch, p)) * rng.integers(0, 2, size=(r, batch, 1)),
                        rng.integers(0, C, size=(r, batch)), C)
    single = stack[0]
    cases = [(single, kernel_point(rng, kind, (), p, C)),  # one loss at one point
             (single, kernel_point(rng, kind, (K,), p, C)),
             (stack[:, None], kernel_point(rng, kind, (r, K), p, C)),  # the engine's gathered call
             (stack, kernel_point(rng, kind, (r, 1), p, C))]  # average_value's agent slice
    for loss, x in cases:
        assert_same_bits(loss.value(x), softmax_value(loss, x))
        assert_same_bits(loss.grad(x), softmax_grad(loss, x))


def test_loss_validation():
    with pytest.raises(ValueError):
        SoftmaxLoss([[1.0, 0.0]], [2], n_classes=2)
    with pytest.raises(ValueError):
        SoftmaxLoss(np.zeros((0, 2)), [], n_classes=2)
    f = SoftmaxLoss([[1.0, 0.0]], [0], n_classes=2)
    with pytest.raises(ValueError):
        f.value(np.zeros(3))
    with pytest.raises(ValueError):
        QuadraticLoss([1.0]).grad([1.0, 2.0])


# -- gradients vs finite differences ----------------------------------------


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(25):
        theta = rng.normal(size=4)
        x = rng.normal(size=4)
        q = QuadraticLoss(theta)
        assert np.max(np.abs(q.grad(x) - fd_grad(q, x))) <= 1e-5
    for _ in range(25):
        feats = rng.normal(size=(3, 3))
        labs = rng.integers(0, 3, size=3)
        s = SoftmaxLoss(feats, labs, 3)
        x = rng.normal(size=9) * 0.5
        assert np.max(np.abs(s.grad(x) - fd_grad(s, x))) <= 1e-5


def test_convexity_and_smoothness_spot_checks():
    rng = np.random.default_rng(23)
    stream = synth_stream(seed=5, T=4, p=3, C=3, batch=2)
    cset = ConstraintSet("l1_ball", 2.0, stream.dim)
    G, beta = estimate_constants(stream, cset)
    losses = [stream.loss(0, t) for t in range(1, 5)] + [QuadraticLoss(rng.normal(size=stream.dim))]
    for _ in range(1000):
        f = losses[int(rng.integers(0, len(losses)))]
        x, y = rng.normal(size=stream.dim), rng.normal(size=stream.dim)
        lam = float(rng.uniform())
        mid = f.value(lam * x + (1.0 - lam) * y)
        assert mid <= lam * f.value(x) + (1.0 - lam) * f.value(y) + 1e-12
        if f.kind == "softmax_xent":
            assert np.linalg.norm(f.grad(x) - f.grad(y)) <= beta * np.linalg.norm(x - y) + 1e-12
        else:
            assert np.linalg.norm(f.grad(x) - f.grad(y)) <= 1.0 * np.linalg.norm(x - y) + 1e-12


# -- constants ---------------------------------------------------------------


def test_constants_quadratic_centered():
    stream = LossStream(QuadraticLoss(np.zeros((1, 3, 2))))
    cset = ConstraintSet("l1_ball", 1.0, 2)
    G, beta = estimate_constants(stream, cset)
    assert beta == 1.0
    assert G == pytest.approx(1.0)  # D/2 = 1, all theta at the center
    x = np.array([1.0, 0.0])
    assert np.linalg.norm(stream.loss(0, 1).grad(x)) <= G + 1e-12


def test_constants_softmax_unit_norm():
    a = np.array([[0.6, 0.8]])  # ||a|| = 1
    stream = LossStream(SoftmaxLoss([[a]], [[[0]]], 3))
    cset = ConstraintSet("l1_ball", 1.0, 6)
    G, beta = estimate_constants(stream, cset)
    assert G == pytest.approx(math.sqrt(2.0))
    assert beta == pytest.approx(1.0)
    rng = np.random.default_rng(31)
    f = stream.loss(0, 1)
    for _ in range(10_000):
        x = cset.project(rng.normal(size=6) * 3.0)
        assert np.linalg.norm(f.grad(x)) <= G + 1e-12


def test_constants_bound_gradients_on_synth_runs():
    stream = synth_stream(seed=11, T=20, p=4, C=3, batch=5)
    cset = ConstraintSet("l1_ball", 2.0, stream.dim)
    G, _ = estimate_constants(stream, cset)
    rng = np.random.default_rng(1)
    for t in range(1, 21):
        x = cset.project(rng.normal(size=stream.dim))
        assert np.linalg.norm(stream.loss(0, t).grad(x)) <= G + 1e-12


# -- streams -----------------------------------------------------------------


def test_synth_stream_deterministic_and_sized():
    a = synth_stream(seed=3, T=5, p=4, C=3, batch=6, n_agents=2)
    b = synth_stream(seed=3, T=5, p=4, C=3, batch=6, n_agents=2)
    assert a.n_agents == 2 and a.T == 5 and a.dim == 12
    for i in range(2):
        for t in range(1, 6):
            np.testing.assert_array_equal(a.loss(i, t).features, b.loss(i, t).features)
            np.testing.assert_array_equal(a.loss(i, t).labels, b.loss(i, t).labels)
    assert a.loss(0, 1).features.shape == (6, 4)


def test_synth_stream_total_samples_and_balance():
    stream = synth_stream(seed=7, T=500, p=3, C=4, batch=20)
    labs = np.concatenate([stream.loss(0, t).labels for t in range(1, 501)])
    assert labs.size == 10_000
    freqs = np.bincount(labs, minlength=4) / labs.size
    assert np.all(freqs >= 0.25 - 0.05) and np.all(freqs <= 0.25 + 0.05)


def test_synth_stream_unit_norm_features():
    stream = synth_stream(seed=2, T=3, p=5, C=2, batch=4)
    for t in range(1, 4):
        np.testing.assert_allclose(
            np.linalg.norm(stream.loss(0, t).features, axis=1), 1.0, atol=1e-12
        )


def test_quadratic_stream_and_aggregates():
    stream = synth_quadratic_stream(seed=9, T=6, dim=3, n_agents=2, scale=0.5)
    x = np.array([0.1, -0.2, 0.3])
    brute = sum(stream.average_value(x, t) for t in range(1, 7))
    assert stream.total_value(x) == pytest.approx(brute, rel=1e-12)
    brute_grad = sum(
        sum(stream.loss(i, t).grad(x) for i in range(2)) / 2.0 for t in range(1, 7)
    )
    np.testing.assert_allclose(stream.total_grad(x)[1], brute_grad, atol=1e-12)


def test_softmax_aggregates_match_brute_force():
    stream = synth_stream(seed=13, T=4, p=3, C=3, batch=2, n_agents=3)
    x = np.random.default_rng(0).normal(size=9) * 0.3
    brute = sum(stream.average_value(x, t) for t in range(1, 5))
    assert stream.total_value(x) == pytest.approx(brute, rel=1e-12)
    brute_grad = sum(
        sum(stream.loss(i, t).grad(x) for i in range(3)) / 3.0 for t in range(1, 5)
    )
    np.testing.assert_allclose(stream.total_grad(x)[1], brute_grad, atol=1e-10)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(C=st.one_of(st.sampled_from([7, 8, 9, 127, 128, 129]), st.integers(1, 300)),
       p=st.integers(1, 12), N=st.integers(1, 60),
       point=st.sampled_from(["normal", "tied", "zeros"]), zero_rows=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_value_grad_is_value_and_grad_bitwise(C, p, N, point, zero_rows, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(N, p))
    if zero_rows:
        features[rng.random(N) < 0.5] = 0.0
    loss = SoftmaxLoss(features, rng.integers(0, C, size=N), C)
    if point == "tied":  # every class block equal: all C logits of a sample tie
        x = np.tile(rng.normal(size=p), C)
    elif point == "zeros":  # signed zeros, some entries nonzero
        x = np.where(rng.random(p * C) < 0.5, -0.0, 0.0)
        x[rng.random(p * C) < 0.2] = rng.normal()
    else:
        x = rng.normal(scale=3.0, size=p * C)
    value, grad = loss.value_grad(x)
    assert same_bits(value, loss.value(x))
    assert same_bits(grad, loss.grad(x))


@settings(max_examples=200, deadline=None)
@given(C=st.one_of(st.integers(8, 15), st.sampled_from([1, 7, 16, 127, 128, 129, 300]),
                   st.integers(1, 300)),
       shape=st.sampled_from([(), (1,), (3,), (2, 5), (4, 1)]),
       zeros=st.floats(0.0, 1.0), negative_column=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_class_sum_is_the_trailing_axis_sum_bitwise(C, shape, zeros, negative_column, seed):
    # a contiguous trailing axis is what sum(axis=-1) adds pairwise
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(C,) + shape) * 10.0 ** rng.integers(-20, 20, size=(C,) + shape)
    rows[rng.random(rows.shape) < zeros] = 0.0
    rows[rng.random(rows.shape) < 0.5 * zeros] = -0.0
    if negative_column and rows.ndim > 1:
        rows[:, 0] = -0.0  # every term -0.0: the 0.0 identity makes the sum +0.0
    want = np.add.reduce(np.ascontiguousarray(np.moveaxis(rows, 0, -1)), axis=-1)
    assert same_bits(_class_sum(rows), want)


def test_value_grad_takes_one_point_on_one_batch():
    stack = synth_stream(seed=1, T=2, p=2, C=3, batch=4).losses  # (1, 2) stack
    with pytest.raises(ValueError, match="one point on a single"):
        stack.value_grad(np.zeros(6))
    with pytest.raises(ValueError, match="one point on a single"):
        stack[0, 0].value_grad(np.zeros((2, 6)))


@settings(max_examples=60, deadline=None)
@given(loss=st.sampled_from(["quadratic", "softmax"]), n=st.integers(1, 4), T=st.integers(1, 9),
       zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_total_grad_pair_matches_separate_evaluations(loss, n, T, zeros, seed):
    if loss == "quadratic":
        stream = synth_quadratic_stream(seed, T, 5, n_agents=n)
    else:
        stream = synth_stream(seed, T, p=2, C=3, batch=3, n_agents=n)
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(stream.dim) < 0.5, -0.0, 0.0) if zeros else rng.normal(size=stream.dim)
    value, grad = stream.total_grad(x)
    assert same_bits(value, _reference.total_value(stream, x))
    assert same_bits(grad, _reference.total_grad(stream, x))
    assert same_bits(stream.total_value(x), value)


def test_stream_validation():
    with pytest.raises(ValueError):
        LossStream(QuadraticLoss(np.zeros((1, 0, 2))))  # no rounds
    with pytest.raises(ValueError):
        LossStream(QuadraticLoss(np.zeros((0, 3, 2))))  # no agents
    with pytest.raises(ValueError):
        LossStream(QuadraticLoss(np.zeros((3, 2))))  # no agent axis


# -- CSV ingest ----------------------------------------------------------------


def write_csv(path, rows):
    path.write_text("label," + ",".join(f"f{i}" for i in range(1, len(rows[0]))) + "\n"
                    + "\n".join(",".join(str(v) for v in r) for r in rows) + "\n")


def test_csv_ingest_basic(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, [[0, 1.0, 0.0], [1, 0.0, 1.0], [0, 0.5, 0.5], [1, -1.0, 0.0]])
    stream = csv_ingest(p, batch=2, T=2, n_classes=2)
    assert stream.T == 2 and stream.n_agents == 1
    np.testing.assert_array_equal(stream.loss(0, 1).features, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(stream.loss(0, 2).features, [[0.5, 0.5], [-1.0, 0.0]])
    with open(p, "a") as fh:
        fh.write("\n")  # a trailing blank line is skipped
    again = csv_ingest(p, batch=2, T=2, n_classes=2)
    np.testing.assert_array_equal(again.losses.features, stream.losses.features)
    np.testing.assert_array_equal(again.losses.labels, stream.losses.labels)


def test_csv_ingest_wraps(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, [[0, 1.0, 0.0], [1, 0.0, 1.0], [0, 0.5, 0.5]])
    stream = csv_ingest(p, batch=2, T=2, n_classes=2)
    np.testing.assert_array_equal(stream.loss(0, 2).features, [[0.5, 0.5], [1.0, 0.0]])
    np.testing.assert_array_equal(stream.loss(0, 2).labels, [0, 0])


def test_csv_ingest_round_robin_agents(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, [[0, 1.0], [1, 2.0], [0, 3.0], [1, 4.0]])
    stream = csv_ingest(p, batch=1, T=2, n_agents=2, n_classes=2)
    assert stream.loss(0, 1).features[0, 0] == 1.0
    assert stream.loss(1, 1).features[0, 0] == 2.0
    assert stream.loss(0, 2).features[0, 0] == 3.0
    assert stream.loss(1, 2).features[0, 0] == 4.0


def test_csv_ingest_hand_computed_loss(tmp_path):
    # two samples, C=2, x=0: loss = 2*ln2 regardless of features
    p = tmp_path / "d.csv"
    write_csv(p, [[0, 0.3, -0.1], [1, 0.2, 0.9]])
    stream = csv_ingest(p, batch=2, T=1, n_classes=2)
    assert stream.loss(0, 1).value(np.zeros(4)) == pytest.approx(2.0 * math.log(2.0))


def test_csv_ingest_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f1\n0,1.0\n1\n")
    with pytest.raises(ValueError):
        csv_ingest(p, batch=1, T=1, n_classes=2)
    p.write_text("label,f1\n0,1.0\n\n1\n")  # a skipped blank line still counts as a line
    with pytest.raises(ValueError, match=":4: inconsistent width 1 != 2"):
        csv_ingest(p, batch=1, T=1, n_classes=2)
    p.write_text("label,f1\n0,abc\n")
    with pytest.raises(ValueError):
        csv_ingest(p, batch=1, T=1, n_classes=2)
    p.write_text("label,f1\n5,1.0\n")
    with pytest.raises(ValueError):
        csv_ingest(p, batch=1, T=1, n_classes=3)
    p.write_text("label,f1\n")
    with pytest.raises(ValueError):
        csv_ingest(p, batch=1, T=1, n_classes=2)
