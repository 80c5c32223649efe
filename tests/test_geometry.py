"""Constraint-set tests: closed-form LMOs against brute-force vertex search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _reference import l1_lmo_by_sign
from delayfw.geometry import ConstraintSet

RNG = np.random.default_rng(20260826)


def vertices(cs):
    """Enumerate all extreme points of a polytope set (not l2_ball)."""
    r, m = cs.radius, cs.dim
    if cs.kind == "l1_ball":
        vs = []
        for i in range(m):
            for s in (1.0, -1.0):
                v = np.zeros(m)
                v[i] = s * r
                vs.append(v)
        return np.array(vs)
    if cs.kind == "simplex":
        return r * np.eye(m)
    if cs.kind == "hypercube":
        corners = np.array(np.meshgrid(*([[-r, r]] * m))).T.reshape(-1, m)
        return corners
    raise ValueError(cs.kind)


# -- lmo -----------------------------------------------------------------


def test_lmo_l1_examples():
    cs = ConstraintSet("l1_ball", 2.0, 3)
    np.testing.assert_array_equal(cs.lmo([1.0, -3.0, 2.0]), [0.0, 2.0, 0.0])
    cs2 = ConstraintSet("l1_ball", 1.0, 2)
    np.testing.assert_array_equal(cs2.lmo([0.0, 0.0]), [1.0, 0.0])


def test_lmo_l1_matches_vertex_enumeration():
    cs = ConstraintSet("l1_ball", 2.0, 3)
    g = np.array([1.0, -3.0, 2.0])
    v = cs.lmo(g)
    vals = vertices(cs) @ g
    assert g @ v == pytest.approx(-6.0)
    assert g @ v == pytest.approx(vals.min())


def test_lmo_simplex_and_hypercube_closed_forms():
    sx = ConstraintSet("simplex", 2.0, 4)
    np.testing.assert_array_equal(sx.lmo([0.5, -1.0, 3.0, -1.0]), [0.0, 2.0, 0.0, 0.0])
    hc = ConstraintSet("hypercube", 1.5, 3)
    np.testing.assert_array_equal(hc.lmo([2.0, -0.1, 0.0]), [-1.5, 1.5, 1.5])
    np.testing.assert_array_equal(hc.lmo([0.0, 0.0, 0.0]), [1.5, 1.5, 1.5])


def test_lmo_l2_closed_form():
    cs = ConstraintSet("l2_ball", 2.0, 3)
    g = np.array([3.0, 0.0, 4.0])
    np.testing.assert_allclose(cs.lmo(g), [-1.2, 0.0, -1.6], atol=1e-15)
    np.testing.assert_array_equal(cs.lmo(np.zeros(3)), [2.0, 0.0, 0.0])


@pytest.mark.parametrize("kind,m", [("l1_ball", 5), ("simplex", 7), ("hypercube", 6)])
def test_lmo_beats_all_vertices(kind, m):
    cs = ConstraintSet(kind, 1.7, m)
    vs = vertices(cs)
    for _ in range(1000):
        g = RNG.normal(size=m)
        v = cs.lmo(g)
        assert g @ v <= (vs @ g).min() + 1e-12
        assert cs.contains(v, tol=1e-12)
        assert any(np.array_equal(v, w) for w in vs)


def test_lmo_l2_beats_random_feasible_points():
    cs = ConstraintSet("l2_ball", 1.7, 6)
    for _ in range(1000):
        g = RNG.normal(size=6)
        v = cs.lmo(g)
        q = cs.project(RNG.normal(size=6) * 2.0)
        assert g @ v <= g @ q + 1e-12
        assert cs.contains(v, tol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.7, abs=1e-12)


@pytest.mark.parametrize("kind", ["l1_ball", "l2_ball", "simplex", "hypercube"])
def test_lmo_scale_invariance(kind):
    cs = ConstraintSet(kind, 1.0, 4)
    for _ in range(50):
        g = RNG.normal(size=4)
        c = float(RNG.uniform(0.1, 10.0))
        np.testing.assert_allclose(cs.lmo(c * g), cs.lmo(g), atol=1e-12)


def test_lmo_batch_matches_scalar():
    for kind in ["l1_ball", "l2_ball", "simplex", "hypercube"]:
        cs = ConstraintSet(kind, 1.3, 5)
        z = RNG.normal(size=(40, 5))
        batch = cs.lmo_batch(z)
        for i in range(40):
            np.testing.assert_array_equal(batch[i], cs.lmo(z[i]))


def test_lmo_input_validation():
    cs = ConstraintSet("l1_ball", 1.0, 3)
    with pytest.raises(ValueError):
        cs.lmo([1.0, 2.0])
    with pytest.raises(ValueError):
        cs.lmo([1.0, np.nan, 0.0])


# -- diameter / contains ---------------------------------------------------


def test_diameter_values():
    assert ConstraintSet("l1_ball", 8.0, 7840).diameter() == 16.0
    assert ConstraintSet("l2_ball", 1.0, 9).diameter() == 2.0
    assert ConstraintSet("simplex", 1.0, 3).diameter() == pytest.approx(math.sqrt(2.0))
    assert ConstraintSet("hypercube", 2.0, 4).diameter() == pytest.approx(8.0)


def test_diameter_is_max_pairwise_vertex_distance():
    for kind in ["l1_ball", "simplex", "hypercube"]:
        cs = ConstraintSet(kind, 1.4, 5)
        vs = vertices(cs)
        d = max(np.linalg.norm(a - b) for a in vs for b in vs)
        assert cs.diameter() == pytest.approx(d)


def test_contains():
    l1 = ConstraintSet("l1_ball", 1.0, 2)
    assert l1.contains([0.5, -0.5], tol=0.0)
    assert not l1.contains([0.6, -0.5], tol=1e-9)
    sx = ConstraintSet("simplex", 1.0, 3)
    assert sx.contains([0.3, 0.3, 0.4], tol=1e-12)
    assert not sx.contains([0.3, 0.3, 0.3], tol=1e-12)
    assert ConstraintSet("l2_ball", 1.0, 2).contains([0.6, 0.8], tol=1e-12)
    assert ConstraintSet("hypercube", 1.0, 2).contains([1.0, -1.0], tol=0.0)


def test_centroid_is_feasible():
    for kind in ["l1_ball", "l2_ball", "simplex", "hypercube"]:
        cs = ConstraintSet(kind, 2.0, 4)
        assert cs.contains(cs.centroid(), tol=1e-12)


# -- project ---------------------------------------------------------------


def test_project_l1_examples():
    cs = ConstraintSet("l1_ball", 1.0, 2)
    np.testing.assert_array_equal(cs.project([0.2, -0.3]), [0.2, -0.3])
    np.testing.assert_allclose(cs.project([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(cs.project([1.0, 1.0]), [0.5, 0.5], atol=1e-15)


def test_project_l1_optimal_over_grid():
    # Euclidean projection of (1,1): no feasible grid point is closer.
    cs = ConstraintSet("l1_ball", 1.0, 2)
    x = np.array([1.0, 1.0])
    p = cs.project(x)
    ticks = np.linspace(-1.0, 1.0, 201)
    best = np.inf
    for a in ticks:
        for b in ticks:
            if abs(a) + abs(b) <= 1.0:
                best = min(best, math.hypot(x[0] - a, x[1] - b))
    assert np.linalg.norm(x - p) <= best + 1e-12


@pytest.mark.parametrize("kind", ["l1_ball", "l2_ball", "simplex", "hypercube"])
def test_project_idempotent_feasible_nonexpansive(kind):
    cs = ConstraintSet(kind, 1.5, 6)
    for _ in range(200):
        x = RNG.normal(size=6) * 3.0
        y = RNG.normal(size=6) * 3.0
        px, py = cs.project(x), cs.project(y)
        assert cs.contains(px, tol=1e-9)
        np.testing.assert_allclose(cs.project(px), px, atol=1e-12)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("kind", ["l1_ball", "simplex", "hypercube"])
def test_project_optimal_vs_random_feasible(kind):
    # P(x) must beat every sampled feasible point in Euclidean distance.
    cs = ConstraintSet(kind, 1.5, 4)
    for _ in range(100):
        x = RNG.normal(size=4) * 3.0
        px = cs.project(x)
        dx = np.linalg.norm(x - px)
        for _ in range(30):
            q = cs.project(RNG.normal(size=4) * 2.0)
            assert dx <= np.linalg.norm(x - q) + 1e-9


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConstraintSet("ball", 1.0, 2)
    with pytest.raises(ValueError):
        ConstraintSet("l1_ball", 0.0, 2)
    with pytest.raises(ValueError):
        ConstraintSet("l1_ball", 1.0, 0)


# signed zeros, and magnitudes that tie within a row
TIED_OR_ZERO = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


@settings(max_examples=150, deadline=None)
@given(z=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                elements=st.one_of(TIED_OR_ZERO, st.floats(-10.0, 10.0))),
       radius=st.sampled_from([0.5, 1.0, 3.0]))
@example(z=np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [-1.0, 1.0, 0.5],
                     [1.0, -1.0, -0.0], [-0.0, 0.0, -2.0], [2.0, -2.0, 2.0]]), radius=1.0)
def test_l1_lmo_batch_matches_the_sign_formula(z, radius):
    cs = ConstraintSet("l1_ball", radius, z.shape[1])
    got = cs.lmo_batch(z)
    assert got.tobytes() == l1_lmo_by_sign(z, radius).tobytes()
    zero = ~z.any(axis=1)  # rows of +0.0 and -0.0 only
    assert got[zero].tobytes() == np.tile(np.eye(z.shape[1])[0] * radius, (zero.sum(), 1)).tobytes()
