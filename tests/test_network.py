"""Topology and gossip-matrix tests with hand-computed spectral fixtures."""

import math
import warnings

import numpy as np
import pytest

from delayfw.network import (
    A_CAP,
    GossipMatrix,
    Topology,
    algorithm_constants,
    grid_shape,
    k0_of,
    lambda2,
    metropolis_weights,
    topology,
)

RNG = np.random.default_rng(77)


def path3():
    return Topology("grid", 3, ((0, 1), (1, 2)))


def test_metropolis_path3():
    # degrees (1,2,1): off-diagonals 1/3, diagonals (2/3, 1/3, 2/3)
    g = metropolis_weights(path3())
    want = np.array([[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]])
    np.testing.assert_allclose(g.w, want, atol=1e-15)
    np.testing.assert_allclose(g.w.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(g.w.sum(axis=1), 1.0, atol=1e-12)


def test_metropolis_cycle3_and_complete2():
    g = metropolis_weights(topology("cycle", 3))
    np.testing.assert_allclose(g.w, np.full((3, 3), 1 / 3), atol=1e-15)
    g2 = metropolis_weights(topology("complete", 2))
    np.testing.assert_allclose(g2.w, np.full((2, 2), 0.5), atol=1e-15)


def test_lambda2_fixtures():
    # path: eigenvalues {1, 2/3, 0}; cycle3 is the rank-1 averaging matrix
    g = metropolis_weights(path3())
    assert g.lambda2 == pytest.approx(2 / 3, abs=1e-10)
    assert g.lambda_abs == pytest.approx(2 / 3, abs=1e-10)
    assert metropolis_weights(topology("cycle", 3)).lambda2 == pytest.approx(0.0, abs=1e-10)
    assert metropolis_weights(topology("complete", 2)).lambda2 == pytest.approx(0.0, abs=1e-10)


def test_lambda2_validation():
    with pytest.raises(ValueError):
        lambda2(np.array([[0.5, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        lambda2(np.array([[0.5, 0.4], [0.4, 0.5]]))


def test_k0():
    assert k0_of(0.0) == 1
    assert k0_of(0.25) == 1
    assert k0_of(2 / 3) == 5  # (4/5)^2 = 0.64 < 2/3 <= (5/6)^2
    assert k0_of(0.26) == 2
    with pytest.raises(ValueError):
        k0_of(1.0)
    with pytest.raises(ValueError):
        k0_of(-0.1)


def test_k0_matches_direct_scan():
    for lam in RNG.uniform(0.0, 0.999, size=200):
        k = k0_of(lam)
        assert lam <= (k / (k + 1)) ** 2
        assert k == 1 or lam > ((k - 1) / k) ** 2


@pytest.mark.parametrize("kind", ["complete", "cycle", "grid"])
def test_metropolis_weights_small_graphs(kind):
    # lambda2 >= 0 exactly; the all-1/n complete-graph matrix has lambda2 = 0,
    # which eigvalsh returns as about -4e-17 for n = 5 and n = 11
    for n in range(1, 17):
        g = metropolis_weights(topology(kind, n))
        assert 0.0 <= g.lambda2 < 1.0
        assert g.k0 == k0_of(g.lambda2)
        if kind == "complete":
            assert g.k0 == 1


@pytest.mark.parametrize("kind", ["complete", "cycle", "grid", "erdos_renyi"])
@pytest.mark.parametrize("n", [4, 9, 16, 30, 64])
def test_doubly_stochastic_all_topologies(kind, n):
    g = metropolis_weights(topology(kind, n, p=0.3, seed=5))
    ones = np.ones(n)
    np.testing.assert_allclose(g.w @ ones, ones, atol=1e-12)
    np.testing.assert_allclose(ones @ g.w, ones, atol=1e-12)
    assert np.all(g.w >= 0.0)
    np.testing.assert_allclose(g.w, g.w.T, atol=1e-15)
    assert 0.0 <= g.lambda2 < 1.0


def test_weights_respect_edges():
    topo = topology("cycle", 6)
    g = metropolis_weights(topo)
    edges = {frozenset(e) for e in topo.edges}
    for i in range(6):
        for j in range(i + 1, 6):
            if frozenset((i, j)) not in edges:
                assert g.w[i, j] == 0.0


def test_mix_path3_example():
    g = metropolis_weights(path3())
    np.testing.assert_allclose(g.mix(np.array([1.0, 2.0, 3.0])), [4 / 3, 2.0, 8 / 3], atol=1e-15)


def test_mix_preserves_mean_and_contracts():
    for kind in ["complete", "cycle", "grid", "erdos_renyi"]:
        g = metropolis_weights(topology(kind, 9, p=0.4, seed=1))
        for _ in range(250):
            x = RNG.normal(size=(9, 3))
            y = g.mix(x)
            np.testing.assert_allclose(y.mean(axis=0), x.mean(axis=0), atol=1e-12)
            xbar = np.tile(x.mean(axis=0), (9, 1))
            assert np.linalg.norm(y - xbar) <= g.lambda_abs * np.linalg.norm(x - xbar) + 1e-10


def test_grid_shape():
    assert grid_shape(12) == (3, 4)
    assert grid_shape(16) == (4, 4)
    assert grid_shape(7) == (1, 7)
    assert grid_shape(30) == (5, 6)


def test_grid_edges():
    topo = topology("grid", 6)  # 2 x 3 lattice
    edges = {frozenset(e) for e in topo.edges}
    want = {
        frozenset(e)
        for e in [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    }
    assert edges == want


def test_erdos_renyi_connected_and_deterministic():
    a = topology("erdos_renyi", 12, p=0.2, seed=3)
    b = topology("erdos_renyi", 12, p=0.2, seed=3)
    assert a.edges == b.edges
    assert a.attempts == b.attempts >= 1
    # sparse draw on a larger graph usually needs reseeding; just check validity
    c = topology("erdos_renyi", 24, p=0.09, seed=0)
    assert c.attempts >= 1
    metropolis_weights(c)  # connected by construction


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology("cycle", 3, ((0, 0),))
    with pytest.raises(ValueError):
        Topology("cycle", 3, ((0, 1),))  # node 2 unreachable
    with pytest.raises(ValueError):
        Topology("ring", 3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        topology("erdos_renyi", 5, p=0.0)


# -- algorithm constants -----------------------------------------------------


def trivial_gossip():
    return GossipMatrix(np.array([[1.0]]), np.array([0]), 0.0, 0.0, 1.0, 1)


def test_constants_cd_values():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert algorithm_constants(trivial_gossip(), 1, 2.0, 1.0, 1.0).c_d == pytest.approx(2.0)
        g = metropolis_weights(path3())
        assert algorithm_constants(g, 3, 2.0, 1.0, 1.0).c_d == pytest.approx(
            5 * math.sqrt(3) * 2, abs=1e-9
        )


def test_constants_fixed_point_hand_recurrence():
    # G = beta = D = 1 on the 3-path (lambda=2/3, k0=5, rho=1/3):
    #   C_d = 5*sqrt(3); Cg(a) = sqrt(3)*max(8/3, 5*(20*sqrt(3) + a))
    #   next(a) = max(3, 2*C_d + Cg(a))
    g = metropolis_weights(path3())
    with pytest.warns(RuntimeWarning):
        res = algorithm_constants(g, 3, 1.0, 1.0, 1.0)
    c_d = 5 * math.sqrt(3)
    assert res.c_d == pytest.approx(c_d, abs=1e-9)

    def cg(a):
        return math.sqrt(3) * max((2 / 3) * (1 + 3.0), 5 * (4 * c_d + a))

    a = 3.0
    for step in range(1, 4):
        a = max(3.0, 2 * c_d + cg(a))
        assert res.trace[step] == pytest.approx(a, rel=1e-12)
    assert res.trace[1] == pytest.approx(300 + 25 * math.sqrt(3), rel=1e-12)
    assert not res.converged
    assert res.a_dist == A_CAP


def test_constants_divergence_is_geometric_when_k0_branch_active():
    # slope of the recurrence is k0*sqrt(n) >= 1, so no interior fixed point
    g = metropolis_weights(path3())
    with pytest.warns(RuntimeWarning):
        res = algorithm_constants(g, 3, 1.0, 1.0, 1.0)
    ratios = np.diff(res.trace[2:8]) / np.diff(res.trace[1:7])
    np.testing.assert_allclose(ratios, 5 * math.sqrt(3), rtol=1e-9)


def test_constants_validation():
    with pytest.raises(ValueError):
        algorithm_constants(trivial_gossip(), 1, 0.0, 1.0, 1.0)
