"""FTPL oracle tests: determinism, query algebra, expectation-level bounds.

A single oracle is an FtplOracle bank with one row: ``query()`` returns a
(1, m) array and ``feedback`` takes a (1, m) array.
"""

import numpy as np
import pytest

from delayfw.geometry import ConstraintSet
from _fixtures import feedback_spy
from _reference import ftpl_query_expected
from delayfw.oracle import FtplOracle

L1 = ConstraintSet("l1_ball", 1.0, 2)


def make_oracle(noise, cset=L1, zeta=1.0):
    o = FtplOracle(cset, zeta, seed=0)
    o.noise = np.asarray([noise], dtype=np.float64)
    return o


def test_new_oracle_state(monkeypatch):
    absorbed = feedback_spy(monkeypatch)
    o = FtplOracle(ConstraintSet("l1_ball", 1.0, 2), 0.5, seed=7)
    np.testing.assert_array_equal(o.accum, [[0.0, 0.0]])
    assert absorbed == []  # construction feeds nothing
    assert np.all((o.noise >= 0.0) & (o.noise <= 1.0))


def test_equal_seed_equal_noise():
    a = FtplOracle(L1, 0.5, seed=123)
    b = FtplOracle(L1, 0.5, seed=123)
    np.testing.assert_array_equal(a.noise, b.noise)
    c = FtplOracle(L1, 0.5, seed=124)
    assert not np.array_equal(a.noise, c.noise)


def test_noise_is_uniform_mean_check():
    # 1e5 independently seeded rows; per-coordinate mean of a
    # Uniform[0,1] sample of this size lies in [0.49, 0.51] (11 sigma).
    bank = FtplOracle(L1, 1.0, seed=list(range(100_000)))
    assert bank.noise.shape == (100_000, 2)
    mean = bank.noise.sum(axis=0) / 100_000
    assert np.all(mean >= 0.49) and np.all(mean <= 0.51)


def test_zeta_validation():
    with pytest.raises(ValueError):
        FtplOracle(L1, 0.0, seed=0)
    with pytest.raises(ValueError):
        FtplOracle(L1, -1.0, seed=0)


def test_query_empty_history_is_lmo_of_noise():
    o = make_oracle([0.2, 0.5])
    np.testing.assert_array_equal(o.query(), [[0.0, -1.0]])


def test_query_after_feedback():
    o = make_oracle([0.2, 0.5])
    o.feedback([[10.0, 0.0]])
    np.testing.assert_array_equal(o.query(), [[-1.0, 0.0]])


def test_query_matches_lmo_of_perturbed_sum():
    rng = np.random.default_rng(5)
    cset = ConstraintSet("l1_ball", 1.5, 4)
    for trial in range(500):
        o = FtplOracle(cset, 0.3, seed=trial)
        for _ in range(int(rng.integers(0, 6))):
            o.feedback(rng.normal(size=(1, 4)))
        np.testing.assert_array_equal(o.query()[0], cset.lmo(0.3 * o.accum[0] + o.noise[0]))


def test_query_pure_between_feedbacks():
    o = FtplOracle(L1, 1.0, seed=3)
    o.feedback([[0.4, -0.2]])
    q1 = o.query()
    q2 = o.query()
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(o.accum, [[0.4, -0.2]])


def test_feedback_accumulates(monkeypatch):
    absorbed = feedback_spy(monkeypatch)
    o = make_oracle([0.0, 0.0])
    o.feedback([[1.0, 1.0]])
    o.feedback([[2.0, -1.0]])
    np.testing.assert_array_equal(o.accum, [[3.0, 0.0]])
    assert absorbed == [o, o]


def test_zero_feedback_leaves_query_unchanged():
    o = FtplOracle(L1, 1.0, seed=11)
    before = o.query()
    o.feedback([[0.0, 0.0]])
    np.testing.assert_array_equal(o.query(), before)


def test_feedback_order_independent():
    a, b = np.array([[0.3, -0.7]]), np.array([[1.1, 0.2]])
    o1, o2 = make_oracle([0.0, 0.0]), make_oracle([0.0, 0.0])
    o1.feedback(a)
    o1.feedback(b)
    o2.feedback(b)
    o2.feedback(a)
    np.testing.assert_array_equal(o1.accum, o2.accum)


def test_feedback_validation():
    o = FtplOracle(L1, 1.0, seed=0)
    with pytest.raises(ValueError):
        o.feedback([[1.0]])
    with pytest.raises(ValueError):
        o.feedback([1.0, 0.0])  # one row must still be (1, m)
    with pytest.raises(ValueError):
        o.feedback([[np.inf, 0.0]])


def test_bank_rows_are_independent_oracles():
    bank = FtplOracle(L1, 0.5, seed=[3, 4, 5])
    for r, s in enumerate([3, 4, 5]):
        np.testing.assert_array_equal(bank.noise[r], FtplOracle(L1, 0.5, seed=s).noise[0])
    bank.feedback([[1.0, -2.0], [0.0, 0.0], [0.5, 0.5]])
    np.testing.assert_array_equal(bank.accum, [[1.0, -2.0], [0.0, 0.0], [0.5, 0.5]])
    bank.feedback(np.ones((3, 2)))
    np.testing.assert_array_equal(bank.query()[1], L1.lmo(0.5 * np.ones(2) + bank.noise[1]))


def test_bank_validation():
    with pytest.raises(ValueError):
        FtplOracle(L1, 0.5, seed=[])
    bank = FtplOracle(L1, 0.5, seed=[1, 2])
    with pytest.raises(ValueError):
        bank.feedback(np.ones((1, 2)))  # two rows, one gradient


def test_determinism_bitwise():
    seq = [np.array([[0.1, -0.4]]), np.array([[-2.0, 0.3]]), np.array([[0.0, 1.0]])]
    runs = []
    for _ in range(2):
        o = FtplOracle(L1, 0.7, seed=99)
        qs = [o.query()]
        for g in seq:
            o.feedback(g)
            qs.append(o.query())
        runs.append(np.array(qs))
    np.testing.assert_array_equal(runs[0], runs[1])


# -- expected (noise-averaged) predictions ----------------------------------


def test_expected_forced_vertex():
    cset = ConstraintSet("l1_ball", 1.0, 3)
    est = ftpl_query_expected(cset, 1.0, [-1e6, 0.0, 0.0], samples=500, seed=0)
    np.testing.assert_array_equal(est, [1.0, 0.0, 0.0])


def test_expected_one_dim():
    cset = ConstraintSet("l1_ball", 1.0, 1)
    est = ftpl_query_expected(cset, 1.0, [0.0], samples=2000, seed=1)
    np.testing.assert_array_equal(est, [-1.0])


def test_expected_matches_quadrature():
    # accum=(0.5, 0), zeta=1: perturbed argument ((0.5+n1), n2) is positive
    # in both coordinates, so the output is -e_{argmax}; midpoint quadrature
    # over [0,1]^2 gives the exact expectation up to grid resolution.
    cset = ConstraintSet("l1_ball", 1.0, 2)
    ticks = (np.arange(400) + 0.5) / 400.0
    n1, n2 = np.meshgrid(ticks, ticks, indexing="ij")
    grid = np.column_stack([0.5 + n1.ravel(), n2.ravel()])
    exact = cset.lmo_batch(grid).mean(axis=0)
    est = ftpl_query_expected(cset, 1.0, [0.5, 0.0], samples=100_000, seed=2)
    np.testing.assert_allclose(est, exact, atol=0.01)
    # the region n2 > n1 + 0.5 (probability 1/8) selects coordinate 1
    np.testing.assert_allclose(exact, [-0.875, -0.125], atol=0.005)


def test_expected_deterministic_and_validated():
    a = ftpl_query_expected(L1, 0.5, [0.1, 0.2], samples=1000, seed=42)
    b = ftpl_query_expected(L1, 0.5, [0.1, 0.2], samples=1000, seed=42)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        ftpl_query_expected(L1, 0.5, [0.1, 0.2], samples=0, seed=42)
    with pytest.raises(ValueError):
        ftpl_query_expected(L1, 0.5, [0.1], samples=10, seed=42)


def test_delay_perturbation_bound_small():
    # Removing |S| feedback vectors moves the expected prediction by at most
    # zeta*D*G*|S|, up to Monte-Carlo error (paired noise draws; SE bounded
    # by 2r*sqrt(m/samples) since per-sample differences lie in [-2r, 2r]).
    rng = np.random.default_rng(7)
    cset = ConstraintSet("l1_ball", 1.0, 3)
    zeta, G, samples = 0.1, 1.0, 20_000
    D = cset.diameter()
    mc = 3.0 * 2.0 * cset.radius * np.sqrt(cset.dim / samples)
    for trial in range(20):
        t = int(rng.integers(5, 15))
        hist = rng.normal(size=(t, 3))
        hist *= (G * rng.uniform(0.2, 1.0, size=(t, 1))) / np.linalg.norm(hist, axis=1, keepdims=True)
        ns = int(rng.integers(1, t + 1))
        sub = rng.choice(t, size=ns, replace=False)
        keep = np.setdiff1d(np.arange(t), sub)
        full = ftpl_query_expected(cset, zeta, hist.sum(axis=0), samples, seed=trial)
        without = ftpl_query_expected(cset, zeta, hist[keep].sum(axis=0), samples, seed=trial)
        assert np.linalg.norm(full - without) <= zeta * D * G * ns + mc


def test_ftpl_regret_bound_small():
    # Expected-prediction regret on random bounded linear losses stays under
    # zeta*D*G^2*T + sqrt(m)*D/zeta.
    cset = ConstraintSet("l1_ball", 1.0, 4)
    G, T, m = 1.0, 100, 4
    D = cset.diameter()
    zeta = 1.0 / (G * np.sqrt(T))
    bound = zeta * D * G**2 * T + np.sqrt(m) * D / zeta
    for inst in range(5):
        rng = np.random.default_rng(1000 + inst)
        gs = rng.normal(size=(T, m))
        gs *= (G * rng.uniform(0.3, 1.0, size=(T, 1))) / np.linalg.norm(gs, axis=1, keepdims=True)
        accum = np.zeros(m)
        loss = 0.0
        for t in range(T):
            v = ftpl_query_expected(cset, zeta, accum, samples=2000, seed=inst * T + t)
            loss += float(gs[t] @ v)
            accum += gs[t]
        best = float(accum @ cset.lmo(accum))
        assert loss - best <= bound
