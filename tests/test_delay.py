"""Delay schedule and release-table tests against hand simulations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import write_schedule_csv
from delayfw.delay import DelaySchedule, FeedbackBuffer, gen_delays, schedule_from_csv


def test_gen_no_delay():
    s = gen_delays(10, 1, seed=0)
    np.testing.assert_array_equal(s.d, np.ones(10, dtype=np.int64))
    assert s.B == 10
    assert s.dmax == 1


def test_gen_uniform_mean():
    s = gen_delays(100_000, 21, seed=3)
    assert 10.8 <= s.d.mean() <= 11.2
    assert s.d.min() >= 1 and s.d.max() <= 21


def test_gen_deterministic():
    a = gen_delays(500, 7, seed=42)
    b = gen_delays(500, 7, seed=42)
    np.testing.assert_array_equal(a.d, b.d)
    assert not np.array_equal(a.d, gen_delays(500, 7, seed=43).d)


def test_gen_validation():
    with pytest.raises(ValueError):
        gen_delays(0, 1, seed=0)
    with pytest.raises(ValueError):
        gen_delays(5, 0, seed=0)
    with pytest.raises(ValueError):
        DelaySchedule(np.array([1, 5]), dmax=4)
    with pytest.raises(ValueError):
        DelaySchedule(np.array([0, 1]), dmax=4)


def table_of(*delays):
    """The release table of one delay row per agent."""
    buf = FeedbackBuffer()
    buf.push(np.array(delays))
    return buf


def released(buf, t):
    return [tuple(row) for row in buf.release(t).tolist()]


def test_release_fixed_schedule():
    # d=(1,3,1,2): F_1={1}, F_2={}, F_3={3}, F_4={2}; F_5={4} lies past T = 4
    s = DelaySchedule(np.array([1, 3, 1, 2]), dmax=3)
    assert s.B == 7
    buf = table_of(s.d)
    got = {t: [o for _, o in released(buf, t)] for t in range(1, s.T + 1)}
    assert got == {1: [1], 2: [], 3: [3], 4: [2]}
    assert buf.release(2).shape == (0, 2)
    with pytest.raises(ValueError):
        buf.release(5)


def test_push_release_rounds():
    # d=(1,3,1,1): round 2's feedback waits until round 4, behind round 4's own
    buf = table_of([1, 3, 1, 1])
    assert [released(buf, t) for t in range(1, 5)] == [[(0, 1)], [], [(0, 3)], [(0, 2), (0, 4)]]


def test_release_rows_are_agent_then_origin():
    buf = table_of([3, 2, 1], [1, 2, 1], [2, 1, 1])
    assert released(buf, 1) == [(1, 1)]
    assert released(buf, 2) == [(2, 1), (2, 2)]
    assert released(buf, 3) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_no_delay_releases_self():
    s = gen_delays(50, 1, seed=1)
    buf = table_of(s.d)
    for t in range(1, 51):
        assert released(buf, t) == [(0, t)]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), T=st.integers(1, 40), dmax=st.integers(1, 50), data=st.data())
def test_release_matches_hand_simulation_random(n, T, dmax, data):
    d = np.array(data.draw(st.lists(st.lists(st.integers(1, dmax), min_size=T, max_size=T),
                                    min_size=n, max_size=n)))
    buf = table_of(*d)
    seen = []
    for t in range(1, T + 1):
        want = [(i, s) for i in range(n) for s in range(1, T + 1) if s + d[i, s - 1] - 1 == t]
        assert released(buf, t) == want
        seen += want
    due_by_T = [(i, s) for i in range(n) for s in range(1, T + 1) if s + d[i, s - 1] - 1 <= T]
    assert sorted(seen) == due_by_T  # every pair due by T exactly once, none due after


def test_conservation():
    # Every origin is released exactly once by T, or is still outstanding at T.
    for seed in range(10):
        s = gen_delays(100, 13, seed=seed)
        buf = table_of(s.d)
        seen = [o for t in range(1, s.T + 1) for _, o in released(buf, t)]
        outstanding = [o for o in range(1, s.T + 1) if o + s.delay(o) - 1 > s.T]
        assert len(seen) == len(set(seen))
        assert sorted(seen + outstanding) == list(range(1, 101))


def test_buffer_errors():
    buf = FeedbackBuffer()
    with pytest.raises(ValueError):
        buf.release(1)  # nothing pushed
    buf.push([[1, 2]])
    with pytest.raises(ValueError):
        buf.release(0)
    with pytest.raises(ValueError):
        buf.release(3)
    with pytest.raises(ValueError):
        buf.release(1)[0, 0] = 5  # the table is read-only


def test_outstanding_sum_identity():
    # sum_t #{s<=t: s+d_s-1 > t} = sum_s (d_s - 1) <= B - T when counted
    # over an unbounded horizon; within 1..T the sum is at most that.
    for seed in range(20):
        s = gen_delays(35, 8, seed=seed)
        unbounded = sum(
            sum(1 for u in range(1, min(t, s.T) + 1) if u + s.delay(u) - 1 > t)
            for t in range(1, s.T + s.dmax + 1)
        )
        assert unbounded == sum(s.delay(u) - 1 for u in range(1, s.T + 1))
        buf = table_of(s.d)
        done = np.cumsum([len(buf.release(t)) for t in range(1, s.T + 1)])
        within = int(np.sum(np.arange(1, s.T + 1) - done))  # played but unreleased after t
        assert within <= unbounded <= s.B - s.T


def test_csv_round_trip(tmp_path):
    s = gen_delays(25, 6, seed=9)
    p = tmp_path / "sched.csv"
    write_schedule_csv(p, s.d)
    back = schedule_from_csv(p, dmax=6)
    np.testing.assert_array_equal(back.d, s.d)
    assert back.dmax == 6
    inferred = schedule_from_csv(p)
    assert inferred.dmax == int(s.d.max())


def test_csv_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("delays\n1\n2\n")
    with pytest.raises(ValueError):
        schedule_from_csv(p)
    p.write_text("d\n1\nx\n")
    with pytest.raises(ValueError):
        schedule_from_csv(p)
    p.write_text("d\n")
    with pytest.raises(ValueError):
        schedule_from_csv(p)
