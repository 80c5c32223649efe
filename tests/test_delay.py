"""Delay schedule and release-buffer tests against hand simulations."""

import numpy as np
import pytest

from _fixtures import write_schedule_csv
from delayfw.delay import DelaySchedule, FeedbackBuffer, gen_delays, schedule_from_csv


def releases(schedule):
    """Hand simulation of the release rule: round -> sorted origins."""
    table = {}
    for t in range(1, schedule.T + 1):
        table.setdefault(t + schedule.delay(t) - 1, []).append(t)
    return {r: sorted(v) for r, v in table.items()}


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


def test_release_fixed_schedule():
    # d=(1,3,1,2): F_1={1}, F_2={}, F_3={3}, F_4={2}, F_5={4}; B=7
    s = DelaySchedule(np.array([1, 3, 1, 2]), dmax=3)
    assert s.B == 7
    buf = FeedbackBuffer()
    got = {}
    for t in range(1, s.T + 1):
        buf.push(t, s.delay(t))
        got[t] = buf.release(t)
    got[5] = buf.release(5)
    assert got == {1: [1], 2: [], 3: [3], 4: [2], 5: [4]}


def test_push_release_rounds():
    buf = FeedbackBuffer()
    buf.push(2, 3)
    buf.push(1, 1)
    assert buf.release(1) == [1]
    assert buf.release(2) == []
    assert buf.release(3) == []
    assert buf.release(4) == [2]


def test_no_delay_releases_self():
    s = gen_delays(50, 1, seed=1)
    buf = FeedbackBuffer()
    for t in range(1, 51):
        buf.push(t, s.delay(t))
        assert buf.release(t) == [t]


def test_release_matches_hand_simulation_random():
    for seed in range(30):
        s = gen_delays(60, 9, seed=seed)
        table = releases(s)
        buf = FeedbackBuffer()
        for t in range(1, s.T + s.dmax + 1):
            if t <= s.T:
                buf.push(t, s.delay(t))
            assert buf.release(t) == table.get(t, [])


def test_conservation():
    # Every origin is released exactly once within T + dmax rounds.
    for seed in range(10):
        s = gen_delays(100, 13, seed=seed)
        buf = FeedbackBuffer()
        seen = []
        for t in range(1, s.T + s.dmax + 1):
            if t <= s.T:
                buf.push(t, s.delay(t))
            seen.extend(buf.release(t))
        assert sorted(seen) == list(range(1, 101))


def test_buffer_errors():
    buf = FeedbackBuffer()
    buf.push(1, 2)
    with pytest.raises(ValueError):
        buf.push(1, 5)
    with pytest.raises(ValueError):
        buf.push(0, 1)
    buf.release(3)
    with pytest.raises(ValueError):
        buf.release(2)


def test_outstanding_count_examples():
    s = DelaySchedule(np.array([1, 3, 1, 2]), dmax=3)
    assert s.outstanding_count(2) == 1
    assert s.outstanding_count(1) == 0
    assert s.outstanding_count(3) == 1  # only round 2 is both played and unreleased
    s1 = gen_delays(20, 1, seed=0)
    assert all(s1.outstanding_count(t) == 0 for t in range(1, 21))


def test_outstanding_count_matches_definition():
    for seed in range(100):
        s = gen_delays(40, 11, seed=seed)
        for t in (1, 5, 17, 40):
            brute = sum(1 for u in range(1, t + 1) if u + s.delay(u) - 1 > t)
            assert s.outstanding_count(t) == brute
            assert s.outstanding_count(t) <= min(t, s.dmax - 1 + brute)


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
        within = sum(s.outstanding_count(t) for t in range(1, s.T + 1))
        assert within <= s.B


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
