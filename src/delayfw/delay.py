"""Delay schedules and the release table.

A schedule assigns each round ``t`` (1-based) a delay ``d_t >= 1``; the
feedback generated at round t becomes available at round ``t + d_t - 1``,
so ``d_t = 1`` means same-round (undelayed) release.  The release sets of
agent i,

    F^i_t = {s : s + d^i_s - 1 = t},

are fixed by the schedules, so a run tabulates them once.  A round's
(agent, origin) rows are rank-major: rank r holds the r-th release of
every agent that has one, agents ascending, so a sum over the ranks adds
each agent's feedback in origin order, which fixes the rounding (one
agent's rows are in origin order).  Feedback due after the horizon is
never released; the total delay B = sum(d_t) still counts it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DelaySchedule:
    """Per-round delays d_1..d_T with a declared upper bound dmax."""

    d: np.ndarray
    dmax: int

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.int64)
        object.__setattr__(self, "d", d)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("schedule must be a nonempty 1-D integer array")
        if d.min() < 1 or d.max() > self.dmax:
            raise ValueError(f"delays must lie in [1, {self.dmax}]")

    @property
    def T(self) -> int:
        return int(self.d.size)

    @property
    def B(self) -> int:
        """Total delay sum(d_t)."""
        return int(self.d.sum())

    def delay(self, t: int) -> int:
        """d_t for a 1-based round index."""
        if not 1 <= t <= self.T:
            raise ValueError(f"round {t} outside 1..{self.T}")
        return int(self.d[t - 1])


def schedule_from_csv(path) -> DelaySchedule:
    """Load a user-supplied (possibly adversarial) schedule from CSV.

    The file holds one integer per row under a ``d`` header; blank lines are
    skipped.  The schedule's dmax is the largest delay present.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows or rows[0] != ["d"]:
        raise ValueError(f"{path}: expected a single-column CSV with header 'd'")
    try:
        d = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    except (ValueError, IndexError) as e:
        raise ValueError(f"{path}: malformed delay row ({e})") from None
    if d.size == 0:
        raise ValueError(f"{path}: no delay rows")
    return DelaySchedule(d, int(d.max()))


def gen_delays(T: int, dmax: int, seed) -> DelaySchedule:
    """Draw d_t i.i.d. uniform on {1..dmax} from the seeded generator."""
    rng = np.random.default_rng(seed)
    return DelaySchedule(rng.integers(1, dmax + 1, size=T), dmax)


class FeedbackBuffer:
    """The run's release table: which (agent, origin) pairs mature at each round.

    ``push`` takes the whole (n, T) delay table once; ``release(t)`` is then
    a slice of precomputed rows and ``ranks(t)`` where its ranks end, and
    both may be asked in any order.
    """

    _ends = (0,)  # the rows of rounds 1..t end at _ends[t]; nothing before a push

    def push(self, d) -> None:
        """Tabulate F^i_t for every agent i and round t from the delays d^i_s."""
        d = np.asarray(d, dtype=np.int64)  # (n, T), every d^i_s >= 1 as DelaySchedule checks
        n, T = d.shape
        due = np.arange(T) + d  # s + d^i_s - 1
        order = np.argsort(due.ravel(), kind="stable")  # ties stay in (agent, origin) order
        ends = np.searchsorted(due.ravel()[order], np.arange(T + 1), side="right")
        order = order[:ends[-1]]  # the feedback due by T; what is due later never comes
        at, row = due.ravel()[order], np.arange(ends[-1])
        # round * T + rank of each row, its rank counted within its agent's rows of the round
        first = np.diff(at * n + order // T, prepend=-1) != 0
        rank = at * T + row - np.maximum.accumulate(np.where(first, row, 0))
        by_rank = np.argsort(rank, kind="stable")  # agents stay ascending within a rank
        order, rank = order[by_rank], rank[by_rank]
        self._rows = np.stack(np.divmod(order, T), axis=1) + [0, 1]
        self._rows.flags.writeable = False
        self._ends = ends.tolist()
        starts = np.flatnonzero(np.diff(rank, prepend=-1))  # each rank's first row
        # each rank's end within its round's rows; round t's ranks are [_first[t-1], _first[t])
        self._rank_ends = (np.append(starts[1:], len(order)) - ends[rank[starts] // T - 1]).tolist()
        self._first = np.searchsorted(starts, ends).tolist()
        self.sizes = np.diff(ends, prepend=0)  # sizes[t] = sum_i |F^i_t|, and sizes[0] = 0
        # block_end[p]: the first round after p that releases an origin s > p, or T; s comes
        # out at its earliest due round over agents, which is never before s
        self.block_end = np.minimum.accumulate(due.min(axis=0)[::-1])[::-1].clip(max=T).tolist()

    def release(self, t: int, last: int | None = None) -> np.ndarray:
        """F_t..F_last (last = t by default) as (agent, origin) rows by round, then rank-major."""
        last = t if last is None else last
        if not (1 <= t < len(self._ends) and t - 1 <= last < len(self._ends)):
            raise ValueError(f"rounds {t}..{last} outside 1..{len(self._ends) - 1}")
        return self._rows[self._ends[t - 1]:self._ends[last]]

    def ranks(self, t: int) -> list:
        """Where each rank of release(t) ends, in increasing order (empty when it is)."""
        return self._rank_ends[self._first[t - 1]:self._first[t]]
