"""Delay schedules and the feedback-release buffer.

A schedule assigns each round ``t`` (1-based) a delay ``d_t >= 1``; the
feedback generated at round t becomes available at round ``t + d_t - 1``,
so ``d_t = 1`` means same-round (undelayed) release.  The buffer groups
pushed origin rounds by release round and hands back the release sets

    F_t = {s : s + d_s - 1 = t}

sorted by origin.  Feedback is summed by every consumer, so the sort is a
determinism normalization with no algorithmic effect.  Items whose release
round exceeds the horizon are simply never queried and drop out; the total
delay B = sum(d_t) still counts them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

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
        if self.dmax < 1:
            raise ValueError(f"dmax must be >= 1, got {self.dmax}")
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

    def outstanding_count(self, t: int) -> int:
        """Number of rounds s <= t whose feedback is still unreleased after round t."""
        if not 1 <= t <= self.T:
            raise ValueError(f"round {t} outside 1..{self.T}")
        s = np.arange(1, t + 1)
        return int(np.count_nonzero(s + self.d[:t] - 1 > t))


def schedule_from_csv(path, dmax: int | None = None) -> DelaySchedule:
    """Load a user-supplied (possibly adversarial) schedule from CSV.

    The file holds one integer per row under a ``d`` header.  When dmax is
    omitted it is taken as the largest delay present.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["d"]:
        raise ValueError(f"{path}: expected a single-column CSV with header 'd'")
    try:
        d = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    except (ValueError, IndexError) as e:
        raise ValueError(f"{path}: malformed delay row ({e})") from None
    if d.size == 0:
        raise ValueError(f"{path}: no delay rows")
    return DelaySchedule(d, int(d.max()) if dmax is None else dmax)


def gen_delays(T: int, dmax: int, seed) -> DelaySchedule:
    """Draw d_t i.i.d. uniform on {1..dmax} from the seeded generator."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    rng = np.random.default_rng(seed)
    return DelaySchedule(rng.integers(1, dmax + 1, size=T), dmax)


@dataclass
class FeedbackBuffer:
    """Holds pushed feedback origins until their release round.

    Owned by a single consumer; release rounds must be queried in strictly
    increasing order, each at most once.
    """

    _pending: dict = field(default_factory=dict)
    _seen: set = field(default_factory=set)
    _last_query: int = 0

    def push(self, origin: int, d: int) -> None:
        if origin < 1 or d < 1:
            raise ValueError(f"origin and delay must be >= 1, got ({origin}, {d})")
        if origin in self._seen:
            raise ValueError(f"origin {origin} already pushed")
        self._seen.add(origin)
        self._pending.setdefault(origin + d - 1, []).append(origin)

    def release(self, t: int) -> list:
        """Return sorted F_t; empty when nothing matures this round."""
        if t <= self._last_query:
            raise ValueError(f"release({t}) after release({self._last_query}); rounds must increase")
        self._last_query = t
        return sorted(self._pending.pop(t, []))
