"""Centralized delayed meta-Frank-Wolfe.

Each round runs K conditional-gradient steps driven by K independent FTPL
oracles:

    x_{t,1} = fixed feasible start
    for k = 1..K:  v_{t,k} = O_k.query();  x_{t,k+1} = (1-eta_k) x_{t,k} + eta_k v_{t,k}

and plays x_t = x_{t,K+1}.  The oracles do not depend on the iterate, so
the K vertices of a round come from one query of a K-row oracle bank.  The
loss of round t surfaces only at round t + d_t - 1; when a set F_t of origin
rounds matures, oracle k receives the surrogate gradient
g_{t,k} = sum_{s in F_t} grad f_s(x_{s,k}), which is why the sub-iterates of
every outstanding round are kept until release.  One gradient call per
released loss covers all K sub-iterates at once.

Default constants follow the sqrt(BT)-regret tuning: K = ceil(sqrt(T)),
eta_k = min(1, A/k) with A = max(3, G/(beta*D)), and zeta = 1/(G*sqrt(B)).
The simulator knows the schedule and can use the true total delay B; a
dmax*T substitute is available for runs that refuse that foresight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .delay import DelaySchedule, FeedbackBuffer
from .geometry import ConstraintSet
from .losses import LossStream
from .metrics import RunTrace
from .oracle import FtplOracle

X_INIT_POLICIES = ("zero_lmo", "previous")


@dataclass(frozen=True)
class AlgoParams:
    """Shared step/oracle constants for the meta-Frank-Wolfe algorithms."""

    T: int
    K: int
    A: float
    zeta: float
    B_est: float

    def __post_init__(self):
        if self.T < 1 or self.K < 1:
            raise ValueError(f"T and K must be >= 1, got T={self.T}, K={self.K}")
        if self.A < 3.0:
            raise ValueError(f"A must be >= 3, got {self.A}")
        if not (np.isfinite(self.zeta) and self.zeta > 0):
            raise ValueError(f"zeta must be positive, got {self.zeta}")

    def eta(self, k: int) -> float:
        """Step size min(1, A/k) for 1-based sub-iteration k."""
        return min(1.0, self.A / k)


def centralized_params(T: int, G: float, beta: float, D: float, B_est: float,
                       K: int | None = None, A: float | None = None,
                       zeta: float | None = None) -> AlgoParams:
    """Default single-agent tuning; any field can be overridden."""
    if min(G, beta, D, B_est) <= 0:
        raise ValueError("G, beta, D, B_est must all be positive")
    if K is None:
        K = math.ceil(math.sqrt(T))
    if A is None:
        A = max(3.0, G / (beta * D))
    if zeta is None:
        zeta = 1.0 / (G * math.sqrt(B_est))
    return AlgoParams(T=T, K=K, A=A, zeta=zeta, B_est=B_est)


def sum_gradients(losses, points) -> np.ndarray:
    """sum_s grad f_s(points[s]) in list order, seeded by the first term.

    Each point may be a (..., m) stack; the sum is then taken row by row.
    """
    g = losses[0].grad(points[0]).copy()
    for f, x in zip(losses[1:], points[1:]):
        g += f.grad(x)
    return g


class DelmfwState:
    """Round-driven state: K-row oracle bank, release buffer, outstanding sub-iterates."""

    def __init__(self, cset: ConstraintSet, params: AlgoParams, seed,
                 x_init_policy: str = "zero_lmo", agent: int = 0):
        if x_init_policy not in X_INIT_POLICIES:
            raise ValueError(f"unknown x_init_policy {x_init_policy!r}")
        self.cset = cset
        self.params = params
        self.x_init_policy = x_init_policy
        # row k-1 is oracle k
        self.bank = FtplOracle(cset, params.zeta, [
            seeding.oracle_rng(seed, agent, k) for k in range(1, params.K + 1)
        ])
        self.buffer = FeedbackBuffer()
        self.history = {}  # origin round -> (K, m) sub-iterates x_{t,1..K}
        self._start = cset.lmo(np.zeros(cset.dim))
        self._x_prev = self._start
        self._predicted = 0

    def x_init(self) -> np.ndarray:
        if self.x_init_policy == "previous":
            return self._x_prev
        return self._start

    def predict(self, t: int) -> np.ndarray:
        """Run the K FW steps for round t; stores the sub-iterates."""
        if t != self._predicted + 1:
            raise ValueError(f"predict({t}) out of order; next round is {self._predicted + 1}")
        self._predicted = t
        K = self.params.K
        subs = np.empty((K, self.cset.dim))
        vs = self.bank.query()
        x = self.x_init()
        for k in range(1, K + 1):
            subs[k - 1] = x
            eta = self.params.eta(k)
            x = (1.0 - eta) * x + eta * vs[k - 1]
        self.history[t] = subs
        self._x_prev = x
        return x

    def absorb(self, t: int, released) -> None:
        """Feed surrogate gradients for the matured rounds; empty is a no-op.

        released is a list of (origin s, loss f_s) pairs with s <= t.
        """
        if not released:
            return
        for s, _ in released:
            if s not in self.history:
                raise ValueError(f"origin {s} has no stored sub-iterates (double release?)")
            if s > t:
                raise ValueError(f"release of round {s} before it was played (t={t})")
        # row k of the sum is oracle k+1's surrogate gradient
        self.bank.feedback(sum_gradients([f for _, f in released],
                                         [self.history[s] for s, _ in released]))
        for s, _ in released:
            del self.history[s]


def delmfw_run(cset: ConstraintSet, stream: LossStream, schedule: DelaySchedule,
               params: AlgoParams, seed, x_init_policy: str = "zero_lmo") -> RunTrace:
    """Play T rounds against the stream under the delay schedule."""
    if stream.n_agents != 1:
        raise ValueError(f"centralized run needs a 1-agent stream, got {stream.n_agents}")
    if not (stream.T == schedule.T == params.T):
        raise ValueError(
            f"horizon mismatch: stream T={stream.T}, schedule T={schedule.T}, params T={params.T}"
        )
    state = DelmfwState(cset, params, seed, x_init_policy)
    T = params.T
    decisions = np.empty((T, cset.dim))
    inst = np.empty(T)
    for t in range(1, T + 1):
        x_t = state.predict(t)
        decisions[t - 1] = x_t
        inst[t - 1] = stream.loss(0, t).value(x_t)
        state.buffer.push(t, schedule.delay(t))
        released = state.buffer.release(t)
        state.absorb(t, [(s, stream.loss(0, s)) for s in released])
    metadata = {
        "mode": "delmfw",
        "seed": seed,
        "T": T,
        "K": params.K,
        "A": repr(float(params.A)),
        "zeta": repr(float(params.zeta)),
        "B": schedule.B,
        "B_est": repr(params.B_est),
        "dmax": schedule.dmax,
        "set_kind": cset.kind,
        "radius": repr(cset.radius),
        "dim": cset.dim,
        "loss_kind": stream.kind,
        "x_init_policy": x_init_policy,
    }
    return RunTrace(mode="delmfw", decisions=decisions, inst_loss=inst, metadata=metadata)
