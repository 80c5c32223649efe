"""Delayed meta-Frank-Wolfe, distributed over a gossip network and centralized.

Each round runs K conditional-gradient steps driven by K independent FTPL
oracles per agent, and every prediction step first averages the
neighbors' sub-iterates through the gossip matrix:

    y^i_{t,k} = sum_j w_ij x^j_{t,k}
    x^i_{t,k+1} = (1-eta_k) y^i_{t,k} + eta_k v^i_{t,k}

from the fixed feasible start x^i_{t,1}; agent i plays x^i_{t,K+1}.  The
loss of round t surfaces at agent i only at round t + d^i_t - 1, which is
why the sub-iterates of every outstanding round are kept until release.

The update block replaces raw delayed gradients with gradient tracking:
local surrogate sums g^i are exchanged, averaged into
d^i_{t,k} = sum_j w_ij g^j_{t,k} (full row, self term included), and the
oracle of step k is fed d^i_{t,k}.  The tracking recursion is evaluated as

    g^i_{t,k+1} = S^i_{k+1} + (d^i_{t,k} - S^i_k),   S^i_k = sum_{s in F^i_t} grad f^i_s(x^i_{s,k})

which equals the usual incremental form but collapses to the centralized
algorithm when n = 1: W = [1] makes the mix an identity and d - S vanish
exactly, so the engine skips both there.  Centralized DeLMFW is this
engine on the one-node graph.

Agents with an empty release set still participate: they contribute g = 0
to the exchanges, which keeps the network-average of d equal to the
network-average of the released gradients at every step, and they feed
d^i_{t,k} to their oracles (the neighbor information is real).

All agents advance in lockstep; the single-threaded execution order here
is the reference semantics for any parallel driver.

The n*K oracles sit in one bank, row i*K + k - 1 for oracle k of agent i,
and answer a round's queries with one batched LMO call: the oracles never
see the iterates.  One gradient call per released loss covers all K
sub-iterates at once.

Default constants follow the sqrt(BT)-regret tuning: K = ceil(sqrt(T)),
eta_k = min(1, A/k) and zeta = 1/(G*sqrt(B)), with A = max(3, G/(beta*D))
centrally and A from the joint (A, C_g) resolution on a network.  The
simulator knows the schedule and can use the true total delay B; a
dmax*T substitute is available for runs that refuse that foresight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .delay import DelaySchedule, FeedbackBuffer
from .geometry import ConstraintSet
from .losses import LossStream
from .metrics import RunTrace, consensus_error, per_agent_global_losses
from .network import GossipMatrix, Topology, metropolis_weights, topology
from .oracle import FtplOracle


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
    params = distributed_params(T, G, beta, D, B_est, 3.0, K=K, zeta=zeta)
    return replace(params, A=max(3.0, G / (beta * D)) if A is None else A)


def distributed_params(T: int, G: float, beta: float, D: float, B_est: float, a_dist: float,
                       K: int | None = None, zeta: float | None = None) -> AlgoParams:
    """Network tuning: A from the joint (A, C_g) resolution, zeta = 1/(G sqrt B).

    B_est is the across-agent mean of per-agent delay sums.
    """
    if min(G, beta, D, B_est) <= 0:
        raise ValueError("G, beta, D, B_est must all be positive")
    if K is None:
        K = math.ceil(math.sqrt(T))
    if zeta is None:
        zeta = 1.0 / (G * math.sqrt(B_est))
    return AlgoParams(T=T, K=K, A=a_dist, zeta=zeta, B_est=B_est)


def sum_gradients(losses, points) -> np.ndarray:
    """sum_s grad f_s(points[s]) in list order, seeded by the first term.

    Each point may be a (..., m) stack; the sum is then taken row by row.
    """
    g = losses[0].grad(points[0]).copy()
    for f, x in zip(losses[1:], points[1:]):
        g += f.grad(x)
    return g


class NetworkRun:
    """Lockstep state for n agents: oracle bank, buffers, outstanding sub-iterates.

    consensus and tracking are the (T, K) diagnostic grids; they stay None
    unless the round loop is asked for diagnostics.  With one agent an
    empty release set leaves the bank untouched, as there is nothing to
    exchange.
    """

    def __init__(self, cset: ConstraintSet, gossip: GossipMatrix, params: AlgoParams, seed,
                 record_details: bool = False):
        self.cset = cset
        self.gossip = gossip
        self.params = params
        # per-round snapshots of every sub-step quantity, for invariant checks
        self.record_details = record_details
        self.details = {}
        n, K = gossip.n, params.K
        self.bank = FtplOracle(cset, params.zeta, [
            seeding.oracle_rng(seed, i, k) for i in range(n) for k in range(1, K + 1)
        ])
        self.buffers = [FeedbackBuffer() for _ in range(n)]
        self.history = {}  # origin t -> (n, K+1, m) sub-iterates
        self._remaining = {}  # origin t -> agents that have not released it yet
        self._start = np.tile(cset.lmo(np.zeros(cset.dim)), (n, 1))
        self._etas = np.array([params.eta(k) for k in range(1, K + 1)])
        self._keep = (1.0 - self._etas).tolist()  # 1 - eta_k
        self._predicted = 0
        self.consensus = None
        self.tracking = None

    @property
    def n(self) -> int:
        return self.gossip.n

    def predict_round(self, t: int) -> np.ndarray:
        """All agents' K gossip-FW steps; returns the (n, m) played decisions."""
        if t != self._predicted + 1:
            raise ValueError(f"predict_round({t}) out of order; next round is {self._predicted + 1}")
        self._predicted = t
        K, n, m = self.params.K, self.n, self.cset.dim
        vs = self.bank.query().reshape(n, K, m)
        steps = vs.swapaxes(0, 1) * self._etas[:, None, None]  # eta_k v^i_{t,k}
        subs = np.empty((K + 1, n, m))  # x^i_{t,k}, written in place step by step
        subs[0] = self._start
        ys = np.empty((n, K, m)) if self.record_details else None
        cons = None if self.consensus is None else self.consensus[t - 1]
        for k in range(K):
            X = subs[k]
            Y = self.gossip.mix(X) if n > 1 else X  # W = [1] mixes exactly
            if cons is not None:
                cons[k] = consensus_error(Y, X.mean(axis=0))
            if ys is not None:
                ys[:, k] = Y
            np.add(self._keep[k] * Y, steps[k], out=subs[k + 1])
        self.history[t] = subs.swapaxes(0, 1)
        if self.record_details:
            self.details[t] = {"subs": self.history[t].copy(), "v": vs, "y": ys}
        self._remaining[t] = n
        return subs[K]

    def absorb_round(self, t: int, released) -> None:
        """Gradient-tracking exchanges and oracle feedback for round t.

        released[i] is the list of (origin s, loss f^i_s) pairs maturing at
        agent i this round.  On a network it runs even when every list is
        empty so that oracle feedback stays synchronized across rounds
        (zero vectors).
        """
        K, n, m = self.params.K, self.n, self.cset.dim
        for i, pairs in enumerate(released):
            for s, _ in pairs:
                if s not in self.history:
                    raise ValueError(f"agent {i}: origin {s} has no stored sub-iterates")
                if s > t:
                    raise ValueError(f"agent {i}: release of round {s} before round {t}")

        # sums[k] holds S^i_{k+1} = sum_{s in F^i_t} grad f^i_s(x^i_{s,k+1}) for every agent i
        sums = np.zeros((K, n, m))
        for i, pairs in enumerate(released):
            if pairs:
                sums[:, i] = sum_gradients([f for _, f in pairs],
                                           [self.history[s][i, :K] for s, _ in pairs])
        if n == 1:
            ds = sums.swapaxes(0, 1)  # W = [1]: d = S exactly, no tracking correction
        else:
            ds = np.empty((n, K, m))
            G = sums[0]
            for k in range(K):
                ds[:, k] = self.gossip.mix(G)
                if k + 1 < K:
                    G = sums[k + 1] + (ds[:, k] - sums[k])
        if self.tracking is not None:
            for k in range(K):
                self.tracking[t - 1, k] = consensus_error(ds[:, k], sums[k].mean(axis=0))
        if n > 1 or released[0]:
            self.bank.feedback(ds.reshape(n * K, m))
        if self.record_details:
            self.details[t].update({"d": ds, "s": sums.swapaxes(0, 1)})
        # an origin's sub-iterates stay until every agent has released it
        for pairs in released:
            for s, _ in pairs:
                self._remaining[s] -= 1
                if self._remaining[s] == 0:
                    del self.history[s]
                    del self._remaining[s]


def run_rounds(run: NetworkRun, stream: LossStream, schedules,
               diagnostics: bool = False) -> np.ndarray:
    """Drive the run through its T rounds; returns the (T, n, m) decisions.

    Each round predicts, pushes every agent's loss to its release buffer
    and absorbs what matures.  With diagnostics the run's consensus and
    tracking grids are filled.
    """
    T, K, n = run.params.T, run.params.K, run.n
    if diagnostics:
        run.consensus, run.tracking = np.empty((T, K)), np.empty((T, K))
    decisions = np.empty((T, n, run.cset.dim))
    for t in range(1, T + 1):
        decisions[t - 1] = run.predict_round(t)
        released = []
        for i in range(n):
            run.buffers[i].push(t, schedules[i].delay(t))
            released.append([(s, stream.loss(i, s)) for s in run.buffers[i].release(t)])
        run.absorb_round(t, released)
    return decisions


def _base_metadata(mode: str, cset: ConstraintSet, stream: LossStream,
                   params: AlgoParams, seed) -> dict:
    return {
        "mode": mode,
        "seed": seed,
        "T": params.T,
        "K": params.K,
        "A": repr(float(params.A)),
        "zeta": repr(float(params.zeta)),
        "B_est": repr(params.B_est),
        "set_kind": cset.kind,
        "radius": repr(cset.radius),
        "dim": cset.dim,
        "loss_kind": stream.kind,
        "x_init_policy": "zero_lmo",
    }


def delmfw_run(cset: ConstraintSet, stream: LossStream, schedule: DelaySchedule,
               params: AlgoParams, seed) -> RunTrace:
    """Centralized DeLMFW: T rounds of the engine on the one-node graph."""
    if stream.n_agents != 1:
        raise ValueError(f"centralized run needs a 1-agent stream, got {stream.n_agents}")
    if not (stream.T == schedule.T == params.T):
        raise ValueError(
            f"horizon mismatch: stream T={stream.T}, schedule T={schedule.T}, params T={params.T}"
        )
    run = NetworkRun(cset, metropolis_weights(topology("complete", 1)), params, seed)
    decisions = run_rounds(run, stream, [schedule])
    metadata = _base_metadata("delmfw", cset, stream, params, seed)
    metadata.update({"B": schedule.B, "dmax": schedule.dmax})
    return RunTrace(mode="delmfw", decisions=decisions[:, 0],
                    inst_loss=per_agent_global_losses(stream, decisions)[:, 0],
                    metadata=metadata)


def de2mfw_run(cset: ConstraintSet, stream: LossStream, schedules, topo: Topology,
               params: AlgoParams, seed, diagnostics: bool = True) -> RunTrace:
    """Run T synchronized rounds over the topology; trace is network-level."""
    n = topo.n
    if stream.n_agents != n:
        raise ValueError(f"stream has {stream.n_agents} agents, topology has {n}")
    if len(schedules) != n:
        raise ValueError(f"need {n} delay schedules, got {len(schedules)}")
    if any(s.T != params.T for s in schedules) or stream.T != params.T:
        raise ValueError("stream/schedule horizons must equal params.T")
    gossip = metropolis_weights(topo)
    run = NetworkRun(cset, gossip, params, seed)
    decisions = run_rounds(run, stream, schedules, diagnostics)
    per_agent = per_agent_global_losses(stream, decisions)
    metadata = _base_metadata("de2mfw", cset, stream, params, seed)
    metadata.update({
        "B": repr(float(np.mean([s.B for s in schedules]))),
        "n": n,
        "topology": topo.kind,
        "lambda2": repr(gossip.lambda2),
        "k0": gossip.k0,
        "feed_empty": True,
    })
    return RunTrace(
        mode="de2mfw",
        decisions=decisions,
        inst_loss=per_agent.max(axis=1),
        metadata=metadata,
        per_agent_loss=per_agent,
        mean_loss=per_agent.mean(axis=1),
        consensus=run.consensus,
        tracking=run.tracking,
    )
