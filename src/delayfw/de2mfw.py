"""Distributed delayed meta-Frank-Wolfe over a gossip network.

Every agent runs the centralized round structure, but each of its K
prediction steps first averages the neighbors' sub-iterates through the
gossip matrix:

    y^i_{t,k} = sum_j w_ij x^j_{t,k}
    x^i_{t,k+1} = (1-eta_k) y^i_{t,k} + eta_k v^i_{t,k}

and the update block replaces raw delayed gradients with gradient
tracking: local surrogate sums g^i are exchanged, averaged into
d^i_{t,k} = sum_j w_ij g^j_{t,k} (full row, self term included), and the
oracle of step k is fed d^i_{t,k}.  The tracking recursion is evaluated as

    g^i_{t,k+1} = S^i_{k+1} + (d^i_{t,k} - S^i_k),   S^i_k = sum_{s in F^i_t} grad f^i_s(x^i_{s,k})

which equals the usual incremental form but collapses bitwise to the
centralized algorithm when n = 1 (W = [1] makes d - S vanish exactly).

Agents with an empty release set still participate: they contribute g = 0
to the exchanges, which keeps the network-average of d equal to the
network-average of the released gradients at every step.  By default they
also feed d^i_{t,k} to their oracles (the neighbor information is real);
``feed_empty=False`` restricts feedback to agents with releases.

All agents advance in lockstep; the single-threaded execution order here
is the reference semantics for any parallel driver.

The n*K oracles sit in one bank, row i*K + k - 1 for oracle k of agent i,
and answer a round's queries with one batched LMO call: the oracles never
see the iterates.
"""

from __future__ import annotations

import math

import numpy as np

from . import seeding
from .delay import DelaySchedule, FeedbackBuffer
from .delmfw import AlgoParams, X_INIT_POLICIES, sum_gradients
from .geometry import ConstraintSet
from .losses import LossStream
from .metrics import RunTrace, consensus_error, per_agent_global_losses
from .network import GossipMatrix, Topology, metropolis_weights
from .oracle import FtplOracle


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


class NetworkRun:
    """Lockstep state for n agents: oracle bank, buffers, outstanding sub-iterates."""

    def __init__(self, cset: ConstraintSet, gossip: GossipMatrix, params: AlgoParams, seed,
                 x_init_policy: str = "zero_lmo", feed_empty: bool = True,
                 record_details: bool = False):
        if x_init_policy not in X_INIT_POLICIES:
            raise ValueError(f"unknown x_init_policy {x_init_policy!r}")
        self.cset = cset
        self.gossip = gossip
        self.params = params
        self.feed_empty = feed_empty
        self.x_init_policy = x_init_policy
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
        self._x_prev = self._start
        self._predicted = 0
        # diagnostics of the most recent round, (K,) each
        self.last_consensus = None
        self.last_tracking = None

    @property
    def n(self) -> int:
        return self.gossip.n

    def predict_round(self, t: int) -> np.ndarray:
        """All agents' K gossip-FW steps; returns the (n, m) played decisions."""
        if t != self._predicted + 1:
            raise ValueError(f"predict_round({t}) out of order; next round is {self._predicted + 1}")
        self._predicted = t
        K, n, m = self.params.K, self.n, self.cset.dim
        subs = np.empty((n, K + 1, m))
        cons = np.empty(K)
        vs = self.bank.query().reshape(n, K, m)
        ys = np.empty((n, K, m))
        X = self._x_prev if self.x_init_policy == "previous" else self._start
        for k in range(1, K + 1):
            subs[:, k - 1] = X
            Y = self.gossip.mix(X)
            cons[k - 1] = consensus_error(Y, X.mean(axis=0))
            ys[:, k - 1] = Y
            eta = self.params.eta(k)
            X = (1.0 - eta) * Y + eta * vs[:, k - 1]
        subs[:, K] = X
        self.history[t] = subs
        if self.record_details:
            self.details[t] = {"subs": subs.copy(), "v": vs, "y": ys}
        self._remaining[t] = self.n
        self._x_prev = X
        self.last_consensus = cons
        return X

    def absorb_round(self, t: int, released) -> None:
        """Gradient-tracking exchanges and oracle feedback for round t.

        released[i] is the list of (origin s, loss f^i_s) pairs maturing at
        agent i this round.  Runs even when every list is empty so that
        oracle feedback stays synchronized across rounds (zero vectors).
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
        S = sums[0]
        G = S
        track = np.empty(K)
        ds = np.empty((n, K, m))
        ss = np.empty((n, K, m)) if self.record_details else None
        for k in range(1, K + 1):
            Dk = self.gossip.mix(G)
            track[k - 1] = consensus_error(Dk, S.mean(axis=0))
            ds[:, k - 1] = Dk
            if self.record_details:
                ss[:, k - 1] = S
            if k < K:
                S_next = sums[k]
                G = S_next + (Dk - S)
                S = S_next
        if self.feed_empty:
            self.bank.feedback(ds.reshape(n * K, m))
        else:
            active = np.flatnonzero([bool(pairs) for pairs in released])
            rows = (active[:, None] * K + np.arange(K)).ravel()
            self.bank.feedback(ds[active].reshape(len(rows), m), rows)
        if self.record_details:
            self.details[t].update({"d": ds, "s": ss})
        # an origin's sub-iterates stay until every agent has released it
        for pairs in released:
            for s, _ in pairs:
                self._remaining[s] -= 1
                if self._remaining[s] == 0:
                    del self.history[s]
                    del self._remaining[s]
        self.last_tracking = track


def de2mfw_run(cset: ConstraintSet, stream: LossStream, schedules, topo: Topology,
               params: AlgoParams, seed, x_init_policy: str = "zero_lmo",
               feed_empty: bool = True, diagnostics: bool = True) -> RunTrace:
    """Run T synchronized rounds over the topology; trace is network-level."""
    n = topo.n
    if stream.n_agents != n:
        raise ValueError(f"stream has {stream.n_agents} agents, topology has {n}")
    if len(schedules) != n:
        raise ValueError(f"need {n} delay schedules, got {len(schedules)}")
    if any(s.T != params.T for s in schedules) or stream.T != params.T:
        raise ValueError("stream/schedule horizons must equal params.T")
    gossip = metropolis_weights(topo)
    run = NetworkRun(cset, gossip, params, seed, x_init_policy, feed_empty)
    T = params.T
    decisions = np.empty((T, n, cset.dim))
    cons = np.empty((T, params.K)) if diagnostics else None
    trck = np.empty((T, params.K)) if diagnostics else None
    for t in range(1, T + 1):
        decisions[t - 1] = run.predict_round(t)
        released = []
        for i in range(n):
            run.buffers[i].push(t, schedules[i].delay(t))
            released.append([(s, stream.loss(i, s)) for s in run.buffers[i].release(t)])
        run.absorb_round(t, released)
        if diagnostics:
            cons[t - 1] = run.last_consensus
            trck[t - 1] = run.last_tracking
    per_agent = per_agent_global_losses(stream, decisions)
    b_mean = float(np.mean([s.B for s in schedules]))
    metadata = {
        "mode": "de2mfw",
        "seed": seed,
        "T": T,
        "K": params.K,
        "A": repr(float(params.A)),
        "zeta": repr(float(params.zeta)),
        "B": repr(b_mean),
        "B_est": repr(params.B_est),
        "n": n,
        "topology": topo.kind,
        "lambda2": repr(gossip.lambda2),
        "k0": gossip.k0,
        "set_kind": cset.kind,
        "radius": repr(cset.radius),
        "dim": cset.dim,
        "loss_kind": stream.kind,
        "x_init_policy": x_init_policy,
        "feed_empty": feed_empty,
    }
    return RunTrace(
        mode="de2mfw",
        decisions=decisions,
        inst_loss=per_agent.max(axis=1),
        metadata=metadata,
        per_agent_loss=per_agent,
        mean_loss=per_agent.mean(axis=1),
        consensus=cons,
        tracking=trck,
    )
