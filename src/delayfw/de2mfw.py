"""Delayed meta-Frank-Wolfe, distributed over a gossip network and centralized.

Each round runs K conditional-gradient steps driven by K independent FTPL
oracles per agent, and every prediction step first averages the
neighbors' sub-iterates through the gossip matrix:

    y^i_{t,k} = sum_j w_ij x^j_{t,k}
    x^i_{t,k+1} = (1-eta_k) y^i_{t,k} + eta_k v^i_{t,k}

from the fixed feasible start x^i_{t,1}; agent i plays x^i_{t,K+1}.  The
loss of round t surfaces at agent i only at round t + d^i_t - 1, so the
sub-iterates of the last window = max dmax rounds stay in a ring of window
slots, where round t's feedback finds them.

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
whose noise rows seeding.oracle_noise draws from one Generator, and answer a
round's queries with one batched LMO call: the oracles never see the
iterates.  The round's released (agent, origin) pairs come from a release
table computed once from the schedules, and one gathered gradient call
covers every released loss at all K sub-iterates.  Each agent's gradients
are added into its sums in origin order, one vectorized add per rank (the
j-th released row of every agent that has one), and the tracking
recursion writes each step's d into one step-major buffer.

With zeta = 1/(G sqrt B) the oracle outputs often repeat from round to
round, so a round reuses the longest prefix of steps whose outputs equal
the previous round's bit for bit, for every agent, and runs the recursion
only from the first step that differs.  The reuse is exact: step k reads
only the start vertex, x_{t,k} and v_{t,k}, and identical inputs through
identical numpy operations give identical bits.  A one-agent round that
releases nothing leaves the bank untouched, so the rounds up to the next
release (or T) repeat it whole: one quiet stretch, one ring copy, no query,
and no absorb unless an observer reads the round's zero sums.

A run keeps its latest round's arrays (x, v, y, S, d) until the next round
replaces them.  The round loop's one optional observe(t) callback reads
them after each round; the consensus and tracking diagnostics are such an
observer, two stacked calls per round, and the loop itself has no
instrumentation.

Default constants follow the sqrt(BT)-regret tuning: K = ceil(sqrt(T)),
eta_k = min(1, A/k) and zeta = 1/(G*sqrt(B)), with A = max(3, G/(beta*D))
centrally and A = max(3, 3G/(2*beta*D)) on a network (algorithm_constants;
the network module says why the rule's third term is dropped).  The
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
                       K: int | None = None, zeta: float | None = None) -> AlgoParams:
    """Default single-agent tuning, A = max(3, G/(beta D)); K and zeta can be overridden."""
    params = distributed_params(T, G, beta, D, B_est, 3.0, K=K, zeta=zeta)
    return replace(params, A=max(3.0, G / (beta * D)))


def algorithm_constants(G: float, beta: float, D: float) -> float:
    """The network step constant A = max(3, 3G/(2 beta D))."""
    if min(G, beta, D) <= 0:
        raise ValueError("G, beta, D must all be positive")
    return max(3.0, 3.0 * G / (2.0 * beta * D))


def distributed_params(T: int, G: float, beta: float, D: float, B_est: float, a_dist: float,
                       K: int | None = None, zeta: float | None = None) -> AlgoParams:
    """Network tuning: A = a_dist (algorithm_constants by default), zeta = 1/(G sqrt B).

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
    """Lockstep state for n agents: oracle bank and a ring of recent sub-iterates.

    Round s's sub-iterates sit in ring slot s % window, a (K+1, n, m) array,
    until round s + window overwrites them, so window must be at least every
    agent's largest delay.  The latest round's other arrays are step-major
    (K, n, m) arrays or views, never copies, valid until the next round:
    vs and ys (oracle outputs v, mixed iterates y) from predict_round, sums
    (S) and ds (d) from the latest absorb_round.  With one agent an empty
    release set leaves the bank untouched, as there is nothing to exchange,
    so the rounds after it repeat it whole until one releases (repeat_rounds).
    """

    def __init__(self, cset: ConstraintSet, gossip: GossipMatrix, params: AlgoParams, seed,
                 window: int):
        self.cset = cset
        self.gossip = gossip
        self.params = params
        self.n = n = gossip.n
        K = params.K
        self.bank = FtplOracle(cset, params.zeta, seeding.oracle_noise(seed, n, K, cset.dim))
        self.window = window
        self.ring = np.empty((window, K + 1, n, cset.dim))  # slot s % window: x^i_{s,k}
        self._start = np.tile(cset.lmo(np.zeros(cset.dim)), (n, 1))
        self._etas = np.array([params.eta(k) for k in range(1, K + 1)])
        self._keep = (1.0 - self._etas).tolist()  # 1 - eta_k
        self._mixed = np.empty((K, n, cset.dim))  # the ys of every round when n > 1
        self._predicted = 0
        self.vs = self.ys = self.sums = self.ds = None

    def predict_round(self, t: int) -> np.ndarray:
        """All agents' K gossip-FW steps; returns the (n, m) played decisions.

        Steps 1..j whose oracle outputs repeat round t-1's bit for bit for
        every agent are not rerun: step k reads only x_{t,k} and v_{t,k}, so
        x_{t,2..j+1} are copied from round t-1's ring slot and ys[:j] kept.
        Bit patterns, not ==, are compared: -0.0 and +0.0 print differently.
        Callers must not write the previous round's vs or ring slot.
        """
        if t != self._predicted + 1:
            raise ValueError(f"predict_round({t}) out of order; next round is {self._predicted + 1}")
        self._predicted = t
        K, n, m = self.params.K, self.n, self.cset.dim
        subs = self.ring[t % self.window]  # x^i_{t,k}, written in place step by step
        vs = self.bank.query().reshape(n, K, m)
        subs[0] = self._start
        ys = self._mixed if n > 1 else subs[:K]  # W = [1] mixes exactly: y = x
        j = 0  # steps 1..j repeat round t-1 exactly
        if self.vs is not None:
            same = (vs.view(np.uint64) == self.vs.swapaxes(0, 1).view(np.uint64)).all(axis=(0, 2))
            j = int(same.argmin()) or K * bool(same[0])  # argmin is 0 also when none differs
            subs[1:j + 1] = self.ring[(t - 1) % self.window, 1:j + 1]  # same slot at window 1
        if j < K:
            steps = vs.swapaxes(0, 1) * self._etas[:, None, None]  # eta_k v^i_{t,k}
        for k in range(j, K):
            if n > 1:
                self.gossip.mix(subs[k], out=ys[k])
            np.add(self._keep[k] * ys[k], steps[k], out=subs[k + 1])
        self.vs, self.ys = vs.swapaxes(0, 1), ys
        return subs[K].copy()

    def repeat_rounds(self, u: int) -> np.ndarray:
        """Copy the last predicted round into the rounds after it through u.

        Valid with one agent while nothing feeds the bank.  ys points into
        round u's slot, vs stays; returns a view of the (n, m) decisions.
        """
        t, w = self._predicted, self.window
        if self.n != 1 or not t < u <= self.params.T:
            raise ValueError(f"cannot repeat round {t} through round {u} with {self.n} agents")
        a, b = (t + 1) % w, (t + 1) % w + min(u - t, w - 1)  # slots a..b-1, wrapping past w
        self.ring[a:b] = self.ring[:max(0, b - w)] = self.ring[t % w]
        self._predicted = u
        self.ys = self.ring[u % w, :-1]
        return self.ring[t % w, -1]

    def absorb_round(self, t: int, rows, losses) -> None:
        """Gradient-tracking exchanges and oracle feedback for round t.

        rows holds the (agent i, origin s) pairs released this round, sorted
        by agent and then origin, and losses the matching (r, 1) stack of the
        f^i_s (None when rows is empty).  On a network it runs even when
        nothing is released so that oracle feedback stays synchronized
        across rounds (zero vectors).
        """
        K, n, m = self.params.K, self.n, self.cset.dim
        agents, origins = rows[:, 0], rows[:, 1]
        # sums[k] holds S^i_{k+1} = sum_{s in F^i_t} grad f^i_s(x^i_{s,k+1}) for every agent i
        sums = np.zeros((K, n, m))
        if len(rows):
            lo, hi = max(1, self._predicted - self.window + 1), min(t, self._predicted)
            first, last = (origins[0], origins[-1]) if n == 1 else (origins.min(), origins.max())
            if first < lo or last > hi:  # not in the ring, or in the future
                raise ValueError(f"round {t} releases origins outside {lo}..{hi}")
            g = losses.grad(self.ring[origins % self.window, :K, agents])  # (r, K, m)
            if n > 1:  # each agent's terms in origin order
                starts = agents.searchsorted(np.arange(n))  # each agent's first row
                counts = agents.searchsorted(np.arange(n), "right") - starts
                for j in range(counts.max()):  # every agent's j-th row at once: distinct agents
                    who = (counts > j).nonzero()[0]
                    sums[:, who] += g[starts[who] + j].swapaxes(0, 1)
            else:  # the same adds, row by row into the zero seed
                for row in g[:, :, None]:
                    sums += row
        if n == 1:
            ds = sums  # W = [1]: d = S exactly, no tracking correction
        else:
            ds = np.empty((K, n, m))  # ds[k] holds d_{k+1}
            self.gossip.mix(sums[0], out=ds[0])
            G = np.empty((n, m))
            for k in range(1, K):  # G = S_{k+1} + (d_k - S_k), built in place
                np.subtract(ds[k - 1], sums[k - 1], out=G)
                G += sums[k]
                self.gossip.mix(G, out=ds[k])
        if n > 1 or len(rows):
            self.bank.feedback(ds.swapaxes(0, 1).reshape(n * K, m))
        self.sums, self.ds = sums, ds


def run_rounds(run: NetworkRun, stream: LossStream, schedules, observe=None) -> np.ndarray:
    """Drive the run through its T rounds; returns the (T, n, m) decisions.

    Each round predicts and absorbs the losses that mature this round, read
    from the schedules' release table.  With one agent, the rounds after an
    empty release up to the next release (or T) are one quiet stretch, and
    the empty release itself absorbs nothing.  observe(t), when given, is
    called after round t's absorb_round, which then runs in every round.
    """
    T, n = run.params.T, run.n
    if stream.losses.shape != (n, T) or [s.T for s in schedules] != [T] * n:
        raise ValueError(f"need an ({n}, {T}) loss stream and {n} schedules of {T} rounds")
    table = FeedbackBuffer()
    table.push([s.d for s in schedules])
    decisions = np.empty((T, n, run.cset.dim))
    t, quiet = 1, False
    while t <= T:
        if quiet:  # rounds t..u repeat round t-1; an observer sees them one by one
            u = table.next_release[t - 1] if observe is None else t
            decisions[t - 1:u] = run.repeat_rounds(u)
            t = u
        else:
            decisions[t - 1] = run.predict_round(t)
        rows = table.release(t)
        quiet = n == 1 and not len(rows)
        if not quiet or observe is not None:  # a quiet absorb only zeroes sums and ds
            # an empty stack is no loss (SoftmaxLoss rejects it)
            losses = stream.losses[rows[:, 0], rows[:, 1] - 1, None] if len(rows) else None
            run.absorb_round(t, rows, losses)
            if observe is not None:
                observe(t)
        t += 1
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
    run = NetworkRun(cset, metropolis_weights(topology("complete", 1)), params, seed,
                     window=schedule.dmax)
    decisions = run_rounds(run, stream, [schedule])
    metadata = _base_metadata("delmfw", cset, stream, params, seed)
    metadata.update({"B": schedule.B, "dmax": schedule.dmax})
    return RunTrace(mode="delmfw", decisions=decisions[:, 0],
                    inst_loss=per_agent_global_losses(stream, decisions)[:, 0],
                    metadata=metadata)


def de2mfw_run(cset: ConstraintSet, stream: LossStream, schedules, topo: Topology,
               params: AlgoParams, seed, diagnostics: bool = True) -> RunTrace:
    """Run T synchronized rounds over the topology; trace is network-level.

    With diagnostics an observer fills the (T, K) consensus and tracking grids.
    """
    gossip = metropolis_weights(topo)
    run = NetworkRun(cset, gossip, params, seed, window=max(s.dmax for s in schedules))
    consensus = tracking = observe = None
    if diagnostics:
        consensus, tracking = np.empty((params.T, params.K)), np.empty((params.T, params.K))

        def observe(t):  # max_i ||y^i_{t,k} - xbar_{t,k}|| and max_i ||d^i_{t,k} - Sbar_k||
            xs = run.ring[t % run.window, :-1]  # x^i_{t,k}, the iterates each mix averages
            consensus[t - 1] = consensus_error(run.ys, xs.mean(axis=1))
            tracking[t - 1] = consensus_error(run.ds, run.sums.mean(axis=1))
    decisions = run_rounds(run, stream, schedules, observe)
    per_agent = per_agent_global_losses(stream, decisions)
    metadata = _base_metadata("de2mfw", cset, stream, params, seed)
    metadata.update({
        "B": repr(float(np.mean([s.B for s in schedules]))),
        "n": topo.n,
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
        consensus=consensus,
        tracking=tracking,
    )
