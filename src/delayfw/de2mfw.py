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
exactly, so the engine skips both there.  Centralized DeLMFW is de2mfw_run
on the one-node graph: its trace is that run's, relabelled.

Agents with an empty release set still participate: they contribute g = 0
to the exchanges, which keeps the network-average of d equal to the
network-average of the released gradients at every step, and they feed
d^i_{t,k} to their oracles (the neighbor information is real).

All agents advance in lockstep; the single-threaded execution order here
is the reference semantics for any parallel driver.

The n*K oracles sit in one bank, row (k-1)*n + i for oracle k of agent i,
and answer a round's queries with one batched LMO call: the oracles never
see the iterates.  seeding.oracle_noise draws their noise agent-major from
one Generator and the bank stores it step-major (the orders coincide at
n = 1), so a round's outputs, its reuse check and its feedback are
contiguous (K, n, m) arrays.  The round's released (agent, origin) pairs come from a release
table computed once from the schedules, rank-major: rank j holds the j-th
release of every agent that has one, agents ascending.  One gathered
gradient call covers every released loss at all K sub-iterates, and each
rank is one add of a contiguous slice of those gradients into the sums, so
each agent's gradients are added in origin order.  The tracking recursion
writes each step's d into one step-major buffer.

With zeta = 1/(G sqrt B) the oracle outputs often repeat from round to
round, so a round reuses the longest prefix of steps whose outputs equal
the previous round's bit for bit, for every agent, and runs the recursion
only from the first step that differs.  The reuse is exact: step k reads
only the start vertex, x_{t,k} and v_{t,k}, and identical inputs through
identical numpy operations give identical bits.

Round u's outputs depend only on feedback released before u, and a released
gradient only on its origin's sub-iterates.  So with one agent and no
observer, the rounds after round p up to the first release of a round after
p are one dependency block: one gathered gradient call, one stacked feedback,
one LMO call and one K-step loop for all its states (predict_block).

A run keeps its latest round's arrays (x, v, y, S, d) until the next round
replaces them.  The round loop's one optional observe(t) callback reads
them after each round; the consensus and tracking diagnostics are such an
observer, two agent means and two stacked consensus_error calls per round,
and the loop itself has no instrumentation.  The consensus rows of the
steps a round reused equal the previous round's, so the observer copies
them and computes only the rest.

Default constants follow the sqrt(BT)-regret tuning (tuned_params, both
modes): K = ceil(sqrt(T)), eta_k = min(1, A/k), zeta = 1/(G*sqrt(B)), and the
agent count picks A (algorithm_constants): max(3, G/(beta*D)) for one agent,
max(3, 3G/(2*beta*D)) on a network (the network module says why the rule's
third term is dropped).  The simulator knows the schedule and can use the true
total delay B; a dmax*T substitute is available for runs that refuse that
foresight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .delay import DelaySchedule, FeedbackBuffer
from .geometry import ConstraintSet
from .losses import LossStream
from .metrics import RunTrace, agent_mean, consensus_error, per_agent_global_losses
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


def algorithm_constants(G: float, beta: float, D: float, n: int) -> float:
    """The step constant A: max(3, G/(beta D)) for n = 1, max(3, 3G/(2 beta D)) for n >= 2."""
    if min(G, beta, D) <= 0:
        raise ValueError("G, beta, D must all be positive")
    if n == 1:
        return max(3.0, G / (beta * D))
    return max(3.0, 3.0 * G / (2.0 * beta * D))


def tuned_params(T: int, G: float, beta: float, D: float, B_est: float, A: float,
                 K: int | None = None, zeta: float | None = None) -> AlgoParams:
    """Tuning for both modes: K = ceil(sqrt T) and zeta = 1/(G sqrt B) unless overridden.

    A comes from algorithm_constants; B_est is the across-agent mean of
    per-agent delay sums.
    """
    if min(G, beta, D, B_est) <= 0:
        raise ValueError("G, beta, D, B_est must all be positive")
    if K is None:
        K = math.ceil(math.sqrt(T))
    if zeta is None:
        zeta = 1.0 / (G * math.sqrt(B_est))
    return AlgoParams(T=T, K=K, A=A, zeta=zeta, B_est=B_est)


class NetworkRun:
    """Lockstep state for n agents: oracle bank and a ring of recent sub-iterates.

    Round s's sub-iterates sit in ring slot s % window, a (K+1, n, m) array,
    until round s + window overwrites them, so window must be at least every
    agent's largest delay.  The latest round's other arrays are step-major
    (K, n, m) arrays or views, never copies, valid until the next round:
    vs and ys (oracle outputs v, mixed iterates y) from predict_round, sums
    (S) and ds (d) from the latest absorb_round; reused is the number of
    leading steps predict_round copied from the round before.  A one-agent
    run may instead predict a dependency block of rounds at once
    (predict_block).
    """

    def __init__(self, cset: ConstraintSet, gossip: GossipMatrix, params: AlgoParams, seed,
                 window: int):
        self.cset = cset
        self.gossip = gossip
        self.params = params
        self.n = n = gossip.n
        K, m = params.K, cset.dim
        # drawn agent-major, stored step-major: row (k-1)*n + i is oracle k of agent i
        noise = seeding.oracle_noise(seed, n, K, m).reshape(n, K, m).swapaxes(0, 1)
        self.bank = FtplOracle(cset, params.zeta, noise.reshape(K * n, m))
        self.window = window
        self.ring = np.empty((window, K + 1, n, cset.dim))  # slot s % window: x^i_{s,k}
        self._start = np.tile(cset.lmo(np.zeros(cset.dim)), (n, 1))
        self._etas = np.array([params.eta(k) for k in range(1, K + 1)])
        self._keep = (1.0 - self._etas).tolist()  # 1 - eta_k
        self._mixed = np.empty((K, n, cset.dim))  # the ys of every round when n > 1
        self._predicted = 0
        self.vs = np.full((K, n, cset.dim), np.nan)  # no output equals it: round 1 reuses nothing
        self.ys = self.sums = self.ds = self.reused = None

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
        vs = self.bank.query().reshape(K, n, m)
        subs[0] = self._start
        ys = self._mixed if n > 1 else subs[:K]  # W = [1] mixes exactly: y = x
        differs = (vs.view(np.uint64) != self.vs.view(np.uint64)).reshape(-1)
        first = differs.argmax()  # the first differing entry, step-major
        j = first // (n * m) if differs[first] else K  # steps 1..j repeat round t-1 exactly
        subs[1:j + 1] = self.ring[(t - 1) % self.window, 1:j + 1]  # same slot at window 1
        steps = vs[j:] * self._etas[j:, None, None]  # eta_k v^i_{t,k} for the steps rerun
        for k in range(j, K):
            if n > 1:
                self.gossip.mix(subs[k], out=ys[k])
            np.add(self._keep[k] * ys[k], steps[k - j], out=subs[k + 1])
        self.vs, self.ys, self.reused = vs, ys, j
        return subs[K].copy()

    def predict_block(self, u: int, rows, sizes, losses, out) -> None:
        """One agent's rounds p+1..u as one dependency block, p the last predicted round.

        rows, sizes and losses: the releases of rounds p..u-1 in round order,
        each round's count and their (r, 1) stack; round p opens them and all
        come from rounds up to p.  Round p+1+i plays the state after the
        releases of rounds p..p+i; out gets the (u-p, 1, m) decisions.
        """
        p, K, w, m = self._predicted, self.params.K, self.window, self.cset.dim
        if self.n != 1 or not p < u <= self.params.T:
            raise ValueError(f"cannot predict rounds {p + 1}..{u} as a block with {self.n} agents")
        released = sizes > 0
        if len(rows):
            origins = rows[:, 1]
            if not released[0] or origins.min() <= p - w or origins.max() > p:
                raise ValueError(f"round {p} must open the releases, all from {max(1, p - w + 1)}..{p}")
            # no stack is named, so the gradients, sums and running sums are freed once used
            vs = self.bank.query(self.bank.feedback(_round_sums(
                losses.grad(self.ring[origins % w, :K, 0]), sizes[released].tolist())))
        else:
            vs = self.bank.query(self.bank.accum[None])
        bits = vs.view(np.uint64)  # each state against the one before it, step-major
        differs = bits != np.concatenate((self.vs.swapaxes(0, 1).view(np.uint64), bits[:-1]))
        differs = differs.swapaxes(0, 1).ravel()
        j = differs.argmax() // (len(vs) * m) if differs.any() else K  # steps 1..j repeat round p's
        self.vs = vs[-1, :, None].copy()
        one = len(vs) == 1  # one state runs its steps in round p+1's own slot
        xs = self.ring[(p + 1) % w] if one else np.empty((K + 1, len(vs), m))  # step-major
        xs[0] = self._start
        xs[1:j + 1] = self.ring[p % w, 1:j + 1]
        steps = np.multiply(vs.swapaxes(0, 1)[j:], self._etas[j:, None, None], order="C")
        for k in range(j, K):
            np.add(self._keep[k] * xs[k], steps[k - j], out=xs[k + 1])
        state = released.cumsum() - released[0]  # round p+1+i plays state[i]
        xs[K].take(state, axis=0, out=out[:, 0], mode="clip")
        first = max(p + 1 + one, u - w + 1)  # earlier rounds are written, or overwritten later
        a, b, state = first % w, first % w + u + 1 - first, state[first - p - 1:]
        xs = xs.swapaxes(0, 1)
        xs.take(state[:w - a], axis=0, out=self.ring[a:min(b, w), :, 0], mode="clip")
        if b > w:  # wrapped past the last slot
            xs.take(state[w - a:], axis=0, out=self.ring[:b - w, :, 0], mode="clip")
        self._predicted = u
        self.ys = self.ring[u % w, :K]

    def absorb_round(self, t: int, rows, losses, ranks=None) -> None:
        """Gradient-tracking exchanges and oracle feedback for round t.

        rows holds the (agent i, origin s) pairs released this round, each
        agent's origins increasing, and losses their (r, 1) stack of f^i_s
        (None when rows is empty).  ranks: where each rank of distinct,
        ascending agents ends (FeedbackBuffer.ranks); by default each row is
        a rank and its origin is checked against the ring.  On a network it
        runs even when nothing is released so that oracle feedback stays
        synchronized across rounds (zero vectors).
        """
        K, n, m = self.params.K, self.n, self.cset.dim
        agents, origins = rows[:, 0], rows[:, 1]
        # sums[k] holds S^i_{k+1} = sum_{s in F^i_t} grad f^i_s(x^i_{s,k+1}) for every agent i
        sums = np.zeros((K, n, m))
        if len(rows):
            if ranks is None:
                ranks = range(1, len(rows) + 1)
                lo, hi = max(1, self._predicted - self.window + 1), min(t, self._predicted)
                if origins.min() < lo or origins.max() > hi:  # not in the ring, or in the future
                    raise ValueError(f"round {t} releases origins outside {lo}..{hi}")
            g = losses.grad(self.ring[origins % self.window, :K, agents]).swapaxes(0, 1)
            start = 0
            for end in ranks:  # a rank adds distinct agents' terms, each agent's in origin order
                if end - start == n:  # every agent, ascending
                    sums += g[:, start:end]
                else:
                    sums[:, agents[start:end]] += g[:, start:end]
                start = end
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
            self.bank.feedback(ds.reshape(K * n, m))
        self.sums, self.ds = sums, ds


def _round_sums(g, counts) -> np.ndarray:
    """Round i's sum of its counts[i] rows of g, added one by one into a zero seed."""
    sums = np.zeros((len(counts),) + g.shape[1:])
    rows = iter(g)
    for total, count in zip(sums, counts):
        for _ in range(count):
            total += next(rows)
    return sums


def run_rounds(run: NetworkRun, stream: LossStream, schedules, observe=None) -> np.ndarray:
    """Drive the run through its T rounds; returns the (T, n, m) decisions.

    One loop from the last predicted round p, 0 at the start, reads the
    releases from the schedules' release table.  With one agent and no
    observer, rounds p+1..block_end[p] form a dependency block, and a block
    of two or more rounds is one predict_block.  Every other step is one
    round: absorb round p, observe(p) when an observer is given, predict
    round p+1.  Round T is absorbed and observed after the loop.
    """
    T, n = run.params.T, run.n
    if stream.losses.shape != (n, T) or [s.T for s in schedules] != [T] * n:
        raise ValueError(f"need an ({n}, {T}) loss stream and {n} schedules of {T} rounds")
    delays = np.array([s.d for s in schedules])
    if delays[np.arange(T) + delays <= T].max(initial=1) > run.window:  # released past the ring
        raise ValueError(f"a ring of {run.window} rounds is shorter than a delay released by T")
    table = FeedbackBuffer()
    table.push(delays)
    decisions = np.empty((T, n, run.cset.dim))

    def stack(rows):  # an empty stack is no loss (SoftmaxLoss rejects it)
        return stream.losses[rows[:, 0], rows[:, 1] - 1, None] if len(rows) else None

    def absorb(t):
        rows = table.release(t)
        run.absorb_round(t, rows, stack(rows), table.ranks(t))
        if observe is not None:
            observe(t)

    blocks = n == 1 and observe is None
    p = 0
    while p < T:
        u = table.block_end[p] if blocks else p + 1
        if u > p + 1:
            rows = table.release(max(p, 1), u - 1)
            run.predict_block(u, rows, table.sizes[p:u], stack(rows), decisions[p:u])
        else:  # one round: its own steps cost less than a block's bookkeeping
            if p:
                absorb(p)
            decisions[p] = run.predict_round(u)
        p = u
    absorb(T)  # round T's release still reaches the bank, and the observer
    return decisions


def delmfw_run(cset: ConstraintSet, stream: LossStream, schedule: DelaySchedule,
               params: AlgoParams, seed) -> RunTrace:
    """Centralized DeLMFW: de2mfw_run on the one-node graph, without diagnostics.

    Only the mode tells its trace from the one-node network run's.
    """
    trace = de2mfw_run(cset, stream, [schedule], topology("complete", 1), params, seed,
                       diagnostics=False)
    trace.metadata["mode"] = "delmfw"
    return trace


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
            j = run.reused  # steps 1..j repeat round t-1's inputs, so their rows do too
            xs = run.ring[t % run.window, j:-1]  # x^i_{t,k}, the iterates each mix averages
            consensus[t - 1, :j] = consensus[t - 2, :j]
            consensus[t - 1, j:] = consensus_error(run.ys[j:], agent_mean(xs))
            tracking[t - 1] = consensus_error(run.ds, agent_mean(run.sums))
    decisions = run_rounds(run, stream, schedules, observe)
    metadata = {
        "mode": "de2mfw",
        "seed": seed,
        "T": params.T,
        "K": params.K,
        "A": repr(float(params.A)),
        "zeta": repr(float(params.zeta)),
        "B_est": repr(params.B_est),
        "B": repr(float(np.mean([s.B for s in schedules]))),
        "set_kind": cset.kind,
        "radius": repr(cset.radius),
        "dim": cset.dim,
        "loss_kind": stream.kind,
        "x_init_policy": "zero_lmo",
        "n": topo.n,
        "topology": topo.kind,
        "lambda2": repr(gossip.lambda2),
        "k0": gossip.k0,
        "feed_empty": True,
    }
    return RunTrace(decisions, per_agent_global_losses(stream, decisions), metadata,
                    consensus=consensus, tracking=tracking)
