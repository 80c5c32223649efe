"""Run traces, regret, the offline comparator, and consensus diagnostics.

A RunTrace records what an algorithm actually played and lost, round by
round.  Regret is computed afterwards against a comparator minimizing the
summed (network-averaged) loss offline by accelerated projected gradient,
certified by its Frank-Wolfe duality gap; nothing inside the algorithms
ever sees the comparator.

Trace CSV format: `#key=value` metadata lines (sorted by key), then a
header `t,inst_loss,cum_loss,regret_prefix[,consensus_max,tracking_max]`,
then one row per round with floats printed to 9 significant digits.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import ConstraintSet
from .losses import LossStream, _class_major, _class_sum


_BLOCK_FLOATS = 2**15  # broadcast loss data per per_agent_global_losses block


@dataclass
class RunTrace:
    """Per-round record of one run, the same shape for every algorithm.

    decisions is (T, n, m) and per_agent_loss the (T, n) matrix of the
    global losses F_t(x^i_t); n = 1 for centralized DeLMFW, DOFW and DGD,
    where F_t is f_t.  inst_loss, the worst agent's loss max_i F_t(x^i_t),
    is derived from it.  The mode is metadata["mode"].  consensus/tracking
    are optional (T, K) diagnostic grids; their CSV columns carry the
    per-round max over k.
    """

    decisions: np.ndarray
    per_agent_loss: np.ndarray
    metadata: dict
    consensus: np.ndarray | None = None
    tracking: np.ndarray | None = None
    regret_prefix: np.ndarray | None = None

    @property
    def T(self) -> int:
        return int(self.per_agent_loss.shape[0])

    @property
    def inst_loss(self) -> np.ndarray:
        return self.per_agent_loss.max(axis=1)

    @property
    def cum_loss(self) -> np.ndarray:
        return np.cumsum(self.inst_loss)

    @property
    def total_loss(self) -> float:
        return float(self.inst_loss.sum())

    @property
    def final_regret(self) -> float:
        if self.regret_prefix is None:
            raise ValueError("regret has not been attached to this trace")
        return float(self.regret_prefix[-1])

    def csv_text(self) -> str:
        if self.regret_prefix is None:
            raise ValueError("attach regret before writing a trace CSV")
        out = io.StringIO()
        for key in sorted(self.metadata):
            out.write(f"#{key}={self.metadata[key]}\n")
        cols = ["t", "inst_loss", "cum_loss", "regret_prefix"]
        columns = [range(1, self.T + 1), self.inst_loss.tolist(), self.cum_loss.tolist(),
                   self.regret_prefix.tolist()]
        if self.consensus is not None:
            cols += ["consensus_max", "tracking_max"]
            columns += [self.consensus.max(axis=1).tolist(), self.tracking.max(axis=1).tolist()]
        out.write(",".join(cols) + "\n")
        row = "%d" + ",%.9g" * (len(columns) - 1) + "\n"
        out.write("".join(row % r for r in zip(*columns)))
        return out.getvalue()

    def write_csv(self, path) -> None:
        write_atomic(path, self.csv_text())


def write_atomic(path, text: str) -> None:
    """Write text atomically: temp file in the target directory, then rename.

    The file gets mode 0o666 less the umask, as open() would create it.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- comparator ----------------------------------------------------------------


@dataclass(frozen=True)
class Comparator:
    """Offline minimizer of the summed loss with its duality-gap certificate.

    converged is True iff the search stopped on gap <= tol*T rather than at
    its iteration cap.
    """

    x: np.ndarray
    gap: float
    iterations: int
    converged: bool


def compute_comparator(stream: LossStream, cset: ConstraintSet, max_iters: int = 5000,
                       tol: float | None = None) -> Comparator:
    """Accelerated projected gradient (FISTA) on Phi(x) = sum_t F_t(x).

    Starts at the vertex lmo(0).  Each iteration first checks the
    Frank-Wolfe duality gap <grad Phi(x), x - v>, v = lmo(grad Phi(x)),
    which bounds Phi(x) - min Phi, and stops when it falls to tol*T or at
    max_iters.  Otherwise it takes the step x' = project(y - grad Phi(y)/L)
    from the momentum point y, doubling L (from 1.0) until the quadratic
    upper bound of Phi at y holds at x', then moves y by Nesterov's
    momentum (Beck & Teboulle 2009).  Each point is evaluated once, value
    and gradient together: the start vertex (the first y), each later y
    and each trial x'; the accepted x' gives the next gap its gradient.
    Default tol: 1e-6 * max(1, per-round loss at the start vertex).  A run
    that does not converge says so in gap and converged, never raises.
    """
    x = cset.lmo(np.zeros(cset.dim))
    T = stream.T
    fx, grad = stream.total_grad(x)
    if tol is None:
        tol = 1e-6 * max(1.0, fx / T)
    y, fy, gy, momentum, L = x, fx, grad, 1.0, 1.0
    gap, it = math.inf, 0
    for it in range(max_iters + 1):
        v = cset.lmo(grad)
        gap = float(grad @ (x - v))
        if gap <= tol * T or it == max_iters:
            break
        if it > 0:  # the first momentum point is the start vertex
            fy, gy = stream.total_grad(y)
        while True:
            z = cset.project(y - gy / L)
            step = z - y
            fz, gz = stream.total_grad(z)
            if fz <= fy + float(gy @ step) + 0.5 * L * float(step @ step):
                break
            L *= 2.0
        nxt = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        y = z + ((momentum - 1.0) / nxt) * (z - x)
        x, grad, momentum = z, gz, nxt
    return Comparator(x, gap, it, gap <= tol * T)


def per_agent_global_losses(stream: LossStream, decisions: np.ndarray) -> np.ndarray:
    """(T, n) matrix of F_t(x^i_t) for decisions (T, n, m).

    Each block of rounds evaluates all n decisions of each round against
    that round's n losses.  A round broadcasts n*n losses' data (theta, or
    softmax features); a block holds as many rounds as keep that near
    _BLOCK_FLOATS floats, and at least one.  Quadratic losses are evaluated
    coordinate-major: theta and the decisions are transposed once to
    (m, n, T), a block's squared differences are an (m, agent, point,
    round) array, and _class_sum adds its m rows in the order of value's
    sum over the trailing axis, so every numpy loop runs along agents and
    rounds instead of the short m axis.  Softmax losses make one stacked
    value call per block.  The agents are added in order, as
    LossStream.average_value adds them, so every entry equals its
    average_value call bit for bit.
    """
    T, n = decisions.shape[0], decisions.shape[1]
    losses = stream.losses
    data = losses.theta if stream.kind == "quadratic" else losses.features
    rounds = max(1, _BLOCK_FLOATS // (n * data[:, 0].size))  # n points against n losses
    out = np.empty((T, n))
    if stream.kind == "quadratic":
        points = np.ascontiguousarray(decisions.transpose(2, 1, 0))  # (m, n, T)
        theta = np.ascontiguousarray(losses.theta.transpose(2, 0, 1))
        for lo in range(0, T, rounds):
            hi = min(lo + rounds, T)
            sq = points[:, None, :, lo:hi] - theta[:, :, None, lo:hi]  # (m, agent, point, round)
            np.square(sq, out=sq)
            vals = 0.5 * _class_sum(sq)
            # a leading-axis reduce adds whole rows, so the agents in order
            out[lo:hi] = (np.add.reduce(vals, axis=0) / stream.n_agents).T
        return out
    for lo in range(0, T, rounds):
        hi = min(lo + rounds, T)
        # points (n, 1, rounds, m) against losses (n, rounds): values (point, agent, round)
        vals = losses[:, lo:hi].value(decisions[lo:hi].swapaxes(0, 1)[:, None])
        out[lo:hi] = (np.add.accumulate(vals, axis=1)[:, -1] / stream.n_agents).T
    return out


def regret(trace: RunTrace, comparator: Comparator, stream: LossStream) -> np.ndarray:
    """Prefix regret curve; the last entry is the reported regret.

    The max over agents of cumulative F_t(x^i_t) - F_t(x*); with one agent,
    cumulative f_t(x_t) - f_t(x*).
    """
    # F_t(x*) for every round from one stacked call, agents summed in order
    # as LossStream.average_value sums them
    vals = stream.losses.value(comparator.x)  # (n, T)
    comp = np.add.accumulate(vals, axis=0)[-1] / stream.n_agents
    agent_cum = np.cumsum(trace.per_agent_loss, axis=0)
    return np.max(agent_cum - np.cumsum(comp[:trace.T])[:, None], axis=1)


def attach_regret(trace: RunTrace, comparator: Comparator, stream: LossStream) -> RunTrace:
    trace.regret_prefix = regret(trace, comparator, stream)
    return trace


def consensus_error(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """max_i ||vectors[..., i, :] - center|| of an (..., n, m) stack and (..., m) centers.

    A (K, n, m) stack gives the (K,) array of its per-slice values, bit for bit as norms.
    With at least as many agents as coordinates the squared distances are summed
    coordinate-major: an (m, ..., n) array whose m rows _class_sum adds in
    sum(axis=-1) order, so numpy's loops run along the agents.
    """
    n, m = vectors.shape[-2:]
    if n >= m:
        d = np.subtract(vectors.transpose(_class_major(vectors.ndim)),
                        center.transpose(_class_major(center.ndim))[..., None], order="C")
        d *= d
        sq = _class_sum(d)
    else:
        d = vectors - center[..., None, :]
        sq = np.add.reduce(d * d, axis=-1)
    return np.sqrt(np.maximum.reduce(sq, axis=-1))


def agent_mean(stack: np.ndarray) -> np.ndarray:
    """stack.mean(axis=1) of a (K, n, m) stack, bit for bit.

    numpy adds the agents one by one when m > 1, as a leading-axis reduce of
    an agent-major copy does, but pairwise along one coordinate's agents.
    """
    if stack.shape[-1] == 1:
        return stack.mean(axis=1)
    return np.add.reduce(stack.transpose(1, 0, 2).copy(), axis=0) / stack.shape[1]
