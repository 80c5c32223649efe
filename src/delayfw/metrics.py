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
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .geometry import ConstraintSet
from .losses import LossStream


def _fmt(v: float) -> str:
    return f"{v:.9g}"


@dataclass
class RunTrace:
    """Per-round record of one run.

    decisions is (T, m) for single-agent runs and (T, n, m) for network
    runs.  inst_loss holds f_t(x_t) centrally and the worst-agent global
    loss max_i F_t(x^i_t) in the distributed case (mean_loss keeps the
    agent average).  consensus/tracking are optional (T, K) diagnostic
    grids; their CSV columns carry the per-round max over k.
    """

    mode: str
    decisions: np.ndarray
    inst_loss: np.ndarray
    metadata: dict
    per_agent_loss: np.ndarray | None = None
    mean_loss: np.ndarray | None = None
    consensus: np.ndarray | None = None
    tracking: np.ndarray | None = None
    regret_prefix: np.ndarray | None = None

    @property
    def T(self) -> int:
        return int(self.inst_loss.size)

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
        diag = self.consensus is not None
        if diag:
            cols += ["consensus_max", "tracking_max"]
        out.write(",".join(cols) + "\n")
        cum = self.cum_loss
        for t in range(self.T):
            row = [str(t + 1), _fmt(self.inst_loss[t]), _fmt(cum[t]), _fmt(self.regret_prefix[t])]
            if diag:
                row.append(_fmt(float(np.max(self.consensus[t]))))
                row.append(_fmt(float(np.max(self.tracking[t]))))
            out.write(",".join(row) + "\n")
        return out.getvalue()

    def write_csv(self, path) -> None:
        write_atomic(path, self.csv_text())


def write_atomic(path, text: str) -> None:
    """Write text atomically: temp file in the target directory, then rename."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_trace_csv(path) -> tuple:
    """Parse a trace CSV back into (metadata dict, column dict of arrays)."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key] = val
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return meta, {name: data[:, i] for i, name in enumerate(header)}


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
    momentum (Beck & Teboulle 2009).  The default per-round tol is 1e-6
    times the per-round loss scale at the start vertex, so comparator error
    sits far below any regret being measured.  Non-convergence is reported
    through the gap and converged fields, never raised.
    """
    x = cset.lmo(np.zeros(cset.dim))
    T = stream.T
    if tol is None:
        tol = 1e-6 * max(1.0, stream.total_value(x) / T)
    y, momentum, L = x, 1.0, 1.0
    gap = math.inf
    it = 0
    for it in range(max_iters + 1):
        grad = stream.total_grad(x)
        v = cset.lmo(grad)
        gap = float(grad @ (x - v))
        if gap <= tol * T or it == max_iters:
            break
        fy, gy = stream.total_value(y), stream.total_grad(y)
        while True:
            z = cset.project(y - gy / L)
            step = z - y
            if stream.total_value(z) <= fy + float(gy @ step) + 0.5 * L * float(step @ step):
                break
            L *= 2.0
        nxt = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        y = z + ((momentum - 1.0) / nxt) * (z - x)
        x, momentum = z, nxt
    return Comparator(x, gap, it, gap <= tol * T)


def per_agent_global_losses(stream: LossStream, decisions: np.ndarray) -> np.ndarray:
    """(T, n) matrix of F_t(x^i_t) for distributed decisions (T, n, m).

    One stacked F_t evaluation per round, at all n decisions at once: T
    loss-value calls in all.
    """
    T, n = decisions.shape[0], decisions.shape[1]
    out = np.empty((T, n))
    for t in range(1, T + 1):
        out[t - 1] = stream.average_value(decisions[t - 1], t)
    return out


def regret(trace: RunTrace, comparator: Comparator, stream: LossStream) -> np.ndarray:
    """Prefix regret curve; the last entry is the reported regret.

    Single-agent: cumulative f_t(x_t) minus cumulative f_t(x*).
    Distributed: max over agents of cumulative F_t(x^i_t) - F_t(x*).
    """
    # F_t(x*) for every round from one stacked call, agents summed in order
    # as LossStream.average_value sums them
    vals = stream.losses.value(comparator.x)  # (n, T)
    comp = np.add.accumulate(vals, axis=0)[-1] / stream.n_agents
    comp_cum = np.cumsum(comp[:trace.T])
    if trace.per_agent_loss is None:
        return trace.cum_loss - comp_cum
    agent_cum = np.cumsum(trace.per_agent_loss, axis=0)
    return np.max(agent_cum - comp_cum[:, None], axis=1)


def attach_regret(trace: RunTrace, comparator: Comparator, stream: LossStream) -> RunTrace:
    trace.regret_prefix = regret(trace, comparator, stream)
    return trace


def consensus_error(vectors: np.ndarray, center: np.ndarray | None = None):
    """max_i ||vectors[..., i, :] - center|| over the n agents of an (..., n, m) stack.

    center (..., m) defaults to the agent mean.  One (n, m) slice (or n scalars)
    gives a float, a (K, n, m) stack the (K,) array of its per-slice values.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    center = vectors.mean(axis=-2) if center is None else np.asarray(center, dtype=np.float64)
    err = np.max(np.linalg.norm(vectors - center[..., None, :], axis=-1), axis=-1)
    return float(err) if err.ndim == 0 else err
