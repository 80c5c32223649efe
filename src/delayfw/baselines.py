"""Projection-free and projected baselines under delayed feedback.

Two single-agent reference algorithms return the main methods' trace, one
agent's: (T, 1, m) decisions and the (T, 1) losses of
metrics.per_agent_global_losses, so their traces are directly comparable:

``DofwState``
    A delayed online Frank-Wolfe step.  All gradients received so far are
    folded into a linear term of the quadratic surrogate

        phi_t(x) = eta_reg * <accum, x> + ||x - x_1||^2,

    anchored at the starting point ``x_1``.  Each round moves from the
    current iterate toward ``lmo(grad phi_t(x_t))`` with an exact line
    search on the surrogate, clipped to [0, 1], so the iterate is always a
    convex combination of feasible points.

``DgdState``
    Projected gradient descent on the released gradients:
    ``x <- project(x - eta_dgd * sum(released))``.  Rounds with no releases
    leave the iterate untouched.

Both algorithms are deterministic; the ``seed`` accepted by the run drivers
is only recorded in the trace metadata so runs stay attributable to the
stream that produced them.  The run drivers take their step weight from the
caller; ``runner.run_single`` passes ``eta_reg = D / (G * sqrt(T))`` and
``eta_dgd = D / (G * sqrt(2B))`` with the run's resolved ``G`` and ``D``
(the config's constants, or the stream's gradient bound and the set's
diameter) and the schedule's total delay ``B``.
"""

import math

import numpy as np

from .delay import DelaySchedule, FeedbackBuffer
from .geometry import ConstraintSet
from .losses import LossStream
from .metrics import RunTrace, per_agent_global_losses


class DofwState:
    """Delayed online Frank-Wolfe with a quadratic surrogate."""

    def __init__(self, cset: ConstraintSet, eta_reg: float):
        if eta_reg <= 0.0 or not math.isfinite(eta_reg):
            raise ValueError(f"eta_reg must be positive and finite, got {eta_reg}")
        self.cset = cset
        self.eta_reg = float(eta_reg)
        self.x_anchor = cset.lmo(np.zeros(cset.dim))
        self.x = self.x_anchor.copy()
        self.accum = np.zeros(cset.dim)

    def round(self, released_grads) -> np.ndarray:
        """Fold in the released gradients and advance the iterate."""
        for g in released_grads:
            self.accum = self.accum + np.asarray(g, dtype=float)
        grad_phi = self.eta_reg * self.accum + 2.0 * (self.x - self.x_anchor)
        v = self.cset.lmo(grad_phi)
        w = v - self.x
        wsq = float(w @ w)
        if wsq > 0.0:
            # minimizer of phi(x + s*w): d/ds = <grad_phi, w> + 2s||w||^2
            s = min(1.0, max(0.0, -float(grad_phi @ w) / (2.0 * wsq)))
        else:
            s = 0.0
        self.x = self.x + s * w
        return self.x


class DgdState:
    """Delayed projected gradient descent."""

    def __init__(self, cset: ConstraintSet, eta_dgd: float):
        if eta_dgd <= 0.0 or not math.isfinite(eta_dgd):
            raise ValueError(f"eta_dgd must be positive and finite, got {eta_dgd}")
        self.cset = cset
        self.eta_dgd = float(eta_dgd)
        self.x = cset.lmo(np.zeros(cset.dim))

    def round(self, released_grads) -> np.ndarray:
        if len(released_grads):
            total = np.add.accumulate(np.asarray(released_grads, dtype=float))[-1]  # in order
            self.x = self.cset.project(self.x - self.eta_dgd * total)
        return self.x


def _baseline_run(make_state, mode: str, step_key: str, cset: ConstraintSet,
                  stream: LossStream, schedule: DelaySchedule, step: float,
                  seed) -> RunTrace:
    if stream.losses.shape != (1, schedule.T):
        raise ValueError(f"baselines need a 1-agent stream of {schedule.T} rounds, "
                         f"got shape {stream.losses.shape}")
    state = make_state(cset, step)
    table = FeedbackBuffer()
    table.push(schedule.d[None])
    T = schedule.T
    decisions = np.empty((T, 1, cset.dim))
    for t in range(1, T + 1):
        decisions[t - 1, 0] = state.x
        origins = table.release(t)[:, 1] - 1
        grads = stream.losses[0, origins].grad(decisions[origins, 0]) if len(origins) else []
        state.round(grads)
    metadata = {
        "mode": mode,
        "seed": seed,
        "T": T,
        "B": schedule.B,
        "dmax": schedule.dmax,
        "set_kind": cset.kind,
        "radius": repr(cset.radius),
        "dim": cset.dim,
        "loss_kind": stream.kind,
        step_key: repr(step),
    }
    if mode == "baseline_dofw":
        metadata["step_rule"] = "exact_line_search"
    return RunTrace(decisions, per_agent_global_losses(stream, decisions), metadata)


def dofw_run(cset: ConstraintSet, stream: LossStream, schedule: DelaySchedule,
             eta_reg: float, seed=0) -> RunTrace:
    """Run delayed online Frank-Wolfe over the full horizon."""
    return _baseline_run(DofwState, "baseline_dofw", "eta_reg", cset, stream,
                         schedule, eta_reg, seed)


def dgd_run(cset: ConstraintSet, stream: LossStream, schedule: DelaySchedule,
            eta_dgd: float, seed=0) -> RunTrace:
    """Run delayed projected gradient descent over the full horizon."""
    return _baseline_run(DgdState, "baseline_dgd", "eta_dgd", cset, stream,
                         schedule, eta_dgd, seed)
