"""Straight-line reference implementations used only by tests.

These re-derive algorithm trajectories with flat, loop-unrolled logic and
no state objects, buffers or batching, so the library's runs can be
checked against an independent wiring of the same arithmetic.  The
softmax functions are the loss formulas with every max and sum along the
trailing class axis; the class-major kernel must match them bit for bit.
"""

import numpy as np

from delayfw import seeding


def meta_fw_run(cset, stream, params, seed, schedule=None):
    """Delayed meta-Frank-Wolfe; without a schedule, round t's feedback arrives at round t.

    Round s is released at round s + d_s - 1.  Each release set is summed in
    origin order, seeded by its first term, and the sum is added to every
    accumulator.  Returns (decisions, inst_loss) as (T, m) and (T,) arrays.
    """
    K, T, zeta = params.K, params.T, params.zeta
    m = cset.dim
    noises = [seeding.oracle_rng(seed, 0, k).uniform(size=m) for k in range(1, K + 1)]
    accums = [np.zeros(m) for _ in range(K)]
    start = cset.lmo(np.zeros(m))
    decisions = np.empty((T, m))
    inst = np.empty(T)
    subs_of = {}  # origin round -> its K sub-iterates
    due = {}  # release round -> origins, in increasing order
    for t in range(1, T + 1):
        x = start
        subs = []
        for k in range(1, K + 1):
            subs.append(x)
            v = cset.lmo(zeta * accums[k - 1] + noises[k - 1])
            eta = min(1.0, params.A / k)
            x = (1.0 - eta) * x + eta * v
        decisions[t - 1] = x
        inst[t - 1] = stream.loss(0, t).value(x)
        subs_of[t] = subs
        d = 1 if schedule is None else int(schedule.d[t - 1])
        due.setdefault(t + d - 1, []).append(t)
        released = due.pop(t, [])
        if not released:
            continue
        first, rest = released[0], released[1:]
        for k in range(K):
            g = stream.loss(0, first).grad(subs_of[first][k]).copy()
            for s in rest:
                g = g + stream.loss(0, s).grad(subs_of[s][k])
            accums[k] = accums[k] + g
    return decisions, inst


def softmax_logits(loss, x):
    """(..., batch, C) logits of a SoftmaxLoss stack at points x (..., p*C)."""
    x = np.asarray(x, dtype=np.float64)
    blocks = x.reshape(x.shape[:-1] + (loss.n_classes, loss.p))
    return loss.features @ np.swapaxes(blocks, -1, -2)


def softmax_value(loss, x):
    """SoftmaxLoss.value with every max and sum taken along the trailing class axis."""
    z = softmax_logits(loss, x)
    onehot = loss.labels[..., None] == np.arange(loss.n_classes)
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    picked = np.where(onehot, z, 0.0).sum(axis=-1)
    v = (lse - picked).sum(axis=-1)
    return float(v) if v.ndim == 0 else v


def softmax_grad(loss, x):
    """SoftmaxLoss.grad with every max and sum taken along the trailing class axis."""
    z = softmax_logits(loss, x)
    z -= z.max(axis=-1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=-1, keepdims=True)
    probs -= loss.labels[..., None] == np.arange(loss.n_classes)
    g = np.swapaxes(probs, -1, -2) @ loss.features  # (..., C, p)
    return g.reshape(g.shape[:-2] + (loss.dim,))
