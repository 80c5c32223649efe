"""Straight-line reference implementations used only by tests.

These re-derive algorithm trajectories with flat, loop-unrolled logic and
no state objects, buffers or batching, so the library's runs can be
checked against an independent wiring of the same arithmetic.  The
softmax functions are the loss formulas with every max and sum along the
trailing class axis; the class-major kernel must match them bit for bit.
ftpl_query_expected averages an FTPL prediction over fresh noise draws,
for the tests of the oracle's expected behaviour.  comparator_four_calls
is the comparator loop that evaluates the summed loss's value and its
gradient in separate calls, four per iteration at two distinct points;
the fused comparator must match it bit for bit.  l1_lmo_by_sign picks the
l1-ball vertex by sign, zero mask and multiply; the batched LMO's one
np.where must match it bit for bit.
"""

import math

import numpy as np

from delayfw import seeding
from delayfw.losses import SoftmaxLoss
from delayfw.metrics import Comparator

_MC_CHUNK = 16384


def meta_fw_run(cset, stream, params, seed, schedule=None):
    """Delayed meta-Frank-Wolfe; without a schedule, round t's feedback arrives at round t.

    Round s is released at round s + d_s - 1.  Each release set is summed in
    origin order, seeded by its first term, and the sum is added to every
    accumulator.  Returns (decisions, inst_loss) as (T, m) and (T,) arrays.
    """
    K, T, zeta = params.K, params.T, params.zeta
    m = cset.dim
    noises = seeding.rng_for(seed, seeding.STREAM_ORACLE).uniform(size=(K, m))
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


def gossip_fw_round(start, vs, w, etas):
    """One round of every agent's K gossip-FW steps, from scratch.

    start is the (n, m) start vertex, vs the (K, n, m) oracle outputs, w the
    (n, n) gossip matrix and etas the K step sizes.  Returns the (K+1, n, m)
    sub-iterates x_{t,1..K+1} and the (K, n, m) mixed iterates y_{t,1..K}.
    """
    x = np.asarray(start, dtype=np.float64)
    subs, ys = [x], []
    for k in range(len(vs)):
        y = w @ x if len(w) > 1 else x  # W = [1] is the identity, -0.0 included
        x = (1.0 - etas[k]) * y + etas[k] * vs[k]
        subs.append(x)
        ys.append(y)
    return np.array(subs), np.array(ys)


def l1_lmo_by_sign(z, radius):
    """Row-wise argmin over the l1 ball of the given radius: -radius*sign at the largest |z|.

    A zero entry (of either sign) counts as negative, so a zero row selects +radius*e_0.
    """
    rows = np.arange(len(z))
    idx = np.argmax(np.abs(z), axis=1)
    s = np.sign(z[rows, idx])
    s[s == 0.0] = -1.0
    out = np.zeros_like(z)
    out[rows, idx] = -radius * s
    return out


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


def total_value(stream, x):
    """sum_t F_t(x) from the quadratic closed form or the softmax aggregate's value."""
    x = np.asarray(x, dtype=np.float64)
    if stream.kind == "quadratic":
        thetas = stream.losses.theta.reshape(-1, stream.dim)
        value = (0.5 * len(thetas) * float(x @ x) - float(thetas.sum(axis=0) @ x)
                 + 0.5 * float(np.sum(thetas**2)))
    else:
        value = _softmax_aggregate(stream).value(x)
    return value / stream.n_agents


def total_grad(stream, x):
    """The gradient of sum_t F_t at x, from the closed form or the aggregate's grad."""
    x = np.asarray(x, dtype=np.float64)
    if stream.kind == "quadratic":
        thetas = stream.losses.theta.reshape(-1, stream.dim)
        return (len(thetas) * x - thetas.sum(axis=0)) / stream.n_agents
    return _softmax_aggregate(stream).grad(x) / stream.n_agents


def _softmax_aggregate(stream):
    f = stream.losses
    return SoftmaxLoss(f.features.reshape(-1, f.p), f.labels.reshape(-1), f.n_classes)


def comparator_four_calls(stream, cset, max_iters=5000, tol=None):
    """FISTA comparator with a separate value and gradient call per point.

    Each iteration evaluates the gradient at x, the value and the gradient
    at y, and the value at every trial point; otherwise the same steps as
    metrics.compute_comparator.
    """
    x = cset.lmo(np.zeros(cset.dim))
    T = stream.T
    if tol is None:
        tol = 1e-6 * max(1.0, total_value(stream, x) / T)
    y, momentum, L = x, 1.0, 1.0
    gap = math.inf
    it = 0
    for it in range(max_iters + 1):
        grad = total_grad(stream, x)
        v = cset.lmo(grad)
        gap = float(grad @ (x - v))
        if gap <= tol * T or it == max_iters:
            break
        fy, gy = total_value(stream, y), total_grad(stream, y)
        while True:
            z = cset.project(y - gy / L)
            step = z - y
            if total_value(stream, z) <= fy + float(gy @ step) + 0.5 * L * float(step @ step):
                break
            L *= 2.0
        nxt = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        y = z + ((momentum - 1.0) / nxt) * (z - x)
        x, momentum = z, nxt
    return Comparator(x, gap, it, gap <= tol * T)


def ftpl_query_expected(cset, zeta, accum, samples, seed):
    """Monte-Carlo estimate of the noise-averaged FTPL prediction.

    Averages ``lmo(zeta * accum + n)`` over ``samples`` independent
    Uniform[0,1]^m noise draws.  Deterministic given the seed; sampling is
    chunked so large sample counts stay within a bounded memory footprint.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    accum = np.asarray(accum, dtype=np.float64)
    if accum.shape != (cset.dim,):
        raise ValueError(f"accum has shape {accum.shape}, expected ({cset.dim},)")
    rng = np.random.default_rng(seed)
    base = zeta * accum
    total = np.zeros(cset.dim)
    done = 0
    while done < samples:
        k = min(_MC_CHUNK, samples - done)
        noise = rng.uniform(size=(k, cset.dim))
        total += cset.lmo_batch(base[None, :] + noise).sum(axis=0)
        done += k
    return total / samples
