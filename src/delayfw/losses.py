"""Online loss streams: quadratic targets and multiclass softmax cross-entropy.

One loss object holds a stack of losses: ``QuadraticLoss`` takes targets
theta of shape (..., m) and ``SoftmaxLoss`` batches of features (..., b, p)
with labels (..., b).  Indexing the leading axes with ``[...]`` gives a
smaller stack, down to a single loss.  A stream is one such stack with
leading (agent, round) axes (centralized runs are the n_agents=1 case).
Algorithms only ever see single per-agent losses; the network-average loss
F_t and horizon sums needed for regret are computed here from the stacked
arrays, post hoc.

``value`` and ``grad`` take one point of shape (m,) or a stack (..., m) of
points, broadcast against the loss stack; every entry of a stacked result
is bitwise equal to the call of that single loss on that single point, so
callers batch freely without changing a trace.

Softmax decisions are vectors of length p*C read as C stacked class blocks
of length p; the score of class c on feature a is <x_c, a>.  Labels are
zero-based everywhere.

The softmax kernel is class-major: after the (..., batch, C) logits
product, every max, exp and sum runs on a (C, ..., batch) copy, so each
numpy loop walks a long row of samples instead of the short class axis.
It matches the trailing-axis formulas (kept in tests/_reference.py) bit
for bit: the max is exact in any order, and the class sums follow numpy's
own sum(axis=-1) order.  Trace bytes therefore depend on numpy's
class-sum order, as they already depend on numpy's version.

The comparator evaluates the one-batch aggregate with ``value_grad``: one
logits product and one max/exp/class-sum give both value and gradient.
It picks the label logits by flat index, not by adding the mask's zeros;
only a -0.0 logit differs, and lse - picked (lse is never -0.0) cancels it.
"""

from __future__ import annotations

import csv as _csv
from functools import cached_property

import numpy as np


class QuadraticLoss:
    """f(x) = 0.5 * ||x - theta||^2, one loss per row of theta (..., m)."""

    kind = "quadratic"

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=np.float64)
        if self.theta.ndim < 1:
            raise ValueError("theta must have shape (..., m)")
        self.shape, self.dim = self.theta.shape[:-1], self.theta.shape[-1]

    def __getitem__(self, key) -> QuadraticLoss:
        return QuadraticLoss(self.theta[key])

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"x has shape {x.shape}, expected (..., {self.dim})")
        return x

    def value(self, x):
        """f(x): a float when the result is 0-d, else an array of the broadcast shape."""
        v = 0.5 * ((self._check(x) - self.theta) ** 2).sum(axis=-1)
        return float(v) if v.ndim == 0 else v

    def grad(self, x) -> np.ndarray:
        return self._check(x) - self.theta


class SoftmaxLoss:
    """Cross-entropy of a linear multiclass model summed over one batch.

    f(x) = sum_b [ logsumexp_c <x_c, a_b> - <x_{y_b}, a_b> ]

    features (..., b, p) and labels (..., b) hold one batch per leading index.
    """

    kind = "softmax_xent"

    def __init__(self, features, labels, n_classes: int):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.n_classes = int(n_classes)
        if self.features.ndim < 2 or self.features.shape[:-1] != self.labels.shape:
            raise ValueError("features must be (..., batch, p) aligned with labels (..., batch)")
        if self.labels.size == 0:
            raise ValueError("empty batch")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        self.shape, self.p = self.labels.shape[:-1], self.features.shape[-1]
        self.dim = self.p * self.n_classes

    def __getitem__(self, key) -> SoftmaxLoss:
        return SoftmaxLoss(self.features[key], self.labels[key], self.n_classes)

    def _logits(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 1 or x.shape[-1] != self.dim:
            raise ValueError(f"x has shape {x.shape}, expected (..., {self.dim})")
        blocks = x.reshape(x.shape[:-1] + (self.n_classes, self.p))
        return self.features @ blocks.swapaxes(-1, -2)  # (..., batch, C)

    def _onehot(self, ndim: int) -> np.ndarray:
        """Class-major (C, ..., batch) label mask for logits of ndim axes."""
        return np.arange(self.n_classes).reshape((-1,) + (1,) * (ndim - 1)) == self.labels

    def value(self, x):
        """f(x): a float when the result is 0-d, else an array of the broadcast shape."""
        z = self._logits(x)
        zc = z.transpose(_class_major(z.ndim)).copy()  # (C, ..., batch)
        zmax = np.maximum.reduce(zc, axis=0)
        e = zc - zmax
        lse = zmax + np.log(_class_sum(np.exp(e, out=e)))
        # picking the label's logit with a boolean mask adds only zeros, so it is exact
        picked = _class_sum(np.where(self._onehot(z.ndim), zc, 0.0))
        v = (lse - picked).sum(axis=-1)
        return float(v) if v.ndim == 0 else v

    def grad(self, x) -> np.ndarray:
        z = self._logits(x)
        order = _class_major(z.ndim)
        probs = z.transpose(order).copy()  # (C, ..., batch)
        probs -= np.maximum.reduce(probs, axis=0)
        np.exp(probs, out=probs)
        probs /= _class_sum(probs)
        probs -= self._onehot(z.ndim)
        # back into the (..., batch, C) buffer: BLAS rounds the product by its operands' layout
        z.transpose(order)[...] = probs
        g = z.swapaxes(-1, -2) @ self.features  # (..., C, p)
        return g.reshape(g.shape[:-2] + (self.dim,))

    @cached_property
    def _picks(self) -> np.ndarray:  # flat indices of the labels in a class-major (C, batch) array
        return self.labels * self.labels.size + np.arange(self.labels.size)

    def value_grad(self, x) -> tuple:
        """(value(x), grad(x)) bit for bit at one point x (m,) on one (batch, p) batch."""
        if self.features.ndim != 2 or np.ndim(x) != 1:
            raise ValueError("value_grad takes one point on a single (batch, p) batch")
        z = self._logits(x)  # (batch, C)
        probs = z.T.copy()  # (C, batch)
        picked = probs.reshape(-1)[self._picks]
        zmax = np.maximum.reduce(probs, axis=0)
        probs -= zmax
        np.exp(probs, out=probs)
        total = _class_sum(probs)
        value = float((zmax + np.log(total) - picked).sum())
        probs /= total
        probs.reshape(-1)[self._picks] -= 1.0  # the one-hot, as a scatter
        z.T[...] = probs
        return value, (z.T @ self.features).reshape(self.dim)


def _class_major(ndim: int) -> tuple:
    """Axis order that moves the trailing class axis to the front."""
    return (ndim - 1,) + tuple(range(ndim - 1))


def _class_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of a contiguous (C, ...) array, added as numpy's sum(axis=-1) adds C terms.

    numpy adds fewer than 8 terms one by one, 8 to 128 terms in eight
    interleaved accumulators that are then combined pairwise, and more terms
    by halving at a multiple of 8.  Below 16 terms the first eight rows are
    the accumulators themselves, so no reduce copies them.
    """
    n = len(rows)
    if n < 8:
        return np.add.reduce(rows, axis=0)  # a leading-axis reduce adds whole rows in order
    if n <= 128:
        head = n - n % 8
        # accumulator j adds rows j, j+8, j+16, ... in order
        acc = rows[:8] if head == 8 else np.add.reduce(
            rows[:head].reshape((-1, 8) + rows.shape[1:]), axis=0)
        acc = acc[0::2] + acc[1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        acc = acc[0::2] + acc[1::2]
        total = acc[0] + acc[1]
        if head == 8:  # the reduce's 0.0 identity: a sum of -0.0 rows is +0.0
            total += 0.0
        for row in rows[head:]:
            total += row
        return total
    half = n // 2 - n // 2 % 8
    return _class_sum(rows[:half]) + _class_sum(rows[half:])


class LossStream:
    """T losses for each of n agents: one loss stack of shape (n, T), immutable."""

    def __init__(self, losses):
        if len(losses.shape) != 2 or 0 in losses.shape:
            raise ValueError(f"stream needs an (n_agents, T) loss stack, got shape {losses.shape}")
        self.losses = losses
        self.kind = losses.kind
        self.dim = losses.dim
        self.n_agents, self.T = losses.shape
        self._agg = None

    def loss(self, agent: int, t: int):
        """Loss f^i_t for zero-based agent i, 1-based round t."""
        return self.losses[agent, t - 1]

    def average_value(self, x, t: int):
        """Network-average loss F_t(x) = (1/n) sum_i f^i_t(x), row by row for a stack."""
        x = np.asarray(x, dtype=np.float64)
        vals = self.losses[:, t - 1].value(x[..., None, :])  # (..., n)
        # a running sum adds the agents in order; np.sum would sum pairwise
        v = np.add.accumulate(vals, axis=-1)[..., -1] / self.n_agents
        return float(v) if v.ndim == 0 else v

    # -- horizon aggregates (comparator / regret) ---------------------------

    def _aggregate(self):
        if self._agg is None:
            if self.kind == "quadratic":
                thetas = self.losses.theta.reshape(-1, self.dim)
                self._agg = (len(thetas), thetas.sum(axis=0), float(np.sum(thetas**2)))
            else:
                f = self.losses
                self._agg = SoftmaxLoss(f.features.reshape(-1, f.p), f.labels.reshape(-1),
                                        f.n_classes)
        return self._agg

    def total_value(self, x) -> float:
        """sum_t F_t(x), the objective the comparator minimizes: total_grad's value."""
        return self.total_grad(x)[0]

    def total_grad(self, x) -> tuple:
        """(sum_t F_t(x), its gradient) from one evaluation of the aggregate."""
        if self.kind == "quadratic":
            count, theta_sum, theta_sq = self._aggregate()
            x = np.asarray(x, dtype=np.float64)
            value = 0.5 * count * float(x @ x) - float(theta_sum @ x) + 0.5 * theta_sq
            return value / self.n_agents, (count * x - theta_sum) / self.n_agents
        value, grad = self._aggregate().value_grad(x)
        return value / self.n_agents, grad / self.n_agents


def estimate_constants(stream: LossStream, cset) -> tuple:
    """Conservative (G, beta) upper bounds for a stream over a set.

    quadratic:    G = D/2 + max_t ||theta_t - center||, beta = 1
    softmax_xent: G = sqrt(2) * max_t sum_b ||a_b||, beta = max_t sum_b ||a_b||^2
    """
    losses = stream.losses
    if stream.kind == "quadratic":
        d = losses.theta - cset.centroid()
        # each row's sqrt(ddot), the rounding np.linalg.norm gives one row
        far = float(np.sqrt(d[..., None, :] @ d[..., :, None]).max())
        return cset.diameter() / 2.0 + far, 1.0
    sq = losses.features**2
    G = float(np.linalg.norm(losses.features, axis=-1).sum(axis=-1).max()) * np.sqrt(2.0)
    beta = float(sq.reshape(sq.shape[:-2] + (-1,)).sum(axis=-1).max())
    return G, beta


def synth_stream(seed, T: int, p: int, C: int, batch: int, n_agents: int = 1) -> LossStream:
    """Softmax stream from a seeded C-component Gaussian mixture.

    Component means are random unit vectors scaled to separation 3; every
    feature vector is rescaled to unit norm, so per-batch gradient-norm and
    smoothness bounds depend only on the batch size.  Labels are the mixture
    components.  Samples are dealt per (agent, round) from one flat draw.
    """
    if min(T, p, C, batch, n_agents) < 1:
        raise ValueError("T, p, C, batch, n_agents must all be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(C, p))
    means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
    total = n_agents * T * batch
    labels = rng.integers(0, C, size=total)
    feats = means[labels] + rng.normal(size=(total, p))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    feats = feats.reshape(n_agents, T, batch, p)
    labels = labels.reshape(n_agents, T, batch)
    return LossStream(SoftmaxLoss(feats, labels, C))


def synth_quadratic_stream(seed, T: int, dim: int, n_agents: int = 1, scale: float = 1.0) -> LossStream:
    """Quadratic stream with i.i.d. Gaussian targets theta_t ~ N(0, scale^2 I)."""
    if min(T, dim, n_agents) < 1:
        raise ValueError("T, dim, n_agents must all be >= 1")
    rng = np.random.default_rng(seed)
    thetas = rng.normal(scale=scale, size=(n_agents, T, dim))
    return LossStream(QuadraticLoss(thetas))


def csv_ingest(path, batch: int, T: int, n_agents: int = 1, *, n_classes: int) -> LossStream:
    """Build a softmax stream from a `label,f1,...,fp` CSV.

    Rows are consumed in file order, blank lines skipped, and dealt round-robin
    to agents; each agent's rows are grouped into per-round batches.  When the
    file runs out before T rounds are filled, reading wraps to the first row.
    """
    if min(batch, T, n_agents) < 1:
        raise ValueError("batch, T, n_agents must all be >= 1")
    with open(path, newline="") as fh:
        rows = [(lineno, r) for lineno, r in enumerate(_csv.reader(fh), start=1) if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header and at least one data row")
    width = len(rows[1][1])
    labels, feats = [], []
    for lineno, row in rows[1:]:
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: inconsistent width {len(row)} != {width}")
        try:
            lab = int(row[0])
            vec = [float(v) for v in row[1:]]
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: malformed row ({e})") from None
        if lab < 0:
            raise ValueError(f"{path}:{lineno}: negative label {lab}")
        labels.append(lab)
        feats.append(vec)
    labels = np.array(labels, dtype=np.int64)
    feats = np.array(feats, dtype=np.float64)
    if labels.max() >= n_classes:
        raise ValueError(f"{path}: label {labels.max()} outside 0..{n_classes - 1}")
    # row j of the file goes to agent j % n_agents, in file order, wrapping at the end
    j = np.arange(T * batch).reshape(T, batch) * n_agents + np.arange(n_agents)[:, None, None]
    pick = j % labels.size  # (n_agents, T, batch)
    return LossStream(SoftmaxLoss(feats[pick], labels[pick], n_classes))
