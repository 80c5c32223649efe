"""Bounded convex constraint sets with closed-form linear minimization.

Decision points throughout the package are plain 1-D float64 numpy arrays.
A :class:`ConstraintSet` bundles a set kind with its size parameters and
exposes the operations the algorithms need: the linear minimization oracle
(``lmo``), membership testing, the Euclidean diameter, and (for the
projected-gradient baseline and the offline comparator only) Euclidean
projection.

Supported kinds:

- ``l1_ball``    {x : ||x||_1 <= r}
- ``l2_ball``    {x : ||x||_2 <= r}
- ``simplex``    {x : x >= 0, sum(x) = r}
- ``hypercube``  {x : |x_i| <= r}

All argmin/argmax tie-breaks go to the lowest index, and a zero input to
``lmo`` returns a fixed documented vertex, so every operation is fully
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("l1_ball", "l2_ball", "simplex", "hypercube")


def _as_vector(x, dim: int, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({dim},)")
    return x


@dataclass(frozen=True)
class ConstraintSet:
    """A bounded convex feasible set centered at the origin (simplex excepted).

    Attributes:
        kind: one of ``l1_ball``, ``l2_ball``, ``simplex``, ``hypercube``.
        radius: ball radius, simplex total mass, or hypercube half-width.
        dim: ambient dimension.
    """

    kind: str
    radius: float
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}, expected one of {KINDS}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")

    # -- linear minimization -------------------------------------------------

    def lmo(self, g) -> np.ndarray:
        """Return argmin_{v in set} <g, v>, an extreme point of the set.

        Tie-breaks go to the lowest coordinate index.  A zero vector (or
        zero-norm for the l2 ball) returns the set's first vertex:
        ``r*e_0`` for the l1 ball, l2 ball and simplex, and the all ``+r``
        corner for the hypercube.
        """
        g = _as_vector(g, self.dim, "g")
        return self.lmo_batch(g[None, :])[0]

    def lmo_batch(self, z: np.ndarray) -> np.ndarray:
        """Vectorized ``lmo`` over the rows of a 2-D array.

        Row r of the result is bitwise equal to ``lmo(z[r])``.  Oracle banks
        answer all their queries of a round with one call, and the tests'
        Monte-Carlo estimator of expected oracle outputs samples through it.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError("non-finite entries in LMO input")
        n = z.shape[0]
        r = self.radius
        rows = np.arange(n)
        out = np.zeros(z.shape)
        if self.kind == "l1_ball":
            idx = np.abs(z).argmax(axis=1)
            out[rows, idx] = np.where(z[rows, idx] > 0.0, -r, r)  # a zero row selects +r e_0
        elif self.kind == "simplex":
            idx = np.argmin(z, axis=1)
            out[rows, idx] = r
        elif self.kind == "hypercube":
            s = np.sign(z)
            s[s == 0.0] = -1.0
            out = -r * s
        else:  # l2_ball
            norms = np.linalg.norm(z, axis=1)
            nz = norms > 0.0
            out[nz] = -r * z[nz] / norms[nz, None]
            out[~nz, 0] = r
        return out

    # -- geometry ------------------------------------------------------------

    def diameter(self) -> float:
        """Euclidean diameter of the set."""
        r = self.radius
        if self.kind == "l1_ball" or self.kind == "l2_ball":
            return 2.0 * r
        if self.kind == "simplex":
            return r * math.sqrt(2.0)
        return 2.0 * r * math.sqrt(self.dim)

    def centroid(self) -> np.ndarray:
        """Center of symmetry (origin), or the barycenter for the simplex."""
        if self.kind == "simplex":
            return np.full(self.dim, self.radius / self.dim)
        return np.zeros(self.dim)

    def contains(self, x, tol: float = 1e-9) -> bool:
        """True iff the set's defining inequalities hold within additive tol."""
        x = _as_vector(x, self.dim)
        r = self.radius
        if self.kind == "l1_ball":
            return bool(np.sum(np.abs(x)) <= r + tol)
        if self.kind == "l2_ball":
            return bool(np.linalg.norm(x) <= r + tol)
        if self.kind == "simplex":
            return bool(np.all(x >= -tol) and abs(float(np.sum(x)) - r) <= tol)
        return bool(np.max(np.abs(x)) <= r + tol)

    # -- projection (baseline and comparator only) ------------------------------

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the set.

        The Frank-Wolfe algorithms never call this; it exists for the
        projected-gradient baseline, the offline regret comparator and for
        sampling feasible points in tests.
        """
        x = _as_vector(x, self.dim)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite entries in x")
        r = self.radius
        if self.kind == "l2_ball":
            norm = float(np.linalg.norm(x))
            if norm <= r:
                return x.copy()
            return x * (r / norm)
        if self.kind == "hypercube":
            return np.clip(x, -r, r)
        if self.kind == "simplex":
            return _project_simplex(x, r)
        # l1 ball: sorting-based reduction to a simplex projection of |x|
        if np.sum(np.abs(x)) <= r:
            return x.copy()
        return np.sign(x) * _project_simplex(np.abs(x), r)


def _project_simplex(v: np.ndarray, mass: float) -> np.ndarray:
    """Project v onto {y >= 0, sum(y) = mass} by the sorting algorithm."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u - (css - mass) / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = (css[rho] - mass) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)
