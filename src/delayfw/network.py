"""Communication graphs, Metropolis gossip weights, and spectral constants.

The gossip matrix W assigns edge (i,j) the Metropolis weight
1/(1 + max{tau_i, tau_j}) with degrees tau, and puts the leftover mass on
the diagonal, which makes W symmetric and doubly stochastic on any
connected graph.  The distributed algorithm's step constants come from the
second-largest eigenvalue lambda(W):

    rho = 1 - lambda,   k0 = min{k >= 1 : lambda <= (k/(k+1))^2}
    C_d = k0 * sqrt(n) * D
    C_g = sqrt(n) * max{lambda*(G + beta*D/rho), k0*beta*(4*C_d + A*D)}
    A   = max{3, 3G/(2*beta*D), (2*beta*C_d + C_g)/(beta*D)}

A and C_g reference each other, so they are resolved by fixed-point
iteration from A0 = max{3, 3G/(2*beta*D)}.  Whenever the k0-branch of C_g
is active the iteration's slope is k0*sqrt(n) >= 1 and the sequence grows
without bound; growth past A_CAP is detected, reported through a warning,
and the capped value is returned (the run proceeds with step sizes
eta_k = min(1, A/k), which are then 1 at every k anyone will reach).

Contraction bounds use the spectral norm of W on the subspace orthogonal
to the all-ones vector; that can exceed the second-largest eigenvalue when
negative eigenvalues dominate, so both values are recorded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

TOPOLOGY_KINDS = ("complete", "cycle", "grid", "erdos_renyi")

A_CAP = 1e12
_FP_MAX_ITERS = 100


def grid_shape(n: int) -> tuple:
    """Most-square factorization r x c with r <= c (r = largest divisor <= sqrt n)."""
    r = max(k for k in range(1, int(math.isqrt(n)) + 1) if n % k == 0)
    return r, n // r


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == n


@dataclass(frozen=True)
class Topology:
    """Undirected connected communication graph over agents 0..n-1."""

    kind: str
    n: int
    edges: tuple
    p: float | None = None
    seed: int | None = None
    attempts: int = 1

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) outside 0..{self.n - 1}")
        if not _connected(self.n, self.edges):
            raise ValueError("graph is not connected")

    def degrees(self) -> np.ndarray:
        tau = np.zeros(self.n, dtype=np.int64)
        for i, j in self.edges:
            tau[i] += 1
            tau[j] += 1
        return tau


def topology(kind: str, n: int, p: float = 0.3, seed: int = 0) -> Topology:
    """Build one of the four named topologies.

    erdos_renyi draws each edge with probability p and re-draws with the
    seed incremented until the graph is connected; the attempt count is
    recorded on the result.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind == "complete":
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    elif kind == "cycle":
        if n <= 2:
            edges = tuple((i, i + 1) for i in range(n - 1))
        else:
            edges = tuple((i, (i + 1) % n) for i in range(n))
    elif kind == "grid":
        r, c = grid_shape(n)
        edges = []
        for a in range(r):
            for b in range(c):
                u = a * c + b
                if b + 1 < c:
                    edges.append((u, u + 1))
                if a + 1 < r:
                    edges.append((u, u + c))
        edges = tuple(edges)
    elif kind == "erdos_renyi":
        if not 0.0 < p <= 1.0:
            raise ValueError(f"edge probability must be in (0, 1], got {p}")
        attempt = 0
        while True:
            attempt += 1
            rng = np.random.default_rng(seed + attempt - 1)
            mask = rng.random((n, n)) < p
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j])
            if _connected(n, edges):
                return Topology("erdos_renyi", n, edges, p=p, seed=seed, attempts=attempt)
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return Topology(kind, n, edges)


@dataclass(frozen=True)
class GossipMatrix:
    """Metropolis weight matrix with its spectral quantities."""

    w: np.ndarray
    tau: np.ndarray
    lambda2: float      # second-largest eigenvalue
    lambda_abs: float   # spectral norm orthogonal to the ones vector
    rho: float
    k0: int

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def mix(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One synchronous gossip exchange: rows of x are per-agent vectors."""
        return np.matmul(self.w, x, out=out)


def metropolis_weights(topo: Topology) -> GossipMatrix:
    n = topo.n
    tau = topo.degrees()
    w = np.zeros((n, n))
    for i, j in topo.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(tau[i], tau[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    lam2, lam_abs = lambda2(w)
    # Every diagonal entry is >= 1/(1 + tau_i), so trace(W) >= 1 and the
    # other eigenvalues average >= 0: lambda2 >= 0 exactly, and a negative
    # value (the all-1/n complete-graph matrix) is eigvalsh roundoff.
    lam2 = max(lam2, 0.0)
    return GossipMatrix(w, tau, lam2, lam_abs, 1.0 - lam2, k0_of(lam2))


def lambda2(w: np.ndarray) -> tuple:
    """(second-largest eigenvalue, max |eigenvalue|) orthogonal to the ones vector."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got {w.shape}")
    if not np.allclose(w, w.T, atol=1e-10):
        raise ValueError("gossip matrix must be symmetric")
    ones = np.ones(n)
    if np.max(np.abs(w @ ones - ones)) > 1e-10 or np.max(np.abs(ones @ w - ones)) > 1e-10:
        raise ValueError("gossip matrix must be doubly stochastic")
    if n == 1:
        return 0.0, 0.0
    eigs = np.sort(np.linalg.eigvalsh(w))
    rest = eigs[:-1]  # drop the top eigenvalue 1 (simple for connected graphs)
    return float(rest[-1]), float(np.max(np.abs(rest)))


def k0_of(lam: float) -> int:
    """Smallest integer k >= 1 with lam <= (k/(k+1))^2."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    k = 1
    while lam > (k / (k + 1.0)) ** 2:
        k += 1
    return k


@dataclass(frozen=True)
class AlgorithmConstants:
    c_d: float
    c_g: float
    a_dist: float
    converged: bool
    iterations: int
    trace: tuple = field(repr=False, default=())


def algorithm_constants(gossip: GossipMatrix, n: int, D: float, G: float, beta: float) -> AlgorithmConstants:
    """Resolve (C_d, C_g, A) jointly; see the module docstring for the rule."""
    if min(D, G, beta) <= 0:
        raise ValueError("D, G, beta must all be positive")
    lam, rho, k0 = gossip.lambda2, gossip.rho, gossip.k0
    c_d = k0 * math.sqrt(n) * D

    def c_g_of(a: float) -> float:
        return math.sqrt(n) * max(lam * (G + beta * D / rho), k0 * beta * (4.0 * c_d + a * D))

    a0 = max(3.0, 3.0 * G / (2.0 * beta * D))
    a = a0
    trace = [a]
    converged = False
    for it in range(1, _FP_MAX_ITERS + 1):
        nxt = max(a0, (2.0 * beta * c_d + c_g_of(a)) / (beta * D))
        trace.append(nxt)
        if abs(nxt - a) <= 1e-9 * max(1.0, abs(a)):
            a = nxt
            converged = True
            break
        a = nxt
        if a > A_CAP:
            break
    if not converged:
        a = min(a, A_CAP)
        warnings.warn(
            f"A/C_g fixed point did not converge after {len(trace) - 1} iterations; "
            f"proceeding with A capped at {a:g} (every eta_k = min(1, A/k) is 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    return AlgorithmConstants(c_d, c_g_of(a), a, converged, len(trace) - 1, tuple(trace))
