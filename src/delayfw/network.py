"""Communication graphs, Metropolis gossip weights, and spectral constants.

The gossip matrix W assigns edge (i,j) the Metropolis weight
1/(1 + max{tau_i, tau_j}) with degrees tau, and puts the leftover mass on
the diagonal, which makes W symmetric and doubly stochastic on any
connected graph.  Its second-largest eigenvalue lambda(W) gives

    k0 = min{k >= 1 : lambda <= (k/(k+1))^2},   C_d = k0 * sqrt(n) * D

and the consensus error of step k is at most C_d/k, which the selftest
checks.  The network step constant A sits in de2mfw with the other step
rules.  Its transcribed rule's third term (2*beta*C_d + C_g(A))/(beta*D)
exceeds A for every A, as C_g grows with slope k0*sqrt(n) >= 1 in A, so
A >= that term has no finite solution and A keeps the first two terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOPOLOGY_KINDS = ("complete", "cycle", "grid", "erdos_renyi")

ER_MAX_ATTEMPTS = 1000  # erdos_renyi draws before giving up


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
    seed incremented until the graph is connected, at most ER_MAX_ATTEMPTS
    times.
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
        for attempt in range(ER_MAX_ATTEMPTS):
            mask = np.random.default_rng(seed + attempt).random((n, n)) < p
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j])
            if _connected(n, edges):
                return Topology("erdos_renyi", n, edges)
        raise ValueError(f"erdos_renyi: no connected graph on n = {n} nodes with p = {p} "
                         f"in {ER_MAX_ATTEMPTS} draws")
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return Topology(kind, n, edges)


@dataclass(frozen=True)
class GossipMatrix:
    """Metropolis weight matrix with its second-largest eigenvalue and k0."""

    w: np.ndarray
    lambda2: float
    k0: int

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def mix(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One synchronous gossip exchange: rows of x are per-agent vectors
        (np.dot gives np.matmul's bits here, at less call overhead)."""
        return np.dot(self.w, x, out=out)


def metropolis_weights(topo: Topology) -> GossipMatrix:
    n = topo.n
    tau = topo.degrees()
    w = np.zeros((n, n))
    for i, j in topo.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(tau[i], tau[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    # Every diagonal entry is >= 1/(1 + tau_i), so trace(W) >= 1 and the
    # other eigenvalues average >= 0: lambda2 >= 0 exactly, and a negative
    # value (the all-1/n complete-graph matrix) is eigvalsh roundoff.
    lam2 = max(lambda2(w), 0.0)
    return GossipMatrix(w, lam2, k0_of(lam2))


def lambda2(w: np.ndarray) -> float:
    """Second-largest eigenvalue of a symmetric doubly stochastic matrix (0 when n = 1)."""
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
        return 0.0
    # eigvalsh sorts ascending; the top eigenvalue 1 is simple for connected graphs
    return float(np.linalg.eigvalsh(w)[-2])


def k0_of(lam: float) -> int:
    """Smallest integer k >= 1 with lam <= (k/(k+1))^2."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    k = 1
    while lam > (k / (k + 1.0)) ** 2:
        k += 1
    return k
