"""Deterministic RNG derivation.

Every random draw in the package flows from one user-facing integer seed
through :class:`numpy.random.SeedSequence` spawn keys, so independent
components (the oracle bank, the delay sequence, the loss stream) get
statistically independent streams while remaining bit-reproducible across
runs and platforms.  The oracle bank's noise is one stream: each FTPL
oracle needs a fixed Uniform[0,1]^m perturbation independent of the
others, and consecutive draws of one Generator give exactly that.
"""

from __future__ import annotations

import numpy as np

# Fixed stream tags: keep these stable, traces are bitwise-reproducible
# only as long as the derivation below never changes.
STREAM_ORACLE = 0
STREAM_DELAY = 1
STREAM_LOSS = 2


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


def oracle_noise(seed: int, n: int, K: int, m: int) -> np.ndarray:
    """(n*K, m) Uniform[0, 1) draws; row i*K + k - 1 is oracle k of agent i's noise.

    The rows are drawn in order from one stream, so agent i's K rows do not
    depend on n: a bank is a prefix of any larger bank with the same K and m.
    This is the draw order, agent-major; de2mfw.NetworkRun stores the rows
    step-major, oracle k of agent i in row (k-1)*n + i.
    """
    return rng_for(seed, STREAM_ORACLE).uniform(size=(n * K, m))
