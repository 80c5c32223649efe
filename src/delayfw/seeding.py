"""Deterministic RNG derivation.

Every random draw in the package flows from one user-facing integer seed
through :class:`numpy.random.SeedSequence` spawn keys, so independent
components (each agent's oracles, the delay sequence, the loss stream)
get statistically independent streams while remaining bit-reproducible
across runs and platforms.
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


def oracle_rng(seed: int, agent: int, k: int) -> np.random.Generator:
    """Stream for oracle k of the given agent (agent 0 = centralized)."""
    return rng_for(seed, STREAM_ORACLE, agent, k)
