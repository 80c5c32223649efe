"""Deterministic RNG derivation.

Every random draw in the package flows from one user-facing integer seed
through :class:`numpy.random.SeedSequence` spawn keys, so independent
components (each agent's oracles, the delay sequence, the loss stream)
get statistically independent streams while remaining bit-reproducible
across runs and platforms.

The oracle bank's noise is the largest set of streams, one per (agent, k).
:func:`oracle_noise` draws all of them in one pass over arrays instead of
building n*K Generators: it runs SeedSequence's hash over every entropy key
(seed, STREAM_ORACLE, i, k) at once, seeds PCG64 (O'Neill 2014) from each
hashed state and steps the 128-bit LCGs together.  Both algorithms are
fixed and documented, and numpy keeps their streams stable (NEP 19), so
row i*K + k - 1 equals ``rng_for(seed, STREAM_ORACLE, i, k).uniform(size=m)``
bit for bit.
"""

from __future__ import annotations

import numpy as np

# Fixed stream tags: keep these stable, traces are bitwise-reproducible
# only as long as the derivation below never changes.
STREAM_ORACLE = 0
STREAM_DELAY = 1
STREAM_LOSS = 2

# SeedSequence's hash constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's 128-bit LCG multiplier


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


def oracle_noise(seed: int, n: int, K: int, m: int) -> np.ndarray:
    """(n*K, m) Uniform[0, 1) draws; row i*K + k - 1 is oracle k of agent i's noise.

    Each row equals ``rng_for(seed, STREAM_ORACLE, i, k).uniform(size=m)``.
    """
    seed = int(seed)
    if seed < 0 or min(n, K, m) < 1:
        raise ValueError(f"need seed >= 0 and n, K, m >= 1, got {seed}, {n}, {K}, {m}")
    agent, step = np.divmod(np.arange(n * K, dtype=np.uint32), np.uint32(K))
    words = [np.full(n * K, w, np.uint32) for w in _words(seed) + _words(STREAM_ORACLE)]
    pool = _mix_entropy(words + [agent, step + np.uint32(1)])
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL]) for i in range(8)]  # generate_state(4, np.uint64)
    # which pairs the words little-endian: seed hi, seed lo, inc hi, inc lo
    halves = [lo.astype(object) | hi.astype(object) << 32
              for lo, hi in zip(state[::2], state[1::2])]
    initstate = halves[0] << 64 | halves[1]
    inc = (halves[2] << 64 | halves[3]) << 1 & _MASK128 | 1
    lcg = ((inc + initstate) * _PCG_MULT + inc) & _MASK128  # srandom: step, add initstate, step
    out = np.empty((n * K, m), np.uint64)
    for c in range(m):  # step, then the XSL-RR output of the new state
        lcg = (lcg * _PCG_MULT + inc) & _MASK128
        hi, lo = (lcg >> 64).astype(np.uint64), (lcg & _MASK64).astype(np.uint64)
        x, rot = hi ^ lo, hi >> np.uint64(58)  # rotate by the state's top 6 bits
        out[:, c] = x >> rot | x << (-rot & np.uint64(63))
    return (out >> np.uint64(11)) * 2.0**-53  # next_double: the top 53 bits


def _words(value: int) -> list:
    """Little-endian 32-bit words of an int >= 0 ([0] for 0), as SeedSequence splits entropy."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's multiply-xorshift hash, whose multiplier advances with every call."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix_entropy(entropy: list) -> list:
    """SeedSequence's 4-word pool for entropy given as one uint32 array per word."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ result >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool
