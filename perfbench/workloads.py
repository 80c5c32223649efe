"""The benchmark's workloads, each a config body for `delayfw run`.

Every workload runs one seed per `run_experiment` call; the seed is the
benchmark's `--seed` argument and is the only input that varies.
"""

from __future__ import annotations

import copy

WORKLOADS = {
    # The n = 1 hot path: K single-row oracle queries and K gradient sums per
    # round, with the largest outstanding release sets (dmax = T/2).  No
    # gossip, and the quadratic comparator is cheap.
    "central_quad": {
        "mode": "centralized",
        "T": 2048,
        "set": {"kind": "l1_ball", "radius": 1.0, "dim": 8},
        "loss": {"kind": "quadratic", "seed": 0},
        "delay": {"dmax": 1024, "seed": 0},
        "zeta_mode": "true_B",
    },
    # The most agents per round: n*K oracle queries, 2K gossip exchanges and
    # the O(T*n^2) per-agent regret losses.  dmax = 1 leaves the delay
    # layer idle.
    "net_quad_n64": {
        "mode": "distributed",
        "T": 100,
        "set": {"kind": "l1_ball", "radius": 1.0, "dim": 8},
        "loss": {"kind": "quadratic", "seed": 0},
        "topology": {"kind": "cycle", "n": 64},
        "delay": {"dmax": 1, "seed": 0},
    },
    # The body of the shipped configs/distributed_softmax.json, copied so the
    # benchmark does not move when that example changes.  Softmax gradients
    # and the offline comparator dominate.
    "net_softmax": {
        "mode": "distributed",
        "T": 100,
        "set": {"kind": "l1_ball", "radius": 8.0, "p": 10, "C": 3},
        "loss": {"kind": "softmax_xent", "batch": 5, "seed": 0},
        "topology": {"kind": "grid", "n": 9},
        "delay": {"dmax": 20, "seed": 0, "delayed_agent_count": 4},
        "zeta_mode": "dmax_bound",
        "diagnostics": True,
    },
}


def config_body(name: str, seed: int) -> dict:
    """The workload's config with `seed` as its only run seed."""
    body = copy.deepcopy(WORKLOADS[name])
    body["seeds"] = [seed]
    return body
