"""Projection-free online convex optimization with adversarially delayed feedback.

Centralized and gossip-based distributed meta-Frank-Wolfe simulators built on
follow-the-perturbed-leader oracles, plus delayed-feedback baselines, loss
streams, network topologies, and trace/metric utilities.
"""

__version__ = "0.1.0"

from .baselines import dgd_run, dofw_run
from .de2mfw import AlgoParams, algorithm_constants, de2mfw_run, delmfw_run, tuned_params
from .delay import DelaySchedule, gen_delays
from .geometry import ConstraintSet
from .losses import LossStream, synth_quadratic_stream, synth_stream
from .metrics import RunTrace, attach_regret, compute_comparator
from .network import GossipMatrix, metropolis_weights, topology
from .oracle import FtplOracle
from .runner import parse_config, run_experiment, run_sweep

__all__ = [
    "AlgoParams",
    "ConstraintSet",
    "DelaySchedule",
    "FtplOracle",
    "GossipMatrix",
    "LossStream",
    "RunTrace",
    "algorithm_constants",
    "attach_regret",
    "compute_comparator",
    "de2mfw_run",
    "delmfw_run",
    "dgd_run",
    "dofw_run",
    "gen_delays",
    "metropolis_weights",
    "parse_config",
    "run_experiment",
    "run_sweep",
    "synth_quadratic_stream",
    "synth_stream",
    "topology",
    "tuned_params",
]
