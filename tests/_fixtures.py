"""Shared golden-fixture definitions: small runs with hand-checkable inputs.

Used by test_golden.py (comparison) and make_golden.py (regeneration).
Everything here is pinned: exact thetas, schedules, params, and seeds.
"""

import numpy as np

from delayfw.baselines import dofw_run
from delayfw.de2mfw import AlgoParams, de2mfw_run, delmfw_run
from delayfw.delay import DelaySchedule
from delayfw.geometry import ConstraintSet
from delayfw.losses import LossStream, QuadraticLoss
from delayfw.metrics import attach_regret, compute_comparator
from delayfw.network import topology

CSET = ConstraintSet("l1_ball", 1.0, 2)

DELMFW_THETAS = (
    (0.5, 0.0),
    (0.0, -0.5),
    (0.25, 0.25),
    (-0.5, 0.5),
)
DELMFW_DELAYS = (1, 3, 1, 2)
DELMFW_PARAMS = AlgoParams(T=4, K=4, A=3.0, zeta=0.5, B_est=7.0)

DE2MFW_THETAS = (
    ((0.5, 0.0), (0.0, 0.5), (0.25, -0.25)),
    ((-0.5, 0.25), (0.25, 0.0), (0.0, -0.5)),
    ((0.125, 0.5), (-0.25, 0.25), (0.5, 0.125)),
)
DE2MFW_DELAYS = ((1, 2, 1), (2, 1, 1), (1, 1, 2))
DE2MFW_PARAMS = AlgoParams(T=3, K=4, A=3.0, zeta=0.25, B_est=4.0)

DOFW_THETAS = ((0.5, 0.25), (-0.25, 0.5), (0.25, -0.125))
DOFW_DELAYS = (1, 2, 1)
DOFW_ETA_REG = 0.5


def quad_stream(per_agent_thetas):
    return LossStream(tuple(
        tuple(QuadraticLoss(np.array(th)) for th in agent) for agent in per_agent_thetas
    ))


def golden_delmfw():
    stream = quad_stream((DELMFW_THETAS,))
    schedule = DelaySchedule(DELMFW_DELAYS, dmax=3)
    trace = delmfw_run(CSET, stream, schedule, DELMFW_PARAMS, seed=0)
    attach_regret(trace, compute_comparator(stream, CSET), stream)
    return trace, stream, schedule


def golden_de2mfw():
    stream = quad_stream(DE2MFW_THETAS)
    schedules = [DelaySchedule(d, dmax=2) for d in DE2MFW_DELAYS]
    topo = topology("grid", 3)
    trace = de2mfw_run(CSET, stream, schedules, topo, DE2MFW_PARAMS, seed=0)
    attach_regret(trace, compute_comparator(stream, CSET), stream)
    return trace, stream, schedules


def golden_dofw():
    stream = quad_stream((DOFW_THETAS,))
    schedule = DelaySchedule(DOFW_DELAYS, dmax=2)
    trace = dofw_run(CSET, stream, schedule, eta_reg=DOFW_ETA_REG, seed=0)
    attach_regret(trace, compute_comparator(stream, CSET), stream)
    return trace, stream, schedule
