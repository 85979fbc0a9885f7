"""Simulation substrate (the PeerSim-equivalent).

Cycle engines, the network loss model, failure and churn schedules,
and declarative experiment running.  The paper's Section 5 experiments
are cycle-driven.  The event-driven substrate is the live stack on the
virtual clock (:mod:`repro.net`): per-peer timer phases, per-datagram
loss and link delay.  The ``chaos_link_delay`` and
``chaos_lossy_links`` scenarios are run on it to check that the cycle
abstraction does not hide timing artefacts.
"""

from .actors import BootstrapActor, NewscastActor
from .bootstrap_sim import BootstrapSimulation, SimulationResult
from .engine import CycleEngine, RequestReplyActor
from .experiment import (
    ENGINE_KINDS,
    ExperimentSpec,
    build_simulation,
    paper_repeat_counts,
    run_experiment,
    run_repeats,
)
from .failures import CatastrophicFailure, Churn, FailureSchedule, MassiveJoin
from .network import PAPER_LOSSY, RELIABLE, NetworkModel, TransportStats
from .random_source import RandomSource, derive_seed

__all__ = [
    "BootstrapActor",
    "NewscastActor",
    "BootstrapSimulation",
    "SimulationResult",
    "CycleEngine",
    "RequestReplyActor",
    "ENGINE_KINDS",
    "ExperimentSpec",
    "build_simulation",
    "paper_repeat_counts",
    "run_experiment",
    "run_repeats",
    "CatastrophicFailure",
    "Churn",
    "FailureSchedule",
    "MassiveJoin",
    "NetworkModel",
    "TransportStats",
    "RELIABLE",
    "PAPER_LOSSY",
    "RandomSource",
    "derive_seed",
]
