"""Simulation substrate (the PeerSim-equivalent).

Cycle engines, the network loss model, failure and churn schedules,
and declarative experiment running.  The paper's Section 5 experiments
are cycle-driven.  The event-driven substrate is the live stack on the
virtual clock (:mod:`repro.net`): per-peer timer phases, per-datagram
loss and link delay.  The ``chaos_link_delay`` and
``chaos_lossy_links`` scenarios are run on it to check that the cycle
abstraction does not hide timing artefacts.
"""

from .._lazy import lazy_exports

#: Selectable cycle-engine implementations.  ``"reference"`` and
#: ``"fast"`` (the array-backed kernel in :mod:`repro.engine_fast`)
#: produce bit-identical trajectories for the same spec, pinned by the
#: differential suite.  ``"vector"`` (:mod:`repro.engine_vector`)
#: batches whole cycles in numpy under a documented seeded-but-
#: different RNG stream: deterministic per seed, *statistically*
#: equivalent to the other two rather than bit-identical.  Defined
#: here rather than in :mod:`.experiment` so that the CLI parser can
#: offer the choices without loading an engine.
ENGINE_KINDS = ("reference", "fast", "vector")

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".actors": ("BootstrapActor", "NewscastActor"),
        ".bootstrap_sim": ("BootstrapSimulation", "SimulationResult"),
        ".engine": ("CycleEngine", "RequestReplyActor"),
        ".experiment": (
            "ExperimentSpec",
            "build_simulation",
            "paper_repeat_counts",
            "run_experiment",
            "run_repeats",
        ),
        ".failures": ("CatastrophicFailure", "Churn", "FailureSchedule", "MassiveJoin"),
        ".network": ("PAPER_LOSSY", "RELIABLE", "NetworkModel", "TransportStats"),
        ".random_source": ("RandomSource", "derive_seed"),
    },
)
