"""repro: a full reproduction of "The Bootstrapping Service".

Jelasity, Montresor, Babaoglu -- Proc. 26th ICDCS Workshops, 2006
(doi:10.1109/ICDCSW.2006.105).

The paper proposes a two-layer P2P architecture -- a robust **peer
sampling service** below a **bootstrapping service** -- and contributes
a gossip protocol that builds the prefix tables and leaf sets of
Pastry/Kademlia/Tapestry/Bamboo-style routing substrates *from scratch*
at every node simultaneously, in a logarithmic number of cycles, even
under heavy message loss.

Package map
-----------
``repro.core``
    The bootstrapping protocol and its data structures (leaf set,
    prefix table), plus convergence oracles.
``repro.sampling``
    The peer sampling service: NEWSCAST and an idealised oracle.
``repro.simulator``
    Cycle engines, the loss model, churn schedules, experiment specs
    (the PeerSim-equivalent substrate).
``repro.overlays``
    Routing substrates consuming bootstrap output: Pastry, Kademlia,
    Chord (prior work, "Chord on demand"), and generic T-Man.
``repro.baselines``
    Comparators and ablations: sequential joins, random-sample-only
    table filling, flooding start signal.
``repro.net``
    Deployable asyncio/UDP prototype of both gossip layers; on the
    virtual clock it is the event-driven substrate (per-peer timer
    phases, datagram loss, link delay).
``repro.analysis``
    Series handling, statistics, ASCII plotting, table rendering for
    the experiment harness.
``repro.runtime``
    Parallel experiment runtime: multi-axis sweep grids sharded across
    a process pool with deterministic seeding, one columnar wire form,
    and a streaming analysis-layer merge.
``repro.scenarios``
    Declarative scenario layer: a JSON-round-trippable registry of the
    paper's experiments (``figure3`` .. ``paper_scale``) plus the
    shared executor the CLI and benchmarks use.

Quickstart
----------
>>> from repro import BootstrapSimulation
>>> result = BootstrapSimulation(256, seed=42).run(max_cycles=40)
>>> result.converged
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BootstrapConfig",
    "PAPER_CONFIG",
    "BootstrapMessage",
    "BootstrapNode",
    "ConvergenceSample",
    "ConvergenceTracker",
    "IDSpace",
    "LeafSet",
    "NodeDescriptor",
    "PrefixTable",
    "ReferenceTables",
    # sampling
    "MembershipRegistry",
    "NewscastNode",
    "OracleSampler",
    "PartialView",
    "PeerSamplingService",
    # simulator
    "BootstrapSimulation",
    "SimulationResult",
    "CycleEngine",
    "ExperimentSpec",
    "NetworkModel",
    "RELIABLE",
    "PAPER_LOSSY",
    "CatastrophicFailure",
    "Churn",
    "MassiveJoin",
    "run_experiment",
    "run_repeats",
    # runtime
    "RunResult",
    "RunSpec",
    "ScheduleSpec",
    "ShardError",
    "SweepAggregate",
    "SweepGrid",
    "SweepRunner",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "BootstrapConfig",
            "BootstrapMessage",
            "BootstrapNode",
            "ConvergenceSample",
            "ConvergenceTracker",
            "IDSpace",
            "LeafSet",
            "NodeDescriptor",
            "PAPER_CONFIG",
            "PrefixTable",
            "ReferenceTables",
        ),
        ".sampling": (
            "MembershipRegistry",
            "NewscastNode",
            "OracleSampler",
            "PartialView",
            "PeerSamplingService",
        ),
        ".runtime": (
            "RunResult",
            "RunSpec",
            "ScheduleSpec",
            "ShardError",
            "SweepAggregate",
            "SweepGrid",
            "SweepRunner",
        ),
        ".simulator": (
            "BootstrapSimulation",
            "CatastrophicFailure",
            "Churn",
            "CycleEngine",
            "ExperimentSpec",
            "MassiveJoin",
            "NetworkModel",
            "PAPER_LOSSY",
            "RELIABLE",
            "SimulationResult",
            "run_experiment",
            "run_repeats",
        ),
    },
)
