"""Declarative chaos scenarios: the live stack under scheduled faults.

The simulated experiments live in the :class:`ScenarioSpec` registry;
this module is their live-stack sibling.  A :class:`ChaosScenarioSpec`
names a cluster shape plus a :class:`~repro.net.chaos.ChaosSchedule`,
and :func:`run_chaos_scenario` executes it end to end on a
:class:`~repro.net.chaos.VirtualClockLoop`:

1. build a :class:`~repro.net.cluster.LocalCluster` on a seeded
   :class:`~repro.net.chaos.ChaosHub`;
2. warm up the sampling layer, broadcast the start signal;
3. let a :class:`~repro.net.chaos.ChaosController` walk the schedule
   (partition/heal, kill/restart, flash-crowd surge, link faults);
4. await re-convergence within the budget and report
   **time-to-functional** -- virtual seconds from the last fault event
   to perfect tables everywhere (the recovery metric, not just
   steady-state convergence).

Everything runs on virtual time with seeded randomness, so a chaos
run is deterministic: the same spec and seed yield the identical
:class:`ChaosRunReport`, message counters and virtual timestamps --
pinned by ``tests/test_chaos.py`` and relied on by
``benchmarks/bench_chaos.py``'s gates.

Registered scenarios (``repro chaos list``): ``chaos_partition_heal``
(asymmetric split, timed heal), ``chaos_flash_crowd`` (half the pool
joins as one surge), ``chaos_targeted_kill`` (the most-referenced half
dies, then restarts through the seed path), ``chaos_lossy_links`` (20%
of datagrams lost from the start signal on), ``chaos_link_delay``
(every datagram delayed 0.2 Δ from the start signal on).  The last two
and their fault-free shape are the check that the cycle abstraction
does not manufacture the paper's results: ``tests/test_chaos.py`` and
``benchmarks/bench_chaos.py`` compare the live cluster's
cycles-to-perfect on them with
:class:`~repro.simulator.BootstrapSimulation` at the same size and
drop rate.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, replace

from .. import seams
from ..core.config import PAPER_CONFIG
from ..net.chaos import (
    ChaosController,
    ChaosEvent,
    ChaosHub,
    ChaosSchedule,
    run_virtual,
)
from ..net.cluster import LocalCluster
from ..simulator.random_source import RandomSource

__all__ = [
    "ChaosScenarioSpec",
    "ChaosRunReport",
    "all_chaos_scenarios",
    "chaos_scenario_names",
    "get_chaos_scenario",
    "register_chaos",
    "run_chaos_scenario",
]


@dataclass(frozen=True)
class ChaosScenarioSpec:
    """One named, declarative chaos experiment.

    Attributes
    ----------
    name:
        Registry key (``repro chaos run <name>``).
    title:
        One-line human description.
    claim:
        The paper claim (or related-work metric) the scenario probes.
    size:
        Cluster size (dormant flash-crowd peers included).
    seed:
        Master seed (cluster build, fault fabric, victim selection).
    schedule:
        The fault timeline, relative to the start broadcast.
    warmup:
        Sampling-layer warm-up before the start signal, seconds.
    budget:
        Virtual seconds allowed for convergence after the last event.
    dormant_fraction:
        Fraction of the pool held back for a ``surge`` event.
    cycle_length:
        Bootstrap Δ in seconds.
    newscast_interval:
        NEWSCAST gossip period in seconds.
    view_size:
        NEWSCAST view size.
    seed_contacts:
        Join-list length per peer.
    """

    name: str
    title: str
    claim: str
    size: int
    schedule: ChaosSchedule
    seed: int = 1
    warmup: float = 0.4
    budget: float = 8.0
    dormant_fraction: float = 0.0
    cycle_length: float = 0.05
    newscast_interval: float = 0.05
    view_size: int = 30
    seed_contacts: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("chaos scenario needs a non-empty name")
        if self.size < 4:
            raise ValueError(f"size must be >= 4, got {self.size}")
        for name in ("budget", "cycle_length", "newscast_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.warmup) and self.warmup >= 0.0):
            raise ValueError(f"warmup must be finite and >= 0, got {self.warmup}")
        for name in ("view_size", "seed_contacts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dormant_fraction < 1.0:
            raise ValueError(
                "dormant_fraction must be in [0, 1), got "
                f"{self.dormant_fraction}"
            )

    def smoke(self, max_size: int = 16) -> ChaosScenarioSpec:
        """A CI-sized variant: the cluster shrinks, the fault timeline
        survives untouched (every event still fires)."""
        return replace(self, size=min(self.size, max_size))

    # -- JSON round-trip ----------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "title": self.title,
            "claim": self.claim,
            "size": self.size,
            "seed": self.seed,
            "schedule": self.schedule.to_dict(),
            "warmup": self.warmup,
            "budget": self.budget,
            "dormant_fraction": self.dormant_fraction,
            "cycle_length": self.cycle_length,
            "newscast_interval": self.newscast_interval,
            "view_size": self.view_size,
            "seed_contacts": self.seed_contacts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> ChaosScenarioSpec:
        """Rebuild a scenario from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            title=str(data.get("title", "")),
            claim=str(data.get("claim", "")),
            size=int(data["size"]),  # type: ignore[arg-type]
            seed=int(data.get("seed", 1)),  # type: ignore[arg-type]
            schedule=ChaosSchedule.from_dict(
                data.get("schedule", {"events": []})  # type: ignore
            ),
            warmup=float(data.get("warmup", 0.4)),  # type: ignore
            budget=float(data.get("budget", 8.0)),  # type: ignore
            dormant_fraction=float(
                data.get("dormant_fraction", 0.0)  # type: ignore
            ),
            cycle_length=float(data.get("cycle_length", 0.05)),  # type: ignore
            newscast_interval=float(
                data.get("newscast_interval", 0.05)  # type: ignore
            ),
            view_size=int(data.get("view_size", 30)),  # type: ignore
            seed_contacts=int(data.get("seed_contacts", 3)),  # type: ignore
        )

    def to_json(self, indent: int = 1) -> str:
        """Serialise to a stable JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> ChaosScenarioSpec:
        """Parse a :meth:`to_json` document."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ChaosRunReport:
    """The outcome of one chaos run (deterministic for a given spec
    and seed -- all timestamps are virtual seconds).

    ``time_to_functional`` is the recovery metric: virtual seconds
    from the final fault event to network-wide perfect tables
    (``None`` when the budget ran out first).  The ``final_*_fraction``
    fields are the *missing*-entry fractions of the paper's plots, so
    0.0 means perfect tables.
    """

    name: str
    seed: int
    size: int
    converged: bool
    warmup: float
    faults_done_at: float
    converged_at: float | None
    time_to_functional: float | None
    final_leaf_fraction: float
    final_prefix_fraction: float
    events: tuple[dict[str, object], ...]
    peer_totals: dict[str, int]
    hub_counters: dict[str, int]
    crashed_peers: int

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the benchmark artefact payload)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "size": self.size,
            "converged": self.converged,
            "warmup": self.warmup,
            "faults_done_at": self.faults_done_at,
            "converged_at": self.converged_at,
            "time_to_functional": self.time_to_functional,
            "final_leaf_fraction": self.final_leaf_fraction,
            "final_prefix_fraction": self.final_prefix_fraction,
            "events": list(self.events),
            "peer_totals": dict(self.peer_totals),
            "hub_counters": dict(self.hub_counters),
            "crashed_peers": self.crashed_peers,
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_CHAOS_REGISTRY: dict[str, ChaosScenarioSpec] = {}


def register_chaos(spec: ChaosScenarioSpec) -> ChaosScenarioSpec:
    """Add *spec* to the chaos registry (rejecting duplicate names)."""
    if spec.name in _CHAOS_REGISTRY:
        raise ValueError(
            f"chaos scenario {spec.name!r} is already registered"
        )
    _CHAOS_REGISTRY[spec.name] = spec
    return spec


def get_chaos_scenario(name: str) -> ChaosScenarioSpec:
    """Look up a registered chaos scenario by name.

    Raises ``KeyError`` naming the known scenarios, so a typo on the
    CLI reads like the ``repro chaos list`` output.
    """
    try:
        return _CHAOS_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos scenario {name!r}; known scenarios: "
            f"{', '.join(chaos_scenario_names())}"
        ) from None


def chaos_scenario_names() -> tuple[str, ...]:
    """Registered chaos scenario names, in registration order."""
    return tuple(_CHAOS_REGISTRY)


def all_chaos_scenarios() -> tuple[ChaosScenarioSpec, ...]:
    """Every registered chaos scenario, in registration order."""
    return tuple(_CHAOS_REGISTRY.values())


register_chaos(
    ChaosScenarioSpec(
        name="chaos_partition_heal",
        title="Asymmetric partition for 1s of bootstrap, then heal",
        claim=(
            "Section 1: the service keeps working 'despite catastrophic "
            "failures' -- after the partition heals, the cluster "
            "re-converges to perfect tables within the budget"
        ),
        size=32,
        seed=11,
        schedule=ChaosSchedule.of(
            ChaosEvent.of(
                0.2, "partition", fraction=0.375, symmetric=False
            ),
            ChaosEvent.of(1.2, "heal"),
        ),
    )
)

register_chaos(
    ChaosScenarioSpec(
        name="chaos_flash_crowd",
        title="Half the pool joins as one surge mid-bootstrap",
        claim=(
            "'Stress Testing the Booters' flash-crowd shape: a join "
            "surge of 50% of the pool is absorbed and the grown "
            "cluster still reaches perfect tables"
        ),
        size=32,
        seed=12,
        dormant_fraction=0.5,
        schedule=ChaosSchedule.of(ChaosEvent.of(0.5, "surge")),
    )
)

register_chaos(
    ChaosScenarioSpec(
        name="chaos_targeted_kill",
        title="Targeted 50% kill (highest in-degree), then restart",
        claim=(
            "'Stress Testing the Booters' targeted-kill shape + 'BB: "
            "Booting Booster' recovery metric: survivors stay "
            "functional and the restarted half rejoins through the "
            "seed path to full convergence"
        ),
        size=32,
        seed=13,
        schedule=ChaosSchedule.of(
            ChaosEvent.of(0.3, "kill", fraction=0.5, mode="targeted"),
            ChaosEvent.of(1.3, "restart"),
        ),
    )
)

register_chaos(
    ChaosScenarioSpec(
        name="chaos_lossy_links",
        title="20% datagram loss on every link from the start signal on",
        claim=(
            "Figure 4: with no retransmission, message loss only slows "
            "convergence -- the whole bootstrap runs on a lossy fabric "
            "and still reaches perfect tables"
        ),
        size=32,
        seed=14,
        schedule=ChaosSchedule.of(
            ChaosEvent.of(0.0, "link_faults", drop=0.2),
        ),
    )
)

register_chaos(
    ChaosScenarioSpec(
        name="chaos_link_delay",
        title="Every link delays datagrams by 0.2 cycle from the start signal on",
        claim=(
            "The cycle abstraction does not manufacture the results: "
            "with a one-way delay of 0.2 Δ on every link, the live "
            "cluster reaches perfect tables within a few cycles of the "
            "cycle engine"
        ),
        size=32,
        seed=15,
        schedule=ChaosSchedule.of(
            ChaosEvent.of(0.0, "link_faults", delay=0.01),
        ),
    )
)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def run_chaos_scenario(
    spec: ChaosScenarioSpec | str,
    *,
    seed: int | None = None,
    smoke: bool = False,
) -> ChaosRunReport:
    """Execute one chaos scenario on a virtual-clock event loop.

    *spec* is a :class:`ChaosScenarioSpec` or a registry name.  Seed
    precedence: explicit *seed* argument, then the ``REPRO_CHAOS_SEED``
    seam, then the spec's own seed; ``REPRO_CHAOS_BUDGET`` (virtual
    seconds) overrides the convergence budget the same way.  *smoke*
    applies :meth:`ChaosScenarioSpec.smoke` first.
    """
    if isinstance(spec, str):
        spec = get_chaos_scenario(spec)
    if smoke:
        spec = spec.smoke()
    if seed is None:
        seed = seams.integer("REPRO_CHAOS_SEED")
    if seed is None:
        seed = spec.seed
    budget_override = seams.integer("REPRO_CHAOS_BUDGET")
    budget = float(budget_override) if budget_override else spec.budget
    return run_virtual(_run_chaos(spec, int(seed), budget))


async def _run_chaos(
    spec: ChaosScenarioSpec, seed: int, budget: float
) -> ChaosRunReport:
    """The chaos deployment story (awaited on the virtual loop)."""
    source = RandomSource(seed)
    hub = ChaosHub(rng=source.derive("chaos-hub"))
    config = PAPER_CONFIG.with_overrides(cycle_length=spec.cycle_length)
    cluster = await LocalCluster.create(
        spec.size,
        seed=seed,
        config=config,
        hub=hub,
        view_size=spec.view_size,
        newscast_interval=spec.newscast_interval,
        seed_contacts=spec.seed_contacts,
    )
    try:
        if spec.dormant_fraction:
            cluster.hold_back(
                spec.dormant_fraction, source.derive("dormant")
            )
        cluster.start_sampling_layer()
        await cluster.warmup(spec.warmup)
        cluster.broadcast_start()
        loop = asyncio.get_running_loop()
        started = loop.time()
        controller = ChaosController(
            cluster, hub, spec.schedule, source.derive("controller")
        )
        events = tuple(await controller.run())
        faults_done_at = loop.time() - started
        converged = await cluster.await_convergence(budget)
        converged_at = (loop.time() - started) if converged else None
        final = cluster.measure()
        peer_totals: dict[str, int] = {}
        for peer in cluster.live_peers():
            for key, value in peer.resilience_snapshot().items():
                peer_totals[key] = peer_totals.get(key, 0) + value
            stats = peer.bootstrap.stats
            peer_totals["messages_sent"] = (
                peer_totals.get("messages_sent", 0) + stats.messages_sent
            )
            peer_totals["messages_received"] = (
                peer_totals.get("messages_received", 0)
                + stats.messages_received
            )
    finally:
        crash_report = await cluster.shutdown()
    return ChaosRunReport(
        name=spec.name,
        seed=seed,
        size=spec.size,
        converged=converged,
        warmup=spec.warmup,
        faults_done_at=faults_done_at,
        converged_at=converged_at,
        time_to_functional=(
            converged_at - faults_done_at if converged_at is not None else None
        ),
        final_leaf_fraction=final.leaf_fraction,
        final_prefix_fraction=final.prefix_fraction,
        events=events,
        peer_totals=peer_totals,
        hub_counters=hub.counters(),
        crashed_peers=len(crash_report),
    )
