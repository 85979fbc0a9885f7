"""Post-bootstrap leaf-set maintenance: the hand-off layer.

The paper's architecture explicitly divides labour: the bootstrapping
service builds the overlay, after which "existing, well-tuned protocols
without modification ... maintain the overlays once they have been
formed" (Section 1), citing the periodic leaf-set repair used by
OpenDHT and Tapestry-style systems ("a form of periodic repair
mechanism for maintaining the leaf set", Section 6).

This module implements that repair protocol so the full lifecycle --
bootstrap, hand off, survive churn -- is runnable end to end:

* each period, a node probes one leaf-set member, exchanging leaf sets
  (which both replenishes membership and disseminates newcomers);
* a member that fails ``suspicion_threshold`` consecutive probes is
  evicted from the leaf set *and* the prefix table (over UDP, loss and
  death are indistinguishable, so eviction needs repeated evidence);
* suspicion is cleared only by *direct* contact with the suspect --
  hearsay (a neighbour's payload naming the suspect) proves nothing
  about liveness;
* an evicted identifier is **tombstoned** for a while: gossip payloads
  keep naming dead nodes until every neighbour has evicted them
  independently, and without tombstones that hearsay would re-insert
  the corpse forever.  Direct contact resurrects a tombstoned node
  instantly (false evictions self-heal);
* newcomers join by seeding their leaf set from the sampling service
  and are pulled into everyone else's tables by the exchanges.

Unlike the bootstrap (which only ever improves), maintenance evicts --
the two protocols are complementary, exactly as the paper argues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Hashable

from ..core.descriptor import NodeDescriptor
from ..core.protocol import BootstrapNode
from ..simulator.engine import RequestReplyActor

__all__ = [
    "ProbeMessage",
    "MaintenanceNode",
    "MaintenanceActor",
    "MaintenanceQuality",
    "MaintenanceSimulation",
]


@dataclass(frozen=True)
class ProbeMessage:
    """One repair exchange message: the sender plus its leaf set."""

    sender: NodeDescriptor
    descriptors: tuple[NodeDescriptor, ...]


class MaintenanceNode:
    """Periodic leaf-set repair running over a node's live tables.

    Parameters
    ----------
    node:
        The bootstrapped node whose tables are being maintained (the
        maintenance layer owns no state of its own beyond suspicion
        counters and tombstones).
    rng:
        Probe-target selection randomness.
    suspicion_threshold:
        Consecutive failed probes before a neighbour is declared dead
        (2 tolerates the paper's 20% loss: false-eviction probability
        per probe pair is p^2 = 4%, and a false eviction heals at the
        suspect's next direct contact).
    tombstone_ttl:
        Cycles an evicted identifier is barred from hearsay
        re-insertion.  Long enough for the neighbourhood to evict the
        corpse independently; direct contact overrides it at any time.
    """

    __slots__ = (
        "node",
        "_rng",
        "_threshold",
        "_suspicions",
        "_tombstones",
        "_ttl",
        "_now",
    )

    def __init__(
        self,
        node: BootstrapNode,
        rng: random.Random,
        suspicion_threshold: int = 2,
        tombstone_ttl: float = 30.0,
    ) -> None:
        if suspicion_threshold < 1:
            raise ValueError(
                f"suspicion_threshold must be >= 1, got {suspicion_threshold}"
            )
        if tombstone_ttl <= 0:
            raise ValueError(
                f"tombstone_ttl must be positive, got {tombstone_ttl}"
            )
        self.node = node
        self._rng = rng
        self._threshold = suspicion_threshold
        self._suspicions: dict[int, int] = {}
        self._tombstones: dict[int, float] = {}
        self._ttl = tombstone_ttl
        self._now = 0.0

    @property
    def node_id(self) -> int:
        """The maintained node's identifier."""
        return self.node.node_id

    def set_time(self, now: float) -> None:
        """Advance time; expires stale tombstones."""
        self._now = now
        if self._tombstones:
            self._tombstones = {
                node_id: expiry
                for node_id, expiry in self._tombstones.items()
                if expiry > now
            }

    def is_tombstoned(self, node_id: int) -> bool:
        """Whether *node_id* is currently barred from hearsay."""
        expiry = self._tombstones.get(node_id)
        return expiry is not None and expiry > self._now

    def select_probe_target(self) -> NodeDescriptor | None:
        """The next probe target.

        Members under suspicion are re-probed with priority (half the
        probes, when any suspect exists) so a corpse is confirmed dead
        within a few periods instead of waiting for uniform selection
        to wander back; the rest of the probes stay uniform over the
        leaf set so every member is eventually checked.
        """
        members = self.node.leaf_set.descriptors()
        if not members:
            fallback = self.node._sampler.sample(1)  # noqa: SLF001
            return fallback[0] if fallback else None
        if self._suspicions and self._rng.random() < 0.5:
            suspects = [
                desc
                for desc in members
                if desc.node_id in self._suspicions
            ]
            if suspects:
                return self._rng.choice(suspects)
        return self._rng.choice(members)

    def probe_payload(self) -> ProbeMessage:
        """What a probe carries: the sender plus its leaf set
        (leaf-of-leaf replenishment material)."""
        return ProbeMessage(
            sender=self.node.descriptor.refreshed(self._now),
            descriptors=tuple(self.node.leaf_set.descriptors()),
        )

    def absorb(self, message: ProbeMessage) -> None:
        """Fold a received message into the tables.

        The *sender* is direct evidence of liveness: its suspicion and
        tombstone are cleared.  Payload entries are hearsay: they feed
        the tables but clear nothing, and tombstoned ids are dropped.
        """
        sender_id = message.sender.node_id
        self._suspicions.pop(sender_id, None)
        self._tombstones.pop(sender_id, None)
        fresh = [
            desc
            for desc in message.descriptors
            if not self.is_tombstoned(desc.node_id)
        ]
        fresh.append(message.sender)
        self.node.leaf_set.update(fresh)
        self.node.prefix_table.update(fresh)

    def record_silence(self, target_id: int) -> bool:
        """One failed probe of *target_id*; evicts at the threshold.

        Returns ``True`` when the target was evicted (and tombstoned).
        """
        count = self._suspicions.get(target_id, 0) + 1
        if count < self._threshold:
            self._suspicions[target_id] = count
            return False
        self._suspicions.pop(target_id, None)
        self.node.leaf_set.remove(target_id)
        self.node.prefix_table.forget(target_id)
        self._tombstones[target_id] = self._now + self._ttl
        return True

    def suspicion_of(self, node_id: int) -> int:
        """Current failed-probe count for *node_id*."""
        return self._suspicions.get(node_id, 0)


class MaintenanceActor(RequestReplyActor):
    """Drives a :class:`MaintenanceNode` through the cycle engine,
    using the engine's timeout notification for failure suspicion."""

    __slots__ = ("maintenance",)

    def __init__(self, maintenance: MaintenanceNode) -> None:
        self.maintenance = maintenance

    def set_time(self, now: float) -> None:
        self.maintenance.node.set_time(now)
        self.maintenance.set_time(now)

    def pick(self) -> tuple[Hashable, ProbeMessage] | None:
        target = self.maintenance.select_probe_target()
        if target is None:
            return None
        return target.node_id, self.maintenance.probe_payload()

    def respond(self, request: ProbeMessage) -> ProbeMessage:
        reply = self.maintenance.probe_payload()
        self.maintenance.absorb(request)
        return reply

    def complete(self, reply: ProbeMessage) -> None:
        self.maintenance.absorb(reply)

    def on_no_reply(self, target_key: Hashable) -> None:
        self.maintenance.record_silence(target_key)


@dataclass(frozen=True)
class MaintenanceQuality:
    """Leaf-set health of a maintained pool at one instant.

    ``missing`` counts perfect-leaf entries absent from live tables;
    ``stale`` counts held entries that point at departed nodes; both
    are normalised by the perfect-table total.
    """

    cycle: float
    missing: int
    stale: int
    total: int
    population: int

    @property
    def missing_fraction(self) -> float:
        """Share of required leaf entries currently absent."""
        return self.missing / self.total if self.total else 0.0

    @property
    def stale_fraction(self) -> float:
        """Share (of the perfect total) pointing at dead nodes."""
        return self.stale / self.total if self.total else 0.0


class MaintenanceSimulation:
    """Run the maintenance layer over a bootstrapped pool under churn.

    Takes ownership of an existing
    :class:`~repro.simulator.BootstrapSimulation`'s node population and
    registry (the sampling layer keeps working across the hand-off,
    exactly as in the architecture) and drives periodic repair instead
    of bootstrap gossip.

    Parameters
    ----------
    source:
        The bootstrapped pool (need not be perfectly converged).
    seed:
        Master seed for maintenance-layer randomness.
    network:
        Loss model for probe traffic.
    suspicion_threshold:
        Failed probes before eviction.
    probes_per_cycle:
        Probe sub-rounds per maintenance period.  Detection latency of
        a corpse is ``~threshold * leaf_set_size / probes_per_cycle``
        periods, so pools with the paper's c=20 leaf sets want a few
        probes per period (real implementations ping every neighbour
        each period; probes remain heartbeat-cheap).
    """

    def __init__(
        self,
        source,
        *,
        seed: int = 1,
        network=None,
        suspicion_threshold: int = 2,
        probes_per_cycle: int = 4,
    ) -> None:
        from ..simulator.engine import CycleEngine
        from ..simulator.network import RELIABLE
        from ..simulator.random_source import RandomSource

        self._source_rng = RandomSource(seed)
        self.config = source.config
        self._space = source.config.space
        self.registry = source.registry
        self.nodes: dict[int, BootstrapNode] = dict(source.nodes)
        self.engine = CycleEngine(
            network if network is not None else RELIABLE,
            self._source_rng.derive("maintenance-engine"),
        )
        if probes_per_cycle < 1:
            raise ValueError(
                f"probes_per_cycle must be >= 1, got {probes_per_cycle}"
            )
        self._threshold = suspicion_threshold
        self._probes_per_cycle = probes_per_cycle
        self.maintainers: dict[int, MaintenanceNode] = {}
        for node_id, node in self.nodes.items():
            self._attach(node_id, node)
        self._next_join = 0
        self._period = 0

    def _attach(self, node_id: int, node: BootstrapNode) -> None:
        maintainer = MaintenanceNode(
            node,
            self._source_rng.derive(("probe", node_id)),
            suspicion_threshold=self._threshold,
            # Engine time advances once per probe sub-round; keep the
            # tombstone window at ~25 maintenance periods so hearsay
            # cannot recirculate a corpse faster than the slowest
            # neighbour confirms it dead.
            tombstone_ttl=25.0 * self._probes_per_cycle,
        )
        self.maintainers[node_id] = maintainer
        self.engine.add_actor(node_id, MaintenanceActor(maintainer))

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------

    @property
    def population(self) -> int:
        """Live node count."""
        return len(self.nodes)

    def kill_node(self, node_id: int) -> bool:
        """Crash *node_id* (no goodbye)."""
        node = self.nodes.pop(node_id, None)
        if node is None:
            return False
        self.maintainers.pop(node_id, None)
        self.engine.remove_actor(node_id)
        self.registry.remove(node_id)
        return True

    def spawn_node(self) -> BootstrapNode:
        """A newcomer joins through the sampling layer: it seeds its
        leaf set from random samples and lets the repair exchanges pull
        it into the neighbourhood."""
        from ..core.descriptor import NodeDescriptor
        from ..sampling.oracle import OracleSampler

        rng = self._source_rng.derive(("join", self._next_join))
        self._next_join += 1
        node_id = self._space.random_id(rng)
        while node_id in self.nodes:
            node_id = self._space.random_id(rng)
        descriptor = NodeDescriptor(
            node_id=node_id, address=("join", self._next_join)
        )
        self.registry.add(descriptor)
        sampler = OracleSampler(
            self.registry, node_id, self._source_rng.derive(("s", node_id))
        )
        node = BootstrapNode(
            descriptor,
            self.config,
            sampler,
            self._source_rng.derive(("n", node_id)),
        )
        node.start()
        self.nodes[node_id] = node
        self._attach(node_id, node)
        return node

    # ------------------------------------------------------------------
    # Execution and measurement
    # ------------------------------------------------------------------

    def run_cycle(self, churn_rate: float = 0.0) -> None:
        """One maintenance period: churn events, then the configured
        number of probe sub-rounds."""
        if churn_rate:
            rng = self._source_rng.derive(("churn", self._period))
            expected = self.population * churn_rate
            count = int(expected)
            if rng.random() < expected - count:
                count += 1
            count = min(count, max(0, self.population - 2))
            victims = rng.sample(list(self.nodes), count)
            for victim in victims:
                self.kill_node(victim)
            for _ in range(count):
                self.spawn_node()
        for _ in range(self._probes_per_cycle):
            self.engine.run_cycle()
        self._period += 1

    def measure(self) -> MaintenanceQuality:
        """Leaf-set health against the current live membership."""
        from ..core.reference import ReferenceTables

        reference = ReferenceTables(
            self._space,
            self.nodes.keys(),
            self.config.leaf_set_size,
            self.config.entries_per_slot,
        )
        live = set(self.nodes)
        missing = 0
        stale = 0
        for node_id, node in self.nodes.items():
            held = node.leaf_set.member_ids()
            missing += reference.leaf_missing(node_id, held & live)
            stale += len(held - live)
        total = reference.totals()[0]
        return MaintenanceQuality(
            cycle=float(self._period),
            missing=missing,
            stale=stale,
            total=total,
            population=self.population,
        )

    def run(
        self, cycles: int, *, churn_rate: float = 0.0
    ) -> list[MaintenanceQuality]:
        """Run under churn, measuring every cycle."""
        samples = []
        for _ in range(cycles):
            self.run_cycle(churn_rate)
            samples.append(self.measure())
        return samples
