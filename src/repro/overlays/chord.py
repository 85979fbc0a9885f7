"""Chord: ring + fingers substrate, and the T-Chord bootstrap.

The paper positions this work as the prefix-table sequel to "Chord on
demand" (Montresor, Jelasity, Babaoglu, P2P 2005 -- reference [9]):
"we have already addressed bootstrapping CHORD that is based on a
sorted ring, and additional fingers that are defined based on distance
in the ID space."  To compare the two bootstraps (experiment E12), this
module implements:

* :class:`ChordRouter` / :class:`ChordNetwork` -- the classic substrate
  (successor lists + power-of-two fingers, greedy
  closest-preceding-node routing);
* :class:`ChordBootstrapNode` -- a T-Chord-style gossip that grows the
  sorted ring and harvests finger entries simultaneously, mirroring the
  prefix-table protocol's structure but with Chord's
  distance-defined fingers;
* :class:`ChordBootstrapSimulation` -- the cycle-driven experiment
  around it, with finger/leaf convergence measurement.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.descriptor import NodeDescriptor
from ..core.idspace import IDSpace
from ..core.leafset import LeafSet
from ..core.messages import BootstrapMessage
from ..core.protocol import Sampler
from ..sampling.oracle import MembershipRegistry, OracleSampler
from ..simulator.engine import CycleEngine, RequestReplyActor
from ..simulator.network import NetworkModel, RELIABLE
from ..simulator.random_source import RandomSource
from .routing import RouteResult, RouteStats, route

__all__ = [
    "ChordRouter",
    "ChordNetwork",
    "ChordBootstrapNode",
    "ChordBootstrapSimulation",
    "ChordConvergenceSample",
    "perfect_fingers",
]


def successor_of(sorted_ids: Sequence[int], key: int) -> int:
    """First identifier clockwise at or after *key* (with wraparound)."""
    pos = bisect.bisect_left(sorted_ids, key)
    return sorted_ids[pos % len(sorted_ids)]


def perfect_fingers(
    space: IDSpace, sorted_ids: Sequence[int], own_id: int
) -> dict[int, int]:
    """Chord's ideal finger table for *own_id* over the live set.

    ``fingers[i] = successor(own + 2^i)``; entries that resolve to the
    owner itself are omitted (no external pointer needed).  Consecutive
    exponents often share a finger; the dict keeps them all, as real
    Chord tables do.
    """
    fingers: dict[int, int] = {}
    size = space.size
    for exponent in range(space.bits):
        target = (own_id + (1 << exponent)) % size
        finger = successor_of(sorted_ids, target)
        if finger != own_id:
            fingers[exponent] = finger
    return fingers


class ChordRouter:
    """Per-node Chord routing state (static snapshot).

    Parameters
    ----------
    space:
        Identifier geometry.
    node_id:
        Owner identifier.
    successors:
        Successor list, nearest first.
    fingers:
        ``exponent -> identifier`` finger entries.
    """

    __slots__ = ("_space", "_node_id", "_successors", "_fingers", "_predecessor")

    def __init__(
        self,
        space: IDSpace,
        node_id: int,
        successors: Sequence[int],
        fingers: Mapping[int, int],
        predecessor: int | None = None,
    ) -> None:
        self._space = space
        self._node_id = node_id
        self._successors = tuple(successors)
        self._fingers = dict(fingers)
        self._predecessor = predecessor

    @property
    def node_id(self) -> int:
        """Owner identifier."""
        return self._node_id

    @property
    def successor(self) -> int | None:
        """Immediate successor, if known."""
        return self._successors[0] if self._successors else None

    @property
    def predecessor(self) -> int | None:
        """Immediate predecessor, if known."""
        return self._predecessor

    def known_ids(self) -> list[int]:
        """Every contact this router can name."""
        seen = set(self._successors)
        seen.update(self._fingers.values())
        seen.discard(self._node_id)
        return list(seen)

    def next_hop(self, target_id: int) -> int | None:
        """Greedy Chord step for resolving ``successor(target)``.

        Chord's standard formulation: the node whose span
        ``(predecessor, own]`` contains the key delivers it; a node
        seeing the key in ``(own, successor]`` forwards to the
        successor (the responsible node); otherwise it forwards to the
        closest known node *preceding* the key.
        """
        own = self._node_id
        if target_id == own:
            return None
        space = self._space
        # key in (predecessor, own] => this node is responsible.
        pred = self._predecessor
        if pred is not None:
            span = space.clockwise_distance(pred, own)
            arrival = space.clockwise_distance(pred, target_id)
            if 0 < arrival <= span:
                return None
        succ = self.successor
        if succ is not None and succ != own:
            # key in (own, successor] => successor is responsible.
            if space.clockwise_distance(own, target_id) <= \
                    space.clockwise_distance(own, succ):
                return succ
        # Closest preceding node: the known contact maximising clockwise
        # progress without reaching the key.
        best = None
        best_progress = 0
        key_distance = space.clockwise_distance(own, target_id)
        for contact in self.known_ids():
            progress = space.clockwise_distance(own, contact)
            if 0 < progress < key_distance and progress > best_progress:
                best = contact
                best_progress = progress
        return best


class ChordNetwork:
    """Static Chord overlay; build ideal from an id set, or snapshot a
    bootstrapped population."""

    def __init__(
        self, space: IDSpace, routers: Mapping[int, ChordRouter]
    ) -> None:
        if not routers:
            raise ValueError("a Chord network needs at least one node")
        self._space = space
        self._routers = dict(routers)
        self._sorted_ids = sorted(self._routers)

    @classmethod
    def ideal(
        cls,
        space: IDSpace,
        ids: Iterable[int],
        successor_list_length: int = 8,
    ) -> ChordNetwork:
        """The converged Chord overlay for a live id set (ground truth
        for comparisons)."""
        sorted_ids = sorted(ids)
        n = len(sorted_ids)
        routers: dict[int, ChordRouter] = {}
        for index, node_id in enumerate(sorted_ids):
            successors = [
                sorted_ids[(index + off) % n]
                for off in range(1, min(successor_list_length, n - 1) + 1)
            ]
            routers[node_id] = ChordRouter(
                space,
                node_id,
                successors,
                perfect_fingers(space, sorted_ids, node_id),
                predecessor=sorted_ids[index - 1] if n > 1 else None,
            )
        return cls(space, routers)

    @property
    def size(self) -> int:
        """Number of live nodes."""
        return len(self._routers)

    def responsible_for(self, key: int) -> int:
        """Chord's responsibility rule: the key's successor."""
        return successor_of(self._sorted_ids, key)

    def lookup(self, key: int, start_id: int, max_hops: int = 96) -> RouteResult:
        """Resolve ``successor(key)`` from *start_id*."""
        return route(
            self._routers,
            start_id,
            key,
            self.responsible_for(key),
            max_hops=max_hops,
        )

    def lookup_many(
        self, keys: Iterable[int], start_ids: Iterable[int], max_hops: int = 96
    ) -> RouteStats:
        """Aggregate lookups."""
        stats = RouteStats()
        for key, start in zip(keys, start_ids, strict=True):
            stats.record(self.lookup(key, start, max_hops=max_hops))
        return stats


class ChordBootstrapNode:
    """T-Chord-style gossip bootstrap (the paper's prior work, ref [9]).

    State: a balanced leaf set (the evolving sorted ring, identical
    machinery to the prefix-table bootstrap) plus a finger table keyed
    by exponent.  Each exchange sends the ``c`` union members closest to
    the peer *and* the union members that would improve the peer's
    fingers -- the structural sibling of ``CREATEMESSAGE``'s
    prefix-targeted part.
    """

    __slots__ = (
        "descriptor",
        "config",
        "leaf_set",
        "fingers",
        "_space",
        "_sampler",
        "_rng",
        "_started",
        "_now",
    )

    def __init__(
        self,
        descriptor: NodeDescriptor,
        config: BootstrapConfig,
        sampler: Sampler,
        rng: random.Random,
    ) -> None:
        self.descriptor = descriptor
        self.config = config
        self._space = config.space
        self._sampler = sampler
        self._rng = rng
        self.leaf_set = LeafSet(
            self._space, descriptor.node_id, config.leaf_set_size
        )
        self.fingers: dict[int, NodeDescriptor] = {}
        self._started = False
        self._now = 0.0

    @property
    def node_id(self) -> int:
        """This node's identifier."""
        return self.descriptor.node_id

    @property
    def started(self) -> bool:
        """Whether the node has initialised its leaf set."""
        return self._started

    def set_time(self, now: float) -> None:
        """Advance logical time."""
        self._now = now

    def start(self) -> None:
        """Initialise the leaf set from the sampling service."""
        self.fingers.clear()
        self.leaf_set.update(self._sampler.sample(self.config.leaf_set_size))
        self._started = True

    # -- finger maintenance -------------------------------------------

    def _finger_improves(self, exponent: int, candidate_id: int) -> bool:
        space = self._space
        target = (self.node_id + (1 << exponent)) % space.size
        current = self.fingers.get(exponent)
        candidate_gap = space.clockwise_distance(target, candidate_id)
        if current is None:
            return True
        return candidate_gap < space.clockwise_distance(
            target, current.node_id
        )

    def update_fingers(self, descriptors: Iterable[NodeDescriptor]) -> int:
        """Tighten finger entries with any better candidates; returns
        the number of improvements."""
        improved = 0
        space = self._space
        own = self.node_id
        for desc in descriptors:
            if desc.node_id == own:
                continue
            # A candidate can only improve exponents whose target lies
            # within (own, candidate] clockwise; iterating all bits is
            # cheap (64) and keeps the rule obvious.
            for exponent in range(space.bits):
                if self._finger_improves(exponent, desc.node_id):
                    self.fingers[exponent] = desc
                    improved += 1
        return improved

    # -- gossip --------------------------------------------------------

    def select_peer(self) -> NodeDescriptor | None:
        """Random member of the closer half of the leaf set."""
        candidates = self.leaf_set.closest_half()
        if candidates:
            return self._rng.choice(candidates)
        fallback = self._sampler.sample(1)
        return fallback[0] if fallback else None

    def create_message(
        self, peer: NodeDescriptor, is_reply: bool = False
    ) -> BootstrapMessage:
        """The T-Chord message: c closest to the peer, plus candidates
        for each of the peer's fingers."""
        config = self.config
        space = self._space
        peer_id = peer.node_id
        union: dict[int, NodeDescriptor] = {
            d.node_id: d for d in self.fingers.values()
        }
        for desc in self.leaf_set:
            union[desc.node_id] = desc
        for desc in self._sampler.sample(config.random_samples):
            union.setdefault(desc.node_id, desc)
        own = self.descriptor.refreshed(self._now)
        union[own.node_id] = own
        union.pop(peer_id, None)

        mask = space.size - 1
        ranked = sorted(
            union.values(),
            key=lambda d: (
                min((d.node_id - peer_id) & mask, (peer_id - d.node_id) & mask),
                d.node_id,
            ),
        )
        close_part = ranked[: config.leaf_set_size]
        selected = {d.node_id for d in close_part}

        # Finger-targeted part: for each exponent, the union member
        # nearest after the peer's finger target.
        finger_part: list[NodeDescriptor] = []
        size = space.size
        for exponent in range(space.bits):
            target = (peer_id + (1 << exponent)) % size
            best = None
            best_gap = None
            for desc in union.values():
                gap = space.clockwise_distance(target, desc.node_id)
                if best_gap is None or gap < best_gap:
                    best = desc
                    best_gap = gap
            if best is not None and best.node_id not in selected:
                selected.add(best.node_id)
                finger_part.append(best)

        return BootstrapMessage(
            sender=own,
            descriptors=tuple(close_part) + tuple(finger_part),
            is_reply=is_reply,
        )

    def absorb(self, message: BootstrapMessage) -> None:
        """Apply a received message: leaf set, then fingers."""
        descriptors = list(message.all_descriptors())
        self.leaf_set.update(descriptors)
        self.update_fingers(descriptors)

    def initiate_exchange(
        self,
    ) -> tuple[NodeDescriptor, BootstrapMessage] | None:
        """Active-thread step."""
        peer = self.select_peer()
        if peer is None:
            return None
        return peer, self.create_message(peer, is_reply=False)

    def handle_request(self, message: BootstrapMessage) -> BootstrapMessage:
        """Passive-thread step (answer from pre-exchange state)."""
        reply = self.create_message(message.sender, is_reply=True)
        self.absorb(message)
        return reply

    def handle_reply(self, message: BootstrapMessage) -> None:
        """Active-thread completion."""
        self.absorb(message)


class _ChordActor(RequestReplyActor):
    __slots__ = ("node",)

    def __init__(self, node: ChordBootstrapNode) -> None:
        self.node = node

    def set_time(self, now: float) -> None:
        self.node.set_time(now)

    def pick(self):
        if not self.node.started:
            self.node.start()
        begun = self.node.initiate_exchange()
        if begun is None:
            return None
        peer, message = begun
        return peer.node_id, message

    def respond(self, request):
        return self.node.handle_request(request)

    def complete(self, reply):
        self.node.handle_reply(reply)


@dataclass(frozen=True)
class ChordConvergenceSample:
    """Finger/ring quality at one cycle.

    The ring criterion is Chord-shaped: each node must know its
    ``c/2`` nearest successors and its immediate predecessor -- the
    state Chord routing and stabilisation actually use.  Distant
    *predecessors* are not required: finger information travels
    clockwise only, so the gossip occasionally leaves a far-predecessor
    slot unfilled, which Chord never misses.
    """

    cycle: float
    wrong_fingers: int
    total_fingers: int
    missing_ring: int
    total_ring: int

    @property
    def finger_fraction(self) -> float:
        """Proportion of finger entries not yet optimal."""
        return (
            self.wrong_fingers / self.total_fingers
            if self.total_fingers
            else 0.0
        )

    @property
    def ring_fraction(self) -> float:
        """Proportion of missing successor-list/predecessor entries."""
        return self.missing_ring / self.total_ring if self.total_ring else 0.0

    @property
    def is_perfect(self) -> bool:
        """All fingers optimal and ring state complete."""
        return self.wrong_fingers == 0 and self.missing_ring == 0


class ChordBootstrapSimulation:
    """Cycle-driven T-Chord bootstrap experiment (experiment E12)."""

    def __init__(
        self,
        size: int,
        *,
        config: BootstrapConfig = PAPER_CONFIG,
        seed: int = 1,
        network: NetworkModel = RELIABLE,
    ) -> None:
        if size < 2:
            raise ValueError("need size >= 2 or an explicit id list")
        self.config = config
        self.seed = seed
        source = RandomSource(seed)
        space = config.space
        ids = space.random_unique_ids(size, source.derive("ids"))
        self._sorted_ids = sorted(ids)
        self.registry = MembershipRegistry()
        self.nodes: dict[int, ChordBootstrapNode] = {}
        self.engine = CycleEngine(network, source.derive("engine"))
        for address, node_id in enumerate(ids):
            descriptor = NodeDescriptor(node_id=node_id, address=address)
            self.registry.add(descriptor)
            sampler = OracleSampler(
                self.registry, node_id, source.derive(("sampler", node_id))
            )
            node = ChordBootstrapNode(
                descriptor, config, sampler, source.derive(("node", node_id))
            )
            self.nodes[node_id] = node
            self.engine.add_actor(node_id, _ChordActor(node))
        self._space = space
        self._perfect: dict[int, dict[int, int]] = {
            node_id: perfect_fingers(space, self._sorted_ids, node_id)
            for node_id in ids
        }
        self.samples: list[ChordConvergenceSample] = []

    def _perfect_ring_state(self, node_id: int) -> set[int]:
        """The Chord ring state a node must hold: its c/2 nearest
        successors plus its immediate predecessor."""
        sorted_ids = self._sorted_ids
        index = bisect.bisect_left(sorted_ids, node_id)
        n = len(sorted_ids)
        reach = min(self.config.leaf_set_size // 2, n - 1)
        wanted = {
            sorted_ids[(index + offset) % n] for offset in range(1, reach + 1)
        }
        if n > 1:
            wanted.add(sorted_ids[(index - 1) % n])
        wanted.discard(node_id)
        return wanted

    def measure(self) -> ChordConvergenceSample:
        """Compare every node's fingers and ring state to the ideal."""
        wrong = 0
        total = 0
        missing_ring = 0
        total_ring = 0
        for node_id, node in self.nodes.items():
            ideal = self._perfect[node_id]
            total += len(ideal)
            for exponent, want in ideal.items():
                have = node.fingers.get(exponent)
                if have is None or have.node_id != want:
                    wrong += 1
            wanted = self._perfect_ring_state(node_id)
            total_ring += len(wanted)
            missing_ring += len(wanted - node.leaf_set.member_ids())
        sample = ChordConvergenceSample(
            cycle=float(self.engine.cycle),
            wrong_fingers=wrong,
            total_fingers=total,
            missing_ring=missing_ring,
            total_ring=total_ring,
        )
        self.samples.append(sample)
        return sample

    def run(
        self, max_cycles: int = 60, *, stop_when_perfect: bool = True
    ) -> list[ChordConvergenceSample]:
        """Run to convergence or budget; returns the sample series."""
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        for _ in range(max_cycles):
            self.engine.run_cycle()
            sample = self.measure()
            if stop_when_perfect and sample.is_perfect:
                break
        return self.samples

    def to_network(self, successor_list_length: int = 8) -> ChordNetwork:
        """Snapshot the bootstrapped state into a routable overlay."""
        routers: dict[int, ChordRouter] = {}
        for node_id, node in self.nodes.items():
            successors = [d.node_id for d in node.leaf_set.successors()]
            predecessors = node.leaf_set.predecessors()
            routers[node_id] = ChordRouter(
                self._space,
                node_id,
                successors[:successor_list_length],
                {e: d.node_id for e, d in node.fingers.items()},
                predecessor=(
                    predecessors[0].node_id if predecessors else None
                ),
            )
        return ChordNetwork(self._space, routers)
