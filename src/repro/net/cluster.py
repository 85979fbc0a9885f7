"""In-process clusters of deployable peers.

:class:`LocalCluster` assembles N :class:`~repro.net.peer.AsyncPeer`
instances over either the loopback fabric (deterministic -- the
default; pass a :class:`~repro.net.chaos.ChaosHub` to inject loss,
delay or partitions) or real UDP sockets on 127.0.0.1, then
walks them through the paper's deployment story:

1. the sampling layer gossips until functional (warm-up);
2. the administrator broadcasts the start signal;
3. the bootstrap converges; convergence is verified against the
   perfect tables, exactly as the simulators do.

On top of the happy path the cluster supervises failure experiments
(the chaos scenarios drive these through
:class:`~repro.net.chaos.ChaosController`):

* :meth:`kill` abruptly fails peers (tasks cancelled, transport gone;
  in-flight datagrams to them vanish) and :meth:`restart_killed`
  revives them with *fresh* state re-entering through the seed path;
* :meth:`hold_back` / :meth:`surge` stage a flash crowd: a fraction
  of the pool stays dormant (offline) and joins all at once;
* the convergence tracker re-binds to the live population after every
  membership event, so :meth:`measure` always scores against the
  perfect tables of the nodes actually alive.

This is the end-to-end integration fixture for the asyncio prototype
and the engine behind the ``asyncio_cluster`` example.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Iterable

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.convergence import ConvergenceSample, ConvergenceTracker
from ..core.descriptor import NodeDescriptor
from ..core.reference import ReferenceTables
from ..simulator.random_source import RandomSource
from .peer import AsyncPeer
from .transport import LoopbackHub, LoopbackTransport, UdpTransport

__all__ = ["LocalCluster"]


class LocalCluster:
    """A cluster of peers on one machine.

    Build with :meth:`create` (loopback) or :meth:`create_udp` (real
    sockets); always :meth:`shutdown` when done.
    """

    def __init__(
        self,
        peers: dict[int, AsyncPeer],
        config: BootstrapConfig,
        hub: LoopbackHub | None,
        *,
        source: RandomSource | None = None,
        view_size: int = 30,
        newscast_interval: float = 0.05,
        seed_contacts: int = 3,
    ) -> None:
        self.peers = peers
        self.config = config
        self.hub = hub
        #: Descriptors of killed peers, awaiting :meth:`restart_killed`.
        self.killed: dict[int, NodeDescriptor] = {}
        self._source = source
        self._view_size = view_size
        self._newscast_interval = newscast_interval
        self._seed_count = seed_contacts
        self._dormant: set[int] = set()
        self._bootstrap_started = False
        self._generation = 0
        self.reference = ReferenceTables(
            config.space,
            list(peers),
            config.leaf_set_size,
            config.entries_per_slot,
        )
        self.tracker = ConvergenceTracker(
            self.reference, (p.bootstrap for p in peers.values())
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    async def create(
        cls,
        size: int,
        *,
        seed: int = 1,
        config: BootstrapConfig | None = None,
        view_size: int = 30,
        newscast_interval: float = 0.05,
        seed_contacts: int = 3,
        hub: LoopbackHub | None = None,
    ) -> LocalCluster:
        """Spin up *size* peers on a loopback fabric.

        Each peer is seeded with *seed_contacts* random contacts -- a
        deliberately skimpy, non-random join list that the NEWSCAST
        warm-up must randomise (one of the paper's Section 3 claims).
        Pass a pre-built *hub* (e.g. a
        :class:`~repro.net.chaos.ChaosHub`) to run the cluster on a
        fault-injecting fabric; the default is a plain
        :class:`~repro.net.transport.LoopbackHub`.
        """
        if size < 2:
            raise ValueError(f"size must be >= 2, got {size}")
        if config is None:
            # Sub-second Δ so in-process runs finish quickly.
            config = PAPER_CONFIG.with_overrides(cycle_length=0.05)
        source = RandomSource(seed)
        if hub is None:
            hub = LoopbackHub()
        space = config.space
        ids = space.random_unique_ids(size, source.derive("ids"))
        descriptors = [
            NodeDescriptor(node_id=node_id, address=index)
            for index, node_id in enumerate(ids)
        ]
        peers: dict[int, AsyncPeer] = {}
        for desc in descriptors:
            peer = AsyncPeer(
                desc,
                config,
                rng=source.derive(("peer", desc.node_id)),
                view_size=view_size,
                newscast_interval=newscast_interval,
            )
            peer.attach(
                LoopbackTransport(hub, desc.address, peer.on_datagram)
            )
            peers[desc.node_id] = peer
        cluster = cls(
            peers,
            config,
            hub,
            source=source,
            view_size=view_size,
            newscast_interval=newscast_interval,
            seed_contacts=seed_contacts,
        )
        cluster._seed_contacts(descriptors, seed_contacts, source)
        return cluster

    @classmethod
    async def create_udp(
        cls,
        size: int,
        *,
        seed: int = 1,
        config: BootstrapConfig | None = None,
        host: str = "127.0.0.1",
        view_size: int = 30,
        newscast_interval: float = 0.05,
        seed_contacts: int = 3,
    ) -> LocalCluster:
        """Spin up *size* peers on real UDP sockets (ephemeral ports)."""
        if size < 2:
            raise ValueError(f"size must be >= 2, got {size}")
        if config is None:
            config = PAPER_CONFIG.with_overrides(cycle_length=0.05)
        source = RandomSource(seed)
        space = config.space
        ids = space.random_unique_ids(size, source.derive("ids"))
        peers: dict[int, AsyncPeer] = {}
        descriptors: list[NodeDescriptor] = []
        for node_id in ids:
            placeholder = NodeDescriptor(node_id=node_id, address=(host, 0))
            peer = AsyncPeer(
                placeholder,
                config,
                rng=source.derive(("peer", node_id)),
                view_size=view_size,
                newscast_interval=newscast_interval,
            )
            transport = await UdpTransport.create(peer.on_datagram, host=host)
            # Rebind the descriptor now that the real port is known.
            bound = NodeDescriptor(
                node_id=node_id, address=transport.local_address
            )
            peer.descriptor = bound
            peer.newscast.descriptor = bound
            peer.bootstrap.descriptor = bound
            peer.attach(transport)
            peers[node_id] = peer
            descriptors.append(bound)
        cluster = cls(
            peers,
            config,
            None,
            source=source,
            view_size=view_size,
            newscast_interval=newscast_interval,
            seed_contacts=seed_contacts,
        )
        cluster._seed_contacts(descriptors, seed_contacts, source)
        return cluster

    def _seed_contacts(
        self,
        descriptors: list[NodeDescriptor],
        count: int,
        source: RandomSource,
    ) -> None:
        rng = source.derive("seeding")
        for peer in self.peers.values():
            others = [d for d in descriptors if d.node_id != peer.node_id]
            contacts = rng.sample(others, min(count, len(others)))
            peer.seed(contacts)

    # ------------------------------------------------------------------
    # Deployment story
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of peers (live and dormant; killed ones excluded)."""
        return len(self.peers)

    def live_peers(self) -> list[AsyncPeer]:
        """The non-dormant peers, in ascending node-id order."""
        return [
            self.peers[nid]
            for nid in sorted(self.peers)
            if nid not in self._dormant
        ]

    def start_sampling_layer(self) -> None:
        """Start NEWSCAST on every non-dormant peer."""
        for peer in self.live_peers():
            peer.start()

    async def warmup(self, duration: float) -> None:
        """Let the sampling layer gossip for *duration* seconds."""
        await asyncio.sleep(duration)

    def broadcast_start(self) -> None:
        """The administrator's start signal: every live peer begins the
        bootstrap (each peer staggers its first activation within one
        Δ itself).  Peers joining later -- restarted or surged -- get
        the signal on entry."""
        self._bootstrap_started = True
        for peer in self.live_peers():
            peer.start_bootstrap()

    def measure(self) -> ConvergenceSample:
        """Convergence of the live bootstrap tables, now."""
        loop = asyncio.get_event_loop()
        return self.tracker.measure(loop.time())

    async def await_convergence(
        self, timeout: float, poll_interval: float = 0.05
    ) -> bool:
        """Poll until perfect tables everywhere or *timeout* seconds."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if self.measure().is_perfect:
                return True
            await asyncio.sleep(poll_interval)
        return self.measure().is_perfect

    async def shutdown(self) -> dict[int, list[BaseException]]:
        """Stop every peer and release transports.

        Returns the crash report: for each peer whose gossip tasks
        died with an unexpected exception, the reaped exceptions (see
        :attr:`AsyncPeer.crashes`).  One crashed peer never poisons
        the shutdown of the others.
        """
        await asyncio.gather(
            *(peer.stop() for peer in self.peers.values()),
            return_exceptions=True,
        )
        return {
            node_id: list(peer.crashes)
            for node_id, peer in self.peers.items()
            if peer.crashes
        }

    def mean_view_size(self) -> float:
        """Average NEWSCAST view fill (warm-up progress indicator)."""
        if not self.peers:
            return 0.0
        return sum(len(p.newscast.view) for p in self.peers.values()) / len(
            self.peers
        )

    # ------------------------------------------------------------------
    # Failure supervision (the chaos scenarios drive these)
    # ------------------------------------------------------------------

    def choose_victims(
        self, count: int, rng: random.Random, mode: str = "random"
    ) -> list[int]:
        """Pick *count* kill victims among the live peers.

        ``random`` samples uniformly; ``targeted`` ranks peers by
        NEWSCAST in-degree (how many other live views advertise them)
        and kills the most-referenced first -- the adversarial shape
        from the stress-testing literature.  At least two peers always
        survive.
        """
        live = sorted(nid for nid in self.peers if nid not in self._dormant)
        count = max(0, min(count, len(live) - 2))
        if count == 0:
            return []
        if mode == "random":
            return sorted(rng.sample(live, count))
        if mode == "targeted":
            in_degree = dict.fromkeys(live, 0)
            for nid in live:
                for desc in self.peers[nid].newscast.view.descriptors():
                    if desc.node_id != nid and desc.node_id in in_degree:
                        in_degree[desc.node_id] += 1
            ranked = sorted(live, key=lambda n: (-in_degree[n], n))
            return sorted(ranked[:count])
        raise ValueError(f"kill mode must be random|targeted, got {mode!r}")

    async def kill(self, node_ids: Iterable[int]) -> None:
        """Abruptly fail the given peers: tasks cancelled, transport
        unregistered (in-flight datagrams to them vanish).  Their
        descriptors are remembered for :meth:`restart_killed`."""
        for node_id in node_ids:
            peer = self.peers.pop(node_id, None)
            if peer is None:
                continue
            self._dormant.discard(node_id)
            self.killed[node_id] = peer.descriptor
            await peer.stop()
        self._rebind_tracker()

    async def restart_killed(self) -> list[int]:
        """Revive every killed peer with *fresh* state.

        Each rejoins exactly like a new node: a new
        :class:`AsyncPeer` (empty view, empty tables) seeded with a
        few random live contacts, started immediately -- and handed
        the start signal when the administrator already broadcast it.
        Requires the loopback fabric (``create``-built clusters).
        """
        if not self.killed:
            return []
        if self.hub is None or self._source is None:
            raise RuntimeError(
                "restart supervision needs the loopback fabric"
            )
        self._generation += 1
        live_descriptors = [p.descriptor for p in self.live_peers()]
        reseed = self._source.derive(("reseed", self._generation))
        revived: list[int] = []
        for node_id in sorted(self.killed):
            desc = self.killed[node_id]
            peer = AsyncPeer(
                desc,
                self.config,
                rng=self._source.derive(
                    ("restart", self._generation, node_id)
                ),
                view_size=self._view_size,
                newscast_interval=self._newscast_interval,
            )
            peer.attach(
                LoopbackTransport(self.hub, desc.address, peer.on_datagram)
            )
            contacts = reseed.sample(
                live_descriptors,
                min(self._seed_count, len(live_descriptors)),
            )
            peer.seed(contacts)
            self.peers[node_id] = peer
            peer.start()
            if self._bootstrap_started:
                peer.start_bootstrap()
            revived.append(node_id)
        self.killed.clear()
        self._rebind_tracker()
        return revived

    def hold_back(self, fraction: float, rng: random.Random) -> list[int]:
        """Mark a fraction of the pool dormant (the flash-crowd
        reserve): their transports detach, they run nothing, and the
        convergence reference excludes them until :meth:`surge`.
        Call before :meth:`start_sampling_layer`."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {fraction}")
        count = min(round(len(self.peers) * fraction), len(self.peers) - 2)
        if count <= 0:
            return []
        ids = sorted(self.peers)
        self._dormant = set(rng.sample(ids, count))
        for node_id in sorted(self._dormant):
            # Offline for real: frames routed to a dormant peer vanish.
            self.peers[node_id]._transport.close()
        self._rebind_tracker()
        return sorted(self._dormant)

    def surge(self) -> list[int]:
        """Wake every dormant peer at once (the flash-crowd join
        surge): re-attach transports, start NEWSCAST, and hand over
        the start signal when it is already out."""
        woken = sorted(self._dormant)
        self._dormant.clear()
        for node_id in woken:
            peer = self.peers[node_id]
            peer.attach(
                LoopbackTransport(
                    self.hub, peer.descriptor.address, peer.on_datagram
                )
            )
            peer.start()
            if self._bootstrap_started:
                peer.start_bootstrap()
        self._rebind_tracker()
        return woken

    def _rebind_tracker(self) -> None:
        """Re-point the tracker at the live population (fresh perfect
        tables, sample history kept)."""
        live = self.live_peers()
        self.reference = ReferenceTables(
            self.config.space,
            [peer.node_id for peer in live],
            self.config.leaf_set_size,
            self.config.entries_per_slot,
        )
        self.tracker.rebind(
            self.reference, (peer.bootstrap for peer in live)
        )
