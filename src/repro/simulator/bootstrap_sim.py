"""End-to-end cycle-driven simulation of the bootstrapping service.

:class:`BootstrapSimulation` assembles the full experimental apparatus
of the paper's Section 5:

* a population of nodes with unique random 64-bit identifiers;
* a functional peer sampling service (idealised oracle by default, or a
  live NEWSCAST layer gossiping in the same cycles);
* the bootstrapping protocol on every node, loosely-synchronised start;
* a message loss model (Figure 4 uses 20% uniform drop);
* failure/churn/merge schedules mutating the membership mid-run;
* per-cycle convergence measurement against the perfect tables.

The scenario of an experiment matches the paper: "We assume that we are
given a network where the sampling service is already functional.  We
start the bootstrapping protocol at each node at a different random time
within an interval of length Δ. ... The protocol is then run until the
perfect leaf sets and prefix tables are found at all nodes, based on the
actual set of IDs in the network."

Settled receivers
-----------------
The protocol "has no stopping criterion", so a run keeps gossiping
after its nodes have found their perfect tables, and in a static
network those tables are a fixed point of UPDATELEAFSET +
UPDATEPREFIXTABLE.  Each :meth:`BootstrapSimulation.measure` therefore
records the nodes it found perfect (:attr:`ConvergenceTracker.settled`)
in a :class:`~repro.simulator.actors.SettledNodes` shared with the
actors, which then build no request to a settled target, no reply to
a settled requester, and absorb nothing at a settled receiver.  A
skipped build still draws its ``cr`` samples, and SELECTPEER, drop
coins and :class:`TransportStats` run for every exchange, so samples,
transport counters and ``converged_at`` are identical to building
everything.  A node is skipped only when all of these hold:

* the network has been measured (an unmeasured run skips nothing);
* no node was ever killed (dead ids circulate after a kill, and a
  perfect node re-admits them, so it is no fixed point);
* membership has not changed since that measurement (a spawn empties
  the set until the next one);
* the node had started when it was measured;
* the node factory is the default :class:`BootstrapNode` (ablation
  variants override CREATEMESSAGE, and some draw randomness in it);
* the node's leaf set and prefix table are unchanged since that
  measurement (``restart`` and the maintenance layer write them from
  outside the engine).

What differs: a settled node stops absorbing fresher advertisements,
so the descriptor timestamps it holds may be older (nothing in a cycle
engine reads them), and :class:`~repro.core.protocol.ProtocolStats`
counts only the messages that were actually built.

Independently of settling, both engines build each message only after
its drop coin delivered it (see :mod:`repro.simulator.engine`): a lost
message is never built, but its ``cr`` samples are still drawn, so
``ProtocolStats`` counts no lost message either.  Ablation node
factories, whose CREATEMESSAGE may draw more than the samples, still
build their lost messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.convergence import ConvergenceSample, ConvergenceTracker
from ..core.descriptor import NodeDescriptor
from ..core.protocol import BootstrapNode
from ..core.reference import ReferenceTables
from ..sampling.newscast import NewscastNode
from ..sampling.oracle import MembershipRegistry, OracleSampler
from .actors import BootstrapActor, NewscastActor, SettledNodes
from .engine import CycleEngine
from .network import NetworkModel, RELIABLE
from .random_source import RandomSource

__all__ = [
    "BootstrapSimulation",
    "CycleSimulation",
    "SimulationResult",
    "SAMPLER_KINDS",
]

SAMPLER_KINDS = ("oracle", "newscast")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one bootstrap run.

    Attributes
    ----------
    samples:
        Per-cycle convergence measurements (the paper's plotted series).
    converged_at:
        First cycle with perfect tables at every node, or ``None`` if
        the run hit its cycle budget first.
    population:
        Final number of live nodes.
    transport:
        Message accounting snapshot (the 28%-loss arithmetic lives here).
    config:
        The protocol parameters used.
    seed:
        Master seed of the run.
    cycles_run:
        Number of cycles this run executed.
    started_at_cycle:
        Engine cycle at which this run began (non-zero when the same
        pool has been run before, e.g. merge/restart scenarios).
    engine:
        Which engine implementation produced this result
        (``"reference"``, ``"fast"``, or ``"vector"``).  The first two
        are bit-identical by contract; the vector engine is
        deterministic per seed but only statistically equivalent, so
        the provenance field is what keeps artefacts comparable.
    """

    samples: tuple[ConvergenceSample, ...]
    converged_at: float | None
    population: int
    transport: dict
    config: BootstrapConfig
    seed: int
    cycles_run: int
    started_at_cycle: int = 0
    engine: str = "reference"

    @property
    def cycles_to_converge(self) -> float | None:
        """Cycles from this run's start to perfection (relative), or
        ``None``.  Equals :attr:`converged_at` for fresh pools."""
        if self.converged_at is None:
            return None
        return self.converged_at - self.started_at_cycle

    @property
    def final_sample(self) -> ConvergenceSample:
        """The last measurement taken."""
        return self.samples[-1]

    @property
    def converged(self) -> bool:
        """Whether perfect convergence was reached."""
        return self.converged_at is not None

    def leaf_series(self) -> list[tuple[float, float]]:
        """``(cycle, missing-leaf fraction)`` pairs."""
        return [(s.cycle, s.leaf_fraction) for s in self.samples]

    def prefix_series(self) -> list[tuple[float, float]]:
        """``(cycle, missing-prefix fraction)`` pairs."""
        return [(s.cycle, s.prefix_fraction) for s in self.samples]

    def messages_per_node_per_cycle(self) -> float:
        """Average wire messages per node per cycle (cost figure)."""
        if not self.cycles_run or not self.population:
            return 0.0
        return self.transport["sent"] / (self.cycles_run * self.population)


class CycleSimulation:
    """The engine-independent shell of a cycle-driven simulation.

    It validates the constructor arguments shared by every engine,
    derives the identifiers from the seed tree (the initial set, and
    a spawned one from ``("spawn", a)``, where *a* is the address the
    newcomer gets: the count of earlier admissions), keeps the
    membership surface and runs the paper's experiment loop.  Membership
    randomness is therefore the same on every engine: a seed simulates
    the *same network* on all of them.

    An engine supplies the rest:

    * ``_open()`` -- its state before the first admission;
    * ``_admit(node_id)`` -- wire up one new, already validated node
      (``_next_address`` is its address) and return its handle;
    * ``_seed_view(node_id, rng)`` -- fill one NEWSCAST view with a
      registry sample drawn from *rng*;
    * ``kill_node``, ``run_cycle`` and ``measure``;
    * ``tracker`` (with its ``samples``) and ``_boot``, the bootstrap
      gossip layer: its completed ``cycle`` count and its
      :class:`~repro.simulator.network.TransportStats` ``stats``.
    """

    engine_name: str

    def __init__(
        self,
        size: int | None,
        ids: Sequence[int] | None,
        config: BootstrapConfig,
        seed: int,
        network: NetworkModel,
        sampler: str,
        newscast_view_size: int,
    ) -> None:
        if sampler not in SAMPLER_KINDS:
            raise ValueError(
                f"sampler must be one of {SAMPLER_KINDS}, got {sampler!r}"
            )
        if ids is None and (size is None or size < 2):
            raise ValueError("need size >= 2 or an explicit id list")
        self.config = config
        self.seed = seed
        self.network = network
        self.sampler_kind = sampler
        self._source = RandomSource(seed)
        self._space = space = config.space
        self._newscast_view_size = newscast_view_size

        if ids is None:
            id_list = space.random_unique_ids(size, self._source.derive("ids"))
        else:
            id_list = list(ids)
            if len(set(id_list)) != len(id_list):
                raise ValueError("identifier list contains duplicates")
            for node_id in id_list:
                space.validate(node_id)
            if len(id_list) < 2:
                raise ValueError("need at least 2 identifiers")

        self.nodes: dict[int, object] = {}
        self._next_address = 0
        self._membership_dirty = False
        self._open()
        for node_id in id_list:
            self._admit(node_id)
            self._next_address += 1
        if sampler == "newscast":
            # The steady state a long-running sampling layer provides:
            # every view holds uniform random live peers.
            rng = self._source.derive("newscast-seed")
            for node_id in self.nodes:
                self._seed_view(node_id, rng)

    # ------------------------------------------------------------------
    # Membership (failure schedules, merge/split scenarios)
    # ------------------------------------------------------------------

    @property
    def population(self) -> int:
        """Current number of live nodes."""
        return len(self.nodes)

    @property
    def live_ids(self) -> list[int]:
        """Identifiers of live nodes, in admission order."""
        return list(self.nodes)

    def spawn_node(self, node_id: int | None = None):
        """Join a brand-new node (fresh identifier unless given).

        A given identifier is checked before anything is admitted, so
        a rejected one leaves the network as it was.  The newcomer's
        sampling endpoint is functional immediately (oracle) or seeded
        with random live peers (NEWSCAST join); its bootstrap protocol
        starts at its first activation, next cycle.
        """
        if node_id is None:
            rng = self._source.derive(("spawn", self._next_address))
            node_id = self._space.random_id(rng)
            while node_id in self.nodes:
                node_id = self._space.random_id(rng)
        elif node_id in self.nodes:
            raise ValueError(f"identifier {node_id:#x} already live")
        else:
            self._space.validate(node_id)
        node = self._admit(node_id)
        self._next_address += 1
        if self.sampler_kind == "newscast":
            rng = self._source.derive(("newscast-join", node_id))
            self._seed_view(node_id, rng)
        self._membership_dirty = True
        return node

    def absorb_pool(self, ids: Iterable[int]) -> list:
        """Merge a pool of identifiers into this network (the paper's
        network-merge scenario).  Returns the new nodes."""
        return [self.spawn_node(node_id) for node_id in ids]

    def _perfect_tables(self) -> ReferenceTables:
        """The perfect leaf sets and prefix tables of the live ids."""
        return ReferenceTables(
            self._space,
            self.nodes.keys(),
            self.config.leaf_set_size,
            self.config.entries_per_slot,
        )

    def _refresh_reference(self) -> None:
        """Rebuild the perfect-table oracle after membership changed
        (the engines whose tracker measures against it)."""
        self.reference = self._perfect_tables()
        self.tracker.rebind(self.reference, self.nodes.values())
        self._membership_dirty = False

    # ------------------------------------------------------------------
    # The experiment
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._boot.cycle

    def run(
        self,
        max_cycles: int = 60,
        *,
        stop_when_perfect: bool = True,
        schedules: Sequence[object] = (),
        measure_every: int = 1,
    ) -> SimulationResult:
        """Run the experiment.

        Parameters
        ----------
        max_cycles:
            Budget; the paper notes the protocol "has no stopping
            criterion" and is simply run "for a fixed number of cycles
            that are known to be sufficient".
        stop_when_perfect:
            End early at the first perfect measurement (how the paper's
            plots end).
        schedules:
            Failure/churn schedule objects (see
            :mod:`repro.simulator.failures`); ``apply(sim, i)`` runs at
            the start of cycle *i*, before its ``run_cycle``.
        measure_every:
            Measurement period in cycles (1 = the paper's plots).
        """
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        if measure_every < 1:
            raise ValueError(
                f"measure_every must be >= 1, got {measure_every}"
            )
        started_at = self.cycle
        for cycle_index in range(max_cycles):
            for schedule in schedules:
                schedule.apply(self, cycle_index)
            self.run_cycle()
            if (cycle_index + 1) % measure_every == 0:
                sample = self.measure()
                if stop_when_perfect and sample.is_perfect:
                    break
        if not self.tracker.samples:
            self.measure()
        return self._result(started_at)

    def _result(self, started_at: int = 0) -> SimulationResult:
        converged_at = next(
            (
                s.cycle
                for s in self.tracker.samples
                if s.cycle > started_at and s.is_perfect
            ),
            None,
        )
        return SimulationResult(
            samples=tuple(self.tracker.samples),
            converged_at=converged_at,
            population=self.population,
            transport=self._boot.stats.snapshot(),
            config=self.config,
            seed=self.seed,
            cycles_run=self.cycle - started_at,
            started_at_cycle=started_at,
            engine=self.engine_name,
        )


class BootstrapSimulation(CycleSimulation):
    """Cycle-driven simulation of one bootstrap run.

    Parameters
    ----------
    size:
        Number of nodes (ignored when *ids* is given).
    ids:
        Explicit identifier set (distinct), overrides *size*.
    config:
        Protocol parameters; defaults to the paper's.
    seed:
        Master seed; every stochastic stream derives from it.
    network:
        Message loss/latency model shared by both gossip layers.
    sampler:
        ``"oracle"`` (idealised uniform sampling, the paper's "already
        functional" assumption) or ``"newscast"`` (live NEWSCAST layer
        gossiping once per cycle alongside the bootstrap).
    newscast_view_size:
        View size when ``sampler="newscast"``.
    node_factory:
        Constructor for the protocol nodes; defaults to
        :class:`BootstrapNode`.  The ablation study injects protocol
        variants here (they must share ``BootstrapNode``'s interface).
    """

    engine_name = "reference"

    def __init__(
        self,
        size: int | None = None,
        *,
        ids: Sequence[int] | None = None,
        config: BootstrapConfig = PAPER_CONFIG,
        seed: int = 1,
        network: NetworkModel = RELIABLE,
        sampler: str = "oracle",
        newscast_view_size: int = 30,
        node_factory: type | None = None,
    ) -> None:
        self._node_factory = node_factory or BootstrapNode
        super().__init__(
            size, ids, config, seed, network, sampler, newscast_view_size
        )
        self.reference = self._perfect_tables()
        self.tracker = ConvergenceTracker(
            self.reference, self.nodes.values()
        )

    def _open(self) -> None:
        self.registry = MembershipRegistry()
        self.newscast: dict[int, NewscastNode] = {}
        # Settled receivers (module docstring): recorded at each
        # measure while _settle holds, which a kill ends for good.
        self._settled = SettledNodes()
        self._settle = self._node_factory is BootstrapNode
        self.engine = self._boot = CycleEngine(
            self.network, self._source.derive("bootstrap-engine")
        )
        self.newscast_engine: CycleEngine | None = None
        if self.sampler_kind == "newscast":
            self.newscast_engine = CycleEngine(
                self.network, self._source.derive("newscast-engine")
            )

    def _admit(self, node_id: int) -> BootstrapNode:
        """Create and wire up one node (registry, sampler, engines)."""
        descriptor = NodeDescriptor(node_id=node_id, address=self._next_address)
        self.registry.add(descriptor)

        if self.newscast_engine is not None:
            newscast_node = NewscastNode(
                descriptor,
                self._source.derive(("newscast", node_id)),
                view_size=self._newscast_view_size,
            )
            self.newscast[node_id] = newscast_node
            self.newscast_engine.add_actor(
                node_id, NewscastActor(newscast_node)
            )
            node_sampler = newscast_node
        else:
            node_sampler = OracleSampler(
                self.registry,
                node_id,
                self._source.derive(("sampler", node_id)),
            )

        node = self._node_factory(
            descriptor,
            self.config,
            node_sampler,
            self._source.derive(("node", node_id)),
        )
        self.nodes[node_id] = node
        actor = BootstrapActor(node)
        actor.settled = self._settled
        self.engine.add_actor(node_id, actor)
        self._settled.clear()
        return node

    def _seed_view(self, node_id: int, rng) -> None:
        self.newscast[node_id].seed_view(
            self.registry.sample_descriptors(
                self._newscast_view_size, rng, exclude_id=node_id
            )
        )

    def kill_node(self, node_id: int) -> bool:
        """Crash *node_id*: it stops sending, answering, and being a
        valid table entry.  Returns whether the node was live."""
        node = self.nodes.pop(node_id, None)
        if node is None:
            return False
        self.registry.remove(node_id)
        self.engine.remove_actor(node_id)
        if self.newscast_engine is not None:
            self.newscast.pop(node_id, None)
            self.newscast_engine.remove_actor(node_id)
        self._membership_dirty = True
        self._settle = False
        self._settled.clear()
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_cycle(self) -> None:
        """One Δ interval: the sampling layer gossips (if live), then
        every bootstrap node performs one exchange."""
        if self.newscast_engine is not None:
            self.newscast_engine.run_cycle()
        self.engine.run_cycle()

    def measure(self) -> ConvergenceSample:
        """Measure convergence now (rebuilding the reference first if
        membership changed) and record the settled nodes."""
        if self._membership_dirty:
            self._refresh_reference()
        sample = self.tracker.measure(float(self.engine.cycle))
        if self._settle:
            self._settled.record(self.tracker.settled)
        return sample
