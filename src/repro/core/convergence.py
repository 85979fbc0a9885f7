"""Convergence measurement: the paper's evaluation metric.

Figures 3 and 4 plot, per cycle, the **proportion of missing leaf-set
entries** and the **proportion of missing prefix-table entries** across
the whole network, on a log scale, "ending when perfect convergence is
obtained".  :class:`ConvergenceTracker` produces exactly those series:
it compares every node's live state against :class:`ReferenceTables`
and aggregates the deficits.

Under churn the live identifier set changes; the tracker can be rebuilt
against a new reference while keeping the sample history, and entries
pointing at departed nodes are not counted as present.

Each measurement also lists the nodes it found perfect
(:attr:`ConvergenceTracker.settled`), straight from the per-node
deficit loop.  In a static network perfect tables are a fixed point of
UPDATELEAFSET + UPDATEPREFIXTABLE, so the cycle engines use that list
to skip messages addressed to those nodes (see
:mod:`repro.simulator.bootstrap_sim` for the gates).

The measure is incremental: most tables do not change between two
measurements (in a lossy NEWSCAST run at N=256 about 70 % of the
node-measurements see unchanged tables), so the tracker caches each
node's deficit and recomputes it only when the node's leaf set or
prefix table changed, as told by their object identity and
``version`` stamps.  The live identifier set is fixed between
:meth:`ConvergenceTracker.rebind` calls, which empty the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from .protocol import BootstrapNode
from .reference import ReferenceTables

__all__ = ["ConvergenceSample", "ConvergenceTracker"]


@dataclass(frozen=True)
class ConvergenceSample:
    """Network-wide table quality at one instant.

    ``missing_*`` are absolute entry deficits summed over all live
    nodes; ``total_*`` are the perfect-table denominators.
    """

    cycle: float
    missing_leaf: int
    total_leaf: int
    missing_prefix: int
    total_prefix: int

    @property
    def leaf_fraction(self) -> float:
        """Proportion of missing leaf-set entries (Figure 3/4 top)."""
        return self.missing_leaf / self.total_leaf if self.total_leaf else 0.0

    @property
    def prefix_fraction(self) -> float:
        """Proportion of missing prefix-table entries (Fig. 3/4 bottom)."""
        return (
            self.missing_prefix / self.total_prefix
            if self.total_prefix
            else 0.0
        )

    @property
    def is_perfect(self) -> bool:
        """Whether every node's tables match the reference exactly."""
        return self.missing_leaf == 0 and self.missing_prefix == 0

    def as_row(self) -> dict[str, float]:
        """Flat representation for traces and data files."""
        return {
            "cycle": self.cycle,
            "missing_leaf": self.missing_leaf,
            "leaf_fraction": self.leaf_fraction,
            "missing_prefix": self.missing_prefix,
            "prefix_fraction": self.prefix_fraction,
        }


class ConvergenceTracker:
    """Measures a population of :class:`BootstrapNode` against a
    reference, accumulating the per-cycle series of the paper's plots.

    Parameters
    ----------
    reference:
        Perfect tables for the current live identifier set.
    nodes:
        The live protocol nodes, keyed or listed in any order; only
        nodes whose identifier is in the reference are measured.

    After each :meth:`measure`, :attr:`settled` lists the measured
    nodes whose deficit was zero (perfect tables), in measurement
    order.

    A node's deficit is recomputed only when its tables changed since
    its last measurement: the cache is keyed by the identity and
    ``version`` of the node's leaf set and prefix table (``restart``
    swaps in a new leaf set, whose version starts again), and
    :meth:`rebind` empties it.
    """

    def __init__(
        self,
        reference: ReferenceTables,
        nodes: Iterable[BootstrapNode],
    ) -> None:
        self._reference = reference
        self._nodes: list[BootstrapNode] = [
            node for node in nodes if node.node_id in reference
        ]
        self._live_ids = set(reference.ids)
        self._deficits: list[tuple | None] = [None] * len(self._nodes)
        self.samples: list[ConvergenceSample] = []
        self.settled: list[BootstrapNode] = []

    @property
    def reference(self) -> ReferenceTables:
        """The perfect-table oracle currently in force."""
        return self._reference

    def rebind(
        self, reference: ReferenceTables, nodes: Iterable[BootstrapNode]
    ) -> None:
        """Swap in a new reference and node population (after churn or a
        merge/split event) while keeping the sample history."""
        self._reference = reference
        self._nodes = [n for n in nodes if n.node_id in reference]
        self._live_ids = set(reference.ids)
        self._deficits = [None] * len(self._nodes)

    def measure(self, cycle: float) -> ConvergenceSample:
        """Take one network-wide measurement, append it to
        :attr:`samples` and list the perfect nodes in :attr:`settled`."""
        deficits = self._deficits
        deficit = self._deficit
        missing_leaf = 0
        missing_prefix = 0
        settled = self.settled = []
        for index, node in enumerate(self._nodes):
            leaf_set = node.leaf_set
            table = node.prefix_table
            cached = deficits[index]
            if (
                cached is not None
                and cached[0] is leaf_set
                and cached[1] == leaf_set.version
                and cached[2] is table
                and cached[3] == table.version
            ):
                leaf, prefix = cached[4], cached[5]
            else:
                leaf, prefix = deficit(node)
                deficits[index] = (
                    leaf_set, leaf_set.version, table, table.version, leaf, prefix
                )
            if leaf or prefix:
                missing_leaf += leaf
                missing_prefix += prefix
            else:
                settled.append(node)
        total_leaf, total_prefix = self._reference.totals()
        sample = ConvergenceSample(
            cycle=cycle,
            missing_leaf=missing_leaf,
            total_leaf=total_leaf,
            missing_prefix=missing_prefix,
            total_prefix=total_prefix,
        )
        self.samples.append(sample)
        return sample

    def _deficit(self, node: BootstrapNode) -> tuple[int, int]:
        """``(missing leaf, missing prefix)`` of one node, counting
        only live entries."""
        live = self._live_ids
        current = node.leaf_set.member_ids()
        if not current.issubset(live):
            current &= live
        reference = self._reference
        return (
            reference.leaf_missing(node.node_id, current),
            reference.prefix_missing(node.node_id, self._live_occupancy(node)),
        )

    def _live_occupancy(
        self, node: BootstrapNode
    ) -> dict[tuple[int, int], int]:
        """Slot occupancy counting only entries that are still live."""
        table = node.prefix_table
        if node.prefix_table.member_ids() <= self._live_ids:
            return table.occupancy()
        occupancy: dict[tuple[int, int], int] = {}
        for slot, descriptors in table.iter_slots():
            live_count = sum(
                1 for d in descriptors if d.node_id in self._live_ids
            )
            if live_count:
                occupancy[slot] = live_count
        return occupancy

    # ------------------------------------------------------------------
    # Series access
    # ------------------------------------------------------------------

    @property
    def converged_at(self) -> float | None:
        """Cycle of the first perfect sample, or ``None``."""
        for sample in self.samples:
            if sample.is_perfect:
                return sample.cycle
        return None

    def leaf_series(self) -> list[tuple[float, float]]:
        """``(cycle, leaf_fraction)`` pairs -- Figure 3/4 top curve."""
        return [(s.cycle, s.leaf_fraction) for s in self.samples]

    def prefix_series(self) -> list[tuple[float, float]]:
        """``(cycle, prefix_fraction)`` pairs -- Figure 3/4 bottom curve."""
        return [(s.cycle, s.prefix_fraction) for s in self.samples]

    def cycles_to_reach(
        self, leaf_threshold: float = 0.0, prefix_threshold: float = 0.0
    ) -> float | None:
        """First cycle at which both fractions are at or below the given
        thresholds (used by the scalability analysis, experiment E5)."""
        for sample in self.samples:
            if (
                sample.leaf_fraction <= leaf_threshold
                and sample.prefix_fraction <= prefix_threshold
            ):
                return sample.cycle
        return None
