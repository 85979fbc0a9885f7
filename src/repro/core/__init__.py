"""Core of the reproduction: the bootstrapping service itself.

This package implements the paper's primary contribution -- the gossip
protocol that jump-starts prefix-table routing substrates from scratch
(Section 4) -- together with the data structures it builds (leaf sets,
prefix tables) and the oracles used to measure convergence (Section 5).
"""

from .._lazy import lazy_exports

__all__ = [
    "BootstrapConfig",
    "PAPER_CONFIG",
    "ConvergenceSample",
    "ConvergenceTracker",
    "NodeDescriptor",
    "dedupe_by_id",
    "freshest_by_id",
    "IDSpace",
    "LeafSet",
    "select_balanced_ids",
    "BootstrapMessage",
    "PrefixTable",
    "BootstrapNode",
    "ProtocolStats",
    "Sampler",
    "DigitTrie",
    "ReferenceTables",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("BootstrapConfig", "PAPER_CONFIG"),
        ".convergence": ("ConvergenceSample", "ConvergenceTracker"),
        ".descriptor": ("NodeDescriptor", "dedupe_by_id", "freshest_by_id"),
        ".idspace": ("IDSpace",),
        ".leafset": ("LeafSet", "select_balanced_ids"),
        ".messages": ("BootstrapMessage",),
        ".prefixtable": ("PrefixTable",),
        ".protocol": ("BootstrapNode", "ProtocolStats", "Sampler"),
        ".reference": ("DigitTrie", "ReferenceTables"),
    },
)
