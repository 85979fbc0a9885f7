"""The peer sampling service layer (paper Section 3).

The bottom, "liquid" layer of the paper's architecture: provides random
peer addresses from the participating pool and implicitly defines
membership.  Ships NEWSCAST (the paper's instantiation) and an
idealised oracle sampler for controlled experiments.
"""

from .._lazy import lazy_exports

__all__ = [
    "PeerSamplingService",
    "NewscastNode",
    "DEFAULT_VIEW_SIZE",
    "MembershipRegistry",
    "OracleSampler",
    "PartialView",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("PeerSamplingService",),
        ".newscast": ("DEFAULT_VIEW_SIZE", "NewscastNode"),
        ".oracle": ("MembershipRegistry", "OracleSampler"),
        ".view": ("PartialView",),
    },
)
