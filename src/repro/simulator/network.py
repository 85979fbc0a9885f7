"""Network model: delivery and loss.

The paper "designed the protocol with a cheap, unreliable transport
layer in mind (UDP)" and evaluates robustness by "dropping messages with
a uniform probability" of 20% (Figure 4).  Because the protocol is built
on message-answer pairs, "if the first message is dropped, then the
answer is not sent either", which makes the expected overall loss 28%:
out of the two messages an exchange intends, a dropped request forfeits
both while a dropped answer forfeits one --
``(p * 2 + (1-p) * p * 1) / 2 = 0.28`` for ``p = 0.2``.

:class:`TransportStats` records exactly that accounting so experiment E6
can verify the arithmetic empirically, and :class:`NetworkModel`
centralises the drop decision for the cycle engines.  The cycle
abstraction has no latency, as in PeerSim; link delay and jitter are
injected on the live stack through
:class:`~repro.net.chaos.LinkFaults`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "NetworkModel",
    "TransportStats",
    "RELIABLE",
    "PAPER_LOSSY",
]


class TransportStats:
    """Message accounting with the paper's pair-loss semantics.

    An *exchange* intends two messages: the request and the answer.
    ``intended`` therefore advances by 2 per initiated exchange, while
    ``delivered`` counts what actually arrived; a dropped request both
    loses itself and suppresses the answer (``suppressed_replies``).
    """

    __slots__ = (
        "exchanges",
        "requests_sent",
        "requests_dropped",
        "replies_sent",
        "replies_dropped",
        "suppressed_replies",
        "void_requests",
    )

    def __init__(self) -> None:
        self.exchanges = 0
        self.requests_sent = 0
        self.requests_dropped = 0
        self.replies_sent = 0
        self.replies_dropped = 0
        #: Answers never sent because the request was lost.
        self.suppressed_replies = 0
        #: Requests delivered to a node that no longer exists (churn).
        self.void_requests = 0

    @property
    def intended(self) -> int:
        """Messages the protocol meant to flow: two per exchange."""
        return 2 * self.exchanges

    @property
    def sent(self) -> int:
        """Messages actually put on the wire."""
        return self.requests_sent + self.replies_sent

    @property
    def delivered(self) -> int:
        """Messages that reached a live destination."""
        return (
            self.requests_sent
            - self.requests_dropped
            - self.void_requests
            + self.replies_sent
            - self.replies_dropped
        )

    @property
    def overall_loss_fraction(self) -> float:
        """The paper's 28% metric: share of *intended* messages that
        never arrived (dropped, suppressed, or addressed to the void)."""
        if not self.intended:
            return 0.0
        return 1.0 - self.delivered / self.intended

    @property
    def wire_loss_fraction(self) -> float:
        """Share of *sent* messages dropped in flight (should match the
        configured drop probability)."""
        if not self.sent:
            return 0.0
        return (self.requests_dropped + self.replies_dropped) / self.sent

    def snapshot(self) -> dict:
        """Plain-dict copy for traces."""
        data = {name: getattr(self, name) for name in self.__slots__}
        data["intended"] = self.intended
        data["sent"] = self.sent
        data["delivered"] = self.delivered
        data["overall_loss_fraction"] = self.overall_loss_fraction
        data["wire_loss_fraction"] = self.wire_loss_fraction
        return data


@dataclass(frozen=True)
class NetworkModel:
    """Stochastic properties of the message substrate.

    Parameters
    ----------
    drop_probability:
        Uniform independent loss probability per message (paper Figure 4
        uses 0.2; "unrealistically large" by design).
    """

    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError(
                "drop_probability must be in [0, 1), got "
                f"{self.drop_probability}"
            )

    @property
    def reliable(self) -> bool:
        """Whether the model never drops messages."""
        return self.drop_probability == 0.0

    def should_drop(self, rng: random.Random) -> bool:
        """Decide one message's fate."""
        if self.drop_probability == 0.0:
            return False
        return rng.random() < self.drop_probability

    def expected_overall_loss(self) -> float:
        """Closed form of the paper's pair-loss arithmetic:
        ``(2p + (1-p)p) / 2``; equals 0.28 at ``p = 0.2``."""
        p = self.drop_probability
        return (2 * p + (1 - p) * p) / 2


#: Convenience instances.
RELIABLE = NetworkModel()
PAPER_LOSSY = NetworkModel(drop_probability=0.2)
