"""Cycle-driven simulation engine (the PeerSim-equivalent substrate).

The paper's experiments ran on PeerSim's cycle-based mode: time is a
sequence of intervals of length ``Δ`` ("for convenience, we call the
consecutive intervals of length Δ cycles"), and within a cycle every
node performs one active protocol step, in random order (which models
the "different random time within an interval of length Δ" start and
the subsequent de-synchronised periods).

Both gossip protocols in this library -- NEWSCAST and the bootstrapping
service -- are request/answer exchanges, so the engine drives a single
abstraction, :class:`RequestReplyActor`, and applies the message-loss
model with the paper's coupling (a dropped request suppresses the
answer).

Messages are built after their drop coin: the engine tosses a
message's coin first and asks the actor for the message only once the
network delivers it (:meth:`RequestReplyActor.send`), so a lost
request builds neither message and a lost answer builds no answer.
Coins come from the engine's stream and message contents from the
actors' own, so the order of the two never shows in a trajectory.

The engine knows nothing about identifiers beyond using them as
directory keys, and nothing about payloads at all.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from typing import Generic, TypeVar

from .network import NetworkModel, TransportStats

__all__ = ["RequestReplyActor", "CycleEngine"]

Payload = TypeVar("Payload")


class RequestReplyActor(Generic[Payload]):
    """One protocol endpoint driven by the cycle engine.

    Subclasses adapt a concrete protocol object (a
    :class:`~repro.core.protocol.BootstrapNode`, a
    :class:`~repro.sampling.newscast.NewscastNode`, ...) to the engine's
    three-phase exchange.

    The engine drives an exchange through :meth:`pick`, :meth:`respond`
    and :meth:`send`, which let an actor build a message only once its
    drop coin has delivered it.  An actor that builds eagerly returns
    its finished messages from :meth:`pick` and :meth:`respond` and
    keeps the default :meth:`send`.

    The empty ``__slots__`` keeps concrete actors dict-free when they
    declare their own slots (a population is one actor per node, so the
    per-instance dict would cost real memory at scale); subclasses that
    don't declare ``__slots__`` still get a ``__dict__`` as usual.
    """

    __slots__ = ()

    def set_time(self, now: float) -> None:
        """Advance the actor's logical clock (start of every cycle)."""

    def pick(self) -> tuple[Hashable, object] | None:
        """Active-thread step up to the send: ``(target_key, draft)``,
        or ``None`` to skip this cycle.  :meth:`send` turns the draft
        into the request."""
        raise NotImplementedError

    def respond(self, request: Payload) -> object | None:
        """Passive-thread step up to the send: the draft of the answer
        to *request*, or ``None`` for no answer (then no coin is tossed
        for one).  An eager actor builds the answer from pre-exchange
        state, then applies the request."""
        raise NotImplementedError

    def send(self, draft: object, delivered: bool) -> Payload | None:
        """The message *draft* stands for, once the engine knows
        whether the network delivers it.

        An actor that builds lazily builds only a *delivered* message;
        an answer's draft also applies the request it answers, after
        building the answer from the pre-exchange state.  The return
        value of an undelivered message is ignored.  Default: the
        draft itself, for an actor that builds eagerly.
        """
        return draft  # type: ignore[return-value]

    def complete(self, reply: Payload) -> None:
        """Active-thread completion: apply the received answer."""
        raise NotImplementedError

    def on_no_reply(self, target_key: Hashable) -> None:
        """Timeout notification: the exchange this actor initiated with
        *target_key* produced no answer (request lost, answer lost, or
        the target is gone -- indistinguishable over UDP).

        Default: ignore, which is exactly the bootstrap protocol's
        behaviour.  Maintenance protocols override this to drive
        failure suspicion.
        """


class CycleEngine:
    """Runs one :class:`RequestReplyActor` population cycle by cycle.

    Parameters
    ----------
    network:
        Loss model applied to every request and answer.
    rng:
        Drives the per-cycle activation order and the drop decisions.
    stats:
        Optional shared :class:`TransportStats`; one is created when
        omitted.
    """

    __slots__ = (
        "network",
        "stats",
        "_rng",
        "_directory",
        "_cycle",
        "_order",
        "_scratch",
        "_members_dirty",
    )

    def __init__(
        self,
        network: NetworkModel,
        rng: random.Random,
        stats: TransportStats | None = None,
    ) -> None:
        self.network = network
        self.stats = stats if stats is not None else TransportStats()
        self._rng = rng
        self._directory: dict[Hashable, RequestReplyActor] = {}
        self._cycle = 0
        # Reusable activation-order buffers: `_order` mirrors the
        # directory's insertion order and is rebuilt only when
        # membership changes; `_scratch` is the per-cycle shuffle
        # target, so steady-state cycles allocate no new lists.
        self._order: list[Hashable] = []
        self._scratch: list[Hashable] = []
        self._members_dirty = False

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._cycle

    @property
    def population(self) -> int:
        """Number of registered actors."""
        return len(self._directory)

    def actors(self) -> list[RequestReplyActor]:
        """All registered actors (fresh list)."""
        return list(self._directory.values())

    def add_actor(self, key: Hashable, actor: RequestReplyActor) -> None:
        """Register *actor* under *key* (its address in the directory)."""
        if key in self._directory:
            raise ValueError(f"actor key {key!r} already registered")
        self._directory[key] = actor
        self._members_dirty = True

    def remove_actor(self, key: Hashable) -> RequestReplyActor | None:
        """Deregister and return the actor at *key* (``None`` if absent).

        A removed actor stops being reachable immediately: requests
        addressed to it within the same cycle count as
        ``void_requests`` -- exactly what a crashed UDP endpoint does.
        """
        actor = self._directory.pop(key, None)
        if actor is not None:
            self._members_dirty = True
        return actor

    def get_actor(self, key: Hashable) -> RequestReplyActor | None:
        """The actor at *key*, or ``None``."""
        return self._directory.get(key)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_cycle(self) -> None:
        """Execute one full cycle: every live actor initiates one
        exchange, in uniform random order.

        Actors added during the cycle (churn joins) first act in the
        next cycle; actors removed mid-cycle are skipped -- both match
        the semantics of PeerSim's cycle scheduler.
        """
        now = float(self._cycle)
        directory = self._directory
        if self._members_dirty:
            # Rebuild the canonical (insertion-ordered) key list only
            # when membership changed; the common steady-state cycle
            # reuses both buffers.
            self._order = list(directory)
            self._members_dirty = False
        scratch = self._scratch
        scratch[:] = self._order
        for actor in directory.values():
            actor.set_time(now)
        self._rng.shuffle(scratch)
        get = directory.get
        run_exchange = self.run_exchange
        for key in scratch:
            actor = get(key)
            if actor is not None:
                run_exchange(actor)
        self._cycle += 1

    def run_exchange(self, actor: RequestReplyActor) -> None:
        """Drive a single request/answer exchange for *actor*, applying
        the loss model with the paper's request/answer coupling.  Each
        message is built after its coin (module docstring)."""
        picked = actor.pick()
        if picked is None:
            return
        target_key, draft = picked
        stats = self.stats
        network = self.network
        rng = self._rng
        stats.exchanges += 1
        stats.requests_sent += 1
        if network.should_drop(rng):
            actor.send(draft, False)
            stats.requests_dropped += 1
            stats.suppressed_replies += 1
            actor.on_no_reply(target_key)
            return
        request = actor.send(draft, True)
        target = self._directory.get(target_key)
        if target is None:
            stats.void_requests += 1
            stats.suppressed_replies += 1
            actor.on_no_reply(target_key)
            return
        answer = target.respond(request)
        if answer is None:
            stats.suppressed_replies += 1
            actor.on_no_reply(target_key)
            return
        stats.replies_sent += 1
        delivered = not network.should_drop(rng)
        reply = target.send(answer, delivered)
        if not delivered:
            stats.replies_dropped += 1
            actor.on_no_reply(target_key)
            return
        actor.complete(reply)

    def run_cycles(self, count: int) -> None:
        """Execute *count* consecutive cycles."""
        for _ in range(count):
            self.run_cycle()
