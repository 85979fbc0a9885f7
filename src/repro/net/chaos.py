"""Deterministic chaos fabric for the asyncio prototype.

The paper's headline claim is *operational robustness*: the service
keeps handing out routing substrates "despite catastrophic failures,
on demand".  This module supplies the machinery to put the live stack
(:mod:`repro.net.peer` / :mod:`repro.net.cluster`) under exactly those
conditions, reproducibly:

* :class:`LinkFaults` -- a per-link fault distribution (drop,
  duplicate, reorder, fixed delay, jitter);
* :class:`ChaosEvent` / :class:`ChaosSchedule` -- a declarative,
  JSON-round-trippable timeline of fault events (like
  :class:`~repro.scenarios.ScenarioSpec`, but for faults);
* :class:`ChaosHub` -- a :class:`~repro.net.transport.LoopbackHub`
  that applies the configured faults and (possibly asymmetric)
  partitions to every datagram, drawing all randomness from one
  injected ``random.Random``;
* :class:`VirtualClockLoop` / :func:`run_virtual` -- an asyncio event
  loop whose clock jumps straight to the next timer, so chaos soaks
  are both fast (no real sleeping) and *deterministic*: the same
  schedule and seed produce the identical interleaving, message
  counters and virtual timestamps on every run;
* :class:`ChaosController` -- the interpreter that walks a schedule
  against a live cluster (partition/heal the hub, kill/restart peers,
  wake a flash crowd).

Determinism contract: with a :class:`VirtualClockLoop`, a loopback
fabric and seeded RNGs, two runs of the same schedule are
byte-identical -- the property ``tests/test_chaos.py`` pins.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import math
import random
from dataclasses import dataclass
from collections.abc import Awaitable, Callable, Hashable, Iterable

from .transport import LoopbackHub

__all__ = [
    "LinkFaults",
    "ChaosEvent",
    "ChaosSchedule",
    "CHAOS_EVENT_KINDS",
    "ChaosHub",
    "VirtualClockLoop",
    "run_virtual",
    "ChaosController",
]


# ----------------------------------------------------------------------
# Fault distributions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinkFaults:
    """One link's (or the fabric-wide default) fault distribution.

    Attributes
    ----------
    drop:
        Per-datagram loss probability, in ``[0, 1)``.
    duplicate:
        Probability the datagram is delivered twice, in ``[0, 1]``.
    reorder:
        Probability the datagram is held back by :attr:`reorder_delay`
        seconds (overtaken by later traffic), in ``[0, 1]``.
    reorder_delay:
        Hold-back applied to reordered datagrams, seconds.
    delay:
        Fixed one-way delay applied to every datagram, seconds.
    jitter:
        Uniform extra delay in ``[0, jitter]`` seconds per datagram.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 0.05
    delay: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop < 1.0:
            raise ValueError(f"drop must be in [0, 1), got {self.drop}")
        for name in ("duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("reorder_delay", "delay", "jitter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}"
                )

    @property
    def is_clean(self) -> bool:
        """Whether this distribution perturbs nothing at all.

        A clean distribution draws **zero** random numbers per
        datagram, which is what makes a fault-free :class:`ChaosHub`
        behave identically to a plain ``LoopbackHub`` (pinned by the
        equivalence test).
        """
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.reorder == 0.0
            and self.delay == 0.0
            and self.jitter == 0.0
        )

    def to_dict(self) -> dict[str, float]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "drop": self.drop,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
            "reorder_delay": self.reorder_delay,
            "delay": self.delay,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> LinkFaults:
        """Rebuild a distribution from :meth:`to_dict` output."""
        allowed = {
            "drop", "duplicate", "reorder", "reorder_delay", "delay",
            "jitter",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown LinkFaults fields {sorted(unknown)}")
        return cls(**{key: float(value) for key, value in data.items()})


# ----------------------------------------------------------------------
# Declarative schedules
# ----------------------------------------------------------------------

#: Event kinds and the parameter names each accepts.  ``link_faults``
#: parameters mirror :class:`LinkFaults`; the rest are interpreted by
#: :class:`ChaosController`.
CHAOS_EVENT_KINDS: dict[str, frozenset[str]] = {
    "link_faults": frozenset(
        {"drop", "duplicate", "reorder", "reorder_delay", "delay", "jitter"}
    ),
    "partition": frozenset({"fraction", "symmetric"}),
    "heal": frozenset(),
    "kill": frozenset({"fraction", "count", "mode"}),
    "restart": frozenset(),
    "surge": frozenset(),
}

#: JSON scalar types admissible as event parameter values.
_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class ChaosEvent:
    """One timed fault event.

    ``at`` is seconds after the chaos run's start signal; ``params``
    is stored as a sorted tuple of pairs so the event is hashable and
    serialises canonically.  Build with :meth:`of`.
    """

    at: float
    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at) and self.at >= 0.0):
            raise ValueError(
                f"event time must be finite and >= 0, got {self.at}"
            )
        allowed = CHAOS_EVENT_KINDS.get(self.kind)
        if allowed is None:
            raise ValueError(
                f"unknown chaos event kind {self.kind!r}; expected one of "
                f"{sorted(CHAOS_EVENT_KINDS)}"
            )
        for key, value in self.params:
            if key not in allowed:
                raise ValueError(
                    f"event {self.kind!r} does not take parameter {key!r} "
                    f"(allowed: {sorted(allowed) or 'none'})"
                )
            if not isinstance(value, _SCALARS):
                raise ValueError(
                    f"event parameter {key}={value!r} is not a JSON scalar"
                )

    @classmethod
    def of(cls, at: float, kind: str, **params: object) -> ChaosEvent:
        """Build an event with keyword parameters (canonical order)."""
        return cls(
            at=float(at),
            kind=kind,
            params=tuple(sorted(params.items())),
        )

    def param_dict(self) -> dict[str, object]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "at": self.at,
            "kind": self.kind,
            "params": self.param_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> ChaosEvent:
        """Rebuild an event from :meth:`to_dict` output."""
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"event params must be an object, got {params!r}")
        return cls.of(float(data["at"]), str(data["kind"]), **params)


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered timeline of :class:`ChaosEvent`, JSON-round-trippable.

    Events are kept sorted by time (ties keep their given order), so
    the schedule *is* the fault sequence -- the controller applies it
    front to back.  ``ChaosSchedule.from_dict(s.to_dict()) == s`` is
    the contract the tests pin, mirroring ``ScenarioSpec``.
    """

    events: tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        times = [event.at for event in self.events]
        if times != sorted(times):
            raise ValueError(
                "chaos events must be ordered by time; use "
                "ChaosSchedule.of(...) to sort"
            )

    @classmethod
    def of(cls, *events: ChaosEvent) -> ChaosSchedule:
        """Build a schedule, sorting the events by time (stable)."""
        return cls(events=tuple(sorted(events, key=lambda e: e.at)))

    def __len__(self) -> int:
        return len(self.events)

    @property
    def last_at(self) -> float:
        """Time of the final event (0.0 for an empty schedule)."""
        return self.events[-1].at if self.events else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> ChaosSchedule:
        """Rebuild a schedule from :meth:`to_dict` output."""
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValueError(f"events must be a list, got {events!r}")
        return cls.of(*(ChaosEvent.from_dict(e) for e in events))

    def to_json(self, indent: int = 1) -> str:
        """Serialise to a stable JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> ChaosSchedule:
        """Parse a :meth:`to_json` document."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# The fault-injecting fabric
# ----------------------------------------------------------------------


class ChaosHub(LoopbackHub):
    """A loopback fabric that applies :class:`LinkFaults` and partitions.

    Per-datagram behaviour (in order): partition check, drop draw,
    duplicate draw, then per-copy delay (fixed + jitter + reorder
    hold-back).  A link with a clean fault distribution draws **no**
    randomness and delivers via ``call_soon``, exactly like the plain
    ``LoopbackHub`` -- so a fault-free :class:`ChaosHub` is
    behaviourally identical to its parent (pinned by test).

    Parameters
    ----------
    faults:
        Fabric-wide default fault distribution (clean by default).
    rng:
        The single source of fault randomness; inject a seeded
        ``random.Random`` for reproducible runs.
    """

    def __init__(
        self,
        faults: LinkFaults | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__()
        self.faults = faults if faults is not None else LinkFaults()
        self._rng = rng if rng is not None else random.Random(0)
        self._links: dict[tuple[Hashable, Hashable], LinkFaults] = {}
        self._blocks: list[tuple[frozenset, frozenset]] = []
        self.datagrams_dropped = 0
        self.datagrams_duplicated = 0
        self.datagrams_reordered = 0
        self.datagrams_delayed = 0
        self.datagrams_blocked = 0

    # -- configuration ---------------------------------------------------

    def set_faults(self, faults: LinkFaults) -> None:
        """Replace the fabric-wide default fault distribution."""
        self.faults = faults

    def set_link(
        self, source: Hashable, target: Hashable, faults: LinkFaults
    ) -> None:
        """Override the fault distribution of one directed link."""
        self._links[(source, target)] = faults

    def clear_links(self) -> None:
        """Drop every per-link override (the default applies again)."""
        self._links.clear()

    def partition(
        self,
        side_a: Iterable[Hashable],
        side_b: Iterable[Hashable],
        symmetric: bool = True,
    ) -> None:
        """Block traffic from *side_a* to *side_b* (and back, when
        *symmetric*).  Partitions stack until :meth:`heal`."""
        a, b = frozenset(side_a), frozenset(side_b)
        self._blocks.append((a, b))
        if symmetric:
            self._blocks.append((b, a))

    def heal(self) -> None:
        """Remove every partition (traffic flows again)."""
        self._blocks.clear()

    @property
    def partitioned(self) -> bool:
        """Whether any partition is currently in force."""
        return bool(self._blocks)

    def counters(self) -> dict[str, int]:
        """All fabric counters as a plain dict (for reports)."""
        return {
            "datagrams_sent": self.datagrams_sent,
            "datagrams_dropped": self.datagrams_dropped,
            "datagrams_duplicated": self.datagrams_duplicated,
            "datagrams_reordered": self.datagrams_reordered,
            "datagrams_delayed": self.datagrams_delayed,
            "datagrams_blocked": self.datagrams_blocked,
        }

    # -- the datapath ----------------------------------------------------

    def _is_blocked(self, source: Hashable, target: Hashable) -> bool:
        return any(
            source in side_a and target in side_b
            for side_a, side_b in self._blocks
        )

    def send(self, data: bytes, source: Hashable, target: Hashable) -> None:
        """Route one datagram, applying partitions and link faults."""
        self.datagrams_sent += 1
        if self._blocks and self._is_blocked(source, target):
            self.datagrams_blocked += 1
            return
        faults = self._links.get((source, target), self.faults)
        loop = asyncio.get_running_loop()
        if faults.is_clean:
            loop.call_soon(self._deliver, data, source, target)
            return
        rng = self._rng
        if faults.drop and rng.random() < faults.drop:
            self.datagrams_dropped += 1
            return
        copies = 1
        if faults.duplicate and rng.random() < faults.duplicate:
            copies = 2
            self.datagrams_duplicated += 1
        for _ in range(copies):
            delay = faults.delay
            if faults.jitter:
                delay += rng.uniform(0.0, faults.jitter)
            if faults.reorder and rng.random() < faults.reorder:
                delay += faults.reorder_delay
                self.datagrams_reordered += 1
            if delay > 0.0:
                self.datagrams_delayed += 1
                loop.call_later(delay, self._deliver, data, source, target)
            else:
                loop.call_soon(self._deliver, data, source, target)


# ----------------------------------------------------------------------
# The virtual clock
# ----------------------------------------------------------------------


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock jumps to the next scheduled timer.

    Whenever the ready queue drains, the loop advances its virtual
    ``time()`` straight to the earliest pending timer instead of
    sleeping -- a ten-virtual-second soak finishes in milliseconds of
    wall clock, and (with loopback transports and seeded RNGs) the
    callback interleaving is a pure function of the program, which is
    what makes chaos runs bit-reproducible.

    Only timer- and callback-driven work advances: real I/O readiness
    (sockets) never fires, so this loop is for loopback fabrics only.
    A state with no ready callbacks and no timers would sleep forever
    on the selector; the loop raises ``RuntimeError`` instead, turning
    accidental deadlock into a diagnosable failure.
    """

    def __init__(self) -> None:
        self._virtual_now = 0.0
        super().__init__()

    def time(self) -> float:
        """The loop's virtual clock (seconds since loop creation)."""
        return self._virtual_now

    def _run_once(self) -> None:
        """One iteration: advance the virtual clock, then run the base
        machinery (whose timeout computes to zero)."""
        if not self._ready and not self._stopping:
            scheduled = self._scheduled
            while scheduled and scheduled[0]._cancelled:
                self._timer_cancelled_count -= 1
                handle = heapq.heappop(scheduled)
                handle._scheduled = False
            if scheduled:
                when = scheduled[0]._when
                if when > self._virtual_now:
                    self._virtual_now = when
            else:
                raise RuntimeError(
                    "virtual-clock deadlock: no ready callbacks and no "
                    "scheduled timers (some await depends on real I/O?)"
                )
        super()._run_once()


def run_virtual(main: Awaitable) -> object:
    """Run *main* to completion on a fresh :class:`VirtualClockLoop`.

    The virtual-clock analogue of ``asyncio.run``: installs the loop
    (so ``get_event_loop`` callers inside the stack see it), runs the
    coroutine, then shuts down async generators and closes the loop.
    """
    loop = VirtualClockLoop()
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


# ----------------------------------------------------------------------
# The schedule interpreter
# ----------------------------------------------------------------------


class ChaosController:
    """Walks a :class:`ChaosSchedule` against a live cluster.

    Event semantics:

    ``link_faults``
        Replace the hub's default :class:`LinkFaults` with the event's
        parameters.
    ``partition``
        Split the live peers' addresses into two sides (the first
        ``fraction`` of the sorted address list versus the rest) and
        block cross-traffic; ``symmetric=False`` blocks only the
        A-to-B direction (an asymmetric partition).
    ``heal``
        Remove every partition.
    ``kill``
        Abruptly fail ``count`` peers (or ``fraction`` of the live
        population); ``mode`` is ``random`` or ``targeted`` (highest
        in-degree first; see ``LocalCluster.choose_victims``).
    ``restart``
        Revive every killed peer with fresh state through the seed
        path (``LocalCluster.restart_killed``).
    ``surge``
        Wake every dormant peer at once (the flash crowd).

    Parameters
    ----------
    cluster:
        The live :class:`~repro.net.cluster.LocalCluster`.
    hub:
        Its :class:`ChaosHub` fabric.
    schedule:
        The timeline to apply (times relative to :meth:`run` start).
    rng:
        Randomness for victim selection (seeded for reproducibility).
    """

    def __init__(
        self,
        cluster,
        hub: ChaosHub,
        schedule: ChaosSchedule,
        rng: random.Random,
    ) -> None:
        self.cluster = cluster
        self.hub = hub
        self.schedule = schedule
        self._rng = rng
        #: Applied-event log: one dict per event with its virtual
        #: timestamp and the concrete effect (victims, sides, ...).
        self.applied: list[dict[str, object]] = []

    async def run(self) -> list[dict[str, object]]:
        """Apply every event at its scheduled (virtual) time.

        Returns the applied-event log; also kept on :attr:`applied`.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        for event in self.schedule.events:
            target_time = start + event.at
            delay = target_time - loop.time()
            if delay > 0.0:
                await asyncio.sleep(delay)
            effect = await self._apply(event)
            self.applied.append(
                {
                    "at": event.at,
                    "kind": event.kind,
                    "time": loop.time() - start,
                    **effect,
                }
            )
        return self.applied

    async def _apply(self, event: ChaosEvent) -> dict[str, object]:
        handler: Callable = getattr(self, f"_apply_{event.kind}")
        result = handler(**event.param_dict())
        if asyncio.iscoroutine(result):
            result = await result
        return result

    def _apply_link_faults(self, **params: float) -> dict[str, object]:
        faults = LinkFaults(**params)
        self.hub.set_faults(faults)
        return {"faults": faults.to_dict()}

    def _apply_partition(
        self, fraction: float = 0.5, symmetric: bool = True
    ) -> dict[str, object]:
        addresses = sorted(
            peer.address for peer in self.cluster.live_peers()
        )
        cut = max(1, min(len(addresses) - 1, round(len(addresses) * fraction)))
        side_a, side_b = addresses[:cut], addresses[cut:]
        self.hub.partition(side_a, side_b, symmetric=symmetric)
        return {
            "side_a": len(side_a),
            "side_b": len(side_b),
            "symmetric": symmetric,
        }

    def _apply_heal(self) -> dict[str, object]:
        self.hub.heal()
        return {}

    async def _apply_kill(
        self,
        fraction: float | None = None,
        count: int | None = None,
        mode: str = "random",
    ) -> dict[str, object]:
        live = len(self.cluster.live_peers())
        if count is None:
            count = round(live * (0.5 if fraction is None else fraction))
        victims = self.cluster.choose_victims(count, self._rng, mode=mode)
        await self.cluster.kill(victims)
        return {"mode": mode, "killed": len(victims)}

    async def _apply_restart(self) -> dict[str, object]:
        revived = await self.cluster.restart_killed()
        return {"restarted": len(revived)}

    def _apply_surge(self) -> dict[str, object]:
        woken = self.cluster.surge()
        return {"woken": len(woken)}
