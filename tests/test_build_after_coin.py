"""Both exact engines build a message only once its drop coin has
delivered it, in both gossip layers.

The spies wrap the build and absorb entry points -- ``create_message``
/ ``absorb`` and NEWSCAST's ``gossip_payload`` / ``merge`` on the
reference, ``_create_message`` / ``_absorb`` and ``payload`` /
``merge`` on the fast engine -- and pair every built message with the
absorbs that received it.  With no node ever killed (so no request to
a vanished target), every built message is absorbed exactly once.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.ablations import UnoptimizedCloseNode
from repro.core.protocol import BootstrapNode
from repro.engine_fast import FastBootstrapSimulation
from repro.engine_fast.state import FastNewscastView
from repro.sampling.newscast import NewscastNode
from repro.simulator import BootstrapSimulation, NetworkModel

ENGINES = {"reference": BootstrapSimulation, "fast": FastBootstrapSimulation}

N = 64


class _Ledger:
    """Built messages and the absorbs that received them, by identity."""

    def __init__(self) -> None:
        self.built: list[object] = []
        self.absorbed: list[object] = []

    def building(self, method):
        def wrapper(*args, **kwargs):
            message = method(*args, **kwargs)
            self.built.append(message)
            return message

        return wrapper

    def absorbing(self, method, position: int):
        def wrapper(*args, **kwargs):
            self.absorbed.append(args[position])
            return method(*args, **kwargs)

        return wrapper

    def assert_each_built_absorbed_once(self) -> None:
        assert self.built
        absorbed = Counter(map(id, self.absorbed))
        assert len(absorbed) == len(self.absorbed) == len(self.built)
        assert set(absorbed) == set(map(id, self.built))


def _spy(sim, monkeypatch) -> tuple[_Ledger, _Ledger]:
    """``(bootstrap, newscast)`` ledgers on *sim*, both layers wrapped
    after construction (seeding the views is not a gossip exchange)."""
    boot, news = _Ledger(), _Ledger()
    if isinstance(sim, BootstrapSimulation):
        boot_owner, build, absorb = BootstrapNode, "create_message", "absorb"
        news_owner, payload = NewscastNode, "gossip_payload"
    else:
        boot_owner, build, absorb = sim, "_create_message", "_absorb"
        news_owner, payload = FastNewscastView, "payload"
    # The absorbed message is the second argument: after ``self`` on
    # the classes, after the receiving state on the simulation.
    monkeypatch.setattr(boot_owner, build, boot.building(getattr(boot_owner, build)))
    monkeypatch.setattr(boot_owner, absorb, boot.absorbing(getattr(boot_owner, absorb), 1))
    monkeypatch.setattr(news_owner, payload, news.building(getattr(news_owner, payload)))
    monkeypatch.setattr(news_owner, "merge", news.absorbing(news_owner.merge, 1))
    return boot, news


def _lossy(engine: str, seed: int = 8):
    return ENGINES[engine](
        N,
        seed=seed,
        sampler="newscast",
        network=NetworkModel(drop_probability=0.2),
    )


def _delivered(stats) -> int:
    return (
        stats.requests_sent
        - stats.requests_dropped
        + stats.replies_sent
        - stats.replies_dropped
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestBuildAfterCoin:
    def test_unmeasured_run_builds_exactly_the_delivered(self, engine, monkeypatch):
        sim = _lossy(engine)
        boot, news = _spy(sim, monkeypatch)
        for _ in range(8):
            sim.run_cycle()
        sim.run(1, stop_when_perfect=False)
        boot.assert_each_built_absorbed_once()
        news.assert_each_built_absorbed_once()
        assert _boot_stats(sim).requests_dropped > 0
        assert len(boot.built) == _delivered(_boot_stats(sim))
        assert len(news.built) == _delivered(_news_stats(sim))

    def test_measured_run_absorbs_each_built_message_once(self, engine, monkeypatch):
        """Settled receivers skip builds on top of the lost ones."""
        sim = _lossy(engine)
        boot, news = _spy(sim, monkeypatch)
        result = sim.run(16, stop_when_perfect=False)
        assert result.converged
        boot.assert_each_built_absorbed_once()
        news.assert_each_built_absorbed_once()
        assert len(boot.built) < _delivered(_boot_stats(sim))
        assert len(news.built) == _delivered(_news_stats(sim))

    def test_same_trajectory_as_building_every_lost_message(self, engine):
        """A skipped build still draws its samples, so the run equals a
        reference run that builds every lost bootstrap message (what an
        ablation node's actor does)."""
        building = _lossy("reference", seed=2)
        for actor in building.engine.actors():
            actor.skips_lost = False
        expected = building.run(16, stop_when_perfect=False)
        result = _lossy(engine, seed=2).run(16, stop_when_perfect=False)
        assert result.samples == expected.samples
        assert result.transport == expected.transport


def _boot_stats(sim):
    return sim.engine.stats if isinstance(sim, BootstrapSimulation) else sim._boot.stats


def _news_stats(sim):
    return (
        sim.newscast_engine.stats
        if isinstance(sim, BootstrapSimulation)
        else sim._news.stats
    )


def test_ablation_node_builds_lost_messages(monkeypatch):
    """UnoptimizedCloseNode draws from its peer-selection stream in
    CREATEMESSAGE, which ``skip_message`` would not: its lost messages
    are built as before."""
    sim = BootstrapSimulation(
        N,
        seed=8,
        node_factory=UnoptimizedCloseNode,
        network=NetworkModel(drop_probability=0.2),
    )
    boot = _Ledger()
    monkeypatch.setattr(
        UnoptimizedCloseNode,
        "create_message",
        boot.building(UnoptimizedCloseNode.create_message),
    )
    for _ in range(6):
        sim.run_cycle()
    stats = sim.engine.stats
    assert stats.requests_dropped > 0
    assert len(boot.built) == stats.requests_sent + stats.replies_sent
