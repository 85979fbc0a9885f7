"""Tests for the cycle engine with scripted actors."""

from __future__ import annotations

import random

import pytest

from repro.simulator import CycleEngine, NetworkModel, RELIABLE, RequestReplyActor


class ScriptedActor(RequestReplyActor):
    """Always gossips with a fixed target; records everything."""

    def __init__(self, name, target=None):
        self.name = name
        self.target = target
        self.log: list[str] = []
        self.times: list[float] = []

    def set_time(self, now):
        self.times.append(now)

    def pick(self):
        if self.target is None:
            self.log.append("skip")
            return None
        self.log.append(f"request->{self.target}")
        return self.target, f"req:{self.name}"

    def respond(self, request):
        self.log.append(f"answered:{request}")
        return f"rep:{self.name}"

    def complete(self, reply):
        self.log.append(f"completed:{reply}")


class SilentActor(ScriptedActor):
    def respond(self, request):
        self.log.append(f"ignored:{request}")
        return None


@pytest.fixture
def engine(rng):
    return CycleEngine(RELIABLE, rng)


class TestPopulation:
    def test_add_remove(self, engine):
        actor = ScriptedActor("a")
        engine.add_actor("a", actor)
        assert engine.population == 1
        assert engine.get_actor("a") is actor
        assert engine.remove_actor("a") is actor
        assert engine.population == 0
        assert engine.remove_actor("a") is None

    def test_duplicate_key_rejected(self, engine):
        engine.add_actor("a", ScriptedActor("a"))
        with pytest.raises(ValueError):
            engine.add_actor("a", ScriptedActor("a2"))

    def test_actors_list(self, engine):
        a, b = ScriptedActor("a"), ScriptedActor("b")
        engine.add_actor("a", a)
        engine.add_actor("b", b)
        assert set(engine.actors()) == {a, b}


class TestExchangeFlow:
    def test_full_exchange(self, engine):
        a = ScriptedActor("a", target="b")
        b = ScriptedActor("b")
        engine.add_actor("a", a)
        engine.add_actor("b", b)
        engine.run_exchange(a)
        assert a.log == ["request->b", "completed:rep:b"]
        assert b.log == ["answered:req:a"]
        assert engine.stats.exchanges == 1
        assert engine.stats.delivered == 2

    def test_skip_when_no_peer(self, engine):
        a = ScriptedActor("a", target=None)
        engine.add_actor("a", a)
        engine.run_exchange(a)
        assert engine.stats.exchanges == 0

    def test_void_request(self, engine):
        a = ScriptedActor("a", target="ghost")
        engine.add_actor("a", a)
        engine.run_exchange(a)
        assert engine.stats.void_requests == 1
        assert engine.stats.suppressed_replies == 1
        assert a.log == ["request->ghost"]

    def test_none_answer_suppresses_reply(self, engine):
        a = ScriptedActor("a", target="b")
        b = SilentActor("b")
        engine.add_actor("a", a)
        engine.add_actor("b", b)
        engine.run_exchange(a)
        assert engine.stats.replies_sent == 0
        assert engine.stats.suppressed_replies == 1
        assert a.log == ["request->b"]

    def test_request_drop_suppresses_answer(self):
        """The paper's coupling: a lost request silences the answer."""
        engine = CycleEngine(
            NetworkModel(drop_probability=0.9999), random.Random(0)
        )
        a = ScriptedActor("a", target="b")
        b = ScriptedActor("b")
        engine.add_actor("a", a)
        engine.add_actor("b", b)
        engine.run_exchange(a)
        assert engine.stats.requests_dropped == 1
        assert engine.stats.suppressed_replies == 1
        assert b.log == []


class TestCycles:
    def test_every_actor_initiates_once(self, engine):
        actors = {}
        for name in "abcd":
            actor = ScriptedActor(name, target=None)
            actors[name] = actor
            engine.add_actor(name, actor)
        engine.run_cycle()
        for actor in actors.values():
            assert actor.log.count("skip") == 1

    def test_set_time_broadcast(self, engine):
        a = ScriptedActor("a", target=None)
        engine.add_actor("a", a)
        engine.run_cycle()
        engine.run_cycle()
        assert a.times == [0.0, 1.0]
        assert engine.cycle == 2

    def test_activation_order_varies(self):
        """The per-cycle shuffle must not be the insertion order every
        time (this is the loose-synchronisation model)."""
        orders = set()
        for seed in range(8):
            engine = CycleEngine(RELIABLE, random.Random(seed))
            order = []

            class Recorder(ScriptedActor):
                def __init__(self, name):
                    super().__init__(name, target=None)

                def pick(self):
                    order.append(self.name)
                    return None

            for name in "abcdef":
                engine.add_actor(name, Recorder(name))
            engine.run_cycle()
            orders.add(tuple(order))
        assert len(orders) > 1

    def test_removed_mid_cycle_not_activated(self, engine):
        removals = []

        class Remover(ScriptedActor):
            def __init__(self, name, engine_ref):
                super().__init__(name, target=None)
                self.engine_ref = engine_ref

            def pick(self):
                self.engine_ref.remove_actor("victim")
                removals.append(self.name)
                return None

        victim = ScriptedActor("victim", target=None)
        # Ensure deterministic order by inserting many removers: victim
        # is removed by whichever remover runs first; if victim happens
        # to run first it logs once.
        engine.add_actor("victim", victim)
        for name in ("r1", "r2", "r3"):
            engine.add_actor(name, Remover(name, engine))
        engine.run_cycle()
        assert victim.log.count("skip") <= 1

    def test_run_cycles(self, engine):
        a = ScriptedActor("a", target=None)
        engine.add_actor("a", a)
        engine.run_cycles(5)
        assert engine.cycle == 5
        assert a.log.count("skip") == 5
