"""Unit tests for the engine-adapter actors."""

from __future__ import annotations

import random


from repro.core import BootstrapConfig, BootstrapNode
from repro.sampling import NewscastNode
from repro.simulator import BootstrapActor, NewscastActor
from .conftest import make_descriptor

FAST = BootstrapConfig(leaf_set_size=4, entries_per_slot=1, random_samples=2)


def begin(actor):
    """``pick`` then ``send`` as if the network delivered the request:
    ``(target, request)``, or ``None`` when the actor skips."""
    picked = actor.pick()
    if picked is None:
        return None
    target, draft = picked
    return target, actor.send(draft, True)


def answer(actor, request):
    """``respond`` then ``send`` as if the network delivered the answer."""
    return actor.send(actor.respond(request), True)


class StaticSampler:
    def __init__(self, descriptors):
        self.pool = list(descriptors)

    def sample(self, count):
        return self.pool[:count]


class TestBootstrapActor:
    def make(self, node_id=100, pool=None):
        pool = pool or [make_descriptor(i) for i in (200, 300, 400)]
        node = BootstrapNode(
            make_descriptor(node_id),
            FAST,
            StaticSampler(pool),
            random.Random(1),
        )
        return node, BootstrapActor(node)

    def test_lazy_start_on_first_begin(self):
        node, actor = self.make()
        assert not node.started
        begun = begin(actor)
        assert node.started
        assert begun is not None
        target, request = begun
        assert target in {200, 300, 400}
        assert not request.is_reply

    def test_set_time_propagates(self):
        node, actor = self.make()
        actor.set_time(5.5)
        begin(actor)
        message = node.create_message(make_descriptor(999))
        assert message.sender.timestamp == 5.5

    def test_answer_and_complete_roundtrip(self):
        node_a, actor_a = self.make(100)
        node_b, actor_b = self.make(200, pool=[make_descriptor(100)])
        begun = begin(actor_a)
        assert begun is not None
        _, request = begun
        reply = answer(actor_b, request)
        assert reply.is_reply
        actor_a.complete(reply)
        assert node_a.stats.replies_received == 1
        assert node_b.stats.requests_received == 1

    def test_begin_none_when_no_peers(self):
        node = BootstrapNode(
            make_descriptor(1), FAST, StaticSampler([]), random.Random(1)
        )
        actor = BootstrapActor(node)
        assert begin(actor) is None
        assert node.started  # start still happened


class TestNewscastActor:
    def make(self, node_id, seeds=()):
        node = NewscastNode(
            make_descriptor(node_id), random.Random(node_id), view_size=4
        )
        node.seed_view(seeds)
        return node, NewscastActor(node)

    def test_begin_exchange_targets_view_member(self):
        node, actor = self.make(1, [make_descriptor(2)])
        begun = begin(actor)
        assert begun is not None
        target, payload = begun
        assert target == 2
        # Payload carries the view plus a fresh self-descriptor.
        assert any(d.node_id == 1 for d in payload)

    def test_begin_none_with_empty_view(self):
        _, actor = self.make(1)
        assert begin(actor) is None

    def test_answer_merges_and_replies_pre_merge(self):
        node, actor = self.make(1, [make_descriptor(2)])
        incoming = (make_descriptor(3), make_descriptor(4))
        reply = answer(actor, incoming)
        # Reply was built before the merge: cannot contain 3 or 4.
        assert all(d.node_id not in (3, 4) for d in reply)
        # But the view has absorbed them.
        assert {3, 4} <= node.view.member_ids()

    def test_complete_merges(self):
        node, actor = self.make(1)
        actor.complete((make_descriptor(9),))
        assert 9 in node.view.member_ids()

    def test_set_time_stamps_payload(self):
        node, actor = self.make(1, [make_descriptor(2)])
        actor.set_time(7.0)
        _, payload = begin(actor)
        own = [d for d in payload if d.node_id == 1]
        assert own[0].timestamp == 7.0
