"""Tests for the chaos fabric, virtual clock, and chaos scenarios."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import random
import statistics

import pytest

from repro.net import (
    AsyncPeer,
    ChaosEvent,
    ChaosHub,
    ChaosSchedule,
    LinkFaults,
    LoopbackHub,
    LoopbackTransport,
    VirtualClockLoop,
    run_virtual,
)
from repro.net.cluster import LocalCluster
from repro.scenarios import (
    ChaosScenarioSpec,
    all_chaos_scenarios,
    chaos_scenario_names,
    get_chaos_scenario,
    register_chaos,
    run_chaos_scenario,
)
from repro.simulator import BootstrapSimulation, NetworkModel, RandomSource


class TestLinkFaults:
    def test_clean_by_default(self):
        faults = LinkFaults()
        assert faults.is_clean

    def test_any_fault_is_not_clean(self):
        assert not LinkFaults(drop=0.1).is_clean
        assert not LinkFaults(duplicate=0.1).is_clean
        assert not LinkFaults(reorder=0.1).is_clean
        assert not LinkFaults(delay=0.1).is_clean
        assert not LinkFaults(jitter=0.1).is_clean

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop": 1.0},
            {"drop": -0.1},
            {"duplicate": 1.5},
            {"reorder": -0.5},
            {"reorder_delay": -1.0},
            {"delay": -1.0},
            {"jitter": -0.1},
            {"delay": math.nan},
            {"jitter": math.inf},
            {"reorder_delay": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkFaults(**kwargs)

    def test_dict_round_trip(self):
        faults = LinkFaults(drop=0.1, duplicate=0.2, delay=0.01)
        assert LinkFaults.from_dict(faults.to_dict()) == faults

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown LinkFaults"):
            LinkFaults.from_dict({"drop": 0.1, "banana": 1.0})


class TestChaosEvent:
    def test_of_and_param_dict(self):
        event = ChaosEvent.of(1.5, "kill", fraction=0.5, mode="targeted")
        assert event.at == 1.5
        assert event.param_dict() == {"fraction": 0.5, "mode": "targeted"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos event kind"):
            ChaosEvent.of(0.0, "meteor_strike")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not take parameter"):
            ChaosEvent.of(0.0, "heal", fraction=0.5)

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ValueError, match="not a JSON scalar"):
            ChaosEvent.of(0.0, "kill", mode=["targeted"])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="event time"):
            ChaosEvent.of(-1.0, "heal")

    @pytest.mark.parametrize("at", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, at):
        with pytest.raises(ValueError, match="event time"):
            ChaosEvent.of(at, "heal")

    def test_dict_round_trip(self):
        event = ChaosEvent.of(0.2, "partition", fraction=0.3, symmetric=False)
        assert ChaosEvent.from_dict(event.to_dict()) == event

    def test_from_dict_rejects_non_dict_params(self):
        with pytest.raises(ValueError, match="params must be an object"):
            ChaosEvent.from_dict({"at": 0.0, "kind": "heal", "params": []})


class TestChaosSchedule:
    def test_of_sorts_events(self):
        schedule = ChaosSchedule.of(
            ChaosEvent.of(2.0, "heal"),
            ChaosEvent.of(1.0, "partition"),
        )
        assert [e.at for e in schedule.events] == [1.0, 2.0]
        assert len(schedule) == 2
        assert schedule.last_at == 2.0

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="ordered by time"):
            ChaosSchedule(
                events=(ChaosEvent.of(2.0, "heal"), ChaosEvent.of(1.0, "heal"))
            )

    def test_empty_schedule(self):
        schedule = ChaosSchedule()
        assert len(schedule) == 0
        assert schedule.last_at == 0.0

    def test_json_round_trip(self):
        schedule = ChaosSchedule.of(
            ChaosEvent.of(0.2, "partition", fraction=0.375, symmetric=False),
            ChaosEvent.of(1.2, "heal"),
            ChaosEvent.of(
                1.5, "link_faults", drop=0.2, delay=0.01, jitter=0.005
            ),
        )
        assert ChaosSchedule.from_json(schedule.to_json()) == schedule

    def test_from_dict_rejects_non_list_events(self):
        with pytest.raises(ValueError, match="events must be a list"):
            ChaosSchedule.from_dict({"events": "nope"})


def collect(hub, receivers=("a", "b")):
    """Register recording endpoints on *hub*; returns address->frames."""
    received = {addr: [] for addr in receivers}

    def handler_for(addr):
        return lambda data, source: received[addr].append((data, source))

    transports = {
        addr: LoopbackTransport(hub, addr, handler_for(addr))
        for addr in receivers
    }
    return received, transports


class TestChaosHub:
    def test_clean_hub_delivers_like_loopback(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            received, transports = collect(hub)
            transports["a"].send(b"one", "b")
            transports["a"].send(b"two", "b")
            await asyncio.sleep(0)
            return received["b"]

        assert run_virtual(scenario()) == [(b"one", "a"), (b"two", "a")]

    def test_drop_faults(self):
        async def scenario():
            hub = ChaosHub(
                faults=LinkFaults(drop=0.5), rng=random.Random(3)
            )
            received, transports = collect(hub)
            for _ in range(200):
                transports["a"].send(b"x", "b")
            await asyncio.sleep(0.01)
            return len(received["b"]), hub.datagrams_dropped

        delivered, dropped = run_virtual(scenario())
        assert delivered + dropped == 200
        assert 60 < dropped < 140

    def test_duplicate_faults(self):
        async def scenario():
            hub = ChaosHub(
                faults=LinkFaults(duplicate=1.0), rng=random.Random(3)
            )
            received, transports = collect(hub)
            transports["a"].send(b"x", "b")
            await asyncio.sleep(0.01)
            return len(received["b"]), hub.datagrams_duplicated

        assert run_virtual(scenario()) == (2, 1)

    def test_delay_and_jitter_defer_delivery(self):
        async def scenario():
            hub = ChaosHub(
                faults=LinkFaults(delay=0.05, jitter=0.01),
                rng=random.Random(3),
            )
            received, transports = collect(hub)
            transports["a"].send(b"x", "b")
            await asyncio.sleep(0.01)
            early = len(received["b"])
            await asyncio.sleep(0.1)
            return early, len(received["b"]), hub.datagrams_delayed

        assert run_virtual(scenario()) == (0, 1, 1)

    def test_reorder_overtakes(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(3))
            # First frame held back, second clean: arrival order flips.
            hub.set_link("a", "b", LinkFaults(reorder=1.0, reorder_delay=0.1))
            received, transports = collect(hub)
            transports["a"].send(b"first", "b")
            hub.clear_links()
            transports["a"].send(b"second", "b")
            await asyncio.sleep(0.2)
            return [data for data, _ in received["b"]], hub.datagrams_reordered

        order, reordered = run_virtual(scenario())
        assert order == [b"second", b"first"]
        assert reordered == 1

    def test_symmetric_partition_blocks_both_ways(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(3))
            received, transports = collect(hub)
            hub.partition(["a"], ["b"])
            assert hub.partitioned
            transports["a"].send(b"x", "b")
            transports["b"].send(b"y", "a")
            await asyncio.sleep(0.01)
            blocked_counts = (
                len(received["a"]), len(received["b"]), hub.datagrams_blocked
            )
            hub.heal()
            assert not hub.partitioned
            transports["a"].send(b"x", "b")
            await asyncio.sleep(0.01)
            return blocked_counts, len(received["b"])

        blocked_counts, after_heal = run_virtual(scenario())
        assert blocked_counts == (0, 0, 2)
        assert after_heal == 1

    def test_asymmetric_partition_blocks_one_way(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(3))
            received, transports = collect(hub)
            hub.partition(["a"], ["b"], symmetric=False)
            transports["a"].send(b"x", "b")
            transports["b"].send(b"y", "a")
            await asyncio.sleep(0.01)
            return len(received["b"]), len(received["a"])

        a_to_b, b_to_a = run_virtual(scenario())
        assert a_to_b == 0  # blocked direction
        assert b_to_a == 1  # open direction

    def test_counters_dict(self):
        hub = ChaosHub()
        counters = hub.counters()
        assert set(counters) == {
            "datagrams_sent",
            "datagrams_dropped",
            "datagrams_duplicated",
            "datagrams_reordered",
            "datagrams_delayed",
            "datagrams_blocked",
        }
        assert all(value == 0 for value in counters.values())


class TestFaultFreeEquivalence:
    """A ChaosHub with no faults is behaviourally identical to a plain
    LoopbackHub (zero rng draws on the clean path)."""

    async def _cluster_run(self, hub):
        cluster = await LocalCluster.create(12, seed=21, hub=hub)
        try:
            cluster.start_sampling_layer()
            await cluster.warmup(0.4)
            cluster.broadcast_start()
            converged = await cluster.await_convergence(8.0)
            stats = {
                nid: (
                    peer.bootstrap.stats.messages_sent,
                    peer.bootstrap.stats.messages_received,
                    peer.frames_in,
                )
                for nid, peer in sorted(cluster.peers.items())
            }
            return converged, stats, hub.datagrams_sent
        finally:
            await cluster.shutdown()

    def test_same_run_on_both_fabrics(self):
        loopback = run_virtual(self._cluster_run(LoopbackHub()))
        chaos = run_virtual(
            self._cluster_run(ChaosHub(rng=random.Random(5)))
        )
        assert loopback == chaos
        assert loopback[0] is True


class TestVirtualClockLoop:
    def test_sleep_advances_virtual_time_instantly(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.sleep(500.0)
            return loop.time() - start

        import time

        wall_start = time.monotonic()
        elapsed = run_virtual(scenario())
        wall = time.monotonic() - wall_start
        assert elapsed >= 500.0
        assert wall < 5.0

    def test_deadlock_raises_instead_of_hanging(self):
        async def scenario():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeError, match="virtual-clock deadlock"):
            run_virtual(scenario())

    def test_cancelled_timers_are_skipped(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            # A cancelled far-future timer must not drag the clock out.
            handle = loop.call_later(10_000.0, lambda: None)
            handle.cancel()
            start = loop.time()
            await asyncio.sleep(1.0)
            return loop.time() - start

        elapsed = run_virtual(scenario())
        assert 1.0 <= elapsed < 100.0

    def test_wait_for_timeout_fires(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(loop.create_future(), timeout=3.0)
            return loop.time()

        assert run_virtual(scenario()) >= 3.0

    def test_loop_is_virtual_clock_instance(self):
        async def scenario():
            return type(asyncio.get_running_loop())

        assert run_virtual(scenario()) is VirtualClockLoop


class TestChaosController:
    def test_applied_log_records_every_event(self):
        schedule = ChaosSchedule.of(
            ChaosEvent.of(0.1, "link_faults", drop=0.1),
            ChaosEvent.of(0.2, "partition", fraction=0.5),
            ChaosEvent.of(0.3, "heal"),
            ChaosEvent.of(0.4, "kill", count=1),
            ChaosEvent.of(0.5, "restart"),
            ChaosEvent.of(0.6, "surge"),
        )

        async def scenario():
            from repro.net import ChaosController

            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(8, seed=9, hub=hub)
            try:
                cluster.start_sampling_layer()
                controller = ChaosController(
                    cluster, hub, schedule, random.Random(2)
                )
                applied = await controller.run()
                return applied, hub.faults, hub.partitioned
            finally:
                await cluster.shutdown()

        applied, faults, partitioned = run_virtual(scenario())
        assert [entry["kind"] for entry in applied] == [
            "link_faults", "partition", "heal", "kill", "restart", "surge",
        ]
        assert all(
            entry["time"] >= entry["at"] - 1e-9 for entry in applied
        )
        assert faults.drop == 0.1
        assert not partitioned
        kill_entry = next(e for e in applied if e["kind"] == "kill")
        assert kill_entry["killed"] == 1
        restart_entry = next(e for e in applied if e["kind"] == "restart")
        assert restart_entry["restarted"] == 1

    def test_kill_and_restart_reconverge(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(10, seed=4, hub=hub)
            try:
                cluster.start_sampling_layer()
                await cluster.warmup(0.3)
                cluster.broadcast_start()
                assert await cluster.await_convergence(6.0)
                victims = cluster.choose_victims(3, random.Random(8))
                await cluster.kill(victims)
                # Survivors re-converge against the shrunk reference.
                assert await cluster.await_convergence(6.0)
                revived = await cluster.restart_killed()
                assert sorted(revived) == victims
                # Everyone (restarted included) re-converges.
                return await cluster.await_convergence(8.0)
            finally:
                await cluster.shutdown()

        assert run_virtual(scenario())

    def test_flash_crowd_surge_reconverges(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(12, seed=4, hub=hub)
            try:
                dormant = cluster.hold_back(0.4, random.Random(5))
                assert len(dormant) == 5
                assert len(cluster.live_peers()) == 7
                cluster.start_sampling_layer()
                await cluster.warmup(0.3)
                cluster.broadcast_start()
                assert await cluster.await_convergence(6.0)
                woken = cluster.surge()
                assert woken == dormant
                return await cluster.await_convergence(8.0)
            finally:
                await cluster.shutdown()

        assert run_virtual(scenario())


class TestClusterSupervision:
    def test_choose_victims_targeted_ranks_by_in_degree(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(8, seed=3, hub=hub)
            try:
                cluster.start_sampling_layer()
                await cluster.warmup(0.3)
                victims = cluster.choose_victims(
                    3, random.Random(1), mode="targeted"
                )
                # Deterministic given the seed; always live node ids.
                assert len(victims) == 3
                assert set(victims) <= set(cluster.peers)
                return victims
            finally:
                await cluster.shutdown()

        first = run_virtual(scenario())
        second = run_virtual(scenario())
        assert first == second

    def test_choose_victims_always_spares_two(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(6, seed=3, hub=hub)
            try:
                victims = cluster.choose_victims(100, random.Random(1))
                assert len(victims) == 4
                with pytest.raises(ValueError, match="kill mode"):
                    cluster.choose_victims(1, random.Random(1), mode="nuke")
                assert cluster.choose_victims(0, random.Random(1)) == []
            finally:
                await cluster.shutdown()

        run_virtual(scenario())

    def test_restart_without_kills_is_a_noop(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(4, seed=3, hub=hub)
            try:
                return await cluster.restart_killed()
            finally:
                await cluster.shutdown()

        assert run_virtual(scenario()) == []

    def test_restart_requires_loopback_fabric(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(4, seed=3, hub=hub)
            try:
                await cluster.kill([next(iter(cluster.peers))])
                cluster.hub = None
                with pytest.raises(RuntimeError, match="loopback fabric"):
                    await cluster.restart_killed()
            finally:
                await cluster.shutdown()

        run_virtual(scenario())

    def test_hold_back_validates_fraction(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(4, seed=3, hub=hub)
            try:
                with pytest.raises(ValueError, match="fraction"):
                    cluster.hold_back(1.0, random.Random(1))
                assert cluster.hold_back(0.0, random.Random(1)) == []
            finally:
                await cluster.shutdown()

        run_virtual(scenario())

    def test_shutdown_reports_crashed_peers(self):
        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(4, seed=3, hub=hub)
            cluster.start_sampling_layer()
            victim = next(iter(cluster.peers.values()))

            def explode():
                raise RuntimeError("mid-gossip crash")

            victim.newscast.select_peer = explode
            await asyncio.sleep(0.2)
            report = await cluster.shutdown()
            return victim.node_id, report

        victim_id, report = run_virtual(scenario())
        assert list(report) == [victim_id]
        assert isinstance(report[victim_id][0], RuntimeError)


class TestChaosScenarioSpec:
    def test_registry_contains_the_chaos_scenarios(self):
        names = chaos_scenario_names()
        assert names == (
            "chaos_partition_heal",
            "chaos_flash_crowd",
            "chaos_targeted_kill",
            "chaos_lossy_links",
            "chaos_link_delay",
        )
        assert [spec.name for spec in all_chaos_scenarios()] == list(names)

    def test_unknown_scenario_names_known_ones(self):
        with pytest.raises(KeyError, match="chaos_partition_heal"):
            get_chaos_scenario("chaos_meteor")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_chaos(get_chaos_scenario("chaos_partition_heal"))

    def test_smoke_clamps_size_keeps_schedule(self):
        spec = get_chaos_scenario("chaos_partition_heal")
        smoked = spec.smoke()
        assert smoked.size == 16
        assert smoked.schedule == spec.schedule
        # Already-small specs are untouched.
        assert smoked.smoke() == smoked

    def test_json_round_trip(self):
        for spec in all_chaos_scenarios():
            assert ChaosScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"size": 2},
            {"budget": 0.0},
            {"dormant_fraction": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        base = {
            "name": "x",
            "title": "",
            "claim": "",
            "size": 8,
            "schedule": ChaosSchedule(),
        }
        base.update(kwargs)
        with pytest.raises(ValueError):
            ChaosScenarioSpec(**base)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("newscast_interval", 0.0),
            ("budget", math.nan),
            ("cycle_length", 0.0),
            ("cycle_length", -0.05),
            ("warmup", -0.1),
            ("view_size", 0),
            ("seed_contacts", 0),
        ],
    )
    def test_from_dict_rejects_unrunnable_shapes(self, field, value):
        """Bad JSON raises at load time instead of hanging the run
        (``newscast_interval=0`` would spin the gossip loop forever)."""
        data = get_chaos_scenario("chaos_partition_heal").smoke().to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=field):
            ChaosScenarioSpec.from_dict(data)


class TestChaosRuns:
    def test_determinism_pin(self):
        """Same schedule + seed => identical fault event sequences AND
        identical message counters across two runs (the tentpole's
        determinism contract)."""
        first = run_chaos_scenario("chaos_partition_heal", smoke=True)
        second = run_chaos_scenario("chaos_partition_heal", smoke=True)
        assert first.converged
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_seed_changes_the_run(self):
        base = run_chaos_scenario("chaos_partition_heal", smoke=True)
        other = run_chaos_scenario(
            "chaos_partition_heal", seed=4242, smoke=True
        )
        assert other.seed == 4242
        assert json.dumps(base.to_dict(), sort_keys=True) != json.dumps(
            other.to_dict(), sort_keys=True
        )

    def test_partition_heal_reconverges(self):
        report = run_chaos_scenario("chaos_partition_heal", smoke=True)
        assert report.converged
        assert report.time_to_functional is not None
        assert report.final_leaf_fraction == 0.0
        assert report.final_prefix_fraction == 0.0
        assert report.crashed_peers == 0
        # The partition actually bit: frames were blocked.
        assert report.hub_counters["datagrams_blocked"] > 0
        kinds = [event["kind"] for event in report.events]
        assert kinds == ["partition", "heal"]

    def test_targeted_kill_restart_reconverges(self):
        report = run_chaos_scenario("chaos_targeted_kill", smoke=True)
        assert report.converged
        assert report.crashed_peers == 0
        kill = next(e for e in report.events if e["kind"] == "kill")
        assert kill["mode"] == "targeted"
        assert kill["killed"] == 8

    def test_flash_crowd_reconverges(self):
        report = run_chaos_scenario("chaos_flash_crowd", smoke=True)
        assert report.converged
        surge = next(e for e in report.events if e["kind"] == "surge")
        assert surge["woken"] == 8

    def test_lossy_links_reconverges(self):
        """Figure 4's claim with no retransmission anywhere: the whole
        bootstrap runs on a fabric that loses 20% of datagrams, and the
        cluster still reaches perfect tables."""
        report = run_chaos_scenario("chaos_lossy_links", smoke=True)
        assert report.converged
        assert report.final_leaf_fraction == 0.0
        assert report.final_prefix_fraction == 0.0
        assert report.crashed_peers == 0
        assert [e["kind"] for e in report.events] == ["link_faults"]
        assert report.hub_counters["datagrams_dropped"] > 0

    def test_link_delay_reconverges(self):
        report = run_chaos_scenario("chaos_link_delay", smoke=True)
        assert report.converged
        assert report.crashed_peers == 0
        assert report.hub_counters["datagrams_delayed"] > 0
        assert report.hub_counters["datagrams_dropped"] == 0

    def test_seed_seam_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_SEED", "777")
        report = run_chaos_scenario("chaos_partition_heal", smoke=True)
        assert report.seed == 777
        # An explicit argument still wins over the environment.
        explicit = run_chaos_scenario(
            "chaos_partition_heal", seed=5, smoke=True
        )
        assert explicit.seed == 5

    def test_budget_seam_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_BUDGET", "1")
        spec = dataclasses.replace(
            get_chaos_scenario("chaos_partition_heal"),
            name="tight",
            budget=50.0,
        )
        report = run_chaos_scenario(spec, smoke=True)
        # The 1-virtual-second override bounds converged_at.
        if report.converged:
            assert report.converged_at - report.faults_done_at <= 1.5

    def test_link_faults_scenario_survives_lossy_fabric(self):
        """An ad-hoc (unregistered) spec exercising the link_faults
        event end to end: gossip survives drop + jitter + duplication."""
        spec = ChaosScenarioSpec(
            name="adhoc_lossy",
            title="lossy fabric",
            claim="Figure 4: convergence under 20% loss",
            size=12,
            seed=3,
            budget=12.0,
            # At 0.0 so the whole bootstrap runs on the lossy fabric
            # (small clusters converge within a cycle or two).
            schedule=ChaosSchedule.of(
                ChaosEvent.of(
                    0.0,
                    "link_faults",
                    drop=0.2,
                    duplicate=0.05,
                    jitter=0.004,
                ),
            ),
        )
        report = run_chaos_scenario(spec)
        assert report.converged
        assert report.hub_counters["datagrams_dropped"] > 0
        assert report.hub_counters["datagrams_duplicated"] > 0
        assert report.hub_counters["datagrams_delayed"] > 0


class TestLiveTracksCycleEngine:
    """The cycle abstraction does not manufacture the paper's results.

    On the virtual clock -- per-peer timer phases, per-datagram loss
    and link delay -- the live cluster reaches perfect tables within a
    few cycles of the cycle engine (oracle sampler) at the same size
    and drop rate.  One run's perfection cycle is a max-statistic with
    several cycles of noise (at N=64 single seeds differ by up to 4),
    so each side is summarised by its median over five seeds.
    """

    SIZE = 64

    @pytest.mark.parametrize(
        "leg, drop",
        [("fault_free", 0.0), ("chaos_link_delay", 0.0), ("chaos_lossy_links", 0.2)],
    )
    def test_cycles_to_perfect_agree(self, leg, drop):
        if leg == "fault_free":
            spec = dataclasses.replace(
                get_chaos_scenario("chaos_link_delay"), schedule=ChaosSchedule()
            )
        else:
            spec = get_chaos_scenario(leg)
        spec = dataclasses.replace(spec, size=self.SIZE)
        live, cycle = [], []
        for seed in range(1, 6):
            report = run_chaos_scenario(spec, seed=seed)
            assert report.converged
            live.append(report.converged_at / spec.cycle_length)
            result = BootstrapSimulation(
                self.SIZE, seed=seed, network=NetworkModel(drop_probability=drop)
            ).run(40)
            assert result.converged
            cycle.append(result.converged_at)
        assert abs(statistics.median(live) - statistics.median(cycle)) <= 3, (live, cycle)


class TestPeerRestartIsolation:
    def test_restarted_peer_is_fresh(self):
        """A restarted peer re-enters with empty tables and view --
        state from its previous life must not leak."""

        async def scenario():
            hub = ChaosHub(rng=random.Random(1))
            cluster = await LocalCluster.create(6, seed=2, hub=hub)
            try:
                cluster.start_sampling_layer()
                await cluster.warmup(0.3)
                cluster.broadcast_start()
                assert await cluster.await_convergence(6.0)
                victim = sorted(cluster.peers)[0]
                old_peer = cluster.peers[victim]
                await cluster.kill([victim])
                await cluster.restart_killed()
                new_peer = cluster.peers[victim]
                return (
                    old_peer is new_peer,
                    new_peer.descriptor == old_peer.descriptor,
                    isinstance(new_peer, AsyncPeer),
                )
            finally:
                await cluster.shutdown()

        same_object, same_identity, is_peer = run_virtual(scenario())
        assert not same_object
        assert same_identity
        assert is_peer


class TestRandomSourceDerivation:
    def test_chaos_rng_streams_are_independent(self):
        source = RandomSource(11)
        a = source.derive("chaos-hub").random()
        b = source.derive("controller").random()
        c = RandomSource(11).derive("chaos-hub").random()
        assert a == c
        assert a != b
