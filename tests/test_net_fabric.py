"""Unit tests for the message fabric: delivery, weather, determinism."""

import pytest

from repro.net import (
    MessageFabric,
    NetProfile,
    PartitionSpec,
    derive_net_seed,
    parse_partition,
    startd_endpoint,
)
from repro.sim import Environment, profile


def _fabric(profile=None, seed=7):
    env = Environment()
    fabric = MessageFabric(env, profile or NetProfile(), seed)
    return env, fabric


class TestProfile:
    def test_defaults_validate(self):
        NetProfile()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 1.0},
            {"loss": -0.1},
            {"dup": 1.5},
            {"delay_base_s": -1.0},
            {"rto_initial_s": 0.0},
            {"rto_backoff": 0.5},
            {"lease_duration_s": 0.0},
            {"renew_interval_s": 40.0},  # >= lease_duration_s
            {"match_timeout_s": 30.0},  # <= lease_duration_s
            {"heartbeat_timeout_s": 5.0},  # <= update_interval_s
            {"retry_jitter": 2.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NetProfile(**kwargs)

    def test_chaos_dup_defaults_to_half_loss(self):
        profile = NetProfile.chaos(0.10)
        assert profile.loss == 0.10
        assert profile.dup == 0.05

    def test_derive_net_seed_is_stable_and_distinct(self):
        assert derive_net_seed(42) == derive_net_seed(42)
        assert derive_net_seed(42) != derive_net_seed(43)
        assert derive_net_seed(42) != 42


class TestPartitionSpec:
    def test_parse_round_trip(self):
        spec = parse_partition("120:240:startd:*")
        assert spec == PartitionSpec(120.0, 240.0, "startd:*")

    @pytest.mark.parametrize(
        "text", ["bogus", "1:2", "a:b:*", "10:5:*", "-1:5:*"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    def test_pattern_matching(self):
        glob = PartitionSpec(0.0, 10.0, "startd:*")
        assert glob.matches(startd_endpoint("node3"))
        assert not glob.matches("schedd")
        exact = PartitionSpec(0.0, 10.0, "schedd")
        assert exact.matches("schedd")
        assert not exact.matches("schedd2")
        assert PartitionSpec(0.0, 10.0, "*").matches("anything")

    def test_cuts_either_direction_inside_window(self):
        spec = PartitionSpec(10.0, 20.0, "startd:*")
        assert spec.cuts("schedd", "startd:node0", 10.0)
        assert spec.cuts("startd:node0", "schedd", 15.0)
        assert not spec.cuts("schedd", "negotiator", 15.0)
        assert not spec.cuts("schedd", "startd:node0", 20.0)  # half-open


class TestDelivery:
    def test_clean_link_delivers_once_in_order(self):
        env, fabric = _fabric()
        seen = []
        fabric.register("b", "ping", lambda m: seen.append(m.payload["n"]))
        for n in range(5):
            fabric.send("a", "b", "ping", {"n": n})
        env.run(until=10.0)
        assert seen == [0, 1, 2, 3, 4]
        assert fabric.stats.delivered == 5
        assert fabric.stats.retransmits == 0

    def test_on_delivered_fires_once(self):
        env, fabric = _fabric(NetProfile(dup=0.9))
        fabric.register("b", "ping", lambda m: None)
        acks = []
        fabric.send("a", "b", "ping", {}, on_delivered=acks.append)
        env.run(until=30.0)
        assert len(acks) == 1

    def test_unregistered_kind_raises(self):
        env, fabric = _fabric()
        fabric.send("a", "b", "nope", {})
        with pytest.raises(KeyError):
            env.run(until=5.0)

    def test_duplicate_handler_registration_rejected(self):
        _env, fabric = _fabric()
        fabric.register("b", "ping", lambda m: None)
        with pytest.raises(ValueError):
            fabric.register("b", "ping", lambda m: None)

    def test_loss_is_recovered_by_retransmit(self):
        env, fabric = _fabric(NetProfile(loss=0.5), seed=3)
        seen = []
        fabric.register("b", "ping", lambda m: seen.append(m.payload["n"]))
        for n in range(20):
            fabric.send("a", "b", "ping", {"n": n})
        env.run(until=500.0)
        assert seen == list(range(20))
        assert fabric.stats.losses > 0
        assert fabric.stats.retransmits > 0

    def test_retransmit_timers_run_no_process(self):
        prof = profile.activate()
        try:
            env, fabric = _fabric(NetProfile(loss=0.5), seed=3)
        finally:
            profile.deactivate()
        seen = []
        fabric.register("b", "ping", lambda m: seen.append(m.payload["n"]))
        for n in range(20):
            fabric.send("a", "b", "ping", {"n": n})
        env.run(until=500.0)
        assert seen == list(range(20))
        assert fabric.stats.retransmits > 0
        assert prof.process_switches == 0

    def test_lossless_burst_costs_its_flights(self):
        # A delivery and an ack per message, plus the one retransmit
        # timer armed for the burst: no timer per message outlives its
        # ack, and the burst's first attempts share one flush event.
        prof = profile.activate()
        try:
            env, fabric = _fabric()
        finally:
            profile.deactivate()
        fabric.register("b", "ping", lambda m: None)
        burst = 50
        for n in range(burst):
            fabric.send("a", "b", "ping", {"n": n})
        env.run()
        assert fabric.stats.delivered == burst
        assert fabric.stats.retransmits == 0
        assert prof.events_fired["Timeout"] <= 2 * burst + 2
        assert prof.events_fired["Event"] == 1

    def test_duplicates_are_dropped(self):
        env, fabric = _fabric(NetProfile(dup=0.9), seed=5)
        seen = []
        fabric.register("b", "ping", lambda m: seen.append(m.payload["n"]))
        for n in range(20):
            fabric.send("a", "b", "ping", {"n": n})
        env.run(until=100.0)
        assert seen == list(range(20))
        assert fabric.stats.duplicates_sent > 0
        assert fabric.stats.duplicates_dropped > 0

    def test_reordering_straightened_by_sequence_buffer(self):
        # Huge jitter vs tiny base: flights routinely overtake each other,
        # but handlers still observe send order.
        env, fabric = _fabric(
            NetProfile(delay_base_s=0.001, delay_jitter_s=5.0), seed=11
        )
        seen = []
        fabric.register("b", "ping", lambda m: seen.append(m.payload["n"]))
        for n in range(30):
            fabric.send("a", "b", "ping", {"n": n})
        env.run(until=100.0)
        assert seen == list(range(30))


class TestPartitionsAndDowntime:
    def test_partition_blocks_then_heals(self):
        profile = NetProfile(partitions=(PartitionSpec(0.0, 50.0, "b"),))
        env, fabric = _fabric(profile)
        seen = []
        fabric.register("b", "ping", lambda m: seen.append(env.now))
        fabric.send("a", "b", "ping", {})
        env.run(until=49.0)
        assert seen == []
        assert fabric.stats.partition_drops > 0
        env.run(until=200.0)
        assert len(seen) == 1
        assert seen[0] >= 50.0

    def test_down_endpoint_drops_until_restored(self):
        env, fabric = _fabric()
        seen = []
        fabric.register("b", "ping", lambda m: seen.append(env.now))
        fabric.set_down("b")
        assert fabric.is_down("b")
        fabric.send("a", "b", "ping", {})
        env.run(until=20.0)
        assert seen == []
        fabric.set_up("b")
        env.run(until=120.0)
        assert len(seen) == 1

    def test_unrelated_links_unaffected_by_partition(self):
        profile = NetProfile(partitions=(PartitionSpec(0.0, 50.0, "startd:*"),))
        env, fabric = _fabric(profile)
        seen = []
        fabric.register("negotiator", "ping", lambda m: seen.append(1))
        fabric.send("schedd", "negotiator", "ping", {})
        env.run(until=5.0)
        assert seen == [1]
        assert fabric.stats.partition_drops == 0


class TestDeterminism:
    def _trace_run(self, seed):
        profile = NetProfile.chaos(
            0.2, partitions=(PartitionSpec(5.0, 15.0, "b"),)
        )
        env, fabric = _fabric(profile, seed=seed)
        events = []
        fabric.register("b", "ping", lambda m: events.append((env.now, m.seq)))
        for n in range(25):
            fabric.send("a", "b", "ping", {"n": n})
        env.run(until=1000.0)
        return events, fabric.stats

    def test_same_seed_replays_identically(self):
        first = self._trace_run(derive_net_seed(42))
        second = self._trace_run(derive_net_seed(42))
        assert first == second

    def test_different_seed_changes_weather(self):
        first = self._trace_run(derive_net_seed(42))
        second = self._trace_run(derive_net_seed(43))
        assert first != second


class TestGoldenEventLog:
    """A lossy fabric's full event log, pinned by digest.

    Loss, duplication, one partition window and one endpoint outage
    exercise every drop and retransmit path; three links carry 200
    messages, some sent in the same instant and some from inside
    handlers. Any change to the fabric's timers or RNG draw order moves
    the digest.
    """

    DIGEST = "d4aeb61381befd0dd0d9ab10e37d0a32a562434f137d1e5a663871d63e91e38d"

    @staticmethod
    def _run():
        profile = NetProfile(
            loss=0.3,
            dup=0.2,
            partitions=(PartitionSpec(20.0, 35.0, "c"),),
        )
        env, fabric = _fabric(profile, seed=derive_net_seed(23))
        log = []
        links = (("a", "b"), ("b", "c"), ("c", "a"))
        echoes = []

        def on_delivered(m):
            log.append(("acked", env.now, m.src, m.dst, m.kind, m.seq))

        def handler(m):
            log.append(("dispatch", env.now, m.src, m.dst, m.kind, m.seq))
            if m.kind == "ping" and len(echoes) < 80:
                # A send from inside a handler: the reply runs back.
                echoes.append(m.seq)
                fabric.send(m.dst, m.src, "echo", {}, on_delivered=on_delivered)

        for src, dst in links:
            fabric.register(dst, "ping", handler)
            fabric.register(src, "echo", handler)

        def burst(_event):
            # Three sends in the same instant, one per link.
            for src, dst in links:
                fabric.send(src, dst, "ping", {}, on_delivered=on_delivered)

        for k in range(40):
            env.timeout(k * 1.5).callbacks.append(burst)
        env.timeout(40.0).callbacks.append(lambda _e: fabric.set_down("b"))
        env.timeout(52.0).callbacks.append(lambda _e: fabric.set_up("b"))
        env.run()
        assert len(echoes) == 80
        assert fabric.stats.messages_sent == 200
        return log, fabric.stats

    def test_event_log_digest_is_pinned(self):
        import hashlib

        log, stats = self._run()
        assert sum(1 for entry in log if entry[0] == "acked") == 200
        digest = hashlib.sha256(repr((log, stats)).encode()).hexdigest()
        assert digest == self.DIGEST
