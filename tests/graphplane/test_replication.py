"""Leader -> replica log streaming and promotion.

The zero-loss contract: any mutation the leader acknowledged is on the
replica before the acknowledgement (synchronous push), so killing the
leader at any point loses nothing; the promoted replica serves the same
graph under the same epoch, making the failover invisible to epoch
watchdogs.
"""

from __future__ import annotations

import pytest

from repro.graphplane.log import LogRecord, RegistrationLog, apply_record
from repro.graphplane.shard import ShardLeader, ShardReplica
from repro.ros.master import MasterRegistry
from repro.ros.retry import wait_until


# ----------------------------------------------------------------------
# The log itself
# ----------------------------------------------------------------------
def test_log_records_are_dense_and_wire_roundtrippable():
    log = RegistrationLog("e1")
    for i in range(5):
        log.append("set_param", (f"/k{i}", i))
    assert [record.seq for record in log.since(0)] == [1, 2, 3, 4, 5]
    assert [record.seq for record in log.since(3)] == [4, 5]
    assert log.since(5) == []
    assert len(log) == 5
    record = log.since(0)[2]
    assert LogRecord.from_wire(record.to_wire()) == record


def test_apply_record_replays_into_a_plain_registry():
    registry = MasterRegistry()
    apply_record(registry, LogRecord(
        "e1", 1, "register_publisher",
        ("/pub", "/chatter", "std_msgs/String", "http://x:1/"),
    ))
    assert registry.publishers_of("/chatter") == ["http://x:1/"]
    with pytest.raises(ValueError):
        apply_record(registry, LogRecord("e1", 2, "system_state", ()))


# ----------------------------------------------------------------------
# Leader/replica pairs
# ----------------------------------------------------------------------
@pytest.fixture
def pair():
    with ShardLeader(shard_index=0) as leader, ShardReplica(
        leader_uri=leader.uri, shard_index=0, probe_interval=0.05,
        probe_failures=3,
    ) as replica:
        leader.attach_replica(replica.uri)
        yield leader, replica


def _register(leader, topic, uri="http://x:1/"):
    import xmlrpc.client

    proxy = xmlrpc.client.ServerProxy(leader.uri, allow_none=True)
    code, _status, value = proxy.registerPublisher(
        "/pub", topic, "std_msgs/String", uri)
    assert code == 1
    return value


def test_synchronous_push_keeps_lag_at_zero(pair):
    leader, replica = pair
    for i in range(10):
        _register(leader, f"/topic{i}")
    # The push happens inside the registration RPC, so by the time the
    # caller sees the ack the replica already holds the record.
    assert leader.replication_lag() == 0
    assert replica.applied_seq == leader.log.last_seq == 10
    assert replica.registry.publishers_of("/topic7") == ["http://x:1/"]


def test_replica_adopts_leader_epoch(pair):
    leader, replica = pair
    _register(leader, "/chatter")
    assert replica.registry.epoch == leader.epoch


def test_replica_is_standby_until_promoted(pair):
    import xmlrpc.client

    leader, replica = pair
    proxy = xmlrpc.client.ServerProxy(replica.uri, allow_none=True)
    code, status, _value = proxy.registerPublisher(
        "/pub", "/chatter", "std_msgs/String", "http://x:1/")
    assert (code, status) == (0, "standby")


def test_catchup_covers_a_push_outage(pair):
    leader, replica = pair
    _register(leader, "/before")
    # Simulate the replica being unreachable for a push: point the
    # leader at a dead address, mutate, then restore and let the
    # catch-up loop (plus replica pull) drain the backlog.
    leader.attach_replica("http://127.0.0.1:9/")
    _register(leader, "/during")
    assert leader.replication_lag() > 0
    leader.attach_replica(replica.uri)
    wait_until(lambda: replica.applied_seq == leader.log.last_seq,
               desc="catch-up after push outage")
    assert replica.registry.publishers_of("/during") == ["http://x:1/"]


def test_promotion_serves_existing_state_under_the_same_epoch(pair):
    import xmlrpc.client

    leader, replica = pair
    _register(leader, "/chatter")
    epoch = leader.epoch
    leader.pause()
    wait_until(lambda: replica.promoted, timeout=5.0,
               desc="replica auto-promoting")
    proxy = xmlrpc.client.ServerProxy(replica.uri, allow_none=True)
    code, _status, pubs = proxy.registerSubscriber(
        "/sub", "/chatter", "std_msgs/String", "http://x:2/")
    assert code == 1
    assert pubs == ["http://x:1/"]
    code, _status, served_epoch = proxy.getEpoch("/t")
    assert (code, served_epoch) == (1, epoch)


def test_amnesiac_leader_restart_resets_the_replica_too(pair):
    leader, replica = pair
    _register(leader, "/chatter")
    old_epoch = leader.epoch
    leader.restart()
    assert leader.epoch != old_epoch
    _register(leader, "/fresh")
    wait_until(lambda: replica.registry.epoch == leader.epoch,
               desc="replica adopting the new epoch")
    wait_until(lambda: replica.registry.publishers_of("/fresh"),
               desc="replica replaying the new epoch's log")
    assert replica.registry.publishers_of("/chatter") == []


def test_stale_and_duplicate_records_are_idempotent():
    replica = ShardReplica(shard_index=0)
    try:
        records = [
            LogRecord("e", i, "set_param", (f"/k{i}", i)).to_wire()
            for i in (1, 2, 3)
        ]
        assert replica.apply_records("e", records) == 3
        # Re-applying the same batch changes nothing.
        assert replica.apply_records("e", records) == 3
        # A gap stops application at the last dense record.
        gap = [LogRecord("e", 5, "set_param", ("/k5", 5)).to_wire()]
        assert replica.apply_records("e", gap) == 3
        assert not replica.registry.has_param("/k5")
    finally:
        replica.shutdown()
