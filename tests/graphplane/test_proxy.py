"""ShardedMasterProxy routing and cross-shard merging.

The contract under test: node code sees exactly the MasterProxy surface,
registrations land on the shard the shard map names, and the fleet-wide
reads (getSystemState, getTopicTypes, getParamNames) merge every shard's
slice into one coherent answer.
"""

from __future__ import annotations

import pytest

from repro.graphplane import (
    GraphPlane,
    make_master_proxy,
    shard_for,
)
from repro.graphplane.proxy import FailoverMasterProxy, ShardedMasterProxy
from repro.ros.master import Master, MasterError, MasterProxy


@pytest.fixture
def plane():
    with GraphPlane(shards=2, replicas=False) as plane:
        yield plane


def test_make_master_proxy_picks_the_cheapest_shape():
    with Master() as master:
        assert isinstance(make_master_proxy(master.uri), MasterProxy)
        assert isinstance(
            make_master_proxy(f"{master.uri}|{master.uri}"),
            FailoverMasterProxy,
        )
        assert isinstance(
            make_master_proxy(f"{master.uri},{master.uri}"),
            ShardedMasterProxy,
        )


def test_registration_lands_on_the_owning_shard(plane):
    proxy = make_master_proxy(plane.spec)
    topics = ["/chatter", "/camera/image", "/tf", "/scan"]
    for topic in topics:
        proxy.register_publisher("/pub", topic, "std_msgs/String",
                                 "http://x:1/")
    for topic in topics:
        owner = shard_for(topic, plane.shard_count)
        for index, leader in enumerate(plane.leaders):
            listed = leader.registry.publishers_of(topic)
            if index == owner:
                assert listed == ["http://x:1/"], (topic, index)
            else:
                assert listed == [], (topic, index)


def test_subscribe_sees_only_the_owning_shards_publishers(plane):
    proxy = make_master_proxy(plane.spec)
    proxy.register_publisher("/pub", "/chatter", "std_msgs/String",
                             "http://x:1/")
    pubs = proxy.register_subscriber("/sub", "/chatter", "std_msgs/String",
                                     "http://x:2/")
    assert pubs == ["http://x:1/"]


def test_get_system_state_merges_across_shards(plane):
    proxy = make_master_proxy(plane.spec)
    # Names chosen so (with any reasonable hash) both shards get some
    # load; the assertion does not depend on the actual split.
    for topic in ("/chatter", "/camera/image", "/tf", "/scan", "/odom"):
        proxy.register_publisher("/pub", topic, "std_msgs/String",
                                 f"http://pub{topic.replace('/', '_')}:1/")
    proxy.register_subscriber("/sub", "/chatter", "std_msgs/String",
                              "http://sub:1/")
    proxy.register_service("/srv", "/camera/set_exposure", "rosrpc://s:1/",
                           "http://srv:1/")

    publishers, subscribers, services = proxy.get_system_state("/t")
    assert {topic for topic, _nodes in publishers} == \
        {"/chatter", "/camera/image", "/tf", "/scan", "/odom"}
    assert [topic for topic, _nodes in publishers] == \
        sorted(topic for topic, _nodes in publishers)
    assert subscribers == [["/chatter", ["/sub"]]]
    # The seed master's system_state carries no services slice; the
    # merged view preserves that shape.  The registration still routed
    # to its owning shard and resolves fleet-wide:
    assert services == []
    assert proxy.lookup_service("/t", "/camera/set_exposure") == \
        "rosrpc://s:1/"
    proxy.unregister_service("/srv", "/camera/set_exposure",
                             "rosrpc://s:1/")
    with pytest.raises(MasterError, match="no provider"):
        proxy.lookup_service("/t", "/camera/set_exposure")

    types = dict(proxy.get_topic_types("/t"))
    assert types["/tf"] == "std_msgs/String"
    assert len(types) == 5


def test_params_route_and_merge(plane):
    proxy = make_master_proxy(plane.spec)
    proxy.set_param("/t", "/camera/rate", 30)
    proxy.set_param("/t", "/chatter_enabled", True)
    assert proxy.get_param("/t", "/camera/rate") == 30
    assert proxy.has_param("/t", "/chatter_enabled")
    assert proxy.get_param_names("/t") == ["/camera/rate",
                                           "/chatter_enabled"]
    proxy.delete_param("/t", "/camera/rate")
    assert proxy.get_param_names("/t") == ["/chatter_enabled"]


def test_lookup_node_searches_all_shards(plane):
    proxy = make_master_proxy(plane.spec)
    for topic in ("/chatter", "/camera/image", "/tf", "/scan"):
        proxy.register_publisher("/roamer", topic, "std_msgs/String",
                                 "http://roamer:1/")
    # Whichever shard a guess starts at, the node is found.
    assert proxy.lookup_node("/t", "/roamer") == "http://roamer:1/"
    with pytest.raises(MasterError):
        proxy.lookup_node("/t", "/nobody")


def test_combined_epoch_changes_when_any_shard_loses_state(plane):
    proxy = make_master_proxy(plane.spec)
    before = proxy.get_epoch("/t")
    assert before.count(":") == plane.shard_count - 1
    plane.leaders[1].restart()
    after = proxy.get_epoch("/t")
    assert after != before
    assert after.split(":")[0] == before.split(":")[0]


def test_failover_proxy_raises_master_error_when_all_down():
    with GraphPlane(shards=1, replicas=False) as plane:
        uri = plane.leaders[0].uri
    # Plane is shut down: nothing listens.  A short retry deadline keeps
    # the test fast.
    from repro.ros.retry import RetryPolicy

    proxy = FailoverMasterProxy(
        [uri], timeout=0.2,
        retry=RetryPolicy(base_delay=0.01, max_delay=0.02,
                          max_retries=None, deadline=0.2),
    )
    with pytest.raises(MasterError):
        proxy.get_epoch("/t")
