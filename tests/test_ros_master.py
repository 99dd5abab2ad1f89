"""Tests for the master registry and its XML-RPC surface."""

import os
import xmlrpc.client

import pytest

from repro.ros.exceptions import MasterError
from repro.ros.master import Master, MasterProxy, MasterRegistry


class TestMasterRegistry:
    def test_register_publisher_returns_subscribers(self):
        reg = MasterRegistry()
        subs, _ = reg.register_publisher("/pub", "/t", "pkg/M", "http://p")
        assert subs == []
        reg.register_subscriber("/sub", "/t", "pkg/M", "http://s")
        subs, _ = reg.register_publisher("/pub2", "/t", "pkg/M", "http://p2")
        assert subs == ["http://s"]

    def test_register_subscriber_returns_publishers(self):
        reg = MasterRegistry()
        reg.register_publisher("/pub", "/t", "pkg/M", "http://p")
        pubs = reg.register_subscriber("/sub", "/t", "pkg/M", "http://s")
        assert pubs == ["http://p"]

    def test_unregister(self):
        reg = MasterRegistry()
        reg.register_publisher("/pub", "/t", "pkg/M", "http://p")
        assert reg.unregister_publisher("/pub", "/t") == 1
        assert reg.unregister_publisher("/pub", "/t") == 0
        assert reg.publishers_of("/t") == []

    def test_lookup_node(self):
        reg = MasterRegistry()
        reg.register_publisher("/pub", "/t", "pkg/M", "http://p")
        assert reg.lookup_node("/pub") == "http://p"
        with pytest.raises(MasterError):
            reg.lookup_node("/ghost")

    def test_topic_types(self):
        reg = MasterRegistry()
        reg.register_publisher("/pub", "/b", "pkg/B", "http://p")
        reg.register_publisher("/pub", "/a", "pkg/A", "http://p")
        assert reg.topic_types() == [["/a", "pkg/A"], ["/b", "pkg/B"]]

    def test_system_state(self):
        reg = MasterRegistry()
        reg.register_publisher("/pub", "/t", "pkg/M", "http://p")
        reg.register_subscriber("/sub", "/t", "pkg/M", "http://s")
        pubs, subs, services = reg.system_state()
        assert pubs == [["/t", ["/pub"]]]
        assert subs == [["/t", ["/sub"]]]
        assert services == []


class TestMasterOverXmlRpc:
    def test_end_to_end_registration(self):
        with Master() as master:
            proxy = MasterProxy(master.uri)
            pubs = proxy.register_subscriber("/s", "/topic", "pkg/M", "http://s")
            assert pubs == []
            subs = proxy.register_publisher("/p", "/topic", "pkg/M", "http://p")
            assert subs == ["http://s"]
            assert proxy.lookup_node("/test", "/p") == "http://p"
            assert proxy.get_topic_types("/x") == [["/topic", "pkg/M"]]

    def test_error_status_raises(self):
        with Master() as master:
            proxy = MasterProxy(master.uri)
            with pytest.raises(MasterError):
                proxy.lookup_node("/test", "/nobody")

    def test_raw_xmlrpc_triplets(self):
        with Master() as master:
            raw = xmlrpc.client.ServerProxy(master.uri, allow_none=True)
            code, status, value = raw.getSystemState("/caller")
            assert code == 1
            assert isinstance(value, list) and len(value) == 3
            assert raw.getPid("/caller") == [1, "pid", os.getpid()]
