"""The metrics registry: semantics, concurrency, Prometheus rendering."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import Registry


@pytest.fixture
def registry() -> Registry:
    return Registry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        errors = registry.counter("errors_total", "Errors.")
        cell = errors.labels()
        assert cell.value == 0
        cell.inc()
        cell.inc(5)
        assert cell.value == 6
        # An unlabelled family is its own instrument: the same cell.
        errors.inc()
        assert errors.value == cell.value == 7

    def test_labelled_children_are_independent(self, registry):
        seen = registry.counter("seen_total", "Seen.", labels=("topic",))
        seen.labels(topic="/a").inc()
        seen.labels(topic="/b").inc(2)
        assert seen.labels(topic="/a").value == 1
        assert seen.labels(topic="/b").value == 2

    def test_children_are_cached(self, registry):
        seen = registry.counter("seen_total", "Seen.", labels=("topic",))
        assert seen.labels(topic="/a") is seen.labels(topic="/a")

    def test_wrong_label_names_rejected(self, registry):
        seen = registry.counter("seen_total", "Seen.", labels=("topic",))
        with pytest.raises(ValueError):
            seen.labels(node="/a")

    def test_concurrent_increments_do_not_lose_counts(self, registry):
        total = registry.counter("race_total", "Race.")
        cell = total.labels()
        per_thread, threads = 5000, 8

        def worker():
            for _ in range(per_thread):
                cell.inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert cell.value == per_thread * threads

    def test_disabled_registry_drops_increments(self, registry):
        total = registry.counter("gated_total", "Gated.")
        cell = total.labels()
        registry.enabled = False
        cell.inc()
        assert cell.value == 0
        registry.enabled = True
        cell.inc()
        assert cell.value == 1


class TestGauge:
    def test_set_inc_dec(self, registry):
        depth = registry.gauge("depth", "Depth.")
        cell = depth.labels()
        cell.set(10)
        cell.inc(2)
        cell.dec(5)
        assert cell.value == 7
        depth.inc(3)
        depth.dec()
        assert depth.value == cell.value == 9


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self, registry):
        lat = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.001, 0.01, 0.1)
        )
        cell = lat.labels()
        cell.observe(0.0005)   # <= 0.001
        cell.observe(0.005)    # <= 0.01
        cell.observe(0.05)     # <= 0.1
        cell.observe(5.0)      # +Inf
        assert cell.bucket_counts() == [1, 1, 1, 1]
        assert cell.count == 4
        assert cell.sum == pytest.approx(0.0005 + 0.005 + 0.05 + 5.0)
        lat.observe(0.0005)  # the family forwards to the same cell
        assert cell.bucket_counts() == [2, 1, 1, 1]

    def test_boundary_value_counts_in_its_bucket(self, registry):
        lat = registry.histogram("h", "H.", buckets=(1.0, 2.0))
        cell = lat.labels()
        cell.observe(1.0)
        assert cell.bucket_counts() == [1, 0, 0]


class TestRegistry:
    def test_redeclaration_returns_the_same_family(self, registry):
        a = registry.counter("x_total", "X.", labels=("topic",))
        b = registry.counter("x_total", "X.", labels=("topic",))
        assert a is b

    def test_redeclaration_with_other_kind_fails(self, registry):
        registry.counter("x_total", "X.")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X.")

    def test_collectors_run_at_render_time(self, registry):
        pulled = registry.gauge("pulled", "Pulled.")
        state = {"value": 0}
        registry.register_collector(
            lambda: pulled.labels().set(state["value"])
        )
        state["value"] = 42
        assert "pulled 42" in registry.render()

    def test_failing_collector_does_not_break_render(self, registry):
        registry.counter("ok_total", "OK.").labels().inc()

        def boom():
            raise RuntimeError("collector bug")

        registry.register_collector(boom)
        assert "ok_total 1" in registry.render()


class TestPrometheusRendering:
    def test_counter_exposition(self, registry):
        seen = registry.counter("seen_total", "Messages seen.",
                                labels=("topic",))
        seen.labels(topic="/chatter").inc(3)
        text = registry.render()
        assert "# HELP seen_total Messages seen." in text
        assert "# TYPE seen_total counter" in text
        assert 'seen_total{topic="/chatter"} 3' in text
        assert text.endswith("\n")

    def test_histogram_exposition_is_cumulative(self, registry):
        lat = registry.histogram("lat_seconds", "Latency.",
                                 buckets=(0.001, 0.01))
        cell = lat.labels()
        cell.observe(0.0005)
        cell.observe(0.005)
        text = registry.render()
        assert 'lat_seconds_bucket{le="0.001"} 1' in text
        assert 'lat_seconds_bucket{le="0.01"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_label_values_are_escaped(self, registry):
        c = registry.counter("esc_total", "Esc.", labels=("name",))
        c.labels(name='say "hi"\n\\done').inc()
        text = registry.render()
        assert r'esc_total{name="say \"hi\"\n\\done"} 1' in text
