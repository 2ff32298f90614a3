"""Unit tests for the metrics collectors."""

import pytest

from repro.metrics.collectors import COUNTERS, MetricsCollector
from repro.net.message import ChunkSource


def _collector():
    return MetricsCollector(protocol="Test", environment="unit")


class TestRecording:
    def test_empty_summary_rejected(self):
        with pytest.raises(RuntimeError):
            _collector().summarize()

    def test_single_request_summary(self):
        collector = _collector()
        collector.record_request(
            user_id=1, startup_delay_s=0.5, from_server=False, from_cache=False,
            hops=2, peers_contacted=5, prefetch_hit=False,
        )
        collector.record_chunks(1, ChunkSource.PEER, 20)
        metrics = collector.summarize()
        assert metrics.num_requests == 1
        assert metrics.startup_delay_ms_mean == pytest.approx(500.0)
        assert metrics.peer_bandwidth_p50 == pytest.approx(1.0)

    def test_negative_chunks_rejected(self):
        with pytest.raises(ValueError):
            _collector().record_chunks(1, ChunkSource.PEER, -1)

    def test_record_count_rejects_negative_and_unknown(self):
        collector = _collector()
        with pytest.raises(ValueError):
            collector.record_count("crashes", -1)
        with pytest.raises(KeyError):
            collector.record_count("no_such_counter")

    def test_every_counter_reaches_its_summary_field(self):
        collector = _collector()
        collector.record_request(
            user_id=1, startup_delay_s=0.1, from_server=False, from_cache=False,
            hops=1, peers_contacted=1, prefetch_hit=False,
        )
        for n, name in enumerate(COUNTERS, start=2):
            collector.record_count(name)
            collector.record_count(name, n)
        metrics = collector.summarize()
        for n, name in enumerate(COUNTERS, start=2):
            if name == "failover_retries":
                # one request: the retry total is retries per serve
                assert metrics.retries_per_serve == n + 1
            else:
                assert getattr(metrics, name) == n + 1, name

    def test_fractions(self):
        collector = _collector()
        for from_server, from_cache, prefetch in (
            (True, False, False),
            (False, True, False),
            (False, False, True),
            (False, False, False),
        ):
            collector.record_request(
                user_id=1, startup_delay_s=0.1, from_server=from_server,
                from_cache=from_cache, hops=1, peers_contacted=1,
                prefetch_hit=prefetch,
            )
        metrics_in = collector
        assert metrics_in.server_fallbacks == 1
        assert metrics_in.cache_hits == 1
        metrics = collector.summarize()
        assert metrics.server_fallback_fraction == pytest.approx(0.25)
        assert metrics.cache_hit_fraction == pytest.approx(0.25)
        assert metrics.prefetch_hit_fraction == pytest.approx(0.25)


class TestPeerBandwidth:
    def test_per_node_fraction(self):
        collector = _collector()
        collector.record_chunks(1, ChunkSource.PEER, 15)
        collector.record_chunks(1, ChunkSource.SERVER, 5)
        assert collector.node_peer_bandwidth() == [pytest.approx(0.75)]

    def test_cache_chunks_excluded(self):
        collector = _collector()
        collector.record_chunks(1, ChunkSource.PEER, 10)
        collector.record_chunks(1, ChunkSource.CACHE, 1000)
        assert collector.node_peer_bandwidth() == [pytest.approx(1.0)]

    def test_prefetch_sources_attributed(self):
        collector = _collector()
        collector.record_chunks(1, ChunkSource.PREFETCH_PEER, 1)
        collector.record_chunks(1, ChunkSource.PREFETCH_SERVER, 1)
        assert collector.node_peer_bandwidth() == [pytest.approx(0.5)]

    def test_node_with_only_cache_skipped(self):
        collector = _collector()
        collector.record_chunks(1, ChunkSource.CACHE, 5)
        assert collector.node_peer_bandwidth() == []

    def test_percentiles_across_nodes(self):
        collector = _collector()
        collector.record_request(
            user_id=0, startup_delay_s=0.0, from_server=False, from_cache=False,
            hops=0, peers_contacted=0, prefetch_hit=False,
        )
        for node, peer_chunks in enumerate((0, 10, 20)):
            collector.record_chunks(node, ChunkSource.PEER, peer_chunks)
            collector.record_chunks(node, ChunkSource.SERVER, 20 - peer_chunks)
        metrics = collector.summarize()
        assert metrics.peer_bandwidth_p50 == pytest.approx(0.5)
        assert metrics.peer_bandwidth_p1 == pytest.approx(0.01, abs=0.02)
        assert metrics.peer_bandwidth_p99 >= 0.98


class TestOverhead:
    def test_overhead_series(self):
        collector = _collector()
        collector.record_request(
            user_id=0, startup_delay_s=0.0, from_server=False, from_cache=False,
            hops=0, peers_contacted=0, prefetch_hit=False,
        )
        collector.record_chunks(0, ChunkSource.PEER, 1)
        collector.record_overhead(1, 1, 4)
        collector.record_overhead(2, 1, 6)
        collector.record_overhead(1, 2, 10)
        metrics = collector.summarize()
        assert metrics.overhead_by_video_index[1] == pytest.approx(5.0)
        assert metrics.overhead_by_video_index[2] == pytest.approx(10.0)
        assert metrics.overhead_series() == [(1, 5.0), (2, 10.0)]

    def test_render_rows(self):
        collector = _collector()
        collector.record_request(
            user_id=0, startup_delay_s=0.25, from_server=True, from_cache=False,
            hops=2, peers_contacted=3, prefetch_hit=False,
        )
        collector.record_chunks(0, ChunkSource.SERVER, 20)
        rows = collector.summarize().render_rows()
        assert any("startup delay" in row for row in rows)
        assert any("peer bandwidth" in row for row in rows)
