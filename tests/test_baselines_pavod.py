"""Unit tests for the PA-VoD baseline."""

import pytest

from helpers import make_protocol
from repro.baselines.pavod import PaVodProtocol


@pytest.fixture()
def proto(tiny_dataset):
    protocol, _server = make_protocol(PaVodProtocol, tiny_dataset)
    protocol.now_fn = lambda: protocol._test_now
    protocol._test_now = 0.0
    return protocol


VIDEO = 0


class TestNoCacheNoLinks:
    def test_no_cache_kept(self, proto):
        proto.on_session_start(1)
        proto.on_watch_started(1, VIDEO)
        proto.on_watch_finished(1, VIDEO)
        assert not proto.state(1).has_video(VIDEO)

    def test_link_count_always_zero(self, proto):
        proto.on_session_start(1)
        proto.on_watch_started(1, VIDEO)
        assert proto.link_count(1) == 0


class TestWatcherProviding:
    def test_no_watchers_server_serves(self, proto):
        proto.on_session_start(1)
        assert proto.locate(1, VIDEO).from_server

    def test_fresh_watcher_cannot_serve(self, proto, tiny_dataset):
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto._test_now = 0.0
        proto.on_watch_started(2, VIDEO)
        # Node 2 just started: its own download is incomplete.
        result = proto.locate(1, VIDEO)
        assert result.from_server

    def test_progressed_watcher_serves(self, proto, tiny_dataset):
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto._test_now = 0.0
        proto.on_watch_started(2, VIDEO)
        # Advance past length/speedup: download complete.
        proto._test_now = tiny_dataset.video_length(VIDEO)
        result = proto.locate(1, VIDEO)
        assert result.from_peer
        assert result.provider_id == 2

    def test_finished_watcher_stops_providing(self, proto, tiny_dataset):
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto.on_watch_started(2, VIDEO)
        proto._test_now = tiny_dataset.video_length(VIDEO)
        proto.on_watch_finished(2, VIDEO)
        assert proto.locate(1, VIDEO).from_server

    def test_session_end_clears_current_watch(self, proto, tiny_dataset):
        proto.on_session_start(2)
        proto.on_watch_started(2, VIDEO)
        proto._test_now = tiny_dataset.video_length(VIDEO)
        proto.on_session_end(2)
        proto.on_session_start(1)
        assert proto.locate(1, VIDEO).from_server

    def test_referral_samples_bounded(self, proto, tiny_dataset):
        proto.on_session_start(0)
        for node in range(1, 10):
            proto.on_session_start(node)
            proto.on_watch_started(node, VIDEO)
        proto._test_now = tiny_dataset.video_length(VIDEO)
        result = proto.locate(0, VIDEO)
        assert result.from_peer
        assert result.peers_contacted <= proto.watchers_per_referral


class TestPrefetch:
    def test_no_prefetching(self, proto):
        proto.on_session_start(1)
        proto.on_watch_started(1, VIDEO)
        assert proto.select_prefetch(1, VIDEO) == []


class TestValidation:
    def test_invalid_parameters_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            make_protocol(PaVodProtocol, tiny_dataset, watchers_per_referral=0)
        with pytest.raises(ValueError):
            make_protocol(PaVodProtocol, tiny_dataset, download_speedup=0)
