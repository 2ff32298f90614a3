"""Unit tests for session progress tracking."""

import pytest

from repro.workload.session import SessionTracker


class TestSessionTracker:
    def test_invalid_plan_rejected(self):
        with pytest.raises(ValueError):
            SessionTracker(0, 10)
        with pytest.raises(ValueError):
            SessionTracker(10, 0)

    def test_basic_session_flow(self):
        tracker = SessionTracker(sessions_per_user=2, videos_per_session=3)
        tracker.begin_session(1)
        assert tracker.record_video(1) == 1
        assert tracker.record_video(1) == 2
        assert not tracker.session_finished(1)
        assert tracker.record_video(1) == 3
        assert tracker.session_finished(1)
        tracker.end_session(1)
        assert tracker.sessions_done(1) == 1
        assert not tracker.all_sessions_done(1)

    def test_all_sessions_done(self):
        tracker = SessionTracker(sessions_per_user=2, videos_per_session=1)
        for _ in range(2):
            tracker.begin_session(1)
            tracker.record_video(1)
            tracker.end_session(1)
        assert tracker.all_sessions_done(1)

    def test_double_begin_rejected(self):
        tracker = SessionTracker(1, 1)
        tracker.begin_session(1)
        with pytest.raises(RuntimeError):
            tracker.begin_session(1)

    def test_record_outside_session_rejected(self):
        tracker = SessionTracker(1, 1)
        with pytest.raises(RuntimeError):
            tracker.record_video(1)

    def test_end_outside_session_rejected(self):
        tracker = SessionTracker(1, 1)
        with pytest.raises(RuntimeError):
            tracker.end_session(1)

    def test_video_count_resets_per_session(self):
        tracker = SessionTracker(sessions_per_user=2, videos_per_session=2)
        tracker.begin_session(1)
        tracker.record_video(1)
        tracker.record_video(1)
        tracker.end_session(1)
        tracker.begin_session(1)
        assert tracker.record_video(1) == 1

    def test_users_tracked_independently(self):
        tracker = SessionTracker(2, 2)
        tracker.begin_session(1)
        tracker.begin_session(2)
        tracker.record_video(1)
        assert tracker.record_video(2) == 1
