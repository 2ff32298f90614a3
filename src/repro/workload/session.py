"""Per-user session progress bookkeeping.

The runner needs to know, for every user, how many sessions remain and
how far the current session has progressed; Fig 18 additionally needs
the per-session video index (its x-axis is "number of videos watched"
within a session).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class _UserProgress:
    sessions_done: int = 0
    videos_this_session: int = 0
    in_session: bool = False


class SessionTracker:
    """Tracks session/video progress; a video counts once, when served."""

    def __init__(
        self, sessions_per_user: int, videos_per_session: int, tracer=None
    ):
        if sessions_per_user < 1 or videos_per_session < 1:
            raise ValueError("session plan values must be >= 1")
        self.sessions_per_user = sessions_per_user
        self.videos_per_session = videos_per_session
        self._progress: Dict[int, _UserProgress] = {}
        self._active = 0
        #: Optional repro.obs tracer: session begin/end trace events
        #: carry the per-user session index plus the population-wide
        #: ``active`` gauge, the raw series behind Fig 18's "links vs
        #: videos watched" accounting and the active-sessions time
        #: series of repro.obs.timeseries.
        self.tracer = tracer

    def _of(self, user_id: int) -> _UserProgress:
        progress = self._progress.get(user_id)
        if progress is None:
            progress = _UserProgress()
            self._progress[user_id] = progress
        return progress

    def begin_session(self, user_id: int) -> None:
        progress = self._of(user_id)
        if progress.in_session:
            raise RuntimeError(f"user {user_id} already in a session")
        progress.in_session = True
        progress.videos_this_session = 0
        self._active += 1
        if self.tracer:
            self.tracer.event(
                "session.begin",
                user=user_id,
                index=progress.sessions_done + 1,
                active=self._active,
            )

    def record_video(self, user_id: int) -> int:
        """Count one started video; returns its 1-based session index."""
        progress = self._of(user_id)
        if not progress.in_session:
            raise RuntimeError(f"user {user_id} is not in a session")
        progress.videos_this_session += 1
        return progress.videos_this_session

    def session_finished(self, user_id: int) -> bool:
        """Whether the current session has started its quota of videos."""
        return self._of(user_id).videos_this_session >= self.videos_per_session

    def end_session(self, user_id: int) -> None:
        progress = self._of(user_id)
        if not progress.in_session:
            raise RuntimeError(f"user {user_id} is not in a session")
        progress.in_session = False
        progress.sessions_done += 1
        self._active -= 1
        if self.tracer:
            self.tracer.event(
                "session.end",
                user=user_id,
                index=progress.sessions_done,
                videos=progress.videos_this_session,
                active=self._active,
            )

    def all_sessions_done(self, user_id: int) -> bool:
        return self._of(user_id).sessions_done >= self.sessions_per_user

    def videos_watched_in_session(self, user_id: int) -> int:
        return self._of(user_id).videos_this_session

    def sessions_done(self, user_id: int) -> int:
        return self._of(user_id).sessions_done
