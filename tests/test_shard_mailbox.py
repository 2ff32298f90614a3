"""Unit tests for the typed inter-shard mailbox."""

import pytest

from repro.shard.mailbox import Mailbox, ShardViolation


class TestMailbox:
    def test_seq_counts_per_origin(self):
        mailbox = Mailbox(3)
        first = mailbox.send(0, 1, 1.0, "a")
        second = mailbox.send(2, 1, 1.0, "b")
        third = mailbox.send(0, 2, 2.0, "c")
        assert (first.seq, second.seq, third.seq) == (0, 0, 1)

    def test_violation_counted_when_lax(self):
        mailbox = Mailbox(2, strict=False)
        mailbox.send(0, 1, 3.0, "inside", window_end=5.0)
        assert mailbox.violations == 1
        assert mailbox.sent == 1  # still recorded

    def test_violation_raises_when_strict(self):
        mailbox = Mailbox(2, strict=True)
        with pytest.raises(ShardViolation):
            mailbox.send(0, 1, 3.0, "inside", window_end=5.0)
        assert mailbox.violations == 1

    def test_fire_at_window_end_is_legal(self):
        mailbox = Mailbox(2, strict=True)
        mailbox.send(0, 1, 5.0, "boundary", window_end=5.0)
        assert mailbox.violations == 0

    def test_summary_counters(self):
        mailbox = Mailbox(3)
        mailbox.send(0, 1, 1.0, "a")
        mailbox.send(0, 1, 2.0, "b")
        mailbox.send(2, 0, 3.0, "c")
        summary = mailbox.summary()
        assert summary["sent"] == 3
        assert summary["violations"] == 0
        assert summary["by_pair"] == [(0, 1, 2), (2, 0, 1)]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            Mailbox(0)
