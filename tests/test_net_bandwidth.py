"""Unit tests for the processor-sharing upload links."""

import pytest

from repro.net.bandwidth import BandwidthError, SharedUploadLink


class TestSharedUploadLink:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(BandwidthError):
            SharedUploadLink(0)
        with pytest.raises(BandwidthError):
            SharedUploadLink(-1)

    def test_sole_transfer_gets_full_capacity(self):
        link = SharedUploadLink(1_000_000)
        grant = link.admit()
        assert grant.rate_bps == pytest.approx(1_000_000)

    def test_share_splits_evenly(self):
        link = SharedUploadLink(1_000_000)
        g1 = link.admit()
        g2 = link.admit()
        assert g1.rate_bps == pytest.approx(1_000_000)  # fixed at admission
        assert g2.rate_bps == pytest.approx(500_000)

    def test_current_share_reflects_load(self):
        # A released slot no longer divides the capacity.
        link = SharedUploadLink(900_000)
        first, _second = link.admit(), link.admit()
        first.release()
        assert link.admit().rate_bps == pytest.approx(450_000)

    def test_release_frees_slot(self):
        link = SharedUploadLink(1_000_000)
        grant = link.admit()
        assert link.active_transfers == 1
        grant.release()
        assert link.active_transfers == 0

    def test_release_idempotent(self):
        link = SharedUploadLink(1_000_000)
        grant = link.admit()
        grant.release()
        grant.release()
        assert link.active_transfers == 0

    def test_time_for_bits(self):
        link = SharedUploadLink(2_000_000)
        grant = link.admit()
        assert grant.time_for_bits(1_000_000) == pytest.approx(0.5)

    def test_time_for_negative_bits_rejected(self):
        grant = SharedUploadLink(1.0).admit()
        with pytest.raises(BandwidthError):
            grant.time_for_bits(-1)

    def test_negative_admit_bits_rejected(self):
        with pytest.raises(BandwidthError):
            SharedUploadLink(1.0).admit(bits=-5)

    def test_overload_slows_newcomers(self):
        # The Fig 17 mechanism: a saturated server gives each newcomer a
        # tiny share, so the startup-buffer transfer takes seconds.
        link = SharedUploadLink(10_000_000)
        for _ in range(99):
            link.admit()
        slow = link.admit()
        assert slow.rate_bps == pytest.approx(100_000)
        assert slow.time_for_bits(640_000) == pytest.approx(6.4)
