"""Integration: the paper's qualitative results at small scale.

One shared :class:`EvaluationSuite` (session-scoped, smoke scale) runs
the five system variants; the tests assert the reproduction contract --
the orderings and shapes of Figs 16-18.
"""

import statistics

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.figures import EvaluationSuite
from repro.experiments.registry import SocialTubeParams
from repro.experiments.report import render_report, shape_checks
from repro.trace.synthesizer import TraceConfig


@pytest.fixture(scope="module")
def suite():
    # Slightly larger than smoke scale so overlays can form; still fast.
    config = SimulationConfig(
        num_nodes=300,
        trace=TraceConfig(
            num_users=300, num_channels=45, num_videos=1500,
            num_categories=8, seed=2014,
        ),
        sessions_per_user=6,
        videos_per_session=8,
        mean_off_time_s=300.0,
        seed=2014,
    )
    return EvaluationSuite(config=config)


class TestFig16PeerBandwidth:
    def test_socialtube_beats_nettube(self, suite):
        st = suite.result("SocialTube w/ PF").metrics
        nt = suite.result("NetTube w/ PF").metrics
        assert st.peer_bandwidth_p50 > nt.peer_bandwidth_p50

    def test_nettube_beats_pavod(self, suite):
        nt = suite.result("NetTube w/ PF").metrics
        pa = suite.result("PA-VoD").metrics
        assert nt.peer_bandwidth_p50 > pa.peer_bandwidth_p50

    def test_pavod_contributes_some_peer_bandwidth(self, suite):
        pa = suite.result("PA-VoD").metrics
        assert pa.peer_bandwidth_p99 > 0.1


class TestFig17StartupDelay:
    def test_pavod_worst(self, suite):
        pa = suite.result("PA-VoD").metrics
        others = [
            suite.result(label).metrics.startup_delay_ms_mean
            for label in (
                "SocialTube w/ PF", "SocialTube w/o PF",
                "NetTube w/ PF", "NetTube w/o PF",
            )
        ]
        assert pa.startup_delay_ms_mean > max(others)

    def test_socialtube_beats_nettube(self, suite):
        st = suite.result("SocialTube w/ PF").metrics
        nt = suite.result("NetTube w/ PF").metrics
        assert st.startup_delay_ms_mean < nt.startup_delay_ms_mean

    def test_prefetch_reduces_delay(self, suite):
        for system in ("SocialTube", "NetTube"):
            with_pf = suite.result(f"{system} w/ PF").metrics
            without = suite.result(f"{system} w/o PF").metrics
            assert with_pf.startup_delay_ms_mean < without.startup_delay_ms_mean

    def test_socialtube_prefetch_more_accurate(self, suite):
        st = suite.result("SocialTube w/ PF").metrics
        nt = suite.result("NetTube w/ PF").metrics
        assert st.prefetch_hit_fraction > nt.prefetch_hit_fraction


class TestFig18MaintenanceOverhead:
    def test_nettube_grows_within_session(self, suite):
        series = suite.result("NetTube w/ PF").metrics.overhead_series()
        assert series[-1][1] > 1.8 * max(series[0][1], 1.0)

    def test_socialtube_stays_flat(self, suite):
        series = suite.result("SocialTube w/ PF").metrics.overhead_series()
        assert series[-1][1] < 1.4 * max(series[0][1], 1.0)

    def test_socialtube_no_session_end_dip(self, suite):
        """Every point after the join lies within 5% of the v2..vk median:
        a sample taken after a leaving node skipped its repair would sag
        towards the end of the session."""
        series = suite.result("SocialTube w/ PF").metrics.overhead_series()
        after_join = [links for _idx, links in series[1:]]
        middle = statistics.median(after_join)
        assert all(abs(links - middle) <= 0.05 * middle for links in after_join)

    def test_socialtube_within_link_budget(self, suite):
        params = SocialTubeParams()
        series = suite.result("SocialTube w/ PF").metrics.overhead_series()
        budget = params.inner_link_limit + params.inter_link_limit
        assert all(links <= budget + 0.5 for _idx, links in series)

    def test_nettube_ends_above_socialtube(self, suite):
        st = suite.result("SocialTube w/ PF").metrics.overhead_series()
        nt = suite.result("NetTube w/ PF").metrics.overhead_series()
        assert nt[-1][1] > st[-1][1]

    def test_pavod_zero_overhead(self, suite):
        series = suite.result("PA-VoD").metrics.overhead_series()
        assert all(links == 0.0 for _idx, links in series)


class TestShapeChecksAndReport:
    def test_all_shape_checks_pass(self, suite):
        checks = shape_checks(suite)
        failed = [name for name, ok in checks.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_figures_render(self, suite):
        figures = [
            suite.fig15_maintenance_model(),
            suite.fig16_peer_bandwidth(),
            suite.fig17_startup_delay(),
            suite.fig18_maintenance_overhead(),
            suite.table1_parameters(),
        ]
        text = render_report(figures)
        assert "Fig 16a" in text and "Fig 17a" in text and "Fig 18a" in text
        assert "Table I" in text

    def test_results_cached(self, suite):
        a = suite.result("PA-VoD")
        b = suite.result("PA-VoD")
        assert a is b
