"""Property-based tests for the metrics collector's running sums."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import mean
from repro.metrics.collectors import MetricsCollector

COUNTS = st.integers(min_value=0, max_value=10_000)


@given(
    requests=st.lists(st.tuples(COUNTS, COUNTS), min_size=1, max_size=200),
    overhead=st.lists(
        st.tuples(st.integers(min_value=1, max_value=12), COUNTS), max_size=200
    ),
)
def test_running_sums_equal_mean_of_recorded_values(requests, overhead):
    collector = MetricsCollector(protocol="Test", environment="unit")
    for hops, contacted in requests:
        collector.record_request(
            user_id=1, startup_delay_s=0.1, from_server=False, from_cache=False,
            hops=hops, peers_contacted=contacted, prefetch_hit=False,
        )
    by_index = {}
    for index, links in overhead:
        collector.record_overhead(user_id=1, video_index=index, links=links)
        by_index.setdefault(index, []).append(links)
    metrics = collector.summarize()
    assert metrics.mean_search_hops == mean([float(h) for h, _ in requests])
    assert metrics.mean_peers_contacted == mean([float(c) for _, c in requests])
    expected = {idx: mean([float(v) for v in values]) for idx, values in by_index.items()}
    assert metrics.overhead_by_video_index == expected
    assert list(metrics.overhead_by_video_index) == list(expected)
