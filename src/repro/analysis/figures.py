"""Data series for every Section III figure (Figs 2-13).

Each ``figN_*`` method returns a :class:`FigureSeries` -- the exact
numbers the corresponding figure plots -- so the benchmark harness can
print paper-style rows and the tests can assert the qualitative
observations O1-O5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.stats import (
    cdf_points,
    log_log_slope,
    pearson_correlation,
    percentile,
)
from repro.trace.dataset import TraceDataset


@dataclass
class FigureSeries:
    """One figure's data: named series of (x, y) points plus notes."""

    figure: str
    title: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: Dict[str, float] = field(default_factory=dict)

    def render_rows(self, max_rows: int = 12) -> List[str]:
        """Paper-style text rows: evenly subsampled points per series."""
        rows = [f"{self.figure}: {self.title}"]
        for name, pts in self.series.items():
            if not pts:
                rows.append(f"  [{name}] (empty)")
                continue
            step = max(1, len(pts) // max_rows)
            sampled = pts[::step]
            if sampled[-1] != pts[-1]:
                sampled.append(pts[-1])
            body = ", ".join(f"({x:.4g}, {y:.4g})" for x, y in sampled)
            rows.append(f"  [{name}] {body}")
        for key, value in self.notes.items():
            rows.append(f"  note {key} = {value:.4g}")
        return rows


class TraceAnalysis:
    """Computes every Section III figure from a dataset."""

    def __init__(self, dataset: TraceDataset):
        if not dataset.videos or not dataset.channels or not dataset.users:
            raise ValueError("analysis requires a populated dataset")
        self.dataset = dataset

    # -- Fig 2: scalability -------------------------------------------------

    def fig2_videos_added_over_time(self, bucket_days: int = 30) -> FigureSeries:
        """# of videos added per time bucket over the crawl horizon.

        O1: the growth in upload volume is the scalability motivation.
        """
        if bucket_days < 1:
            raise ValueError("bucket_days must be >= 1")
        counts: Counter = Counter()
        for video in self.dataset.iter_videos():
            counts[video.upload_day // bucket_days] += 1
        horizon_buckets = self.dataset.crawl_day // bucket_days + 1
        points = [
            (float(b * bucket_days), float(counts.get(b, 0)))
            for b in range(horizon_buckets)
        ]
        first_half = sum(y for x, y in points[: len(points) // 2])
        second_half = sum(y for x, y in points[len(points) // 2 :])
        return FigureSeries(
            figure="Fig 2",
            title="# of videos added over time",
            series={"videos_added": points},
            notes={
                "first_half_total": first_half,
                "second_half_total": second_half,
                "growth_ratio": (second_half / first_half) if first_half else float("inf"),
            },
        )

    # -- Fig 3: channel view frequency ---------------------------------------

    def fig3_channel_view_frequency_cdf(self) -> FigureSeries:
        """CDF of per-channel average video view frequency (views/day)."""
        freqs = [
            self.dataset.channel_view_frequency(c.channel_id)
            for c in self.dataset.iter_channels()
            if c.video_ids
        ]
        return FigureSeries(
            figure="Fig 3",
            title="View frequency of videos in different channels (CDF)",
            series={"cdf": cdf_points(freqs)},
            notes={
                "p20": percentile(freqs, 20),
                "p80": percentile(freqs, 80),
                "p99": percentile(freqs, 99),
            },
        )

    # -- Fig 4: subscribers per channel ---------------------------------------

    def fig4_channel_subscribers_cdf(self) -> FigureSeries:
        """CDF of the number of subscribers per channel."""
        subs = [float(c.num_subscribers) for c in self.dataset.iter_channels()]
        return FigureSeries(
            figure="Fig 4",
            title="# of subscribers to different channels (CDF)",
            series={"cdf": cdf_points(subs)},
            notes={
                "p25": percentile(subs, 25),
                "p75": percentile(subs, 75),
                "p99": percentile(subs, 99),
            },
        )

    # -- Fig 5: views vs subscriptions ----------------------------------------

    def fig5_views_vs_subscriptions(self) -> FigureSeries:
        """Scatter of channel total views against subscriber count.

        The paper reads a "strong, positive correlation" off the
        scatter; we also report the Pearson coefficient of the
        log-transformed pair (heavy tails make the linear coefficient
        meaningless).
        """
        points = []
        for channel in self.dataset.iter_channels():
            points.append(
                (
                    float(channel.num_subscribers),
                    float(self.dataset.channel_total_views(channel.channel_id)),
                )
            )
        points.sort()
        positive = [(x, y) for x, y in points if x > 0 and y > 0]
        import math

        corr = pearson_correlation(
            [math.log(x) for x, _ in positive],
            [math.log(y) for _, y in positive],
        ) if len(positive) >= 2 else 0.0
        return FigureSeries(
            figure="Fig 5",
            title="Channel views vs. subscriptions",
            series={"scatter": points},
            notes={"log_pearson": corr},
        )

    # -- Fig 6: videos per channel ----------------------------------------------

    def fig6_videos_per_channel_cdf(self) -> FigureSeries:
        """CDF of the number of videos in each channel."""
        sizes = [float(c.num_videos) for c in self.dataset.iter_channels()]
        return FigureSeries(
            figure="Fig 6",
            title="# of videos per channel (CDF)",
            series={"cdf": cdf_points(sizes)},
            notes={
                "p50": percentile(sizes, 50),
                "p75": percentile(sizes, 75),
                "p90": percentile(sizes, 90),
            },
        )

    # -- Fig 7: views per video ----------------------------------------------

    def fig7_video_views_cdf(self) -> FigureSeries:
        """CDF of per-video views."""
        views = [float(v.views) for v in self.dataset.iter_videos()]
        return FigureSeries(
            figure="Fig 7",
            title="# of views per video (CDF)",
            series={"cdf": cdf_points(views)},
            notes={
                "p50": percentile(views, 50),
                "p90": percentile(views, 90),
                "p99": percentile(views, 99),
            },
        )

    # -- Fig 8: favorites per video -------------------------------------------

    def fig8_favorites_cdf(self) -> FigureSeries:
        """CDF of per-video favorite counts + views/favorites correlation."""
        favorites = [float(v.favorites) for v in self.dataset.iter_videos()]
        views = [float(v.views) for v in self.dataset.iter_videos()]
        return FigureSeries(
            figure="Fig 8",
            title="# of times videos are marked as favorites (CDF)",
            series={"cdf": cdf_points(favorites)},
            notes={
                "p20": percentile(favorites, 20),
                "p75": percentile(favorites, 75),
                "p90": percentile(favorites, 90),
                "views_pearson": pearson_correlation(views, favorites),
            },
        )

    # -- Fig 9: within-channel popularity ---------------------------------------

    def fig9_within_channel_popularity(
        self, min_videos: int = 10
    ) -> FigureSeries:
        """Rank-views profiles of a high/medium/low popularity channel.

        Channels (with at least ``min_videos`` videos) are ranked by
        total views; the top, median and bottom ones are plotted, plus
        the ideal ``Zipf(s=1)`` curve scaled to the top channel --
        matching the figure's "High / Medium / Low / Zipf-high" series.
        """
        eligible = [
            c for c in self.dataset.iter_channels() if c.num_videos >= min_videos
        ]
        if not eligible:
            raise ValueError(f"no channel has >= {min_videos} videos")
        eligible.sort(
            key=lambda c: self.dataset.channel_total_views(c.channel_id),
            reverse=True,
        )
        picks = {
            "high": eligible[0],
            "medium": eligible[len(eligible) // 2],
            "low": eligible[-1],
        }
        series: Dict[str, List[Tuple[float, float]]] = {}
        notes: Dict[str, float] = {}
        for name, channel in picks.items():
            views = sorted(
                (self.dataset.video_views(v) for v in channel.video_ids),
                reverse=True,
            )
            pts = [(float(rank + 1), float(v)) for rank, v in enumerate(views)]
            series[name] = pts
            notes[f"{name}_zipf_slope"] = log_log_slope(
                [x for x, _ in pts], [y for _, y in pts]
            )
        top_views = series["high"][0][1]
        series["zipf_high"] = [
            (float(rank), top_views / rank)
            for rank in range(1, len(series["high"]) + 1)
        ]
        return FigureSeries(
            figure="Fig 9",
            title="Video popularity variation within channels",
            series=series,
            notes=notes,
        )

    # -- Fig 11: interests per channel ---------------------------------------

    def fig11_interests_per_channel_cdf(self) -> FigureSeries:
        """CDF of the number of video categories each channel contains."""
        counts = [float(c.num_interests) for c in self.dataset.iter_channels()]
        return FigureSeries(
            figure="Fig 11",
            title="# of interests in each channel (CDF)",
            series={"cdf": cdf_points(counts)},
            notes={
                "p50": percentile(counts, 50),
                "max": max(counts),
            },
        )

    # -- Fig 12: user interest similarity ----------------------------------------

    def user_interest_similarity(self, user_id: int) -> float:
        """``|C_u ∩ C_c| / |C_u|`` for one user (Section III-D).

        ``C_u``: categories of the user's favorite videos;
        ``C_c``: categories of the videos in the channels the user
        subscribed to.
        """
        user = self.dataset.users[user_id]
        if not user.interest_ids:
            raise ValueError(f"user {user_id} has no derived interests")
        subscribed_categories = set()
        for channel_id in user.subscribed_channel_ids:
            subscribed_categories.update(
                self.dataset.channels[channel_id].category_mix.keys()
            )
        overlap = user.interest_ids & subscribed_categories
        return len(overlap) / len(user.interest_ids)

    def fig12_interest_similarity_cdf(self) -> FigureSeries:
        """CDF of user-interest / subscribed-channel similarity."""
        sims = [
            self.user_interest_similarity(u.user_id)
            for u in self.dataset.iter_users()
            if u.interest_ids and u.subscribed_channel_ids
        ]
        if not sims:
            raise ValueError("no user has both interests and subscriptions")
        return FigureSeries(
            figure="Fig 12",
            title="Similarity between user interests and subscribed channels (CDF)",
            series={"cdf": cdf_points(sims)},
            notes={
                "p25": percentile(sims, 25),
                "p50": percentile(sims, 50),
                "p75": percentile(sims, 75),
            },
        )

    # -- Fig 13: interests per user -----------------------------------------------

    def fig13_interests_per_user_cdf(self) -> FigureSeries:
        """CDF of the number of personal interests per user."""
        counts = [float(u.num_interests) for u in self.dataset.iter_users()]
        return FigureSeries(
            figure="Fig 13",
            title="# of favorite video interests per user (CDF)",
            series={"cdf": cdf_points(counts)},
            notes={
                "frac_below_10": sum(1 for c in counts if c < 10) / len(counts),
                "max": max(counts),
            },
        )

    # -- observation checks -------------------------------------------------------

    def check_observations(self) -> Dict[str, bool]:
        """Boolean verdicts for O1-O5 on this dataset.

        These are the qualitative claims the protocol design rests on;
        tests assert that the synthetic trace exhibits all of them.
        """
        verdicts: Dict[str, bool] = {}
        fig2 = self.fig2_videos_added_over_time()
        verdicts["O1_growth"] = fig2.notes["growth_ratio"] > 1.5

        fig4 = self.fig4_channel_subscribers_cdf()
        verdicts["O2_channel_popularity_varies"] = (
            fig4.notes["p75"] >= 4 * max(fig4.notes["p25"], 1.0)
        )

        fig7 = self.fig7_video_views_cdf()
        verdicts["O3_video_popularity_varies"] = (
            fig7.notes["p99"] >= 10 * max(fig7.notes["p50"], 1.0)
        )

        fig11 = self.fig11_interests_per_channel_cdf()
        verdicts["O5_channels_focused"] = (
            fig11.notes["p50"] <= self.dataset.num_categories / 2
        )
        fig12 = self.fig12_interest_similarity_cdf()
        verdicts["O5_users_subscribe_in_interest"] = fig12.notes["p50"] >= 0.5
        return verdicts

    # -- convenience ---------------------------------------------------------------

    def all_figures(self) -> List[FigureSeries]:
        """Every Section III figure except Fig 10 (see clustering module)."""
        return [
            self.fig2_videos_added_over_time(),
            self.fig3_channel_view_frequency_cdf(),
            self.fig4_channel_subscribers_cdf(),
            self.fig5_views_vs_subscriptions(),
            self.fig6_videos_per_channel_cdf(),
            self.fig7_video_views_cdf(),
            self.fig8_favorites_cdf(),
            self.fig9_within_channel_popularity(),
            self.fig11_interests_per_channel_cdf(),
            self.fig12_interest_similarity_cdf(),
            self.fig13_interests_per_user_cdf(),
        ]
