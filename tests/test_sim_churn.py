"""Unit tests for the churn (session on/off) model."""

import random

import pytest

from repro.sim.churn import ChurnModel, SessionPlan


class TestSessionPlan:
    def test_valid_plan(self):
        plan = SessionPlan(sessions_per_user=25, videos_per_session=10, mean_off_time=500)
        assert plan.sessions_per_user == 25

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sessions_per_user=0, videos_per_session=10, mean_off_time=500),
            dict(sessions_per_user=1, videos_per_session=0, mean_off_time=500),
            dict(sessions_per_user=1, videos_per_session=1, mean_off_time=-1),
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SessionPlan(**kwargs)


class TestChurnModel:
    def _model(self, mean_off=500.0, warmup=600.0):
        plan = SessionPlan(sessions_per_user=5, videos_per_session=10, mean_off_time=mean_off)
        return ChurnModel(plan, random.Random(1), warmup_window=warmup)

    def test_negative_warmup_rejected(self):
        plan = SessionPlan(5, 10, 500)
        with pytest.raises(ValueError):
            ChurnModel(plan, random.Random(1), warmup_window=-1)

    def test_initial_join_within_warmup_window(self):
        model = self._model(warmup=300.0)
        for _ in range(100):
            assert 0.0 <= model.initial_join_delay() <= 300.0

    def test_off_durations_positive(self):
        model = self._model()
        assert all(model.off_duration() >= 0 for _ in range(100))

    def test_off_duration_mean_close_to_configured(self):
        # Exponential off-times: the sample mean of many draws should
        # land near the configured mean (Poisson process reading).
        model = self._model(mean_off=500.0)
        draws = [model.off_duration() for _ in range(5000)]
        assert 450 < sum(draws) / len(draws) < 550

    def test_zero_mean_off_time_gives_zero(self):
        model = self._model(mean_off=0.0)
        assert model.off_duration() == 0.0

    def test_deterministic_given_seed(self):
        plan = SessionPlan(5, 10, 500)
        a = ChurnModel(plan, random.Random(9))
        b = ChurnModel(plan, random.Random(9))
        assert [a.off_duration() for _ in range(5)] == [
            b.off_duration() for _ in range(5)
        ]


class _RecordingTracer:
    """Truthy stand-in capturing (name, attrs) event tuples."""

    def __init__(self):
        self.events = []

    def event(self, name, **attrs):
        self.events.append((name, attrs))


class TestEdgeCases:
    def test_zero_warmup_window_joins_at_time_zero(self):
        plan = SessionPlan(5, 10, 500)
        model = ChurnModel(plan, random.Random(1), warmup_window=0.0)
        for _ in range(20):
            assert model.initial_join_delay() == 0.0

    def test_zero_warmup_still_emits_join_delay_event(self):
        plan = SessionPlan(5, 10, 500)
        tracer = _RecordingTracer()
        model = ChurnModel(plan, random.Random(1), warmup_window=0.0, tracer=tracer)
        model.initial_join_delay()
        assert tracer.events == [("churn.join_delay", {"delay": 0.0})]

    def test_zero_mean_off_time_draws_no_randomness(self):
        """The fast path must not touch the RNG stream: a later consumer
        sharing the stream sees the same sequence either way."""
        plan = SessionPlan(5, 10, mean_off_time=0.0)
        rng = random.Random(33)
        model = ChurnModel(plan, rng)
        state_before = rng.getstate()
        for _ in range(10):
            assert model.off_duration() == 0.0
        assert rng.getstate() == state_before

    def test_zero_mean_off_time_emits_no_event(self):
        plan = SessionPlan(5, 10, mean_off_time=0.0)
        tracer = _RecordingTracer()
        model = ChurnModel(plan, random.Random(33), tracer=tracer)
        model.off_duration()
        assert tracer.events == []

    def test_event_attributes_carry_the_drawn_values(self):
        plan = SessionPlan(5, 10, 500)
        tracer = _RecordingTracer()
        model = ChurnModel(plan, random.Random(8), warmup_window=600.0, tracer=tracer)
        delay = model.initial_join_delay()
        duration = model.off_duration()
        assert tracer.events == [
            ("churn.join_delay", {"delay": delay}),
            ("churn.off_time", {"dur": duration}),
        ]
