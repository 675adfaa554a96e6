"""Unit tests for empirical response-time estimation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimator.response_time import EmpiricalResponseTimes


class TestCollection:
    def test_add_and_len(self):
        est = EmpiricalResponseTimes([0.1, 0.2])
        est.add(0.3)
        assert len(est) == 3

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalResponseTimes([-0.1])

    def test_samples_sorted(self):
        est = EmpiricalResponseTimes([0.3, 0.1, 0.2])
        assert est.samples == (0.1, 0.2, 0.3)

    def test_extend(self):
        est = EmpiricalResponseTimes()
        est.extend([0.1, 0.2])
        assert len(est) == 2


class TestStatistics:
    def test_mean(self):
        est = EmpiricalResponseTimes([0.1, 0.3])
        assert est.mean() == pytest.approx(0.2)

    def test_percentile_endpoints(self):
        est = EmpiricalResponseTimes([0.1, 0.2, 0.3, 0.4])
        assert est.percentile(0) == pytest.approx(0.1)
        assert est.percentile(100) == pytest.approx(0.4)

    def test_percentile_out_of_range(self):
        est = EmpiricalResponseTimes([0.1])
        with pytest.raises(ValueError):
            est.percentile(101)

    def test_empty_queries_raise(self):
        est = EmpiricalResponseTimes()
        with pytest.raises(ValueError):
            est.mean()
        with pytest.raises(ValueError):
            est.percentile(50)
        with pytest.raises(ValueError):
            est.success_probability(0.1)

    def test_success_probability(self):
        est = EmpiricalResponseTimes([0.1, 0.2, 0.3, 0.4])
        assert est.success_probability(0.25) == pytest.approx(0.5)
        assert est.success_probability(0.4) == pytest.approx(1.0)
        assert est.success_probability(0.05) == 0.0


class TestCandidates:
    def test_candidates_increasing_and_deduplicated(self):
        est = EmpiricalResponseTimes([0.1] * 10 + [0.5])
        candidates = est.candidate_response_times((50, 75, 90, 95))
        assert candidates == sorted(candidates)
        assert len(candidates) == len(set(candidates))

    def test_default_percentiles(self):
        est = EmpiricalResponseTimes([float(i) / 100 for i in range(1, 101)])
        candidates = est.candidate_response_times()
        assert len(candidates) == 4


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50),
    st.floats(min_value=0, max_value=100),
)
@settings(max_examples=60)
def test_success_probability_is_valid_cdf(samples, r):
    est = EmpiricalResponseTimes(samples)
    p = est.success_probability(r)
    assert 0.0 <= p <= 1.0
    assert est.success_probability(r + 1.0) >= p

