"""Memoization of the schedulability hot paths (QPA / demand-bound).

The runtime loops ask the same feasibility question about unchanged
stream sets every window; the caches must answer those repeats without
recomputation while never changing any answer.
"""

import pytest

from repro.core.dbf import (
    clear_demand_cache,
    processor_demand_test,
)
from tests.oracles.qpa import clear_qpa_cache, qpa_test

STREAMS = [(0.2, 1.0, 0.8), (0.1, 2.0, 1.5), (0.3, 5.0, 4.0)]
INFEASIBLE = [(0.9, 1.0, 0.9), (0.5, 1.0, 0.9)]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_demand_cache()
    clear_qpa_cache()
    yield
    clear_demand_cache()
    clear_qpa_cache()


class TestDemandCache:
    def test_repeat_call_returns_cached_object(self):
        first = processor_demand_test(STREAMS)
        second = processor_demand_test(STREAMS)
        assert second is first  # same frozen result object = cache hit

    def test_clear_forces_recomputation(self):
        first = processor_demand_test(STREAMS)
        clear_demand_cache()
        second = processor_demand_test(STREAMS)
        assert second is not first
        assert second == first

    def test_horizon_is_part_of_the_key(self):
        default = processor_demand_test(STREAMS)
        bounded = processor_demand_test(STREAMS, horizon=2.0)
        assert bounded is not default

    def test_extra_demand_bypasses_cache(self):
        plain = processor_demand_test(STREAMS)
        with_extra = processor_demand_test(
            STREAMS, extra_demand=lambda t: 0.05 * t
        )
        # the extra-demand result is not cached in either direction
        assert with_extra is not plain
        assert processor_demand_test(STREAMS) is plain

    def test_infeasible_results_cached_too(self):
        first = processor_demand_test(INFEASIBLE)
        assert not first.feasible
        assert processor_demand_test(INFEASIBLE) is first

    def test_streams_accepts_any_iterable(self):
        as_gen = processor_demand_test(tuple(STREAMS))
        as_list = processor_demand_test(STREAMS)
        assert as_gen is as_list


class TestQPACache:
    def test_repeat_call_returns_cached_object(self):
        first = qpa_test(STREAMS)
        assert qpa_test(STREAMS) is first

    def test_clear_forces_recomputation(self):
        first = qpa_test(STREAMS)
        clear_qpa_cache()
        second = qpa_test(STREAMS)
        assert second is not first
        assert second == first

    def test_invalid_streams_raise_and_are_not_cached(self):
        with pytest.raises(ValueError):
            qpa_test([(0.1, -1.0, 1.0)])
        with pytest.raises(ValueError):
            qpa_test([(0.1, -1.0, 1.0)])

    def test_agrees_with_demand_test_through_caches(self):
        assert qpa_test(STREAMS).feasible == processor_demand_test(
            STREAMS
        ).feasible
        assert qpa_test(INFEASIBLE).feasible == processor_demand_test(
            INFEASIBLE
        ).feasible
