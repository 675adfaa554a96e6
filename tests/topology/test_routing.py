"""Unit tests for routed decisions of the one decision manager."""

import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.odm import OffloadingDecision, OffloadingDecisionManager
from repro.core.task import OffloadableTask, Task, TaskSet
from repro.knapsack import SolverCache
from repro.runtime.health import BreakerBank


def _task(task_id="m", wcet=0.2, period=1.0, **kwargs):
    defaults = dict(
        setup_time=0.02,
        compensation_time=wcet,
        post_time=0.005,
        benefit=BenefitFunction([BenefitPoint(0.0, 1.0)]),
    )
    defaults.update(kwargs)
    return OffloadableTask(
        task_id=task_id, wcet=wcet, period=period, **defaults
    )


def _fn(pairs, local=1.0):
    return BenefitFunction(
        [BenefitPoint(0.0, local)]
        + [BenefitPoint(r, v) for r, v in pairs]
    )


def _window(manager, window, outcomes):
    """Close one health window after counting per-server
    ``(successes, failures)`` outcomes; returns the breaker states."""
    for server_id, (successes, failures) in outcomes.items():
        manager.health.record(server_id, successes, failures)
    return manager.health.close_window(window)


def _benefits():
    return {
        "edge": {"m": _fn([(0.1, 8.0)])},
        "cloud": {"m": _fn([(0.4, 5.0)])},
    }


class TestConstruction:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            OffloadingDecisionManager("nope")

    def test_cache_spellings(self):
        assert OffloadingDecisionManager("dp").cache is None
        assert OffloadingDecisionManager("dp", cache=False).cache is None
        assert isinstance(
            OffloadingDecisionManager("dp", cache=True).cache, SolverCache
        )
        # an explicitly passed (empty, hence falsy) cache is used as-is
        cache = SolverCache()
        assert OffloadingDecisionManager("dp", cache=cache).cache is cache

    def test_breaker_kwargs_honoured(self):
        manager = OffloadingDecisionManager("dp")
        manager.health = BreakerBank(min_samples=1)
        assert manager.health.breaker("s").min_samples == 1
        # created once, then reused
        assert manager.health.breaker("s") is manager.health.breaker("s")

    def test_cache_stats(self):
        assert OffloadingDecisionManager("dp").cache_stats() is None
        manager = OffloadingDecisionManager(
            "dp", cache=True, resolution=500
        )
        manager.decide(TaskSet([_task()]), _benefits())
        stats = manager.cache_stats()
        assert set(stats) == {
            "hits", "misses", "near_hits", "hits_local",
            "hits_replicated", "replicated_in",
            "replicated_states_in", "entries", "delta_states",
        }
        assert stats["misses"] == 1


class TestDecide:
    def test_routes_to_the_best_server(self):
        decision = OffloadingDecisionManager(
            "dp", resolution=1_000
        ).decide(TaskSet([_task()]), _benefits())
        assert isinstance(decision, OffloadingDecision)
        assert decision.server_of("m") == "edge"
        assert decision.response_times["m"] == pytest.approx(0.1)
        assert decision.routes == {"m": "edge"}
        assert decision.pruned_servers == ()
        assert not decision.degraded
        assert decision.schedulability.feasible

    def test_plain_tasks_stay_local(self):
        tasks = TaskSet([_task(), Task("plain", 0.1, 1.0)])
        decision = OffloadingDecisionManager(
            "dp", resolution=1_000
        ).decide(tasks, _benefits())
        assert decision.placements["plain"] == (None, 0.0)

    def test_server_bound_unlocks_guaranteed_offload(self):
        """A point only feasible under the chosen server's §3 bound:
        compensation cannot fit the slack, post-processing can."""
        task = _task(compensation_time=0.9, wcet=0.2)
        benefits = {"cloud": {"m": _fn([(0.5, 9.0)])}}
        manager = OffloadingDecisionManager("dp", resolution=1_000)
        # without the bound the offload point is structurally
        # infeasible (0.02 + 0.9 > 0.5 slack): the task stays local
        unbounded = manager.decide(TaskSet([task]), benefits)
        assert unbounded.placements["m"] == (None, 0.0)
        # with the cloud guaranteeing r=0.5, the second phase budgets
        # post_time and the offload becomes feasible and optimal
        bounded = manager.decide(
            TaskSet([task]), benefits, {"cloud": {"m": 0.5}}
        )
        assert bounded.server_of("m") == "cloud"
        assert bounded.expected_benefit == pytest.approx(9.0)
        assert bounded.total_demand_rate == pytest.approx(
            (0.02 + 0.005) / 0.5
        )
        assert bounded.schedulability.feasible

    def test_open_breaker_prunes_the_server(self):
        manager = OffloadingDecisionManager("dp", resolution=1_000)
        breaker = manager.health.breaker("edge")
        breaker.record_window(0, 0, breaker.min_samples)
        decision = manager.decide(TaskSet([_task()]), _benefits())
        assert decision.pruned_servers == ("edge",)
        assert decision.server_of("m") == "cloud"

    def test_record_window_creates_breakers_for_new_servers(self):
        manager = OffloadingDecisionManager("dp")
        assert manager.health.breakers == {}
        states = _window(manager, 0, {"edge": (3, 0)})
        assert states == {"edge": "closed"}
        assert "edge" in manager.health.breakers
        assert manager.health.open_servers == ()
