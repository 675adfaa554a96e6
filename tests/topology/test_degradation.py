"""Metamorphic degradation tests for the routed decision manager.

Killing a server (tripping its breaker) must never increase the routed
optimum and must never route a task to the dead server — even when the
dead server was the *only* one offering the task (it falls back local).
Recovering the breaker (open → half_open → closed) on an unchanged
instance must restore the original decision bit-for-bit, served from
the solver cache.
"""

import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.task import OffloadableTask, TaskSet
from repro.knapsack import SolverCache
from repro.core.odm import OffloadingDecisionManager


def _task(task_id, wcet=0.15, period=1.0):
    return OffloadableTask(
        task_id=task_id,
        wcet=wcet,
        period=period,
        setup_time=0.02,
        compensation_time=wcet,
        post_time=0.005,
        benefit=BenefitFunction([BenefitPoint(0.0, 1.0)]),
    )


def _fn(pairs):
    return BenefitFunction(
        [BenefitPoint(0.0, 1.0)]
        + [BenefitPoint(r, v) for r, v in pairs]
    )


@pytest.fixture
def tasks():
    return TaskSet([_task("a"), _task("b"), _task("c")])


@pytest.fixture
def benefits():
    """edge dominates for a and b; cloud offers a fallback for a and b
    and is the only server carrying c."""
    return {
        "edge": {
            "a": _fn([(0.1, 8.0)]),
            "b": _fn([(0.1, 6.0)]),
        },
        "cloud": {
            "a": _fn([(0.4, 5.0)]),
            "b": _fn([(0.4, 4.0)]),
            "c": _fn([(0.4, 5.0)]),
        },
    }


def _window(manager, window, outcomes):
    """Close one health window after counting per-server
    ``(successes, failures)`` outcomes; returns the breaker states."""
    for server_id, (successes, failures) in outcomes.items():
        manager.health.record(server_id, successes, failures)
    return manager.health.close_window(window)


def _trip(manager, server_id):
    breaker = manager.health.breaker(server_id)
    _window(manager, 0, {server_id: (0, breaker.min_samples)})
    assert breaker.state == "open"


class TestKill:
    def test_killing_a_server_reroutes_and_never_gains(
        self, tasks, benefits
    ):
        manager = OffloadingDecisionManager("dp", resolution=1_000)
        baseline = manager.decide(tasks, benefits)
        assert baseline.server_of("a") == "edge"
        assert not baseline.degraded

        _trip(manager, "edge")
        degraded = manager.decide(tasks, benefits)
        assert degraded.pruned_servers == ("edge",)
        assert degraded.degraded
        assert all(
            server != "edge"
            for server, r in degraded.placements.values()
            if r > 0
        )
        # a and b fall back to the slower cloud, not to local
        assert degraded.server_of("a") == "cloud"
        assert degraded.server_of("b") == "cloud"
        assert (
            degraded.expected_benefit
            <= baseline.expected_benefit + 1e-9
        )

    def test_task_of_a_dead_only_server_goes_local(
        self, tasks, benefits
    ):
        manager = OffloadingDecisionManager("dp", resolution=1_000)
        baseline = manager.decide(tasks, benefits)
        assert baseline.server_of("c") == "cloud"

        _trip(manager, "cloud")
        degraded = manager.decide(tasks, benefits)
        # cloud was the only server offering c — it must not be
        # admitted anywhere, it runs locally
        assert degraded.placements["c"] == (None, 0.0)

    def test_all_servers_dead_is_the_local_only_reduction(
        self, tasks, benefits
    ):
        manager = OffloadingDecisionManager("dp", resolution=1_000)
        # one window that fails both servers at once (tripping them in
        # separate windows would tick the first breaker's cooldown)
        n = manager.health.breaker("edge").min_samples
        states = _window(manager, 0, {"edge": (0, n), "cloud": (0, n)})
        assert states == {"edge": "open", "cloud": "open"}
        decision = manager.decide(tasks, benefits)
        assert set(decision.pruned_servers) == {"edge", "cloud"}
        assert all(
            placement == (None, 0.0)
            for placement in decision.placements.values()
        )
        # all-local benefit: every task at its G_i(0) = 1.0
        assert decision.expected_benefit == pytest.approx(3.0)
        assert decision.schedulability.feasible


class TestRecovery:
    def test_recovery_restores_the_decision_bit_for_bit(
        self, tasks, benefits
    ):
        manager = OffloadingDecisionManager(
            "dp", cache=SolverCache(), resolution=1_000
        )
        baseline = manager.decide(tasks, benefits)
        breaker = manager.health.breaker("edge")
        _trip(manager, "edge")
        degraded = manager.decide(tasks, benefits)
        assert degraded.placements != baseline.placements

        # open -> half_open after the cooldown window, then a clean
        # probe window closes the breaker again
        _window(manager, 1, {})
        assert breaker.state == "half_open"
        assert "edge" not in manager.health.open_servers
        _window(manager, 2, {"edge": (breaker.min_samples, 0)})
        assert breaker.state == "closed"

        hits_before = manager.cache.hits
        recovered = manager.decide(tasks, benefits)
        assert recovered.placements == baseline.placements
        assert (
            recovered.expected_benefit == baseline.expected_benefit
        )
        assert (
            recovered.total_demand_rate
            == baseline.total_demand_rate
        )
        assert recovered.pruned_servers == ()
        # the unchanged instance was served from the solver cache
        assert manager.cache.hits > hits_before

    def test_half_open_probe_is_not_pruned(self, tasks, benefits):
        manager = OffloadingDecisionManager("dp", resolution=1_000)
        _trip(manager, "edge")
        _window(manager, 1, {})
        decision = manager.decide(tasks, benefits)
        # half_open allows probing: edge routes again
        assert decision.pruned_servers == ()
        assert decision.server_of("a") == "edge"

    def test_record_window_reports_states(self, tasks, benefits):
        manager = OffloadingDecisionManager("dp")
        breaker = manager.health.breaker("edge")
        states = _window(
            manager,
            0,
            {"edge": (0, breaker.min_samples), "cloud": (3, 0)},
        )
        assert states == {"edge": "open", "cloud": "closed"}
        assert manager.health.open_servers == ("edge",)
        # absent servers still tick: the open breaker cools down
        states = _window(manager, 1, {})
        assert states["edge"] == "half_open"
