"""Circuit-breaker state machine and resilient-loop tests."""

import pytest

from repro.core.odm import DEFAULT_SERVER
from repro.runtime.health import (
    BreakerBank,
    CircuitBreaker,
    ResilientOffloadingSystem,
)
from repro.faults import FaultSchedule


class TestCircuitBreaker:
    def test_starts_closed(self):
        breaker = CircuitBreaker()
        assert breaker.state == "closed"
        assert breaker.allows_offloading

    def test_trips_on_high_failure_rate(self):
        breaker = CircuitBreaker(failure_threshold=0.5, min_samples=3)
        assert breaker.record_window(0, successes=0, failures=4) == "open"
        assert breaker.trips == 1
        assert not breaker.allows_offloading

    def test_insufficient_evidence_does_not_trip(self):
        breaker = CircuitBreaker(failure_threshold=0.5, min_samples=5)
        assert breaker.record_window(0, successes=0, failures=4) == "closed"
        assert breaker.trips == 0

    def test_cooldown_then_half_open(self):
        breaker = CircuitBreaker(min_samples=2, cooldown_windows=2)
        breaker.record_window(0, successes=0, failures=5)
        assert breaker.state == "open"
        assert breaker.record_window(1, successes=0, failures=0) == "open"
        assert breaker.record_window(2, successes=0, failures=0) == "half_open"
        assert breaker.allows_offloading  # the probe window offloads

    def test_successful_probe_recloses(self):
        breaker = CircuitBreaker(min_samples=2, cooldown_windows=1)
        breaker.record_window(0, successes=0, failures=5)
        breaker.record_window(1, successes=0, failures=0)  # cooldown
        assert breaker.state == "half_open"
        assert breaker.record_window(2, successes=5, failures=0) == "closed"
        assert breaker.recoveries == 1

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(min_samples=2, cooldown_windows=1)
        breaker.record_window(0, successes=0, failures=5)
        breaker.record_window(1, successes=0, failures=0)
        assert breaker.state == "half_open"
        assert breaker.record_window(2, successes=0, failures=5) == "open"
        # silence during a probe also counts as failure to recover
        breaker.record_window(3, successes=0, failures=0)
        assert breaker.state == "half_open"
        assert breaker.record_window(4, successes=0, failures=0) == "open"

    def test_transition_log(self):
        breaker = CircuitBreaker(min_samples=1, cooldown_windows=1)
        breaker.record_window(0, successes=0, failures=3)
        breaker.record_window(1, successes=0, failures=0)
        breaker.record_window(2, successes=3, failures=0)
        assert breaker.transitions == [
            (0, "closed", "open"),
            (1, "open", "half_open"),
            (2, "half_open", "closed"),
        ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(min_samples=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_windows=0)
        with pytest.raises(ValueError):
            CircuitBreaker().record_window(0, successes=-1, failures=0)


class TestCircuitBreakerHalfOpenEdges:
    """Edge transitions of the probe window (half_open) state."""

    def tripped(self, **kwargs):
        kwargs.setdefault("failure_threshold", 0.5)
        kwargs.setdefault("min_samples", 2)
        kwargs.setdefault("cooldown_windows", 1)
        breaker = CircuitBreaker(**kwargs)
        breaker.record_window(0, successes=0, failures=5)
        window = 1
        while breaker.state == "open":  # sit out the cooldown
            breaker.record_window(window, successes=0, failures=0)
            window += 1
        assert breaker.state == "half_open"
        return breaker

    def test_probe_exactly_at_threshold_reopens(self):
        # the threshold is "rate >= threshold trips", so a probe that
        # fails exactly half its offloads under threshold 0.5 is judged
        # failed, not recovered
        breaker = self.tripped()
        assert breaker.record_window(2, successes=2, failures=2) == "open"
        assert breaker.recoveries == 0

    def test_probe_just_below_threshold_recloses(self):
        breaker = self.tripped()
        assert breaker.record_window(2, successes=3, failures=2) == "closed"
        assert breaker.recoveries == 1
        assert breaker.allows_offloading

    def test_probe_without_min_samples_reopens_even_if_clean(self):
        # 1 success < min_samples=2: silence is not recovery evidence
        breaker = self.tripped()
        assert breaker.record_window(2, successes=1, failures=0) == "open"
        assert breaker.recoveries == 0

    def test_failed_probe_pays_the_full_cooldown_again(self):
        breaker = self.tripped(cooldown_windows=2)
        breaker.record_window(3, successes=0, failures=5)  # probe fails
        assert breaker.state == "open"
        assert breaker.record_window(4, successes=0, failures=0) == "open"
        assert (
            breaker.record_window(5, successes=0, failures=0) == "half_open"
        )

    def test_reclose_then_retrip_counts_both(self):
        breaker = self.tripped()
        breaker.record_window(2, successes=5, failures=0)
        assert breaker.state == "closed"
        breaker.record_window(3, successes=0, failures=5)
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert breaker.recoveries == 1

    def test_concurrent_probe_windows_are_independent(self):
        # two servers probing in the same window index: one recovers,
        # one does not — state machines must not interfere
        good = self.tripped()
        bad = self.tripped()
        assert good.record_window(2, successes=5, failures=0) == "closed"
        assert bad.record_window(2, successes=0, failures=5) == "open"
        assert good.transitions[-1] == (2, "half_open", "closed")
        assert bad.transitions[-1] == (2, "half_open", "open")


class TestCircuitBreakerApplyRemote:
    """Gossiped (remote) breaker evidence folding."""

    def test_remote_open_trips_closed_breaker(self):
        breaker = CircuitBreaker(cooldown_windows=1)
        assert breaker.apply_remote("open", window=3) == "open"
        assert breaker.trips == 1
        assert breaker.remote_trips == 1
        assert breaker.transitions == [(3, "closed", "open")]
        # the remote trip sets a real cooldown: open -> half_open later
        assert breaker.record_window(4, successes=0, failures=0) == "half_open"

    def test_remote_open_interrupts_probe(self):
        breaker = CircuitBreaker(min_samples=2, cooldown_windows=1)
        breaker.record_window(0, successes=0, failures=5)
        breaker.record_window(1, successes=0, failures=0)
        assert breaker.state == "half_open"
        assert breaker.apply_remote("open", window=2) == "open"
        assert breaker.remote_trips == 1

    def test_remote_open_on_open_breaker_is_noop(self):
        breaker = CircuitBreaker()
        breaker.apply_remote("open")
        trips = breaker.trips
        assert breaker.apply_remote("open") == "open"
        assert breaker.trips == trips  # no double counting

    def test_remote_closed_recloses_only_a_probing_breaker(self):
        breaker = CircuitBreaker(min_samples=2, cooldown_windows=2)
        breaker.record_window(0, successes=0, failures=5)
        # still in cooldown: a peer's recovery must NOT skip the back-off
        assert breaker.apply_remote("closed", window=1) == "open"
        assert breaker.recoveries == 0
        breaker.record_window(1, successes=0, failures=0)
        breaker.record_window(2, successes=0, failures=0)
        assert breaker.state == "half_open"
        # in the probe window, peer evidence of recovery counts
        assert breaker.apply_remote("closed", window=3) == "closed"
        assert breaker.recoveries == 1

    def test_remote_closed_on_closed_breaker_is_noop(self):
        breaker = CircuitBreaker()
        assert breaker.apply_remote("closed") == "closed"
        assert breaker.transitions == []

    def test_remote_half_open_never_acts(self):
        breaker = CircuitBreaker()
        assert breaker.apply_remote("half_open") == "closed"
        breaker.apply_remote("open")
        assert breaker.apply_remote("half_open") == "open"

    def test_gossiped_state_is_remote_until_local_evidence(self):
        breaker = CircuitBreaker(min_samples=2, cooldown_windows=1)
        assert not breaker.remote
        breaker.apply_remote("open", window=0)
        assert breaker.remote
        breaker.record_window(1, successes=0, failures=0)  # cooldown
        assert breaker.state == "half_open" and breaker.remote
        # the probe's own evidence makes the state local again
        breaker.record_window(2, successes=3, failures=0)
        assert breaker.state == "closed" and not breaker.remote

    def test_unknown_remote_state_rejected(self):
        with pytest.raises(ValueError, match="remote breaker state"):
            CircuitBreaker().apply_remote("exploded")


class TestBreakerBank:
    def test_breakers_created_on_first_use_with_kwargs(self):
        bank = BreakerBank(min_samples=1, cooldown_windows=2)
        assert bank.breakers == {}
        assert bank.state("gpu") == "closed"
        assert bank.breakers == {}  # reading a state creates nothing
        breaker = bank.breaker("gpu")
        assert breaker.min_samples == 1 and breaker.cooldown_windows == 2
        assert bank.breaker("gpu") is breaker

    def test_window_counts_reach_the_breaker_then_reset(self):
        bank = BreakerBank()
        bank.record("gpu", successes=1, failures=2)
        bank.record("gpu", failures=1)
        assert bank.close_window(0) == {"gpu": "open"}
        assert bank.open_servers == ("gpu",)
        # the counts were consumed: a silent window only cools down
        assert bank.close_window(1) == {"gpu": "half_open"}
        assert bank.open_servers == ()

    def test_silent_servers_still_tick(self):
        bank = BreakerBank()
        bank.record("edge", failures=3)
        bank.record("cloud", successes=3)
        assert bank.close_window(0) == {"cloud": "closed", "edge": "open"}
        assert bank.close_window(1) == {
            "cloud": "closed", "edge": "half_open"
        }


class TestResilientOffloadingSystem:
    def test_healthy_run_never_trips(self, table1_tasks):
        system = ResilientOffloadingSystem(
            table1_tasks, scenario="idle", seed=0, window=4.0
        )
        report = system.run(num_windows=3)
        assert report.trips == 0
        assert report.degraded_windows == 0
        assert report.hard_deadline_invariant
        assert all(w.state == "closed" for w in report.windows)

    def test_outage_trips_degrades_and_recovers(self, table1_tasks):
        # crash covers windows 2-3 of 8
        system = ResilientOffloadingSystem(
            table1_tasks,
            scenario="idle",
            seed=0,
            window=4.0,
            fault_schedule=FaultSchedule.outage(8.0, 8.0),
        )
        report = system.run(num_windows=8)
        assert report.hard_deadline_invariant
        assert report.trips == 1
        assert report.recoveries == 1
        # the open window offloads nothing (local-only decision in force)
        degraded = [w for w in report.windows if w.state == "open"]
        assert degraded and all(w.offloaded == 0 for w in degraded)
        assert all(w.failure_rate == 0.0 for w in degraded)
        # the window that tripped the breaker saw only compensations
        tripped = report.transitions[0][0]
        assert report.windows[tripped].failure_rate == 1.0
        assert all(
            r == 0.0 for w in degraded for r in w.response_times.values()
        )
        # offloading is re-admitted and the final window is healthy
        assert report.windows[-1].state == "closed"
        assert report.windows[-1].returned > 0
        assert report.recovery_latency_windows() is not None

    def test_local_only_decision_is_theorem3_verified(self, table1_tasks):
        system = ResilientOffloadingSystem(table1_tasks, seed=0)
        breaker = system.breaker
        breaker.record_window(0, successes=0, failures=breaker.min_samples)
        decision = system.odm.decide(system.tasks)
        assert decision.pruned_servers == (DEFAULT_SERVER,)
        assert decision.schedulability.feasible
        assert all(r == 0.0 for r in decision.response_times.values())

    def test_configured_breaker_is_the_managers(self, table1_tasks):
        breaker = CircuitBreaker(min_samples=1)
        system = ResilientOffloadingSystem(
            table1_tasks, seed=0, breaker=breaker
        )
        assert system.breaker is breaker
        assert system.odm.health.breaker(DEFAULT_SERVER) is breaker

    def test_invalid_parameters_rejected(self, table1_tasks):
        with pytest.raises(ValueError, match="scenario"):
            ResilientOffloadingSystem(table1_tasks, scenario="nope")
        with pytest.raises(ValueError, match="window"):
            ResilientOffloadingSystem(table1_tasks, window=0.0)
        with pytest.raises(ValueError, match="num_windows"):
            ResilientOffloadingSystem(table1_tasks).run(num_windows=0)
