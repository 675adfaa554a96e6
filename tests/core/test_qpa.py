"""QPA tests: agreement with the forward demand scan and with an exact
rational oracle, and efficiency."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dbf import demand_horizon, processor_demand_test
from repro.core.qpa import qpa_test


class TestKnownCases:
    def test_empty_feasible(self):
        assert qpa_test([]).feasible

    def test_single_feasible_stream(self):
        assert qpa_test([(0.5, 1.0, 1.0)]).feasible

    def test_overload_detected(self):
        result = qpa_test([(0.8, 1.0, 1.0), (0.8, 1.0, 1.0)])
        assert not result.feasible
        assert result.demand > result.critical_time

    def test_tight_boundary_feasible(self):
        assert qpa_test([(0.5, 1.0, 1.0), (0.5, 1.0, 1.0)]).feasible

    def test_constrained_deadline_violation(self):
        result = qpa_test([(0.3, 1.0, 0.3), (0.3, 1.0, 0.3)])
        assert not result.feasible
        assert result.critical_time == pytest.approx(0.3)

    def test_zero_wcet_streams_ignored(self):
        assert qpa_test([(0.0, 1.0, 0.5)]).feasible

    def test_invalid_stream_rejected(self):
        with pytest.raises(ValueError):
            qpa_test([(0.1, 0.0, 0.5)])


class TestAgreementWithForwardScan:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_streams_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        streams = []
        for _ in range(n):
            period = float(rng.uniform(0.2, 2.0))
            deadline = float(rng.uniform(0.3, 1.0)) * period
            wcet = float(rng.uniform(0.05, 0.9)) * deadline
            streams.append((wcet, period, deadline))
        forward = processor_demand_test(streams)
        qpa = qpa_test(streams)
        assert forward.feasible == qpa.feasible, (
            f"disagreement on {streams}: forward={forward}, qpa={qpa}"
        )

    def test_qpa_visits_fewer_points_on_long_busy_periods(self):
        """QPA's jump step skips flat dbf regions the forward scan
        visits one by one (same horizon for a fair count)."""
        streams = [
            (0.14, 0.4, 0.4),
            (0.18, 0.7, 0.7),
            (0.22, 1.1, 1.1),
            (0.15, 1.3, 1.3),
        ]
        horizon = 40.0
        forward = processor_demand_test(streams, horizon=horizon)
        qpa = qpa_test(streams, horizon=horizon)
        assert forward.feasible and qpa.feasible
        assert qpa.checkpoints_tested < forward.checkpoints_tested


def seeded_streams(n, seed):
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(n):
        period = float(rng.uniform(0.1, 3.0))
        deadline = float(rng.uniform(0.2, 1.0)) * period
        wcet = float(rng.uniform(0.01, 1.0)) * deadline
        streams.append((wcet, period, deadline))
    return streams


def exact_feasible(streams):
    """EDF feasibility of the streams' float values as exact rationals:
    ``U <= 1`` and ``dbf(t) <= t`` at every step point below the
    busy-period bound ``Σ(T−D)·U/(1−U)``."""
    exact = [(Fraction(w), Fraction(p), Fraction(d)) for w, p, d in streams]
    utilization = sum(w / p for w, p, _ in exact)
    assert utilization != 1, "the oracle needs U != 1"
    if utilization > 1:
        return False
    bound = sum((p - d) * w / p for w, p, d in exact) / (1 - utilization)
    points = set()
    for _, p, d in exact:
        k = 0
        while d + k * p <= bound:
            points.add(d + k * p)
            k += 1
    return all(
        sum(((t - d) // p + 1) * w for w, p, d in exact if t >= d) <= t
        for t in points
    )


@given(
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(n=4, seed=2371)  # the tests disagreed: missed checkpoint job
@example(n=2, seed=528)  # both missed the job at D2 + T2
@example(n=2, seed=4139)  # U = 1.0109: both accepted an overload
@settings(max_examples=40, deadline=None)
def test_qpa_agrees_property(n, seed):
    streams = seeded_streams(n, seed)
    assert (
        qpa_test(streams).feasible
        == processor_demand_test(streams).feasible
    )


@pytest.mark.parametrize("n, seed", [(4, 2371), (2, 528), (2, 4139)])
def test_both_tests_match_the_exact_rational_oracle(n, seed):
    """Both "exact" tests give the exact verdict: a missed job at a
    checkpoint, a too-short horizon or an accepted overload each made
    them call infeasible sets feasible."""
    streams = seeded_streams(n, seed)
    assert not exact_feasible(streams)
    assert not processor_demand_test(streams).feasible
    assert not qpa_test(streams).feasible


def test_both_tests_match_the_oracle_on_a_seeded_grid():
    for n in range(1, 5):
        for seed in range(250):
            streams = seeded_streams(n, seed)
            expected = exact_feasible(streams)
            assert processor_demand_test(streams).feasible == expected, (
                n, seed)
            assert qpa_test(streams).feasible == expected, (n, seed)


@pytest.mark.parametrize(
    "streams, overloaded",
    [
        ([(1 / 3, 1.0, 1.0)] * 3, False),  # U = 1 - 2**-54 as a rational
        ([(0.1, 0.3, 0.3)] * 3, True),  # U = 1 + 1.1e-16 as a rational
    ],
)
def test_float_full_utilization_scans_a_short_window(streams, overloaded):
    """A float ``U`` one rounding step from 1 must not size the scan by
    ``1/|1−U|`` (about 1e16 checkpoints, which hangs both tests); the
    horizon is checked first so a regression fails instead of hanging."""
    horizon, is_overloaded = demand_horizon(streams)
    assert horizon < 10.0
    assert is_overloaded == overloaded
    forward = processor_demand_test(streams)
    qpa = qpa_test(streams)
    assert forward.feasible == qpa.feasible == (not overloaded)
    assert forward.checkpoints_tested < 20
    assert qpa.checkpoints_tested < 20
