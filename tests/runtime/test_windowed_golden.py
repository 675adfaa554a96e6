"""Golden digests of the windowed runtimes' output.

The chaos (breaker) loop and the adaptive (belief) loop re-decide every
window.  Each run below is reduced to a digest of its window records
(every field by its ``repr``, so floats are pinned to the last bit),
plus the breaker's transitions, trips and recoveries, and one observed
chaos run's whole bus event stream with ``wall_seconds`` removed.  Any
change to a decision, a seed derivation or the per-window simulation
moves a digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.benefit import scale_response_times
from repro.core.task import TaskSet
from repro.faults.chaos import (
    FAULT_PROFILES,
    build_profile_schedule,
    run_chaos,
)
from repro.observability import Observability
from repro.runtime import AdaptiveOffloadingSystem, ResilientOffloadingSystem
from repro.vision.tasks import table1_task_set

CHAOS_FIELDS = (
    "window", "state", "response_times", "offloaded", "returned",
    "compensated", "realized_benefit", "expected_benefit",
    "deadline_misses", "failure_rate",
)
ADAPTIVE_FIELDS = (
    "window", "response_times", "expected_benefit", "realized_benefit",
    "return_rate", "compensation_rate", "deadline_misses",
    "correction_factors",
)

#: (profile, num_windows, window) -> digest of ``run_chaos(seed=0)``;
#: 6 x 2 s is ``repro chaos --short``, 8 x 4 s the default length
CHAOS = {
    ("outage", 6, 2.0): "65d994c86383c3bc",
    ("outage", 8, 4.0): "d4276b7c7fb6aa21",
    ("partition", 6, 2.0): "65d994c86383c3bc",
    ("partition", 8, 4.0): "d4276b7c7fb6aa21",
    ("storm", 6, 2.0): "65d994c86383c3bc",
    ("storm", 8, 4.0): "d4276b7c7fb6aa21",
    ("flaky", 6, 2.0): "65d994c86383c3bc",
    ("flaky", 8, 4.0): "d4276b7c7fb6aa21",
    ("random", 6, 2.0): "5e2ca33aa3ff1a54",
    ("random", 8, 4.0): "48ade282e457910e",
}

#: (belief scale, seed) -> digest of the ``repro adaptive`` run
ADAPTIVE = {
    (1.0, 0): "0b0f351aac39e835",
    (0.4, 0): "c4308cbaf0f3ae3f",
    (0.4, 3): "1d3c30d529a2064f",
}

#: observed chaos run (random profile, seed 11, 5 x 3 s): event stream
OBSERVED_CHAOS = "2e201480fb502f6b"


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _canonical(value) -> str:
    if isinstance(value, dict):
        return repr(sorted(value.items()))
    return repr(value)


def _windows_digest(windows, fields, extra=()) -> str:
    lines = [
        " ".join(_canonical(getattr(w, name)) for name in fields)
        for w in windows
    ]
    lines.extend(repr(item) for item in extra)
    return _digest("\n".join(lines))


def chaos_digest(profile: str, num_windows: int, window: float) -> str:
    report = run_chaos(
        seed=0, profile=profile, num_windows=num_windows, window=window
    ).resilience
    return _windows_digest(
        report.windows,
        CHAOS_FIELDS,
        (report.transitions, report.trips, report.recoveries),
    )


def adaptive_digest(belief_scale: float, seed: int) -> str:
    """``repro [--seed S] adaptive --belief-scale B`` at its defaults."""
    beliefs = TaskSet(
        replace(t, benefit=scale_response_times(t.benefit, belief_scale))
        for t in table1_task_set()
    )
    report = AdaptiveOffloadingSystem(
        beliefs, scenario="not_busy", seed=seed, window=10.0
    ).run(num_windows=5)
    return _windows_digest(report.windows, ADAPTIVE_FIELDS)


def observed_chaos_digest() -> str:
    obs = Observability.enabled(capacity=None)
    ResilientOffloadingSystem(
        table1_task_set(),
        scenario="idle",
        seed=11,
        window=3.0,
        fault_schedule=build_profile_schedule("random", 15.0, seed=11),
        observability=obs,
    ).run(num_windows=5)
    records = []
    for line in obs.bus.to_jsonl().splitlines():
        record = json.loads(line)
        record.pop("wall_seconds", None)
        records.append(json.dumps(record, sort_keys=True))
    return _digest("\n".join(records))


def test_every_profile_is_pinned():
    assert {key[0] for key in CHAOS} == set(FAULT_PROFILES)


@pytest.mark.parametrize("key", sorted(CHAOS), ids=str)
def test_chaos_windows_are_pinned(key):
    assert chaos_digest(*key) == CHAOS[key]


@pytest.mark.parametrize("key", sorted(ADAPTIVE), ids=str)
def test_adaptive_windows_are_pinned(key):
    assert adaptive_digest(*key) == ADAPTIVE[key]


def test_observed_chaos_event_stream_is_pinned():
    assert observed_chaos_digest() == OBSERVED_CHAOS
