"""Extension — adaptive re-estimation recovery curve.

Not a paper artifact: quantifies the architecture's feedback loop
(DESIGN.md §5).  Starting from response-time beliefs 2.5x too
optimistic on the not-busy server, the windowed observe-and-correct
loop must recover the server return rate while never missing a
deadline.
"""

from dataclasses import replace

import pytest

from repro.core.benefit import scale_response_times
from repro.core.task import TaskSet
from repro.runtime.adaptive import AdaptiveOffloadingSystem
from repro.vision.tasks import table1_task_set


def _optimistic(factor: float) -> TaskSet:
    return TaskSet(
        replace(task, benefit=scale_response_times(task.benefit, factor))
        for task in table1_task_set()
    )


@pytest.mark.benchmark(group="extension-adaptive")
def test_bench_adaptive_recovery(once):
    system = AdaptiveOffloadingSystem(
        _optimistic(1 / 2.5), scenario="not_busy", seed=3, window=10.0
    )
    report = once(system.run, num_windows=6)

    print()
    print("adaptive recovery (beliefs initially 2.5x optimistic):")
    print(f"{'window':>6} {'returned':>9} {'compensated':>12} "
          f"{'benefit':>9} {'misses':>7}")
    for w in report.windows:
        print(
            f"{w.window:>6} {w.return_rate:>8.0%} "
            f"{w.compensation_rate:>11.0%} {w.realized_benefit:>9.0f} "
            f"{w.deadline_misses:>7}"
        )

    assert all(w.deadline_misses == 0 for w in report.windows)
    first, last = report.windows[0], report.windows[-1]
    assert last.return_rate > first.return_rate
    assert last.realized_benefit > first.realized_benefit
    assert last.compensation_rate < first.compensation_rate
