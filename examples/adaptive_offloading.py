#!/usr/bin/env python
"""Adaptive re-estimation: recovering from a wrong server estimate.

Figure 3 of the paper shows how much benefit a wrong response-time
estimate costs.  This example runs the architecture's natural fix: the
Benefit and Response Time Estimator observes every offloaded job, so
between 10-second windows the system corrects its believed response
times and re-runs the Offloading Decision Manager.

Starting from beliefs 2.5x too optimistic on a moderately loaded
server, watch the compensation rate collapse and the realized benefit
climb — while (this being the whole point of the mechanism) not one
deadline is ever missed, even in the badly mis-estimated first window.

Run:  python examples/adaptive_offloading.py
"""

from dataclasses import replace

from repro.core.benefit import scale_response_times
from repro.core.task import TaskSet
from repro.runtime.adaptive import AdaptiveOffloadingSystem
from repro.vision.tasks import table1_task_set


def optimistic_beliefs(factor: float) -> TaskSet:
    """The Table 1 task set with response times scaled by ``factor``."""
    return TaskSet(
        replace(task, benefit=scale_response_times(task.benefit, factor))
        for task in table1_task_set()
    )


def main() -> None:
    print("initial beliefs: server 2.5x faster than it actually is\n")
    system = AdaptiveOffloadingSystem(
        optimistic_beliefs(1 / 2.5),
        scenario="not_busy",
        seed=3,
        window=10.0,
    )
    report = system.run(num_windows=6)

    print(f"{'window':>6} {'returned':>9} {'compensated':>12} "
          f"{'benefit':>9} {'misses':>7}  corrections")
    for w in report.windows:
        corrections = ", ".join(
            f"{tid}x{f:.2f}" for tid, f in sorted(
                w.correction_factors.items()
            )
        ) or "-"
        print(
            f"{w.window:>6} {w.return_rate:>8.0%} "
            f"{w.compensation_rate:>11.0%} {w.realized_benefit:>9.0f} "
            f"{w.deadline_misses:>7}  {corrections}"
        )

    first, last = report.windows[0], report.windows[-1]
    print(
        f"\nreturn rate {first.return_rate:.0%} -> {last.return_rate:.0%}, "
        f"benefit {first.realized_benefit:.0f} -> "
        f"{last.realized_benefit:.0f}, deadline misses always 0."
    )


if __name__ == "__main__":
    main()
