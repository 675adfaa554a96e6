"""The repository's benchmark: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload admit-hot --seed 1 --seconds 20 --trace 0

Workloads: ``admit-hot``, ``admit-churn`` (the online ODM over the
real wire) and ``sim-soak`` (the split-deadline EDF simulation); see
``perfbench/README.md`` for why each exists.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  The last line of standard output is
one JSON object; the lines before it are for people.  The exit code is
nonzero when any output failed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("admit-hot", "admit-churn", "sim-soak")

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("goodput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import admit
    import layers
    import soak
    import stats

    calib_start = stats.calibrate_ms()
    module = soak if args.workload == "sim-soak" else admit
    result = module.run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    calib_end = stats.calibrate_ms()

    outcome = result["outcome"]
    for key, value in result["info"].items():
        print(f"{key}: {value}")
    for problem in result["problems"]:
        print(f"check: {problem}")
    print(f"host.calib_ms: start {calib_start:.2f} end {calib_end:.2f}")
    if args.trace:
        values = dict(result["per_layer"])
        values["host.calib_ms"] = stats.median([calib_start, calib_end])
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _better in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": float(result["end_to_end"][name]), "unit": unit}
            for name, unit in END_TO_END
        }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    correct = outcome.anomalies == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
