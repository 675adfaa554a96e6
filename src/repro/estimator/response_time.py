"""Statistical response-time estimation (paper §3.2, §6.1.2).

The unreliable component provides no worst-case guarantee, but "typically
the average cases or the percentile cases can be provided".  The
estimator here is the "coarse-grained statistic estimation" the case
study uses: collect client-observed response-time samples and expose
empirical percentiles, from which candidate estimated worst-case
response times ``r_{i,j}`` are derived.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["EmpiricalResponseTimes"]


class EmpiricalResponseTimes:
    """An online collection of response-time samples with percentile
    queries.

    Samples may arrive in any order; queries sort lazily.  All quantiles
    use the inclusive linear-interpolation definition (numpy's default),
    which is what a measurement campaign would report.
    """

    def __init__(self, samples: Iterable[float] = ()) -> None:
        self._samples: List[float] = []
        self._sorted = True
        for s in samples:
            self.add(s)

    def add(self, sample: float) -> None:
        if sample < 0:
            raise ValueError(f"negative response-time sample {sample}")
        self._samples.append(float(sample))
        self._sorted = False

    def extend(self, samples: Iterable[float]) -> None:
        for s in samples:
            self.add(s)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        self._ensure_sorted()
        return tuple(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return float(np.mean(self._samples))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of the observed samples."""
        if not self._samples:
            raise ValueError("no samples")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of [0, 100]")
        self._ensure_sorted()
        return float(np.percentile(self._samples, q))

    def success_probability(self, response_time: float) -> float:
        """Empirical ``P(observed ≤ response_time)`` — the §3.2
        probability-style benefit value."""
        if response_time < 0:
            raise ValueError("response time must be non-negative")
        if not self._samples:
            raise ValueError("no samples")
        self._ensure_sorted()
        return bisect.bisect_right(self._samples, response_time) / len(
            self._samples
        )

    def candidate_response_times(
        self, percentiles: Sequence[float] = (50, 75, 90, 95)
    ) -> List[float]:
        """Candidate ``r_{i,j}`` values at the given percentiles.

        Deduplicated and strictly increasing — ready to become benefit
        discretization points.
        """
        values: List[float] = []
        for q in percentiles:
            v = self.percentile(q)
            if not values or v > values[-1] + 1e-12:
                values.append(v)
        return values
