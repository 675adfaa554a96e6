"""Discrete benefit functions ``G_i(r_i)`` (paper §3.2).

A benefit function captures the value of offloading task ``τ_i`` when the
estimated worst-case response time is set to ``r_i``.  The paper requires:

* ``G_i`` is non-decreasing in ``r_i``;
* it changes value at only a fixed number of points (it is *discretized*);
* ``r_{i,1} = 0`` and ``G_i(0)`` stores the benefit of pure local
  execution (offloading disabled);
* ``r_{i,j} > 0`` for ``j > 1``.

This module represents such a function as an explicit list of
:class:`BenefitPoint` entries.  Each point may optionally carry
level-specific setup/compensation times ``C^j_{i,1}``/``C^j_{i,2}`` — the
extension the paper introduces at the end of §5.2 and uses for the case
study, where a larger image (higher benefit) also costs more to prepare
and to compensate.

Typical benefit semantics (both appear in the paper's evaluation):

* the *probability* that the unreliable component returns the result
  within ``r_i`` (Figure 3's simulation), built by
  :meth:`BenefitFunction.from_samples`;
* a *quality index* such as PSNR of the image size that fits within
  ``r_i`` (Table 1's case study).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["BenefitPoint", "BenefitFunction", "scale_response_times"]


@dataclass(frozen=True)
class BenefitPoint:
    """One discretization point ``(r_{i,j}, G_i(r_{i,j}))``.

    ``setup_time``/``compensation_time`` are optional per-level overrides
    ``C^j_{i,1}``/``C^j_{i,2}``; when ``None`` the task-level defaults
    apply.  The local point (``response_time == 0``) never uses them.

    ``energy`` is an optional expected client-side energy cost (joules)
    of running the task once at this level: local compute energy for the
    ``r=0`` point, transmit + listen + expected-compensation energy for
    offload points.  ``None`` means "not modeled"; the scenario layer
    (:mod:`repro.scenarios.energy`) fills it in and energy-aware
    objectives read it back.  It never affects schedulability.
    """

    response_time: float
    benefit: float
    setup_time: Optional[float] = None
    compensation_time: Optional[float] = None
    label: str = ""
    energy: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.response_time):
            raise ValueError(
                f"response time must be finite, got {self.response_time}"
            )
        if not math.isfinite(self.benefit):
            raise ValueError(f"benefit must be finite, got {self.benefit}")
        if self.response_time < 0:
            raise ValueError(f"negative response time {self.response_time}")
        if self.setup_time is not None and self.setup_time < 0:
            raise ValueError(f"negative setup time {self.setup_time}")
        if self.compensation_time is not None and self.compensation_time < 0:
            raise ValueError(
                f"negative compensation time {self.compensation_time}"
            )
        if self.energy is not None:
            if not math.isfinite(self.energy):
                raise ValueError(f"energy must be finite, got {self.energy}")
            if self.energy < 0:
                raise ValueError(f"negative energy {self.energy}")

    @property
    def is_local(self) -> bool:
        """True for the ``r_{i,1} = 0`` point (execute locally)."""
        return self.response_time == 0.0


class BenefitFunction:
    """A validated, non-decreasing, discretized benefit function.

    Construction enforces the paper's structural requirements; violations
    raise ``ValueError`` immediately rather than corrupting a later MCKP
    instance.
    """

    def __init__(self, points: Iterable[BenefitPoint]) -> None:
        pts = sorted(points, key=lambda p: p.response_time)
        if not pts:
            raise ValueError("a benefit function needs at least one point")
        if pts[0].response_time != 0.0:
            raise ValueError(
                "the first benefit point must be r=0 (local execution); "
                f"got r={pts[0].response_time}"
            )
        for earlier, later in zip(pts, pts[1:]):
            if later.response_time == earlier.response_time:
                raise ValueError(
                    f"duplicate response time {later.response_time}"
                )
            if later.benefit < earlier.benefit:
                raise ValueError(
                    "benefit function must be non-decreasing: "
                    f"G({later.response_time})={later.benefit} < "
                    f"G({earlier.response_time})={earlier.benefit}"
                )
        self._points: Tuple[BenefitPoint, ...] = tuple(pts)
        self._times: List[float] = [p.response_time for p in pts]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple[float, float]],
        local_benefit: Optional[float] = None,
    ) -> "BenefitFunction":
        """Build from ``(response_time, benefit)`` pairs.

        If no pair has ``response_time == 0`` a local point is inserted
        with ``local_benefit`` (default: 0).
        """
        points = [BenefitPoint(r, g) for r, g in pairs]
        if not any(p.is_local for p in points):
            points.append(BenefitPoint(0.0, local_benefit or 0.0))
        return cls(points)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[float],
        response_times: Sequence[float],
        local_benefit: float = 0.0,
    ) -> "BenefitFunction":
        """Empirical success-probability benefit from response-time samples.

        ``G(r)`` is the fraction of observed server response times that
        were ``<= r`` — exactly the "probability to get computation results
        within response time r_i" semantics of §3.2 — evaluated at the
        candidate ``response_times``.
        """
        if not samples:
            raise ValueError("need at least one sample")
        data = sorted(samples)
        n = len(data)
        points = [BenefitPoint(0.0, local_benefit, label="local")]
        for r in sorted(set(response_times)):
            if r <= 0:
                continue
            frac = bisect.bisect_right(data, r) / n
            points.append(BenefitPoint(r, max(frac, local_benefit)))
        return cls(points)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def points(self) -> Tuple[BenefitPoint, ...]:
        return self._points

    @property
    def num_points(self) -> int:
        """``Q_i`` — the number of discretization points including r=0."""
        return len(self._points)

    @property
    def local_benefit(self) -> float:
        """``G_i(0)`` — the benefit of executing locally."""
        return self._points[0].benefit

    @property
    def max_benefit(self) -> float:
        return self._points[-1].benefit

    @property
    def response_times(self) -> Tuple[float, ...]:
        """All ``r_{i,j}`` in increasing order (first is always 0)."""
        return tuple(self._times)

    def value(self, r: float) -> float:
        """Evaluate the step function ``G_i(r)``.

        The function is right-continuous in the natural sense for a
        non-decreasing step function defined by its points: the value at
        ``r`` is the benefit of the largest point with
        ``response_time <= r``.
        """
        if r < 0:
            raise ValueError(f"negative response time {r}")
        idx = bisect.bisect_right(self._times, r) - 1
        return self._points[idx].benefit

    def point_at(self, r: float) -> BenefitPoint:
        """Return the exact point with ``response_time == r``.

        Raises ``KeyError`` when ``r`` is not a discretization point.
        """
        idx = bisect.bisect_left(self._times, r)
        if idx == len(self._times) or self._times[idx] != r:
            raise KeyError(f"{r} is not a discretization point")
        return self._points[idx]

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def scaled(self, accuracy_ratio: float) -> "BenefitFunction":
        """Apply the estimation error model of §6.2: use ``G((1+x)·r)``.

        With accuracy ratio ``x`` the estimator believes the benefit at
        ``r`` is the true benefit at ``(1+x)·r``:

        * ``x < 0`` (response time under-estimated) ⇒ the success
          probability at each candidate ``r`` is *over*-estimated;
        * ``x > 0`` ⇒ it is *under*-estimated.

        The candidate response times themselves are unchanged — only the
        benefit values the decision manager *believes* are perturbed.
        """
        if accuracy_ratio <= -1.0:
            raise ValueError("accuracy ratio must be > -1")
        if accuracy_ratio == 0.0:
            # G((1+0)·r) == G(r) and the function is immutable.
            return self
        factor = 1.0 + accuracy_ratio
        times = self._times
        points = self._points
        # One pass: look up the believed value and keep the running max
        # (monotonicity is guaranteed mathematically; the max guards
        # against float noise and collapses any decreases).
        running = points[0].benefit
        fixed = [points[0]]
        for p in points[1:]:
            idx = bisect.bisect_right(times, p.response_time * factor) - 1
            believed = points[idx].benefit
            if believed > running:
                running = believed
            if running == p.benefit:
                fixed.append(p)
            else:
                fixed.append(
                    BenefitPoint(
                        p.response_time, running, p.setup_time,
                        p.compensation_time, p.label, p.energy,
                    )
                )
        # Response times are untouched and the running max keeps values
        # non-decreasing, so the construction-time validation would be
        # re-proving what the loop just established.
        scaled = BenefitFunction.__new__(BenefitFunction)
        scaled._points = tuple(fixed)
        scaled._times = list(times)
        return scaled

    def weighted(self, weight: float) -> "BenefitFunction":
        """Return a copy with every benefit multiplied by ``weight`` ≥ 0."""
        if weight < 0:
            raise ValueError("weight must be non-negative")
        return BenefitFunction(
            BenefitPoint(
                p.response_time,
                p.benefit * weight,
                p.setup_time,
                p.compensation_time,
                p.label,
                p.energy,
            )
            for p in self._points
        )

    def truncated(self, max_response_time: float) -> "BenefitFunction":
        """Drop points with ``response_time > max_response_time``.

        Used to pre-filter points that can never be feasible, e.g. those
        with ``r_{i,j} >= D_i`` (the split-deadline formula needs
        ``D_i − R_i > 0``).
        """
        kept = [p for p in self._points if p.response_time <= max_response_time]
        return BenefitFunction(kept)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BenefitFunction):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"({p.response_time:.4g}->{p.benefit:.4g})" for p in self._points
        )
        return f"BenefitFunction[{inner}]"


def scale_response_times(
    fn: BenefitFunction, factor: float
) -> BenefitFunction:
    """Stretch every non-local candidate ``r_{i,j}`` by ``factor``.

    The one response-time stretch: the service scales by a request's
    per-server estimate, the adaptive runtime by its learned correction.
    The local ``r = 0`` point is untouched (local execution does not
    depend on any server).  ``factor`` must be positive; 1.0 returns the
    function unchanged.  Scaling is monotone, so ordering and the
    non-decreasing benefit values survive and construction re-validation
    cannot fail.
    """
    if factor <= 0:
        raise ValueError(f"estimate scale must be positive, got {factor}")
    if factor == 1.0:
        return fn
    return BenefitFunction(
        p
        if p.is_local
        else BenefitPoint(
            p.response_time * factor,
            p.benefit,
            p.setup_time,
            p.compensation_time,
            p.label,
            p.energy,
        )
        for p in fn.points
    )
