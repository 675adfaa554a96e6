"""Metrics registry: counters, gauges and histograms with JSON/CSV export.

A deliberately small, dependency-free subset of the usual metrics
vocabulary, sized for the offloading runtime:

* :class:`Counter` — monotone accumulator (float-valued, so realized
  benefit can be accumulated exactly like job counts);
* :class:`Gauge` — last-write-wins instantaneous value (utilization,
  breaker state index);
* :class:`Histogram` — reservoir of observations with exact quantiles
  (per-task response times; sample counts here are thousands, not
  millions, so exact quantiles beat bucketed approximations).

Metrics are named ``"group.name"`` with an optional ``labels`` mapping
(``{"task": "sift"}``); the registry key is the name plus the sorted
label items, Prometheus-style.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "percentile"]

LabelsKey = Tuple[Tuple[str, str], ...]


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated quantile of ``values``; 0.0 when empty.

    ``p`` is in [0, 100]; rank ``p/100 · (n − 1)`` interpolates between
    its two neighbouring order statistics.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] * (1 - frac) + ordered[lo + 1] * frac


def _labels_key(labels: Optional[Mapping[str, str]]) -> LabelsKey:
    return tuple(sorted((labels or {}).items()))


class Counter:
    """Monotone accumulator."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge:
    """Last-write-wins value."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Histogram:
    """Exact-quantile histogram over a retained sample reservoir."""

    kind = "histogram"
    __slots__ = ("samples", "_sorted")

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self.samples.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self.samples.sort()
            self._sorted = True

    def percentile(self, p: float) -> float:
        """Linear-interpolated quantile (:func:`percentile`); ``p`` in
        [0, 100]; raises on an empty histogram."""
        if not self.samples:
            raise ValueError("percentile of an empty histogram")
        self._ensure_sorted()
        return percentile(self.samples, p)

    def snapshot(self) -> Dict[str, float]:
        if not self.samples:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": min(self.samples),
            "max": max(self.samples),
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named metric instruments with get-or-create accessors.

    Accessors are type-checked: asking for ``counter(name)`` when
    ``name`` already exists as a gauge raises, catching wiring bugs at
    the call site instead of producing silently mixed series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], object] = {}

    def _get(
        self,
        factory,
        name: str,
        labels: Optional[Mapping[str, str]],
    ):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} is a "
                f"{type(metric).__name__}, not a {factory.__name__}"
            )
        return metric

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # introspection & export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._metrics})

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """Convenience: the scalar value of a counter/gauge."""
        metric = self._metrics[(name, _labels_key(labels))]
        if not isinstance(metric, (Counter, Gauge)):
            raise TypeError(f"{name!r} is a {type(metric).__name__}")
        return metric.value

    def to_records(self) -> List[Dict[str, object]]:
        """One flat dict per metric: name, kind, labels, snapshot stats."""
        records = []
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            record: Dict[str, object] = {
                "name": name,
                "kind": metric.kind,  # type: ignore[attr-defined]
                "labels": dict(labels),
            }
            record.update(metric.snapshot())  # type: ignore[attr-defined]
            records.append(record)
        return records

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_records(), indent=indent)

    def to_csv(self) -> str:
        """CSV with the union of snapshot columns across metric kinds."""
        records = self.to_records()
        stat_columns: List[str] = []
        for rec in records:
            for column in rec:
                if column in ("name", "kind", "labels"):
                    continue
                if column not in stat_columns:
                    stat_columns.append(column)
        header = ["name", "kind", "labels"] + stat_columns
        lines = [",".join(header)]
        for rec in records:
            labels = ";".join(
                f"{k}={v}" for k, v in sorted(rec["labels"].items())  # type: ignore[union-attr]
            )
            row = [str(rec["name"]), str(rec["kind"]), labels]
            row += [str(rec.get(col, "")) for col in stat_columns]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
