"""Unit tests for the process-parallel sweep runner.

The experiments layer depends on three invariants: results come back in
unit order, seeding is unit-local (so parallel == serial bit-for-bit),
and a broken pool degrades to the serial reference path instead of
failing the sweep.
"""

import math

import pytest

from repro.parallel import SweepRunner, resolve_workers
from repro.parallel.runner import _CHUNKS_PER_WORKER


def _square_plus(unit, offset):
    """Module-level (picklable) unit function with a common argument."""
    return unit * unit + offset


def _float_mix(unit, factor):
    """Float-sensitive work: any reordering would change the bits."""
    total = 0.0
    for k in range(1, 50):
        total += math.sin(unit * factor / k)
    return total


def _maybe_fail(unit):
    if unit == 3:
        raise ValueError("unit 3 is poisoned")
    return unit


def _draw(unit, streams):
    """map_seeded unit: draw from the spawned per-unit stream."""
    return streams.get("x").random(4).tolist()


class TestResolveWorkers:
    def test_none_and_zero_mean_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1

    def test_negative_means_all_cores(self):
        import os

        assert resolve_workers(-1) == (os.cpu_count() or 1)

    def test_literal(self):
        assert resolve_workers(5) == 5


class TestSweepRunnerSerial:
    def test_map_preserves_order_and_common_args(self):
        runner = SweepRunner(workers=1)
        assert runner.map(_square_plus, [3, 1, 2], 10) == [19, 11, 14]
        assert runner.last_mode == "serial"

    def test_map_empty(self):
        assert SweepRunner().map(_square_plus, [], 0) == []

    def test_unit_exception_propagates(self):
        with pytest.raises(ValueError, match="poisoned"):
            SweepRunner(workers=1).map(_maybe_fail, range(5))

    def test_chunks_cover_all_units(self):
        runner = SweepRunner(workers=3)
        spans = runner._chunks(17)
        covered = [i for span in spans for i in span]
        assert covered == list(range(17))
        assert len(spans) <= 3 * _CHUNKS_PER_WORKER + 1


class TestSweepRunnerParallel:
    def test_parallel_matches_serial_bit_for_bit(self):
        units = list(range(23))
        serial = SweepRunner(workers=1).map(_float_mix, units, 0.7)
        runner = SweepRunner(workers=3)
        parallel = runner.map(_float_mix, units, 0.7)
        # bit-for-bit: not approx-equal — identical floats
        assert parallel == serial

    def test_parallel_preserves_order(self):
        runner = SweepRunner(workers=2)
        assert runner.map(_square_plus, [5, 4, 3, 2, 1, 0], 0) == [
            25, 16, 9, 4, 1, 0,
        ]

    def test_unpicklable_fn_falls_back_to_serial(self):
        runner = SweepRunner(workers=2)
        result = runner.map(lambda u: u + 1, [1, 2, 3, 4])
        assert result == [2, 3, 4, 5]
        assert runner.last_mode == "serial"

    def test_unit_exception_raises_via_fallback(self):
        """A genuine unit error must surface, not vanish in the pool."""
        with pytest.raises(ValueError, match="poisoned"):
            SweepRunner(workers=2).map(_maybe_fail, range(5))

    def test_single_unit_stays_serial(self):
        runner = SweepRunner(workers=4)
        assert runner.map(_square_plus, [7], 1) == [50]
        assert runner.last_mode == "serial"


class TestMapSeeded:
    def test_streams_are_unit_local(self):
        """Unit i draws the same sequence at any worker count."""
        units = list(range(9))
        serial = SweepRunner(workers=1).map_seeded(_draw, units, 42)
        parallel = SweepRunner(workers=3).map_seeded(_draw, units, 42)
        assert parallel == serial

    def test_different_units_draw_differently(self):
        rows = SweepRunner(workers=1).map_seeded(_draw, range(3), 42)
        assert rows[0] != rows[1] != rows[2]

    def test_different_seeds_draw_differently(self):
        a = SweepRunner(workers=1).map_seeded(_draw, range(3), 1)
        b = SweepRunner(workers=1).map_seeded(_draw, range(3), 2)
        assert a != b
