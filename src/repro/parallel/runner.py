"""Process-parallel execution of experiment sweeps.

Every experiment driver in :mod:`repro.experiments` is a loop over
independent *work units* — a task-set index, a ``(scenario, work set)``
cell, a random configuration.  :class:`SweepRunner` runs such loops
either serially (the default, and the reference semantics) or across a
``ProcessPoolExecutor``, with three invariants the experiments rely on:

* **Order-preserving merge.**  Results come back in unit order no
  matter which worker finished first, so floating-point accumulation
  in the caller happens in the exact serial order and a parallel sweep
  is **bit-for-bit identical** to ``workers=1``.
* **Unit-local randomness.**  Seeding is attached to the unit, not the
  worker: every experiment derives its RNG from ``(seed, unit index)``
  (or uses :func:`repro.sim.rng.spawn_streams`), so unit ``i`` draws
  the same stream wherever it executes.
* **Graceful degradation.**  If a process pool cannot be created or
  used (restricted sandboxes, non-picklable callables, platforms
  without ``fork``), the runner falls back to the serial path instead
  of failing the sweep.

Work units are batched into chunks (about four per worker) so per-task
pickling/IPC overhead is amortized over several units.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from ..sim.rng import spawn_streams

__all__ = ["SweepRunner", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

#: Chunks per worker: small enough to balance uneven unit costs, large
#: enough to amortize IPC.
_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None``, ``0`` and ``1`` mean serial; a negative count means "all
    cores".  Anything else is taken literally.
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return os.cpu_count() or 1
    return int(workers)


def _run_chunk(fn: Callable, chunk: Sequence, common: tuple) -> list:
    """Execute one chunk of units in a worker process."""
    return [fn(unit, *common) for unit in chunk]


def _run_seeded_chunk(
    fn: Callable,
    indexed_chunk: Sequence,
    seed: int,
    total: int,
    common: tuple,
) -> list:
    # spawn_streams(seed, total)[i] depends only on (seed, i): every
    # worker regenerates the same family and picks its units' members.
    streams = spawn_streams(seed, total)
    return [fn(unit, streams[i], *common) for i, unit in indexed_chunk]


def _fork_context():
    """``fork`` where available (cheap, inherits the loaded library),
    the platform default elsewhere."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class SweepRunner:
    """Runs independent work units serially or across processes.

    Parameters
    ----------
    workers:
        Parallelism degree (see :func:`resolve_workers`); ``<= 1`` runs
        in-process with zero overhead.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        #: How the last ``map`` actually executed: "serial" or
        #: "parallel".  Lets callers (and tests) observe fallbacks.
        self.last_mode = "serial"

    # ------------------------------------------------------------------
    def _chunks(self, n: int) -> List[range]:
        size = max(1, -(-n // (self.workers * _CHUNKS_PER_WORKER)))
        return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def _map_chunked(
        self,
        worker: Callable,
        spans: List[range],
        chunk_args: List[tuple],
        n: int,
    ) -> Optional[list]:
        """Submit chunks to a pool; None signals "fall back to serial"."""
        results: list = [None] * n
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(chunk_args)),
                mp_context=_fork_context(),
            ) as pool:
                futures = [
                    (span, pool.submit(worker, *args))
                    for span, args in zip(spans, chunk_args)
                ]
                for span, future in futures:
                    chunk_result = future.result()
                    for offset, index in enumerate(span):
                        results[index] = chunk_result[offset]
        except Exception:
            # Pool creation/pickling failures (sandboxes, lambdas,
            # missing start methods) degrade to the serial reference
            # path.  Genuine unit errors re-raise there identically.
            return None
        return results

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[..., R],
        units: Iterable[T],
        *common: object,
    ) -> List[R]:
        """``[fn(u, *common) for u in units]``, possibly in parallel.

        ``fn`` must be a module-level callable and all arguments
        picklable when ``workers > 1``; results return in unit order.
        """
        units = list(units)
        n = len(units)
        if self.workers <= 1 or n <= 1:
            self.last_mode = "serial"
            return [fn(unit, *common) for unit in units]

        spans = self._chunks(n)
        chunk_args = [
            (fn, [units[i] for i in span], common) for span in spans
        ]
        results = self._map_chunked(_run_chunk, spans, chunk_args, n)
        if results is None:
            self.last_mode = "serial"
            return [fn(unit, *common) for unit in units]
        self.last_mode = "parallel"
        return results

    def map_seeded(
        self,
        fn: Callable[..., R],
        units: Iterable[T],
        seed: int,
        *common: object,
    ) -> List[R]:
        """Like :meth:`map`, passing unit ``i`` its own
        :class:`~repro.sim.rng.RandomStreams` spawned from ``seed``.

        ``fn(unit, streams, *common)`` receives
        ``spawn_streams(seed, n)[i]`` — a pure function of ``(seed, i)``,
        so the draw sequences are identical at every worker count.
        """
        units = list(units)
        n = len(units)
        if self.workers <= 1 or n <= 1:
            self.last_mode = "serial"
            streams = spawn_streams(seed, n)
            return [
                fn(unit, streams[i], *common)
                for i, unit in enumerate(units)
            ]

        spans = self._chunks(n)
        chunk_args = [
            (fn, [(i, units[i]) for i in span], seed, n, common)
            for span in spans
        ]
        results = self._map_chunked(
            _run_seeded_chunk, spans, chunk_args, n
        )
        if results is None:
            self.last_mode = "serial"
            streams = spawn_streams(seed, n)
            return [
                fn(unit, streams[i], *common)
                for i, unit in enumerate(units)
            ]
        self.last_mode = "parallel"
        return results
