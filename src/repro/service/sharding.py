"""Cache-aware, deduplicated batch MCKP solving.

One micro-batch of admission requests becomes one call to
:meth:`ShardSolver.solve_batch`, which puts three reuse mechanisms in
front of the raw solvers — all of them exact-result-preserving:

1. **Cache probe** (:class:`repro.knapsack.SolverCache`).  Online
   traffic re-submits the same believed task set with unchanged
   estimates over and over; those are dictionary lookups.
2. **Near-miss delta solving** for the ``"dp"`` solver.  An exact-key
   miss probes the cache's bounded :class:`~repro.knapsack.delta.DeltaState`
   table for a previously solved instance sharing a class prefix (the
   churned-batch serving pattern) and, on a partial hit, repairs the
   Pareto frontier via :func:`~repro.knapsack.solve_delta` instead of
   paying a scratch solve.
3. **In-batch deduplication.**  Concurrent identical requests in the
   same batch collapse to a single solve keyed by the same canonical
   instance fingerprint the cache uses.

The remaining unique misses are solved in-process, one scratch solve
each in first-seen order.  Scratch ``dp`` solves run through
``solve_delta`` so their resumable states seed the near-miss table.

:meth:`ShardSolver.answer_hits` is the cheap half the service runs on
its event loop: the batch's leading exact hits, answered by lookup
alone.  Only the rest of the batch goes to :meth:`solve_batch`.

Determinism: solvers are pure functions of ``(instance, kwargs)``, so a
batched + cached answer is **bit-identical** to calling the same solver
serially on the same instance — delta warm starts included, since
``solve_delta`` resumes the exact ``_run_dp`` instruction stream a
scratch solve would execute.  The differential suite pins that
bit-identity, and separately pins the underlying ``solve_dp`` against
the serial oracle ``solve_dp_reference`` for feasibility / optimal
value / minimal quantized weight (the two DPs may break argmax *ties*
differently).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..knapsack import (
    SOLVERS,
    MCKPInstance,
    Selection,
    SolverCache,
    solve_delta,
)

__all__ = ["ShardSolver"]


def _choices(selection: Optional[Selection]) -> Optional[Dict[str, int]]:
    return None if selection is None else dict(selection.choices)


class ShardSolver:
    """Batch front-end over the solver registry (see module docstring).

    ``cache`` holds every solved answer and the delta-state table the
    near-miss probe reads; the solver writes both.
    """

    def __init__(self, cache: SolverCache) -> None:
        self.cache = cache
        #: delta solves answered from a near-miss probe
        self.delta_solves = 0
        #: sparse DP layers skipped thanks to warm starts
        self.delta_layers_reused = 0

    def answer_hits(
        self,
        entries: Sequence[Tuple[str, MCKPInstance, Dict[str, object]]],
    ) -> List[Optional[Selection]]:
        """Answer the leading run of exact cache hits in ``entries``.

        Stops at the first entry that is not an exact hit or names an
        unknown solver; returns one result per answered entry.  Every
        answered entry is a hit, so ``solve_batch(entries[k:])`` for the
        rest makes the same cache calls, in the same order, as
        ``solve_batch(entries)`` would have: no dedup state carries over.
        """
        cache = self.cache
        answered: List[Optional[Selection]] = []
        for solver_name, instance, kwargs in entries:
            if solver_name not in SOLVERS:
                break
            key = SolverCache.key_for(solver_name, instance, **kwargs)
            if not cache.contains(key):
                break
            _, choices = cache.lookup(key)
            answered.append(
                None if choices is None else Selection(instance, dict(choices))
            )
        return answered

    def solve_batch(
        self,
        entries: Sequence[Tuple[str, MCKPInstance, Dict[str, object]]],
    ) -> List[Optional[Selection]]:
        """Solve ``(solver_name, instance, kwargs)`` entries in order.

        Returns one ``Optional[Selection]`` per entry (``None`` =
        infeasible), each bound to the caller's own instance object.
        """
        cache = self.cache
        results: List[Optional[Dict[str, int]]] = [None] * len(entries)

        # Pass 1: cache probes, near-miss delta repairs and in-batch
        # dedup bookkeeping.
        pending: Dict[Tuple, List[int]] = {}
        misses: List[Tuple[Tuple, str, MCKPInstance, Dict, bool]] = []
        for i, (solver_name, instance, kwargs) in enumerate(entries):
            if solver_name not in SOLVERS:
                raise ValueError(
                    f"unknown solver {solver_name!r}; "
                    f"available: {sorted(SOLVERS)}"
                )
            key = SolverCache.key_for(solver_name, instance, **kwargs)
            hit, choices = cache.lookup(key)
            if hit:
                results[i] = choices
                continue
            waiters = pending.get(key)
            if waiters is not None:
                waiters.append(i)
                continue
            # delta solving covers exactly the ``solve_dp`` signature
            delta = solver_name == "dp" and set(kwargs) <= {"resolution"}
            if delta:
                state = cache.probe_delta(
                    instance, kwargs.get("resolution", 20_000)
                )
                if state is not None:
                    result = solve_delta(instance, state=state, **kwargs)
                    choices = _choices(result.selection)
                    cache.store(key, choices)
                    cache.store_state(key, result.state)
                    self.delta_solves += 1
                    self.delta_layers_reused += result.reused_layers
                    results[i] = choices
                    continue
            pending[key] = [i]
            misses.append((key, solver_name, instance, kwargs, delta))

        # Pass 2: one scratch solve per unique miss, first seen first.
        for key, solver_name, instance, kwargs, delta in misses:
            if delta:
                result = solve_delta(instance, **kwargs)
                choices = _choices(result.selection)
                cache.store_state(key, result.state)
            else:
                choices = _choices(SOLVERS[solver_name](instance, **kwargs))
            cache.store(key, choices)
            for i in pending[key]:
                results[i] = choices

        return [
            None
            if choices is None
            else Selection(entries[i][1], dict(choices))
            for i, choices in enumerate(results)
        ]
