"""The paper's split-deadline EDF offloading scheduler (§5.1), plus the
naive-EDF baseline it is compared against.

For every released job of an offloaded task ``τ_i`` (selected response
time ``R_i``) the scheduler:

1. releases the **setup sub-job** immediately with relative deadline
   ``D_{i,1} = C_{i,1}(D_i−R_i)/(C_{i,1}+C_{i,2})`` (``"split"`` mode) or
   the full ``D_i`` (``"naive"`` mode — the strawman the paper notes
   "performs poorly");
2. on setup completion, transmits the request through the
   :class:`~repro.sched.transport.OffloadTransport` and arms the
   **compensation timer** at ``now + R_i`` — the Local Compensation
   Manager of the paper's Figure 1, "implemented by setting up
   timer-interrupts";
3. whichever happens first wins:
   * the server result arrives → the timer is cancelled and the
     **post-processing sub-job** (``C_{i,3}``) runs with the original
     absolute deadline; the job realizes benefit ``G_i(R_i)``;
   * the timer fires → the **local compensation sub-job** (``C_{i,2}``)
     runs with the original absolute deadline; the job realizes only the
     local benefit ``G_i(0)``.  A result arriving later is discarded.

Local tasks release a single sub-job with their own deadline.  All
sub-jobs are dispatched by the preemptive EDF
:class:`~repro.sched.uniprocessor.Uniprocessor`.

Realized benefits are weighted by ``task.weight`` so that the trace total
is directly comparable to the ODM's MCKP objective.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Optional

from ..core.deadlines import split_deadlines
from ..core.task import OffloadableTask, Task, TaskSet
from ..sim.engine import Simulator
from ..sim.events import PRIORITY_RELEASE, PRIORITY_TIMER, Event
from ..sim.trace import Trace
from .exec_time import ExecutionTimeModel, WcetModel
from .jobs import Job, SubJob
from .transport import OffloadRequest, OffloadTransport
from .uniprocessor import Uniprocessor

__all__ = ["OffloadingScheduler", "DEADLINE_MODES"]

DEADLINE_MODES = ("split", "naive")


class OffloadingScheduler:
    """Drives releases, offloading and compensation on one processor.

    Parameters
    ----------
    sim:
        The simulation engine.
    tasks:
        The task set.  Tasks present in ``response_times`` with a
        positive value are offloaded; everything else runs locally.
    response_times:
        ``task_id -> R_i`` mapping, typically
        ``OffloadingDecision.response_times``.  Missing ids default to
        local execution.
    transport:
        Carrier for offloaded requests (server model or a test stub).
        May be ``None`` when nothing is offloaded.
    deadline_mode:
        ``"split"`` for the paper's algorithm, ``"naive"`` for the
        baseline that gives the setup sub-job the full deadline.
    split_policy:
        Which splitting rule assigns ``D_{i,1}`` in ``"split"`` mode
        (see :data:`repro.core.deadlines.SPLIT_POLICIES`); the default
        is the paper's proportional rule.  Ignored in ``"naive"`` mode.
    exec_model:
        Actual execution-time model; defaults to worst case.
    release_jitter:
        Optional callable returning an extra inter-arrival delay ≥ 0,
        making releases sporadic instead of strictly periodic.
    release_offsets:
        Optional ``task_id -> first release time`` map for phased task
        sets; tasks absent from the map release at time 0 (the
        synchronous critical instant, the analysis-relevant default).
    """

    def __init__(
        self,
        sim: Simulator,
        tasks: TaskSet,
        response_times: Optional[Mapping[str, float]] = None,
        transport: Optional[OffloadTransport] = None,
        trace: Optional[Trace] = None,
        deadline_mode: str = "split",
        split_policy: str = "proportional",
        exec_model: Optional[ExecutionTimeModel] = None,
        release_jitter: Optional[Callable[[Task], float]] = None,
        offload_benefit_overrides: Optional[Mapping[str, float]] = None,
        level_workload_overrides: Optional[Mapping[str, float]] = None,
        release_offsets: Optional[Mapping[str, float]] = None,
    ) -> None:
        if deadline_mode not in DEADLINE_MODES:
            raise ValueError(
                f"deadline_mode must be one of {DEADLINE_MODES}, "
                f"got {deadline_mode!r}"
            )
        self.sim = sim
        self.tasks = tasks
        self.response_times: Dict[str, float] = dict(response_times or {})
        self.transport = transport
        self.trace = trace if trace is not None else Trace()
        #: structured event sink shared with the engine (disabled no-op
        #: unless the run was built with observability enabled)
        self.bus = sim.bus
        self.deadline_mode = deadline_mode
        self.split_policy = split_policy
        self.exec_model = exec_model if exec_model is not None else WcetModel()
        self.release_jitter = release_jitter
        #: per-task raw benefit realized when an offloaded result
        #: returns in time (before the task-weight multiplier); when a
        #: task is absent, ``G_i(R_i)`` on the task's own benefit
        #: function is used.  Lets callers whose *believed* response
        #: times diverge from the task's true discretization (e.g. the
        #: adaptive estimator) pin the true quality of the level that
        #: actually ran.
        self.offload_benefit_overrides: Dict[str, float] = dict(
            offload_benefit_overrides or {}
        )
        #: per-task workload anchor sent to the server instead of R_i.
        #: The physical work of a level (image size, kernel cost) does
        #: not change when the client's *belief* about the response time
        #: changes — callers with scaled beliefs pin the true anchor
        #: here so the server sees the real workload.
        self.level_workload_overrides: Dict[str, float] = dict(
            level_workload_overrides or {}
        )
        self.release_offsets: Dict[str, float] = dict(release_offsets or {})
        for task_id, offset in self.release_offsets.items():
            if task_id not in tasks:
                raise ValueError(f"offset for unknown task {task_id!r}")
            if offset < 0:
                raise ValueError(f"{task_id}: negative release offset")
        self.processor = Uniprocessor(sim, self.trace)
        self._job_counters: Dict[str, int] = {}
        self._horizon: float = 0.0
        self._started = False

        for task_id, r in self.response_times.items():
            if task_id not in tasks:
                raise ValueError(f"response time for unknown task {task_id!r}")
            if not math.isfinite(r) or r < 0:
                raise ValueError(
                    f"{task_id}: negative or non-finite response time {r}"
                )
            if r > 0 and not isinstance(tasks[task_id], OffloadableTask):
                raise ValueError(f"{task_id} is not offloadable")
            if r > 0 and r >= tasks[task_id].deadline:
                raise ValueError(
                    f"{task_id}: R_i={r} >= D_i={tasks[task_id].deadline} "
                    "leaves no slack for compensation; the level is "
                    "structurally infeasible"
                )
            if r > 0 and transport is None:
                raise ValueError(
                    "offloading selected but no transport was provided"
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, horizon: float) -> None:
        """Schedule the first release of every task; jobs whose release
        falls strictly before ``horizon`` are generated."""
        if self._started:
            raise RuntimeError("scheduler already started")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self._started = True
        self._horizon = horizon
        for task in self.tasks:
            offset = self.release_offsets.get(task.task_id, 0.0)
            if offset >= horizon:
                continue
            self.sim.schedule_at(
                offset,
                lambda ev, t=task: self._release(t),
                priority=PRIORITY_RELEASE,
                name=f"release:{task.task_id}",
            )

    def run(self, horizon: float) -> Trace:
        """Convenience: :meth:`start` then run the engine to ``horizon``
        plus the largest deadline (so the last jobs can finish)."""
        self.start(horizon)
        max_deadline = max(t.deadline for t in self.tasks)
        self.sim.run_until(horizon + max_deadline)
        return self.trace

    # ------------------------------------------------------------------
    # release path
    # ------------------------------------------------------------------
    def _release(self, task: Task) -> None:
        now = self.sim.now
        job_id = self._job_counters.get(task.task_id, 0)
        self._job_counters[task.task_id] = job_id + 1

        job = Job(
            task=task,
            job_id=job_id,
            release=now,
            absolute_deadline=now + task.deadline,
        )
        self.trace.record_release(
            task.task_id, job_id, now, job.absolute_deadline
        )
        bus = self.bus
        offload_selected = (
            self.response_times.get(task.task_id, 0.0) > 0
            and isinstance(task, OffloadableTask)
        )
        if bus.enabled:
            bus.emit(
                "job.release",
                now,
                task=task.task_id,
                job=job_id,
                release=now,
                deadline=job.absolute_deadline,
                offloaded=offload_selected,
            )

        response_time = self.response_times.get(task.task_id, 0.0)
        if response_time > 0 and isinstance(task, OffloadableTask):
            self._release_offloaded(job, task, response_time)
        else:
            self._release_local(job, task)

        # schedule the next release (periodic + optional sporadic jitter)
        delay = task.period
        if self.release_jitter is not None:
            extra = self.release_jitter(task)
            if extra < 0:
                raise ValueError("release jitter must be non-negative")
            delay += extra
        next_time = now + delay
        if next_time < self._horizon:
            self.sim.schedule_at(
                next_time,
                lambda ev, t=task: self._release(t),
                priority=PRIORITY_RELEASE,
                name=f"release:{task.task_id}",
            )

    def _release_local(self, job: Job, task: Task) -> None:
        duration = self.exec_model.duration(task, "local", 0.0, job.job_id)
        subjob = SubJob(
            job=job,
            phase="local",
            wcet=task.wcet,
            remaining=duration,
            absolute_deadline=job.absolute_deadline,
            release=job.release,
            on_complete=self._finish_local,
        )
        self.processor.submit(subjob)

    def _finish_local(self, subjob: SubJob, now: float) -> None:
        job = subjob.job
        task = job.task
        if isinstance(task, OffloadableTask):
            job.realized_benefit = task.benefit.local_benefit * task.weight
        self._finish_job(job, now)

    # ------------------------------------------------------------------
    # offload path
    # ------------------------------------------------------------------
    def _release_offloaded(
        self, job: Job, task: OffloadableTask, response_time: float
    ) -> None:
        job.offloaded = True
        job.response_budget = response_time
        split = split_deadlines(task, response_time, policy=self.split_policy)
        if self.deadline_mode == "split":
            setup_deadline = job.release + split.setup_deadline
        else:  # naive: setup shares the job's full deadline
            setup_deadline = job.absolute_deadline
        duration = self.exec_model.duration(
            task, "setup", response_time, job.job_id
        )
        subjob = SubJob(
            job=job,
            phase="setup",
            wcet=split.setup_wcet,
            remaining=duration,
            absolute_deadline=setup_deadline,
            release=job.release,
            on_complete=lambda sj, t: self._setup_done(sj, t, response_time),
        )
        rec = self.trace.job(task.task_id, job.job_id)
        rec.offloaded = True
        self.processor.submit(subjob)

    def _setup_done(
        self, subjob: SubJob, now: float, response_time: float
    ) -> None:
        job = subjob.job
        task = job.task
        assert isinstance(task, OffloadableTask)
        request = OffloadRequest(
            task=task,
            job_id=job.job_id,
            submitted_at=now,
            response_budget=response_time,
            level_response_time=self.level_workload_overrides.get(
                task.task_id, response_time
            ),
        )
        state = {"settled": False}
        bus = self.bus
        if bus.enabled:
            bus.emit(
                "phase.transition",
                now,
                task=task.task_id,
                job=job.job_id,
                **{"from": "setup", "to": "suspended"},
            )
            bus.emit(
                "offload.send",
                now,
                task=task.task_id,
                job=job.job_id,
                budget=response_time,
            )

        timer: Event = self.sim.schedule(
            response_time,
            lambda ev: self._compensate(job, task, response_time, state),
            priority=PRIORITY_TIMER,
            name=f"comp-timer:{task.task_id}#{job.job_id}",
        )

        def on_result(arrival: float) -> None:
            if bus.enabled:
                bus.emit(
                    "offload.receive",
                    self.sim.now,
                    task=task.task_id,
                    job=job.job_id,
                    latency=arrival - now,
                    late=state["settled"],
                )
            if state["settled"]:
                return  # late result: compensation already started
            state["settled"] = True
            timer.cancel()
            self._post_process(job, task, response_time)

        assert self.transport is not None
        self.transport.submit(request, on_result)

    def _post_process(
        self, job: Job, task: OffloadableTask, response_time: float
    ) -> None:
        job.result_returned = True
        if self.bus.enabled:
            self.bus.emit(
                "phase.transition",
                self.sim.now,
                task=task.task_id,
                job=job.job_id,
                **{"from": "suspended", "to": "post"},
            )
        duration = self.exec_model.duration(
            task, "post", response_time, job.job_id
        )
        subjob = SubJob(
            job=job,
            phase="post",
            wcet=task.post_time,
            remaining=duration,
            absolute_deadline=job.absolute_deadline,
            release=self.sim.now,
            on_complete=lambda sj, t: self._finish_offloaded(sj, t, True),
        )
        self.processor.submit(subjob)

    def _compensate(
        self,
        job: Job,
        task: OffloadableTask,
        response_time: float,
        state: Dict[str, bool],
    ) -> None:
        if state["settled"]:
            return
        state["settled"] = True
        job.compensated = True
        bus = self.bus
        if bus.enabled:
            bus.emit(
                "offload.timeout",
                self.sim.now,
                task=task.task_id,
                job=job.job_id,
                budget=response_time,
            )
            bus.emit(
                "phase.transition",
                self.sim.now,
                task=task.task_id,
                job=job.job_id,
                **{"from": "suspended", "to": "compensation"},
            )
        if task.result_guaranteed(response_time):
            # the server's pessimistic bound promised this could not
            # happen — surface the modelling violation
            self.trace.model_violations += 1
        duration = self.exec_model.duration(
            task, "compensation", response_time, job.job_id
        )
        comp_wcet = task.compensation_time_at(response_time) if (
            response_time in task.benefit.response_times
        ) else task.compensation_time
        subjob = SubJob(
            job=job,
            phase="compensation",
            wcet=comp_wcet,
            remaining=duration,
            absolute_deadline=job.absolute_deadline,
            release=self.sim.now,
            on_complete=lambda sj, t: self._finish_offloaded(sj, t, False),
        )
        self.processor.submit(subjob)

    def _finish_offloaded(
        self, subjob: SubJob, now: float, returned: bool
    ) -> None:
        job = subjob.job
        task = job.task
        assert isinstance(task, OffloadableTask)
        if returned:
            if task.task_id in self.offload_benefit_overrides:
                value = self.offload_benefit_overrides[task.task_id]
            else:
                value = task.benefit.value(job.response_budget)
        else:
            value = task.benefit.local_benefit
        job.realized_benefit = value * task.weight
        self._finish_job(job, now)

    # ------------------------------------------------------------------
    # completion bookkeeping
    # ------------------------------------------------------------------
    def _finish_job(self, job: Job, now: float) -> None:
        job.finish = now
        rec = self.trace.job(job.task.task_id, job.job_id)
        rec.offloaded = job.offloaded
        rec.result_returned = job.result_returned
        rec.compensated = job.compensated
        rec.benefit = job.realized_benefit
        self.trace.record_finish(job.task.task_id, job.job_id, now)
        bus = self.bus
        if bus.enabled:
            met = rec.met_deadline
            bus.emit(
                "job.finish",
                now,
                task=job.task.task_id,
                job=job.job_id,
                finish=now,
                response_time=now - job.release,
                benefit=job.realized_benefit,
                met_deadline=met,
                offloaded=job.offloaded,
                returned=job.result_returned,
                compensated=job.compensated,
            )
            if not met:
                bus.emit(
                    "deadline.miss",
                    now,
                    task=job.task.task_id,
                    job=job.job_id,
                    deadline=job.absolute_deadline,
                    finish=now,
                    lateness=now - job.absolute_deadline,
                )
