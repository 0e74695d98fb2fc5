"""Faithful ROS 2 executor models: dispatch semantics as policies.

The existing :class:`~repro.ros.executor.SingleThreadedExecutor` is a
plain FIFO work queue on a simulated thread.  Real rclcpp executors are
not FIFO queues, and the difference is load-bearing for chain latency
("Timing Analysis and Priority-driven Enhancements of ROS 2
Multi-threaded Executors"; Casini et al.'s response-time analysis):

- **Polling-point semantics** (single-threaded executor): the executor
  collects a *ready set* at each wait point -- at most one message per
  subscription -- and processes that whole snapshot to completion before
  polling again.  Work arriving mid-snapshot waits for the next polling
  point, however urgent.
- **Wait-set ordering**: within a ready set, timers run before
  subscriptions, each in registration order -- not arrival order.
- **Callback groups** (multi-threaded executor): a *mutually exclusive*
  group admits one in-flight callback at a time even with idle worker
  threads; a *reentrant* group admits any number.
- **Priority-driven dispatch** (the PiCAS-style enhancement): ready
  callbacks are picked strictly by priority instead of wait-set order,
  removing the polling-point latency anomaly for urgent chains.

These models run on the simulation kernel
(:class:`~repro.sim.kernel.Simulator`, every event at the default
priority, so same-instant events fire in scheduling order) so
conformance tests can pin hand-computed schedules, and the DAG fault
stack drives whole scenarios through them.  All tie-breaks are explicit
(submission sequence), so schedules are reproducible run to run and
across processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator

#: Wait-set kind rank: timers are polled before subscriptions (rclcpp).
_KIND_RANK = {"timer": 0, "subscription": 1}

#: Dispatch policies.
POLICY_WAITSET = "waitset"      # rclcpp wait-set order (kind, registration)
POLICY_PRIORITY = "priority"    # priority-driven (PiCAS-style)


@dataclass(frozen=True)
class CallbackSpec:
    """One registered callback of an executor."""

    name: str
    kind: str = "subscription"  # "timer" | "subscription"
    group: str = "default"
    #: Larger = more urgent (used by the priority-driven policy only).
    priority: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown callback kind {self.kind!r}")


@dataclass(frozen=True)
class CallbackGroup:
    """rclcpp callback group: mutually exclusive unless *reentrant*."""

    name: str
    reentrant: bool = False


@dataclass(frozen=True)
class Dispatch:
    """One executed callback instance (the conformance-test record)."""

    callback: str
    release: int
    start: int
    finish: int
    thread: int


@dataclass
class _Job:
    callback: str
    release: int
    exec_time: int
    seq: int
    payload: Any = None


class _ExecutorBase:
    """Registration, submission bookkeeping and dispatch recording."""

    def __init__(self, sim: Simulator, name: str = "executor"):
        self.sim = sim
        self.name = name
        self.specs: Dict[str, CallbackSpec] = {}
        self.groups: Dict[str, CallbackGroup] = {}
        self._order: Dict[str, int] = {}
        self._handlers: Dict[str, Callable[[Any], None]] = {}
        self._seq = 0
        self.dispatches: List[Dispatch] = []

    def add_group(self, group: CallbackGroup) -> CallbackGroup:
        """Register a callback group (idempotent by name)."""
        self.groups[group.name] = group
        return group

    def add_callback(
        self,
        spec: CallbackSpec,
        handler: Optional[Callable[[Any], None]] = None,
    ) -> CallbackSpec:
        """Register a callback; registration order defines wait-set order."""
        if spec.name in self.specs:
            raise ValueError(f"{self.name}: duplicate callback {spec.name!r}")
        self.specs[spec.name] = spec
        self._order[spec.name] = len(self._order)
        self.groups.setdefault(spec.group, CallbackGroup(spec.group))
        if handler is not None:
            self._handlers[spec.name] = handler
        return spec

    def _waitset_key(self, job: _Job) -> Tuple[int, int, int]:
        spec = self.specs[job.callback]
        return (_KIND_RANK[spec.kind], self._order[job.callback], job.seq)

    def _priority_key(self, job: _Job) -> Tuple[int, int, int]:
        spec = self.specs[job.callback]
        return (-spec.priority, job.release, job.seq)

    def _record(self, job: _Job, start: int, thread: int) -> None:
        self.dispatches.append(Dispatch(
            callback=job.callback,
            release=job.release,
            start=start,
            finish=self.sim.now,
            thread=thread,
        ))
        handler = self._handlers.get(job.callback)
        if handler is not None:
            handler(job.payload)

    def submit(
        self, callback: str, exec_time: int, payload: Any = None
    ) -> None:
        """Release one instance of *callback* now, costing *exec_time* ns."""
        raise NotImplementedError

    @property
    def max_queueing_delay(self) -> int:
        """Largest release->start delay over all dispatches."""
        return max((d.start - d.release for d in self.dispatches), default=0)


class Ros2SingleThreadedExecutor(_ExecutorBase):
    """rclcpp single-threaded executor with polling-point semantics.

    The executor alternates between *polling points* (building a ready
    set: at most one pending instance per callback, ordered timers-first
    then registration order) and draining that snapshot to completion.
    Instances released while a snapshot drains -- even of an urgent
    callback -- wait for the next polling point.

    ``policy=POLICY_PRIORITY`` orders each *snapshot* by priority
    instead of wait-set order (the intra-snapshot half of the
    priority-driven enhancement; the snapshot boundary itself is a
    structural property of the wait-set loop and remains).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "executor",
        policy: str = POLICY_WAITSET,
    ):
        super().__init__(sim, name)
        self.policy = policy
        self._pending: Dict[str, Deque[_Job]] = {}
        self._snapshot: List[_Job] = []
        self._busy = False

    def add_callback(self, spec, handler=None):
        spec = super().add_callback(spec, handler)
        self._pending[spec.name] = deque()
        return spec

    def submit(self, callback: str, exec_time: int, payload: Any = None) -> None:
        self._pending[callback].append(_Job(
            callback=callback,
            release=self.sim.now,
            exec_time=exec_time,
            seq=self._seq,
            payload=payload,
        ))
        self._seq += 1
        if not self._busy and not self._snapshot:
            self._poll()

    def _poll(self) -> None:
        """Polling point: snapshot <= 1 pending instance per callback."""
        ready = [
            self._pending[name].popleft()
            for name in self.specs
            if self._pending[name]
        ]
        if not ready:
            return
        if self.policy == POLICY_PRIORITY:
            ready.sort(key=self._priority_key)
        else:
            ready.sort(key=self._waitset_key)
        self._snapshot = ready
        self._start_next()

    def _start_next(self) -> None:
        job = self._snapshot.pop(0)
        self._busy = True
        start = self.sim.now
        self.sim.schedule_after(job.exec_time, self._finish, job, start)

    def _finish(self, job: _Job, start: int) -> None:
        # _busy stays True while the user handler runs: a handler that
        # submit()s (e.g. the fusion join submitting "fuse") must not
        # reentrantly poll and start a job while this dispatch cycle is
        # still deciding what runs next -- that would put two callbacks
        # in flight on a single-threaded executor.
        self._record(job, start, thread=0)
        self._busy = False
        if self._snapshot:
            self._start_next()
        else:
            self._poll()


class Ros2MultiThreadedExecutor(_ExecutorBase):
    """rclcpp multi-threaded executor: worker pool + callback groups.

    *n_threads* workers pull ready work; a callback whose (mutually
    exclusive) group already has an in-flight callback is skipped, even
    with idle threads -- the serialization the executor paper measures.
    With ``policy=POLICY_PRIORITY`` workers pick the highest-priority
    eligible instance instead of FIFO release order.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "executor",
        n_threads: int = 2,
        policy: str = POLICY_WAITSET,
    ):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        super().__init__(sim, name)
        self.n_threads = n_threads
        self.policy = policy
        self._ready: List[_Job] = []
        self._free_threads: List[int] = list(range(n_threads))
        self._group_inflight: Dict[str, int] = {}

    def submit(self, callback: str, exec_time: int, payload: Any = None) -> None:
        if callback not in self.specs:
            raise KeyError(f"{self.name}: unknown callback {callback!r}")
        self._ready.append(_Job(
            callback=callback,
            release=self.sim.now,
            exec_time=exec_time,
            seq=self._seq,
            payload=payload,
        ))
        self._seq += 1
        self._dispatch()

    def _eligible(self, job: _Job) -> bool:
        spec = self.specs[job.callback]
        group = self.groups[spec.group]
        if group.reentrant:
            return True
        return self._group_inflight.get(spec.group, 0) == 0

    def _pick(self) -> Optional[_Job]:
        eligible = [job for job in self._ready if self._eligible(job)]
        if not eligible:
            return None
        if self.policy == POLICY_PRIORITY:
            job = min(eligible, key=self._priority_key)
        else:
            job = min(eligible, key=lambda j: (j.release, j.seq))
        self._ready.remove(job)
        return job

    def _dispatch(self) -> None:
        while self._free_threads:
            job = self._pick()
            if job is None:
                return
            thread = self._free_threads.pop(0)
            spec = self.specs[job.callback]
            self._group_inflight[spec.group] = (
                self._group_inflight.get(spec.group, 0) + 1
            )
            start = self.sim.now
            self.sim.schedule_after(
                job.exec_time, self._finish, job, start, thread
            )

    def _finish(self, job: _Job, start: int, thread: int) -> None:
        spec = self.specs[job.callback]
        self._group_inflight[spec.group] -= 1
        self._free_threads.append(thread)
        self._free_threads.sort()
        self._record(job, start, thread)
        self._dispatch()


#: Executor-model registry used by DAG scenarios: name -> factory taking
#: ``(sim, executor_name)``.
EXECUTOR_MODELS: Dict[str, Callable[[Simulator, str], _ExecutorBase]] = {
    "single": lambda sim, name: Ros2SingleThreadedExecutor(sim, name),
    "multi": lambda sim, name: Ros2MultiThreadedExecutor(sim, name, n_threads=2),
    "priority": lambda sim, name: Ros2MultiThreadedExecutor(
        sim, name, n_threads=2, policy=POLICY_PRIORITY
    ),
}
