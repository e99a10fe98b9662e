"""Worker pool: N simulated boards executing jobs in parallel.

Workers execute jobs through the unified :mod:`repro.exec` layer: each
worker context owns an :class:`~repro.exec.Executor` whose
:class:`~repro.exec.BoardPool` keeps **warm boards** -- live
:class:`SoftGpu` instances keyed by board content (architecture hash,
global-memory size, instruction cap).  A job arriving for a board the
worker has built before reuses it (after :meth:`SoftGpu.reset`),
skipping CU/memory model construction; this is the dynamic-dispatch
half of the static/dynamic split the soft-GPGPU serving literature
argues for (the static half lives in :mod:`repro.service.cache`).

Three execution modes:

* ``process`` -- ``concurrent.futures.ProcessPoolExecutor``; true
  parallelism, boards warm per OS process.  The default for
  ``python -m repro serve``.
* ``thread``  -- ``ThreadPoolExecutor`` over one shared executor (the
  board pool's exclusive checkout makes that safe); cheap to spin up,
  GIL-bound.  Used by tests and small deployments.
* ``inline``  -- synchronous execution on the caller's thread;
  deterministic, zero concurrency.  Used for debugging.

Payloads and result dicts are picklable; a preempted slice's
:class:`~repro.exec.PreemptedResult` travels as the object itself (no
JSON round trip per hop; process mode pickles its raw memory bytes).
``ReproError`` failures are carried *inside* the result dict rather
than as pickled exceptions so custom exception constructors never
cross the process boundary.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

from ..core.config import ArchConfig
from ..errors import ReproError, ServiceError
from ..exec import (MAX_WARM_BOARDS, STATUS_PREEMPTED, ExecutionRequest,
                    Executor, PreemptedResult)

__all__ = ["JobPayload", "WorkerPool", "MAX_WARM_BOARDS"]


@dataclass(frozen=True)
class JobPayload:
    """Everything a worker needs to execute one job (picklable)."""

    job_id: int
    benchmark: str
    params: Dict[str, object]
    arch: ArchConfig
    config_key: str
    max_groups: Optional[int] = None
    verify: bool = True
    profile: bool = False
    engine: str = "auto"
    global_mem_size: Optional[int] = None
    #: Preemption budget (instructions per slice), if the job is sliced.
    slice_instructions: Optional[int] = None
    #: The :class:`PreemptedResult` of an earlier slice when this
    #: dispatch resumes it (its ``to_dict()`` wire form is accepted
    #: too); the request then restores the carried checkpoint instead
    #: of starting the benchmark over.
    resume: Optional[Union[PreemptedResult, Mapping[str, object]]] = None

    def to_request(self) -> ExecutionRequest:
        if self.resume is not None:
            envelope = self.resume
            if not isinstance(envelope, PreemptedResult):
                envelope = PreemptedResult.from_dict(envelope)
            return ExecutionRequest(
                checkpoint=envelope.checkpoint,
                engine=self.engine,
                verify=False,
                profile=self.profile,
                digests=True,
                max_slice_instructions=self.slice_instructions,
                label=envelope.label)
        kwargs = {}
        if self.global_mem_size is not None:
            kwargs["global_mem_size"] = self.global_mem_size
        return ExecutionRequest(
            benchmark=self.benchmark,
            params=dict(self.params),
            arch=self.arch,
            engine=self.engine,
            max_groups=self.max_groups,
            verify=self.verify,
            profile=self.profile,
            digests=True,
            max_slice_instructions=self.slice_instructions,
            **kwargs)


def _run_payload(executor: Executor, payload: JobPayload):
    """Execute one payload on ``executor``; returns a picklable dict
    (a preempted slice carries its ``PreemptedResult`` as ``envelope``)."""
    try:
        result = executor.execute(payload.to_request())
        if result.status == STATUS_PREEMPTED:
            return {
                "ok": True,
                "preempted": True,
                "job_id": payload.job_id,
                "envelope": result.preempted,
                "worker": os.getpid(),
                "warm_board": result.warm_board,
                "engine": result.engine,
            }
        out = {
            "ok": True,
            "job_id": payload.job_id,
            "seconds": result.seconds,
            "instructions": result.instructions,
            "cu_cycles": result.cu_cycles,
            "digests": result.digests,
            "worker": os.getpid(),
            "warm_board": result.warm_board,
            "engine": result.engine,
        }
        if result.counters is not None:
            out["counters"] = result.counters.to_dict()
        return out
    except ReproError as exc:
        return {
            "ok": False,
            "job_id": payload.job_id,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "worker": os.getpid(),
            "warm_board": False,
        }


#: Per-process executor (process mode; one per forked worker, built
#: lazily so importing this module costs nothing in the parent).
_PROCESS_EXECUTOR = None


def _process_executor() -> Executor:
    global _PROCESS_EXECUTOR
    if _PROCESS_EXECUTOR is None:
        _PROCESS_EXECUTOR = Executor()
    return _PROCESS_EXECUTOR


def _execute_in_process(payload: JobPayload):
    """Top-level entry point for process-pool workers (picklable)."""
    return _run_payload(_process_executor(), payload)


class WorkerPool:
    """A fleet of simulated boards behind a futures executor."""

    MODES = ("process", "thread", "inline")

    def __init__(self, workers=2, mode="process"):
        if mode not in self.MODES:
            raise ServiceError(
                "unknown pool mode {!r}; expected one of {}".format(
                    mode, ", ".join(self.MODES)))
        if workers < 1:
            raise ServiceError("a pool needs at least one worker")
        self.workers = workers
        self.mode = mode
        # Thread and inline modes share one executor per pool: the
        # board pool's exclusive checkout makes concurrent leases safe,
        # and a pool-private executor keeps warm-board state from
        # leaking between services (tests build many).
        self._exec = Executor() if mode != "process" else None
        if mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=workers)
        elif mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-worker")
        else:
            self._executor = None

    def submit(self, payload: JobPayload) -> Future:
        """Dispatch one payload; returns a future of the result dict."""
        if self.mode == "process":
            return self._executor.submit(_execute_in_process, payload)
        if self.mode == "thread":
            return self._executor.submit(_run_payload, self._exec, payload)
        future = Future()
        try:
            future.set_result(_run_payload(self._exec, payload))
        except BaseException as exc:  # simulator bug: surface via future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
        if self._exec is not None:
            self._exec.pool.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False
