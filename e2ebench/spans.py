"""Per-layer spans, recorded from outside the program.

The traced run (``--trace 1``) replaces public entry points of each
``repro`` layer with thin wrappers defined here; nothing in ``src/``
knows it is being measured.  A span is one call of a wrapped entry
point.  A layer's *self time* is the span's duration minus the wrapped
spans nested inside it on the same thread, so the self times of all
layers add up to the time the spans cover without double counting.

Module functions that callers import by name (``get_prepared``,
``get_timing_table``) cannot be replaced from outside after import.
Their caches are read through the classes they construct on a miss:
a launch whose program had to be prepared, or timed, is a miss.  (The
caches' own ``*_cache_stats()`` count one lookup per workgroup, so
they report hits even for a program never seen before.)

Spans are only recorded while :attr:`Tracer.enabled` is set -- the
benchmark turns it on for the timed phase, after set-up.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: (name, unit, better) of every per-layer metric, in report order.
#: ``BENCHMARK.json``'s ``per_layer`` list must match it exactly (the
#: self-test checks that).
LAYER_METRICS = (
    ("soc.launch_s", "s", "lower"),
    ("soc.launch_us_per_inst", "us/inst", "lower"),
    ("soc.launch_multicu_s", "s", "lower"),
    ("soc.launches.superblock", "count", "higher"),
    ("soc.launches.parallel", "count", "lower"),
    ("soc.launches.reference", "count", "lower"),
    ("soc.resume_launch_s", "s", "lower"),
    ("obs.profiled_launch_us_per_inst", "us/inst", "lower"),
    ("cu.prepare_s", "s", "lower"),
    ("cu.superblock_compile_s", "s", "lower"),
    ("cu.timing_table_s", "s", "lower"),
    ("cu.prepared_hit_ratio", "ratio", "higher"),
    ("cu.timing_table_hit_ratio", "ratio", "higher"),
    ("asm.assemble_s", "s", "lower"),
    ("asm.program_s", "s", "lower"),
    ("runtime.upload_s", "s", "lower"),
    ("runtime.preload_s", "s", "lower"),
    ("kernels.prepare_s", "s", "lower"),
    ("kernels.verify_s", "s", "lower"),
    ("exec.execute_self_s", "s", "lower"),
    ("exec.lease_s", "s", "lower"),
    ("exec.warm_board_ratio", "ratio", "higher"),
    ("exec.checkpoint_s", "s", "lower"),
    ("exec.restore_s", "s", "lower"),
    ("core.trim_s", "s", "lower"),
    ("fpga.synthesize_s", "s", "lower"),
    ("dse.resolve_self_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.queue_wait_p90_s", "s", "lower"),
    ("service.preemptions_per_long_job", "count", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.profiled_latency_p50_s", "s", "lower"),
    ("mem.prefetch_hit_ratio", "ratio", "higher"),
    ("mem.global_transactions", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.covered_share", "ratio", "higher"),
)


class _Entered:
    """A context manager already entered: ``with`` yields its value and
    hands the exit on to the original manager."""

    def __init__(self, manager, value):
        self._manager = manager
        self._value = value

    def __enter__(self):
        return self._value

    def __exit__(self, *exc_info):
        return self._manager.__exit__(*exc_info)


class Tracer:
    """Self-time accounting over wrapped entry points, per thread."""

    def __init__(self):
        self.enabled = False
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = 0
        self._outer = []            # (start, end) of outermost spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, /, *args, **kwargs):
        """Run ``fn`` in a span named ``name`` and return its result;
        :meth:`last_self` then gives the span's self time.  Exceptions
        propagate after the span is recorded."""
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            own = duration - children[0]
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.self_s[name] += own
                self.spans += 1
                if not stack:
                    self._outer.append((start, end))
            self._local.last_self = own

    def last_self(self):
        """Self seconds of the span that just ended on this thread."""
        return self._local.last_self

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, kwargs, result, self_seconds)`` runs after each
        call that returned normally while tracing was enabled.
        """
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result, tracer.last_self())
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_context(self, owner, attr, name, after=None):
        """Like :meth:`wrap` for a method returning a context manager:
        the span covers entering it (acquisition), not the body."""
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            manager = original(*args, **kwargs)
            if not tracer.enabled:
                return manager
            value = tracer.call(name, manager.__enter__)
            if after is not None:
                after(args, kwargs, value, tracer.last_self())
            return _Entered(manager, value)

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap(self):
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def covered_seconds(self):
        """Length of the union of outermost spans over all threads."""
        with self._lock:
            spans = sorted(self._outer)
        total, cur_start, cur_end = 0.0, None, None
        for start, end in spans:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            elif end > cur_end:
                cur_end = end
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def reset(self):
        with self._lock:
            self.self_s.clear()
            self.counts.clear()
            self.spans = 0
            self._outer.clear()


def span_cost_seconds(repeats=20000):
    """Host cost of one span: a wrapped no-op against the bare one,
    best of three rounds (the wrapper's cost, not the host's noise)."""

    class _Probe:
        def noop(self):
            return None

    tracer = Tracer()
    probe = _Probe()
    bare = []
    for _ in range(3):
        start = perf_counter()
        for _ in range(repeats):
            probe.noop()
        bare.append(perf_counter() - start)
    tracer.wrap(_Probe, "noop", "probe")
    tracer.enabled = True
    wrapped = []
    for _ in range(3):
        start = perf_counter()
        for _ in range(repeats):
            probe.noop()
        wrapped.append(perf_counter() - start)
    tracer.unwrap()
    return max(0.0, (min(wrapped) - min(bare)) / repeats)


def _ratio(hits, total):
    return hits / total if total else 0.0


def percentile(values, q):
    """Linear-interpolated percentile (0 for no samples)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = q / 100.0 * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def install(tracer):
    """Wrap every layer's public entry points; returns a :class:`Layers`
    collector that turns the tracer's spans into the per-layer
    metrics."""
    from repro.asm.assembler import Assembler
    from repro.asm.program import Program
    from repro.core.trimmer import TrimmingTool
    from repro.cu.prepared import PreparedProgram
    from repro.cu.timing import TimingTable
    from repro.dse.runner import SweepRunner
    from repro.exec.executor import Executor
    from repro.exec.lease import BoardLease, BoardPool
    from repro.fpga.synthesis import Synthesizer
    from repro.kernels import KERNELS
    from repro.kernels.base import Benchmark
    from repro.runtime.device import SoftGpu
    from repro.service.pool import WorkerPool
    from repro.service.scheduler import KernelService
    from repro.soc.gpu import Gpu

    layers = Layers(tracer)

    def after_launch(args, kwargs, result, own):
        gpu = args[0]
        tracer.add("soc.launches")
        tracer.add("soc.launches." + result.engine)
        executed = result.stats.instructions
        if gpu.obs is not None:
            tracer.add("obs.profiled_launch_s", own)
            tracer.add("obs.profiled_launch_inst", executed)
        else:
            tracer.add("soc.plain_launch_s", own)
            tracer.add("soc.plain_launch_inst", executed)
        if len(gpu.cus) > 1:
            tracer.add("soc.launch_multicu_s", own)

    tracer.wrap(Gpu, "launch", "soc.launch_s", after=after_launch)
    tracer.wrap(Gpu, "resume_launch", "soc.resume_launch_s")

    def count(name):
        return lambda args, kwargs, result, own: tracer.add(name)

    tracer.wrap(PreparedProgram, "__init__", "cu.prepare_s",
                after=count("cu.prepared_misses"))
    tracer.wrap(PreparedProgram, "superblocks", "cu.superblock_compile_s")
    tracer.wrap(TimingTable, "__init__", "cu.timing_table_s",
                after=count("cu.timing_table_misses"))

    tracer.wrap(Assembler, "assemble", "asm.assemble_s")
    tracer.wrap(Program, "__init__", "asm.program_s")

    tracer.wrap(SoftGpu, "upload", "runtime.upload_s")
    tracer.wrap(SoftGpu, "preload_all", "runtime.preload_s")

    for cls in {Benchmark, *KERNELS.values()}:
        for attr in ("prepare", "verify"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "kernels.{}_s".format(attr))

    def after_execute(args, kwargs, result, own):
        stats = result.memory_stats
        tracer.add("mem.prefetch_hits", stats.get("prefetch_hits", 0))
        tracer.add("mem.prefetch_misses", stats.get("prefetch_misses", 0))

    def after_lease(args, kwargs, handle, own):
        tracer.add("exec.leases")
        tracer.add("exec.leases_warm", 1 if handle.warm else 0)

    tracer.wrap(Executor, "execute", "exec.execute_self_s",
                after=after_execute)
    tracer.wrap_context(BoardPool, "lease", "exec.lease_s",
                        after=after_lease)
    tracer.wrap(BoardLease, "checkpoint", "exec.checkpoint_s")
    tracer.wrap(BoardLease, "restore", "exec.restore_s")

    tracer.wrap(TrimmingTool, "trim", "core.trim_s")
    tracer.wrap(Synthesizer, "synthesize", "fpga.synthesize_s")
    tracer.wrap(SweepRunner, "resolve", "dse.resolve_self_s")

    def after_submit(args, kwargs, job_id, own):
        layers.submitted[job_id] = perf_counter()

    def after_dispatch(args, kwargs, future, own):
        payload = args[1]
        if payload.job_id not in layers.dispatched:
            layers.dispatched[payload.job_id] = perf_counter()

    # ``KernelService.result`` is not wrapped: its span would be the
    # client's blocking wait, which is no layer's work.
    tracer.wrap(KernelService, "submit", "service.submit_s",
                after=after_submit)
    tracer.wrap(WorkerPool, "submit", "service.dispatch_s",
                after=after_dispatch)
    return layers


class Layers:
    """Turns one traced timed phase into the per-layer metrics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.submitted = {}
        self.dispatched = {}

    def begin(self):
        """Start of the timed phase."""
        self.submitted.clear()
        self.dispatched.clear()
        self.tracer.reset()
        self.tracer.enabled = True

    def end(self):
        self.tracer.enabled = False

    def resume(self):
        """Record again after :meth:`end`, keeping what was recorded."""
        self.tracer.enabled = True

    def metrics(self, seconds, extras, span_cost):
        """Every :data:`LAYER_METRICS` value.  ``extras`` carries what
        only the workload sees: the service's cache hit ratio, the
        long jobs' preemption counts and the profiled jobs'
        latencies."""
        t = self.tracer
        s, c = t.self_s, t.counts

        def hit_ratio(misses):
            launches = c["soc.launches"]
            return _ratio(max(0.0, launches - c[misses]), launches)

        # The dispatcher may take a job before ``submit`` has returned
        # to the client; that job did not wait.
        waits = [max(0.0, self.dispatched[job] - submitted)
                 for job, submitted in self.submitted.items()
                 if job in self.dispatched]
        transactions = c["mem.prefetch_hits"] + c["mem.prefetch_misses"]
        values = {
            "soc.launch_s": s["soc.launch_s"],
            "soc.launch_us_per_inst": 1e6 * _ratio(
                c["soc.plain_launch_s"], c["soc.plain_launch_inst"]),
            "soc.launch_multicu_s": c["soc.launch_multicu_s"],
            "soc.launches.superblock": c["soc.launches.superblock"],
            "soc.launches.parallel": c["soc.launches.parallel"],
            "soc.launches.reference": c["soc.launches.reference"],
            "soc.resume_launch_s": s["soc.resume_launch_s"],
            "obs.profiled_launch_us_per_inst": 1e6 * _ratio(
                c["obs.profiled_launch_s"], c["obs.profiled_launch_inst"]),
            "cu.prepare_s": s["cu.prepare_s"],
            "cu.superblock_compile_s": s["cu.superblock_compile_s"],
            "cu.timing_table_s": s["cu.timing_table_s"],
            "cu.prepared_hit_ratio": hit_ratio("cu.prepared_misses"),
            "cu.timing_table_hit_ratio": hit_ratio("cu.timing_table_misses"),
            "asm.assemble_s": s["asm.assemble_s"],
            "asm.program_s": s["asm.program_s"],
            "runtime.upload_s": s["runtime.upload_s"],
            "runtime.preload_s": s["runtime.preload_s"],
            "kernels.prepare_s": s["kernels.prepare_s"],
            "kernels.verify_s": s["kernels.verify_s"],
            "exec.execute_self_s": s["exec.execute_self_s"],
            "exec.lease_s": s["exec.lease_s"],
            "exec.warm_board_ratio": _ratio(c["exec.leases_warm"],
                                            c["exec.leases"]),
            "exec.checkpoint_s": s["exec.checkpoint_s"],
            "exec.restore_s": s["exec.restore_s"],
            "core.trim_s": s["core.trim_s"],
            "fpga.synthesize_s": s["fpga.synthesize_s"],
            "dse.resolve_self_s": s["dse.resolve_self_s"],
            "service.submit_s": s["service.submit_s"],
            "service.queue_wait_p90_s": percentile(waits, 90),
            "service.preemptions_per_long_job": extras.get(
                "preemptions_per_long_job", 0.0),
            "service.cache_hit_ratio": extras.get("service_cache_hit_ratio",
                                                  0.0),
            "service.profiled_latency_p50_s": percentile(
                extras.get("profiled_latencies", ()), 50),
            "mem.prefetch_hit_ratio": _ratio(c["mem.prefetch_hits"],
                                             transactions),
            "mem.global_transactions": transactions,
            "trace.overhead_ratio": _ratio(t.spans * span_cost, seconds),
            "trace.covered_share": _ratio(t.covered_seconds(), seconds),
        }
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit, _ in LAYER_METRICS}

