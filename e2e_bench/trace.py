"""Span tracing installed from the benchmark's side, for one traced run.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public entry points through which work crosses into each layer --
class methods by replacing the class attribute, module functions by
replacing every ``repro.*`` module global bound to them, callbacks by
wrapping them where a public registration point receives them -- and
:meth:`Installation.uninstall` puts the original objects back, so an
untraced run in the same interpreter is byte-for-byte the code the
repository ships.

A span is ``(name, start_ns, end_ns, parent)`` on the process CPU clock
(``process_time_ns``, user + system), the clock the end-to-end metrics
are measured on, so the rows add up to the op time those metrics use.
Spans stay in memory until :meth:`Tracer.write_jsonl`.  The simulator,
the fault campaign and the chaos driver are all single-threaded and
call the wrapped functions synchronously, so a plain stack of open
spans yields the parent.  No wrapped function is a generator function:
a span around one would time the creation of the generator, not its
body.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  The benchmark opens one root span per op, so the self
times of all rows, root included, sum to the op total exactly.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import process_time_ns
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

#: Name of the per-op root span; its self time is work no wrapped layer
#: claimed (stack wiring, the episode loop, the campaign's bookkeeping).
ROOT = "op"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        #: index -> [name, start_ns, end_ns, parent index or -1, op index]
        self.spans: List[list] = []
        #: span name -> accumulated count read at the span's boundary.
        self.counts: Dict[str, float] = defaultdict(float)
        #: span name -> maximum value read at the span's boundary.
        self.maxima: Dict[str, float] = {}
        self._open: List[int] = []
        self._op = -1

    # ------------------------------------------------------------------
    def begin_op(self, op_index: int) -> None:
        """Open the root span of one op; wrappers record only inside."""
        self._op = op_index
        self._open.append(len(self.spans))
        self.spans.append([ROOT, process_time_ns(), 0, -1, op_index])

    def end_op(self) -> None:
        """Close the current op's root span."""
        end = process_time_ns()
        self.spans[self._open.pop()][2] = end

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable[[tuple, object], float]] = None,
        peak: Optional[Callable[[tuple, object], float]] = None,
    ) -> Callable:
        """Return *fn* recording one span named *name* per call.

        *count(args, result)* adds to ``counts[name]`` and
        *peak(args, result)* raises ``maxima[name]``; both read the
        layer's own arguments, return value or public counters at the
        boundary where the work happens.
        """
        spans = self.spans
        open_spans = self._open
        counts = self.counts
        maxima = self.maxima
        clock = process_time_ns

        def traced(*args, **kwargs):
            if not open_spans:  # outside an op: warm-up, checks, pins
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0, 0, open_spans[-1], self._op]
            spans.append(record)
            open_spans.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()
            if count is not None:
                counts[name] += count(args, result)
            if peak is not None:
                value = peak(args, result)
                if value > maxima.get(name, float("-inf")):
                    maxima[name] = value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def self_times(
        self, op_scale: Optional[Dict[int, float]] = None
    ) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """``(self_ns by name, calls by name, total root ns)``."""
        return self_times(self.spans, op_scale)

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON line (index = line number)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op,
                }, separators=(",", ":")) + "\n")


def self_times(
    spans: Iterable[list],
    op_scale: Optional[Dict[int, float]] = None,
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Aggregate spans ``[name, start, end, parent, op]`` by name.

    Returns self time per name (duration minus children), call count
    per name, and the summed duration of the root spans.  Children are
    properly nested in their parent, so subtracting each span's
    duration from its parent's self time is exact.  *op_scale* maps an
    op index to the factor its durations are multiplied by (the host's
    speed during that op); a span and its parent belong to one op.
    """
    spans = list(spans)
    self_ns: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    root_total = 0.0
    for span in spans:
        name, start, end, parent = span[0], span[1], span[2], span[3]
        duration = end - start
        if op_scale is not None:
            duration *= op_scale[span[4]]
        self_ns[name] += duration
        calls[name] += 1
        if parent < 0:
            root_total += duration
        else:
            self_ns[spans[parent][0]] -= duration
    return dict(self_ns), dict(calls), root_total


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
class _Patch(NamedTuple):
    """One replaced attribute and what to put back."""

    owner: object
    attr: str
    original: object


def _defined_on(cls, attr: str, row: str):
    """The class in *cls*'s MRO whose ``__dict__`` holds *attr*."""
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise LookupError(
        f"trace row {row!r}: {cls.__module__}.{cls.__qualname__}.{attr} "
        f"does not exist (renamed or removed?)"
    )


class _TracedHooks(list):
    """A DDS endpoint's hook list that wraps what is registered on it."""

    def __init__(self, wrap: Callable[[Callable], Callable]) -> None:
        super().__init__()
        self._wrap = wrap

    def append(self, hook: Callable) -> None:
        super().append(self._wrap(hook))

    def insert(self, index: int, hook: Callable) -> None:
        super().insert(index, self._wrap(hook))


class Installation:
    """The set of live patches of one traced run."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches: List[_Patch] = []

    def _replace(self, owner, attr: str, replacement) -> None:
        self.patches.append(_Patch(owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap_by_module(self, rows: Dict[str, str]) -> Callable:
        """Wrap a callback under the row *rows* gives the module (or an
        enclosing package) that defines it; others pass through."""
        def wrap(callback: Callable) -> Callable:
            module = getattr(callback, "__module__", None) or ""
            for prefix, row in rows.items():
                if module == prefix or module.startswith(prefix + "."):
                    return self.tracer.wrap(callback, row)
            return callback
        return wrap

    def method(self, cls, attr: str, name: str, **reads) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method)."""
        owner = _defined_on(cls, attr, name)
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                self.tracer.wrap(original.__func__, name, **reads)
            )
        else:
            wrapped = self.tracer.wrap(original, name, **reads)
        self._replace(owner, attr, wrapped)

    def function(self, module, attr: str, name: str, **reads) -> None:
        """Wrap a module function wherever ``repro`` modules bound it
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(module, attr, None)
        if original is None:
            raise LookupError(
                f"trace row {name!r}: {module.__name__}.{attr} does not "
                f"exist (renamed or removed?)"
            )
        wrapped = self.tracer.wrap(original, name, **reads)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapped)

    def callback_argument(
        self, cls, attr: str, position: int, keyword: str,
        rows: Dict[str, str],
    ) -> None:
        """Wrap the callback handed to the registration method
        ``cls.attr`` (argument *position*, ``self`` = 0, or *keyword*)
        under the row of the module that defines the callback."""
        owner = _defined_on(cls, attr, "/".join(sorted(set(rows.values()))))
        original = vars(owner)[attr]
        wrap = self._wrap_by_module(rows)

        def registering(*args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = wrap(kwargs[keyword])
            else:
                args = (*args[:position], wrap(args[position]),
                        *args[position + 1:])
            return original(*args, **kwargs)

        registering.__wrapped__ = original
        self._replace(owner, attr, registering)

    def hook_lists(
        self, cls, attrs: Sequence[str], rows: Dict[str, str]
    ) -> None:
        """Give every new ``cls`` instance hook lists *attrs* that wrap
        the hooks registered on them, under the row of the module that
        defines the hook.  The lists are the endpoint's public
        registration point; who appends what to them is internal."""
        fed = "/".join(sorted(set(rows.values())))
        owner = _defined_on(cls, "__init__", fed)
        original = vars(owner)["__init__"]
        wrap = self._wrap_by_module(rows)

        def init(endpoint, *args, **kwargs):
            original(endpoint, *args, **kwargs)
            for attr in attrs:
                hooks = getattr(endpoint, attr, None)
                if hooks is None:
                    raise LookupError(
                        f"trace row {fed!r}: {cls.__qualname__}.{attr} does "
                        f"not exist (renamed or removed?)"
                    )
                traced = _TracedHooks(wrap)
                for hook in hooks:
                    traced.append(hook)
                setattr(endpoint, attr, traced)

        init.__wrapped__ = original
        self._replace(owner, "__init__", init)

    def uninstall(self) -> None:
        """Restore every replaced attribute to the original object."""
        while self.patches:
            patch = self.patches.pop()
            setattr(patch.owner, patch.attr, patch.original)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary the five workloads cross.

    Span names are the layer rows of the benchmark's report; the
    mapping from rows to per-layer metrics lives in
    :mod:`e2e_bench.metrics`.  The layers are imported here (not at
    module import) so ``import e2e_bench.trace`` has no side effects.
    """
    inst = Installation(tracer)
    try:
        _install_stack_layers(inst)
        _install_fault_layers(inst)
        _install_fleet_layers(inst)
    except BaseException:
        inst.uninstall()
        raise
    return inst


#: Rows of callbacks that reach a layer through a registration point,
#: by the module or package that defines the callback.
HOOK_ROWS = {
    "repro.core": "core.monitor.hooks",
    "repro.faults": "faults.ground_truth",
}
SUBSCRIPTION_ROWS = {"repro.perception.fusion": "perception.fusion"}


def _install_stack_layers(inst: Installation) -> None:
    from repro.core.chain_runtime import ChainRuntime
    from repro.dds.reader import DataReader
    from repro.dds.writer import DataWriter
    from repro.network.link import Link
    from repro.perception import clustering, ground_filter
    from repro.perception.scenario import DrivingScenario
    from repro.perception.stack import PerceptionStack
    from repro.ros.executor import SingleThreadedExecutor
    from repro.ros.node import Node
    from repro.sim.kernel import Simulator

    inst.method(Simulator, "run", "sim", count=lambda args, fired: fired)
    inst.method(PerceptionStack, "__init__", "perception.stack_build")
    inst.method(DrivingScenario, "lidar_frame", "perception.scenario")
    inst.callback_argument(Node, "create_subscription", 2, "callback",
                           SUBSCRIPTION_ROWS)
    inst.function(ground_filter, "classify_ground",
                  "perception.ground_filter")
    inst.function(clustering, "euclidean_clusters", "perception.clustering",
                  count=lambda args, clusters: len(args[0]))
    inst.function(clustering, "boxes_from_clusters", "perception.clustering")
    inst.method(DataWriter, "write", "dds.write")
    inst.method(DataReader, "issue_receive", "dds.receive")
    inst.method(DataReader, "take", "dds.receive")
    # Ordinary deliveries reach a reader from the kernel and the network
    # stack through ``_receive``: the one boundary with no public name.
    # Without it their time reads as ``sim``; the other rows still hold.
    try:
        inst.method(DataReader, "_receive", "dds.receive")
    except LookupError as missing:
        print(f"warning: {missing}; deliveries count under their caller's "
              f"row", file=sys.stderr)
    inst.method(Link, "transmit", "network.transmit")
    inst.method(SingleThreadedExecutor, "enqueue", "ros.enqueue")
    inst.method(ChainRuntime, "report", "core.chain_runtime.report")
    inst.method(ChainRuntime, "report_exception",
                "core.chain_runtime.report")
    # The monitors (and the campaign's ground-truth recorder) enter
    # through hooks they register on DDS readers and writers; without
    # these rows their time would read as DDS time.
    inst.hook_lists(DataReader, ("receive_filters", "on_receive_hooks"),
                    HOOK_ROWS)
    inst.hook_lists(DataWriter, ("publish_filters", "on_publish_hooks"),
                    HOOK_ROWS)


def _install_fault_layers(inst: Installation) -> None:
    from repro.faults import oracles
    from repro.faults.degradation import GracefulDegradationManager
    from repro.faults.ground_truth import GroundTruthRecorder

    inst.function(oracles, "check_soundness", "faults.oracle")
    inst.function(oracles, "check_completeness", "faults.oracle")
    inst.method(GroundTruthRecorder, "__init__", "faults.ground_truth")
    inst.method(GracefulDegradationManager, "__init__", "faults.degradation")


def _install_fleet_layers(inst: Installation) -> None:
    from repro.telemetry.gateway.service import FleetGateway
    from repro.telemetry.loadgen import FleetLoadGenerator
    from repro.telemetry.service import TelemetryService
    from repro.telemetry.uplink import transport
    from repro.telemetry.uplink.ingest import UplinkIngestor
    from repro.telemetry.uplink.wal import WalSpooler
    from repro.telemetry.uplink.window import WindowedUplinkClient

    inst.method(FleetLoadGenerator, "materialize", "telemetry.loadgen")
    inst.method(WalSpooler, "append_many", "telemetry.uplink.wal.append",
                peak=lambda args, _r: args[0].total_bytes)
    inst.method(WalSpooler, "ack_through", "telemetry.uplink.wal.ack")
    inst.method(WindowedUplinkClient, "tick", "telemetry.uplink.window.tick")
    inst.method(WindowedUplinkClient, "on_ack",
                "telemetry.uplink.window.on_ack")
    for attr in ("encode_frame", "decode_frame", "encode_ack",
                 "decode_envelope"):
        inst.function(transport, attr, "telemetry.uplink.transport.codec")
    inst.method(transport.AdversarialChannel, "send",
                "telemetry.uplink.transport.channel")
    inst.method(transport.AdversarialChannel, "step",
                "telemetry.uplink.transport.channel")
    inst.method(FleetGateway, "handle_payload", "telemetry.gateway.handle",
                peak=lambda args, _r: args[0].backlog_records)
    inst.method(FleetGateway, "step", "telemetry.gateway.step")
    inst.method(UplinkIngestor, "ingest_frame",
                "telemetry.uplink.ingest.frame")
    inst.method(UplinkIngestor, "checkpoint",
                "telemetry.uplink.ingest.checkpoint")
    inst.method(UplinkIngestor, "recover", "telemetry.uplink.ingest.recover")
    for attr in ("ingest_many", "ingest_batch", "pump"):
        inst.method(TelemetryService, attr, "telemetry.service")
