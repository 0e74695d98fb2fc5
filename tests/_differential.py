"""Differential fixture layer: run one scenario on production and oracle.

The fast paths (the stamped, swept heap in the simulator kernel,
the one-pass row fold of the telemetry store) are sold on a single
claim: *the fast path is observationally identical to the reference
path*.  Production ships only the fast paths; the references live in
``tests/_reference/`` (:class:`~_reference.heap_kernel.HeapSimulator`,
:func:`~_reference.scalar_store.apply_batch_scalar`).  This module
substitutes them around a scenario callable, collects one result per
engine, and asserts byte-identical canonical JSON across the set -- so
a test body only has to say *what* to run, never *how* to swap
engines.

Canonicalization matters: "the dicts compare equal" is a weaker claim
than the suite makes.  Every payload is serialized with sorted keys and
fixed separators before comparison, so the assertion really is about
bytes, and a diff prints the first divergent line instead of two
ten-kilobyte blobs.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from typing import Any, Callable, Dict, Iterator, Tuple
from unittest import mock

from _reference.heap_kernel import HeapSimulator
from _reference.scalar_store import apply_batch_scalar

#: Simulator event queues: production first (entries retired by
#: generation stamp, re-armed in place), then the lazy-cancel heap.
SIM_ENGINES: Tuple[str, ...] = ("stamped", "heap")
#: Telemetry store folds: production first, then the reference.
TELEMETRY_ENGINES: Tuple[str, ...] = ("batched", "scalar")

#: Every module that constructs a ``Simulator`` for a scenario (the
#: three production sites plus the tests' pipeline harness and
#: executor-model workload).
_SIMULATOR_SITES = (
    "repro.perception.stack",
    "repro.experiments.fig06_interarrival",
    "repro.experiments.fig12_remote_entry",
    "_harness",
    "_reference.executor_schedule",
)


@contextlib.contextmanager
def reference_engines(
    sim: bool = False, telemetry: bool = False
) -> Iterator[None]:
    """Run the block on the reference implementations.

    ``sim`` substitutes :class:`HeapSimulator` at every construction
    site; ``telemetry`` substitutes the per-record fold for
    ``ChainStateStore.apply_batch``, the one store-fold site.
    Everything is restored on exit even when the body raises.
    """
    with contextlib.ExitStack() as stack:
        if sim:
            for site in _SIMULATOR_SITES:
                stack.enter_context(mock.patch.object(
                    importlib.import_module(site), "Simulator", HeapSimulator
                ))
        if telemetry:
            stack.enter_context(mock.patch(
                "repro.telemetry.store.ChainStateStore.apply_batch",
                apply_batch_scalar,
            ))
        yield


def canonical(payload: Any) -> str:
    """Canonical JSON form of *payload* (sorted keys, no whitespace).

    Tuples become lists, enums/objects fall back to ``str`` -- good
    enough for digest payloads, which are plain types by construction.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def run_under_sim_engines(fn: Callable[[], Any]) -> Dict[str, Any]:
    """Run *fn* on the production kernel, then on the heap reference."""
    production, reference = SIM_ENGINES
    results = {production: fn()}
    with reference_engines(sim=True):
        results[reference] = fn()
    return results


def run_under_telemetry_engines(fn: Callable[[], Any]) -> Dict[str, Any]:
    """Run *fn* on the production fold, then on the scalar reference."""
    production, reference = TELEMETRY_ENGINES
    results = {production: fn()}
    with reference_engines(telemetry=True):
        results[reference] = fn()
    return results


def run_under_engine_corners(fn: Callable[[], Any]) -> Dict[str, Any]:
    """Run *fn* all-production, then all-reference (both layers)."""
    results = {"stamped+batched": fn()}
    with reference_engines(sim=True, telemetry=True):
        results["heap+scalar"] = fn()
    return results


def assert_identical(results: Dict[str, Any], context: str = "") -> str:
    """Assert every engine produced byte-identical canonical JSON.

    Returns the (shared) canonical form so callers can pin it against
    goldens too.  On mismatch the error names the engine pair and the
    first line where the serializations diverge.
    """
    assert len(results) >= 2, "need at least two engines to differ"
    items = sorted(results.items())
    ref_engine, ref_payload = items[0]
    ref = canonical(ref_payload)
    for engine, payload in items[1:]:
        got = canonical(payload)
        if got != ref:
            where = _first_divergence(ref, got)
            raise AssertionError(
                f"{context or 'payload'}: engine {engine!r} diverges from "
                f"{ref_engine!r} at {where}"
            )
    return ref


def _first_divergence(a: str, b: str) -> str:
    """Human-oriented pointer at the first differing character."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            lo = max(0, i - 40)
            return (
                f"offset {i}: ...{a[lo:i + 40]!r} != ...{b[lo:i + 40]!r}"
            )
    return f"length {len(a)} != {len(b)}"
