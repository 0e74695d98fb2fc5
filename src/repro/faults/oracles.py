"""Verification oracles: soundness and no-silent-violation.

*Soundness* -- every violation a monitor reported corresponds to a real
overrun: for each reported MISS/RECOVERED of segment ``s`` at activation
``n``, the ground-truth end event either never happened, happened more
than ``d_mon - epsilon`` after the real start, or -- for remote
monitors, whose deadline grid is anchored at the send time of the last
*accepted* sample and advances one period per timeout -- arrived more
than ``d_mon - epsilon`` past that reconstructed grid deadline.  The
grid rule matters when an upstream recovery delays every send: transit
stays fast, yet each sample genuinely violates the synchronization-based
arrival contract of Sec. IV-B.  ``epsilon`` is the total clock-error
budget (PTP bound plus any injected clock faults' bounds plus a
margin): a monitor whose clock is legitimately wrong by up to
``epsilon`` may report a miss that global time disagrees with by that
much, and the paper's monitors only promise detection to within the sync
error.

*Completeness / no-silent-violation* -- every ground-truth violation of
a chain activation is visible in the chain runtime's records: either a
detected temporal exception (MISS/SKIPPED) or a handler recovery
(RECOVERED).  A ground-truth violation is an activation whose sink
completion is missing or over the end-to-end budget, **or** whose source
sensor data never entered the pipeline (the sink was served substitute
data) -- the stuck/silent-sensor case that liveliness checks miss.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.chain_runtime import Outcome

#: Chain -> the source segment whose data the chain nominally carries.
CHAIN_SOURCE = {
    "front_objects": "s0_front",
    "front_ground": "s0_front",
    "rear_objects": "s0_rear",
    "rear_ground": "s0_rear",
}

#: Outcomes that count as "the violation was made observable".
DETECTED_OUTCOMES = (Outcome.MISS, Outcome.SKIPPED, Outcome.RECOVERED)


@dataclass
class OracleFailure:
    """One oracle counterexample."""

    oracle: str
    subject: str  # segment or chain name
    activation: int
    detail: str


@dataclass
class OracleReport:
    """Verdict of one oracle over one run."""

    name: str
    #: How many reported violations (soundness) / ground-truth
    #: violations (completeness) were examined.
    checked: int = 0
    failures: List[OracleFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no counterexample was found."""
        return not self.failures


def check_soundness(stack, truth, epsilon_ns: int,
                    first: int, last: int) -> OracleReport:
    """No false alarms: each reported miss maps to a real overrun.

    Checks activations in ``[first, last)``; *epsilon_ns* is the clock
    error the monitors may legitimately carry.
    """
    report = OracleReport(name="soundness")
    period = stack.config.period
    sources: Dict[str, object] = {}
    sources.update(stack.local_runtimes)
    sources.update(stack.remote_monitors)
    for seg_name, source in sources.items():
        d_mon = source.segment.d_mon
        is_remote = seg_name in stack.remote_monitors
        accepted = sorted(
            a for a, _lat, o in source.latencies if o is Outcome.OK
        )
        for n, _latency, outcome in source.latencies:
            if outcome not in (Outcome.MISS, Outcome.RECOVERED):
                continue
            if not (first <= n < last):
                continue
            report.checked += 1
            start = truth.segment_start(seg_name, n)
            end = truth.segment_end(seg_name, n)
            if end is None or start is None:
                continue  # the end event truly never occurred
            real = end - start
            if real > d_mon - epsilon_ns:
                continue  # genuinely (or indistinguishably) late
            if is_remote:
                # Reconstruct the monitor's deadline grid: anchored at
                # the send of the last accepted sample before n, one
                # period per activation since.
                idx = bisect.bisect_left(accepted, n)
                anchor_n = accepted[idx - 1] if idx > 0 else None
                anchor = (truth.segment_start(seg_name, anchor_n)
                          if anchor_n is not None else None)
                if anchor is None:
                    continue  # no established grid (cold start / watchdog)
                grid_late = end - (anchor + (n - anchor_n) * period)
                if grid_late > d_mon - epsilon_ns:
                    continue  # late w.r.t. the arrival grid: justified
            report.failures.append(OracleFailure(
                oracle="soundness", subject=seg_name, activation=n,
                detail=(
                    f"reported {outcome.value} but real latency "
                    f"{real / 1e6:.3f} ms <= d_mon - eps = "
                    f"{(d_mon - epsilon_ns) / 1e6:.3f} ms"
                ),
            ))
    return report


def check_completeness(stack, truth, first: int, last: int) -> OracleReport:
    """No silent violations: every ground-truth overrun left a record."""
    report = OracleReport(name="no_silent_violation")
    budget = stack.config.budget_e2e
    for chain_name, runtime in stack.chain_runtimes.items():
        source_segment = CHAIN_SOURCE[chain_name]
        for n in range(first, last):
            e2e = truth.e2e_latency(chain_name, n)
            served = e2e is not None and e2e <= budget
            source_entered = truth.accepted_end(source_segment, n) is not None
            if served and source_entered:
                continue  # no ground-truth violation at this activation
            report.checked += 1
            records = runtime.records.get(n, {})
            if any(r.outcome in DETECTED_OUTCOMES for r in records.values()):
                continue  # detected or recovered: observable
            if e2e is None:
                why = "no sink completion"
            elif not served:
                why = f"e2e {e2e / 1e6:.1f} ms over budget {budget / 1e6:.1f} ms"
            else:
                why = f"{source_segment} data never entered the pipeline"
            report.failures.append(OracleFailure(
                oracle="no_silent_violation", subject=chain_name, activation=n,
                detail=f"silent violation: {why}; records={_render(records)}",
            ))
    return report


def _render(records) -> str:
    if not records:
        return "{}"
    return "{" + ", ".join(
        f"{seg}: {rec.outcome.value}" for seg, rec in sorted(records.items())
    ) + "}"
