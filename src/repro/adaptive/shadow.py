"""Shadow-replica validation of candidate budget epochs.

Before a candidate epoch may touch a vehicle it must survive a replay
of the recent observation window against its budgets, compared with
the same replay under the incumbent (last-good) budgets.  The replica
re-derives every verdict from the *raw segment latencies* -- it does
not trust the verdicts vehicles computed under the old budgets -- so
the comparison is exactly "what would the fleet's monitors have said
had this epoch been live".

Two rejection oracles:

- **(m,k) regression** -- per ``(source, chain)``, feed the re-derived
  propagated miss series through a fresh
  :class:`~repro.core.weakly_hard.MKAutomaton`; reject when the
  candidate's total violation count exceeds the baseline's.
- **silent chain violation** -- ground truth the monitors cannot see
  directly: an activation whose end-to-end latency exceeds ``B_e2e``
  while *no* per-segment deadline fires under the candidate budgets.
  A single silent violation rejects: budgets that blind the monitor
  are worse than budgets that merely miss.

Determinism: the replay consumes :func:`~repro.adaptive.resolver.align_window`
rows (sorted by source then activation), so any shuffle of the window
that preserves record content produces the identical verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.adaptive.epochs import BudgetEpoch
from repro.adaptive.resolver import align_window
from repro.core.chains import EventChain
from repro.core.weakly_hard import MKAutomaton


#: Complete activations (summed over chains) required to judge; a
#: thinner window rejects -- conservatively -- rather than guesses.
MIN_ACTIVATIONS = 8


@dataclass
class ShadowVerdict:
    """Outcome of validating one candidate against one baseline."""

    accepted: bool
    candidate_id: int
    baseline_id: int
    activations: int = 0
    candidate_violations: int = 0
    baseline_violations: int = 0
    candidate_silent: int = 0
    baseline_silent: int = 0
    reasons: List[str] = field(default_factory=list)
    per_chain: Dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "candidate_id": self.candidate_id,
            "baseline_id": self.baseline_id,
            "activations": self.activations,
            "candidate_violations": self.candidate_violations,
            "baseline_violations": self.baseline_violations,
            "candidate_silent": self.candidate_silent,
            "baseline_silent": self.baseline_silent,
            "reasons": list(self.reasons),
            "per_chain": dict(sorted(self.per_chain.items())),
        }


def _replay(
    chain: EventChain,
    rows: Sequence[Tuple[str, int, Dict[str, int]]],
    budgets: Mapping[str, int],
) -> Tuple[int, int]:
    """Replay aligned rows under one budget map.

    Returns ``(mk_violations, silent_violations)``: per-source
    :class:`MKAutomaton` totals over the propagated miss series, and
    the count of true e2e violations no segment deadline caught.
    """
    windows: Dict[str, MKAutomaton] = {}
    violations = 0
    silent = 0
    for source, _activation, latencies in rows:
        detected = any(
            latencies[segment.name] > budgets[segment.name]
            for segment in chain.segments
        )
        window = windows.get(source)
        if window is None:
            window = windows[source] = MKAutomaton(chain.mk)
        if window.record(detected):
            violations += 1
        e2e = sum(latencies[segment.name] for segment in chain.segments)
        if e2e > chain.budget_e2e and not detected:
            silent += 1
    return violations, silent


class ShadowValidator:
    """Replays the window on a shadow replica; accepts or rejects."""

    def __init__(self, chains: Mapping[str, EventChain]):
        if not chains:
            raise ValueError("need at least one chain to validate against")
        self.chains = dict(chains)
        self.validations = 0
        self.accepted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    def validate(
        self,
        window: Sequence[Sequence],
        candidate: BudgetEpoch,
        baseline: BudgetEpoch,
    ) -> ShadowVerdict:
        verdict = ShadowVerdict(
            accepted=True,
            candidate_id=candidate.epoch_id,
            baseline_id=baseline.epoch_id,
        )
        for name in sorted(self.chains):
            chain = self.chains[name]
            missing = [
                seg.name for seg in chain.segments
                if name not in candidate.budgets
                or seg.name not in candidate.budgets[name]
            ]
            if missing:
                verdict.accepted = False
                verdict.reasons.append(
                    f"{name}: candidate misses budgets for {missing}"
                )
                continue
            rows = align_window(window, chain)
            cand_violations, cand_silent = _replay(
                chain, rows, candidate.budgets[name]
            )
            base_budgets = baseline.budgets.get(name)
            base_violations, base_silent = (
                _replay(chain, rows, base_budgets)
                if base_budgets is not None else (0, 0)
            )
            verdict.activations += len(rows)
            verdict.candidate_violations += cand_violations
            verdict.baseline_violations += base_violations
            verdict.candidate_silent += cand_silent
            verdict.baseline_silent += base_silent
            verdict.per_chain[name] = {
                "activations": len(rows),
                "candidate_violations": cand_violations,
                "baseline_violations": base_violations,
                "candidate_silent": cand_silent,
                "baseline_silent": base_silent,
            }
            if cand_violations > base_violations:
                verdict.accepted = False
                verdict.reasons.append(
                    f"{name}: (m,k) regression -- {cand_violations} "
                    f"violations vs {base_violations} under baseline"
                )
            if cand_silent > 0:
                verdict.accepted = False
                verdict.reasons.append(
                    f"{name}: {cand_silent} silent chain violations "
                    f"(e2e > B_e2e with no deadline fired)"
                )
        if verdict.activations < MIN_ACTIVATIONS:
            verdict.accepted = False
            verdict.reasons.append(
                f"window too thin to judge: {verdict.activations} "
                f"activations < {MIN_ACTIVATIONS}"
            )
        self.validations += 1
        if verdict.accepted:
            self.accepted += 1
        else:
            self.rejected += 1
        return verdict

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ShadowValidator chains={len(self.chains)} "
            f"accepted={self.accepted} rejected={self.rejected}>"
        )
