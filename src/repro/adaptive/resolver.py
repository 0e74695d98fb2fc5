"""Online re-derivation of ``d_mon`` from the telemetry window.

The offline workflow records a dedicated unmonitored trace; online we
already have one -- the recent window of fleet SEGMENT records held by
the control plane.  The resolver turns that window back into the
paper's CSP:

1. **Alignment** -- per chain, group SEGMENT records by
   ``(source, activation)`` and keep only complete rows (every segment
   of the chain observed).  Rows are sorted by ``(source, activation)``
   so the derived trace -- and therefore the whole epoch -- is
   invariant under delivery interleavings.
2. **Solve** -- pose :class:`~repro.budgeting.csp.BudgetingProblem`
   over the aligned trace and solve with the configured solver.  The
   solution is the *minimal* feasible assignment.
3. **Slack redistribution** -- minimal deadlines are brittle under
   drift, so the leftover end-to-end slack ``B_e2e - sum(d)`` is
   handed back to the segments.  The split is weighted by the tracing
   layer's critical-path attribution (or the store's streaming
   histogram p95 shares as a fallback): segments that dominate the
   observed critical path get the most headroom.  Raising deadlines
   never adds misses, so feasibility is preserved by construction --
   and re-checked anyway.

The control plane decides *when* to re-derive: every
``ControlPlaneConfig.rederive_every`` steps while it is idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.adaptive.epochs import BudgetEpoch
from repro.budgeting.csp import BudgetingProblem
from repro.budgeting.solvers import (
    SolverResult,
    solve_branch_and_bound,
    solve_greedy_propagated,
    solve_independent,
)
from repro.budgeting.traces import ChainTrace, SegmentTrace
from repro.core.chains import EventChain
from repro.telemetry.records import (
    ACTIVATION,
    CHAIN,
    KIND,
    KIND_SEGMENT,
    LATENCY_NS,
    SEGMENT,
    SOURCE,
)

_SOLVERS = {
    "independent": solve_independent,
    "greedy": solve_greedy_propagated,
    "bnb": solve_branch_and_bound,
}


@dataclass
class ResolverConfig:
    """Knobs of one resolver instance."""

    #: Complete activations a chain needs before re-deriving.
    min_activations: int = 12
    #: Which CSP solver re-derives the minimal assignment.
    solver: str = "greedy"
    #: Fraction of the leftover e2e slack redistributed as headroom.
    slack_share: float = 0.5

    def __post_init__(self) -> None:
        if self.min_activations < 2:
            raise ValueError("min_activations must be >= 2")
        if self.solver not in _SOLVERS:
            raise ValueError(
                f"unknown solver {self.solver!r} (have {sorted(_SOLVERS)})"
            )
        if not (0.0 <= self.slack_share <= 1.0):
            raise ValueError("slack_share must be in [0, 1]")


@dataclass
class ChainResolution:
    """One chain's outcome within a resolve pass."""

    chain: str
    schedulable: bool
    d_mon: Dict[str, int] = field(default_factory=dict)
    minimal_total: int = 0
    padded_total: int = 0
    activations: int = 0
    reason: str = ""


@dataclass
class ResolveOutcome:
    """A full resolve pass over every managed chain."""

    ok: bool
    resolutions: Dict[str, ChainResolution] = field(default_factory=dict)
    reasons: List[str] = field(default_factory=list)

    def budgets(self) -> Dict[str, Dict[str, int]]:
        return {
            name: dict(resolution.d_mon)
            for name, resolution in sorted(self.resolutions.items())
            if resolution.schedulable
        }

    def epoch(
        self,
        epoch_id: int,
        parent_id: int = -1,
        basis: Optional[Mapping[str, object]] = None,
    ) -> BudgetEpoch:
        if not self.ok:
            raise ValueError(
                f"cannot mint an epoch from a failed resolve: "
                f"{'; '.join(self.reasons)}"
            )
        return BudgetEpoch(
            epoch_id=epoch_id,
            budgets=self.budgets(),
            basis=dict(basis or {}),
            parent_id=parent_id,
        )


def align_window(
    window: Sequence[Sequence], chain: EventChain
) -> List[Tuple[str, int, Dict[str, int]]]:
    """Complete ``(source, activation, {segment: latency})`` rows of
    *chain* in a window of wire rows, sorted -- the deterministic spine
    shared by the resolver and the shadow validator."""
    wanted = {segment.name for segment in chain.segments}
    aligned: Dict[Tuple[str, int], Dict[str, int]] = {}
    for row in window:
        if (
            row[KIND] == KIND_SEGMENT
            and row[CHAIN] == chain.name
            and row[SEGMENT] in wanted
            and row[LATENCY_NS] is not None
            and row[ACTIVATION] >= 0
        ):
            latencies = aligned.setdefault((row[SOURCE], row[ACTIVATION]), {})
            # Last write wins within a key; per-source seq order makes
            # that deterministic, and duplicates carry equal payloads.
            latencies[row[SEGMENT]] = int(row[LATENCY_NS])
    return [
        (source, activation, aligned[(source, activation)])
        for source, activation in sorted(aligned)
        if wanted <= set(aligned[(source, activation)])
    ]


class BudgetResolver:
    """Re-derives one :class:`BudgetEpoch` from an observation window."""

    def __init__(
        self,
        chains: Mapping[str, EventChain],
        config: Optional[ResolverConfig] = None,
    ):
        if not chains:
            raise ValueError("need at least one chain to manage")
        self.chains = dict(chains)
        self.config = config or ResolverConfig()

    # ------------------------------------------------------------------
    def resolve(
        self,
        window: Sequence[Sequence],
        attribution: Optional[Mapping[str, float]] = None,
        percentiles: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> ResolveOutcome:
        """One resolve pass.

        *attribution* carries per-segment critical-path weights (e.g.
        p95 burn shares from
        :class:`~repro.tracing.critical_path.ChainAttribution`);
        *percentiles* is the store's fleet-wide sketch summary, used as
        the weight fallback and recorded in the epoch basis.
        """
        outcome = ResolveOutcome(ok=True)
        solver = _SOLVERS[self.config.solver]
        for name in sorted(self.chains):
            resolution = self._resolve_chain(
                self.chains[name], window, solver, attribution, percentiles
            )
            outcome.resolutions[name] = resolution
            if not resolution.schedulable:
                outcome.ok = False
                outcome.reasons.append(f"{name}: {resolution.reason}")
        return outcome

    # ------------------------------------------------------------------
    def _resolve_chain(
        self,
        chain: EventChain,
        window: Sequence[Sequence],
        solver,
        attribution: Optional[Mapping[str, float]],
        percentiles: Optional[Mapping[str, Mapping[str, float]]],
    ) -> ChainResolution:
        rows = align_window(window, chain)
        if len(rows) < self.config.min_activations:
            return ChainResolution(
                chain=chain.name, schedulable=False, activations=len(rows),
                reason=(
                    f"only {len(rows)} complete activations in window "
                    f"(need {self.config.min_activations})"
                ),
            )
        trace = ChainTrace(chain.name)
        for segment in chain.segments:
            trace.add(SegmentTrace(
                segment.name,
                [latencies[segment.name] for _, _, latencies in rows],
                d_ex=segment.d_ex,
            ))
        problem = BudgetingProblem(chain, trace)
        result: SolverResult = solver(problem)
        if not result.schedulable:
            return ChainResolution(
                chain=chain.name, schedulable=False, activations=len(rows),
                reason=result.reason or "CSP unschedulable on window",
            )
        deadlines = self._pad(chain, problem, result, attribution,
                              percentiles)
        d_mon = problem.monitored_deadlines(deadlines)
        return ChainResolution(
            chain=chain.name,
            schedulable=True,
            d_mon=d_mon,
            minimal_total=result.total,
            padded_total=int(sum(deadlines)),
            activations=len(rows),
        )

    def _pad(
        self,
        chain: EventChain,
        problem: BudgetingProblem,
        result: SolverResult,
        attribution: Optional[Mapping[str, float]],
        percentiles: Optional[Mapping[str, Mapping[str, float]]],
    ) -> List[int]:
        """Redistribute leftover e2e slack as attribution-weighted
        headroom (larger deadlines never add misses)."""
        deadlines = list(result.deadlines)
        slack = int(
            (chain.budget_e2e - result.total) * self.config.slack_share
        )
        if slack <= 0:
            return deadlines
        weights: List[float] = []
        for name in problem.order:
            weight = 0.0
            if attribution is not None:
                weight = float(attribution.get(name, 0.0))
            if weight <= 0.0 and percentiles is not None:
                stats = percentiles.get(name)
                if stats:
                    weight = float(stats.get("p95", 0.0))
            if weight <= 0.0:
                weight = 1.0
            weights.append(weight)
        total_weight = sum(weights)
        assert chain.budget_seg is not None
        padded = list(deadlines)
        for index, weight in enumerate(weights):
            extra = int(slack * weight / total_weight)
            padded[index] = min(
                deadlines[index] + extra, chain.budget_seg
            )
        # Headroom must keep the telescoped sum within B_e2e and can
        # only relax per-segment deadlines; re-check defensively and
        # fall back to the minimal assignment on any surprise.
        if sum(padded) > chain.budget_e2e:
            return deadlines
        report = problem.check(padded)
        return padded if report.feasible else deadlines
