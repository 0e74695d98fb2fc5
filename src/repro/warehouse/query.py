"""Cohort queries and cross-run attribution diffs over the warehouse.

A *cohort* is every ingested run matching a :class:`RunSelector`
(``commit=abc``, ``suite=campaign,scenario=loss_burst``, a single
``run_id=...``, or all runs).  Cohort percentiles come from **merging
the persisted per-run DDSketch snapshots**
(:meth:`~repro.analysis.histogram.StreamingHistogram.merged`), never
from re-scanning raw spans -- a fleet-month cohort costs the same as a
single run.  For a single-run cohort the merged sketch *is* the per-run
sketch, so reported quantiles reconcile exactly with that run's
:func:`~repro.tracing.critical_path.attribute_chain` aggregates.

:func:`attribution_diff` compares two cohorts and answers the CI
question "which edge category regressed": per chain it reports
per-category p50/p95 deltas, per-segment d_mon budget-burn shifts
(Eqs. 3-7 headroom), and the end-to-end shift -- a JSON document
(``repro-warehouse-diff/1``) with a human-readable renderer.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.histogram import StreamingHistogram
from repro.warehouse.schema import DIFF_SCHEMA
from repro.warehouse.store import SpanWarehouse

#: Selector fields, in the order they render.
SELECTOR_FIELDS = ("run_id", "commit", "suite", "scenario", "vehicle")


@dataclass(frozen=True)
class RunSelector:
    """A conjunctive filter over run-manifest key fields."""

    run_id: Optional[str] = None
    commit: Optional[str] = None
    suite: Optional[str] = None
    scenario: Optional[str] = None
    vehicle: Optional[str] = None

    @classmethod
    def parse(cls, text: str) -> "RunSelector":
        """Parse ``"commit=abc,scenario=benign"`` (empty = all runs)."""
        fields: Dict[str, str] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"selector term {part!r} is not key=value "
                    f"(keys: {', '.join(SELECTOR_FIELDS)})"
                )
            key, value = part.split("=", 1)
            key = key.strip()
            if key not in SELECTOR_FIELDS:
                raise ValueError(
                    f"unknown selector key {key!r} "
                    f"(keys: {', '.join(SELECTOR_FIELDS)})"
                )
            fields[key] = value.strip()
        return cls(**fields)

    def matches(self, run: Dict[str, Any]) -> bool:
        return all(
            getattr(self, name) is None or run[name] == getattr(self, name)
            for name in SELECTOR_FIELDS
        )

    def describe(self) -> str:
        terms = [
            f"{name}={getattr(self, name)}"
            for name in SELECTOR_FIELDS
            if getattr(self, name) is not None
        ]
        return ",".join(terms) if terms else "all-runs"


# ----------------------------------------------------------------------
# Cohort aggregation (sketch merges)
# ----------------------------------------------------------------------
@dataclass
class ChainCohort:
    """Merged attribution of one chain across a cohort's runs."""

    chain: str
    n_instances: int = 0
    budget_e2e: Optional[int] = None
    e2e: StreamingHistogram = field(default_factory=StreamingHistogram)
    categories: Dict[str, StreamingHistogram] = field(default_factory=dict)
    edges: Dict[str, StreamingHistogram] = field(default_factory=dict)
    #: segment -> (observed-span sketch, d_mon budget).
    segments: Dict[str, Tuple[StreamingHistogram, Optional[int]]] = field(
        default_factory=dict
    )

    def telescoping_ok(self) -> bool:
        """Exact integer reconciliation: per-category totals sum to the
        e2e total (each instance's edges telescope to its e2e)."""
        return (
            sum(hist.total for hist in self.categories.values())
            == self.e2e.total
        )


@dataclass
class CohortAggregate:
    """One cohort's merged view of the warehouse."""

    selector: RunSelector
    run_ids: List[str]
    n_spans: int
    chains: Dict[str, ChainCohort] = field(default_factory=dict)


def select_runs(
    store: SpanWarehouse, selector: RunSelector
) -> List[Dict[str, Any]]:
    """The cohort's run rows, ordered by run_id."""
    return [run for run in store.runs() if selector.matches(run)]


def aggregate(
    store: SpanWarehouse, selector: RunSelector
) -> CohortAggregate:
    """Merge a cohort's persisted sketches into one aggregate."""
    runs = select_runs(store, selector)
    run_ids = [run["run_id"] for run in runs]
    out = CohortAggregate(
        selector=selector,
        run_ids=run_ids,
        n_spans=sum(run["n_spans"] for run in runs),
    )
    for chain in store.chains_of(run_ids):
        cohort = ChainCohort(chain=chain)
        for run_id, n_instances, budget_e2e in store.attribution_rows(
            run_ids, chain
        ):
            cohort.n_instances += n_instances
            if budget_e2e is not None:
                if (cohort.budget_e2e is not None
                        and cohort.budget_e2e != budget_e2e):
                    warnings.warn(
                        f"{chain}: budget_e2e differs across cohort runs "
                        f"({cohort.budget_e2e} vs {budget_e2e} in {run_id}); "
                        "using the latest",
                        stacklevel=2,
                    )
                cohort.budget_e2e = budget_e2e
        for _run_id, kind, key, budget, snapshot in store.sketch_rows(
            run_ids, chain
        ):
            hist = StreamingHistogram.restore(json.loads(snapshot))
            if kind == "e2e":
                cohort.e2e.merge(hist)
            elif kind == "category":
                _merge_into(cohort.categories, key, hist)
            elif kind == "edge":
                _merge_into(cohort.edges, key, hist)
            elif kind == "segment":
                if key in cohort.segments:
                    existing, prev_budget = cohort.segments[key]
                    existing.merge(hist)
                    if (budget is not None and prev_budget is not None
                            and budget != prev_budget):
                        warnings.warn(
                            f"{chain}/{key}: d_mon differs across cohort "
                            f"runs ({prev_budget} vs {budget}); using the "
                            "latest",
                            stacklevel=2,
                        )
                    cohort.segments[key] = (
                        existing, budget if budget is not None else prev_budget
                    )
                else:
                    cohort.segments[key] = (hist, budget)
        out.chains[chain] = cohort
    return out


def _merge_into(
    table: Dict[str, StreamingHistogram], key: str, hist: StreamingHistogram
) -> None:
    if key in table:
        table[key].merge(hist)
    else:
        table[key] = hist


# ----------------------------------------------------------------------
# Attribution diffs
# ----------------------------------------------------------------------
def _q(hist: Optional[StreamingHistogram], q: float) -> Optional[float]:
    return None if hist is None else hist.quantile(q)


def _delta(base: Optional[float], head: Optional[float]) -> Optional[float]:
    if base is None or head is None:
        return None
    return head - base


def _ratio(base: Optional[float], head: Optional[float]) -> Optional[float]:
    if base is None or head is None or base <= 0:
        return None
    return head / base


def _pair(
    base: Optional[StreamingHistogram], head: Optional[StreamingHistogram]
) -> Dict[str, Any]:
    """base/head p50+p95 with deltas and ratios for one metric."""
    entry: Dict[str, Any] = {}
    for quant, label in ((0.50, "p50"), (0.95, "p95")):
        b, h = _q(base, quant), _q(head, quant)
        entry[f"base_{label}"] = b
        entry[f"head_{label}"] = h
        entry[f"delta_{label}"] = _delta(b, h)
        entry[f"ratio_{label}"] = _ratio(b, h)
    entry["base_count"] = 0 if base is None else base.count
    entry["head_count"] = 0 if head is None else head.count
    return entry


def _burn(p95: Optional[float], budget: Optional[int]) -> Optional[float]:
    if p95 is None or not budget:
        return None
    return p95 / budget


def attribution_diff(
    store: SpanWarehouse,
    base_selector: RunSelector,
    head_selector: RunSelector,
) -> Dict[str, Any]:
    """The cross-cohort attribution diff document (JSON-able, stable).

    Key ordering is canonical (sorted chains/categories/segments), so
    serializing with sorted keys is byte-stable across ingest orders.
    """
    base = aggregate(store, base_selector)
    head = aggregate(store, head_selector)
    chains: Dict[str, Any] = {}
    for chain in sorted(set(base.chains) | set(head.chains)):
        b = base.chains.get(chain)
        h = head.chains.get(chain)
        b_chain = b if b is not None else ChainCohort(chain=chain)
        h_chain = h if h is not None else ChainCohort(chain=chain)

        budget_e2e = (
            h_chain.budget_e2e
            if h_chain.budget_e2e is not None
            else b_chain.budget_e2e
        )
        e2e = _pair(b_chain.e2e, h_chain.e2e)
        e2e["budget_e2e"] = budget_e2e
        e2e["base_burn"] = _burn(e2e["base_p95"], budget_e2e)
        e2e["head_burn"] = _burn(e2e["head_p95"], budget_e2e)
        e2e["burn_shift"] = _delta(e2e["base_burn"], e2e["head_burn"])

        categories: Dict[str, Any] = {}
        for key in sorted(set(b_chain.categories) | set(h_chain.categories)):
            categories[key] = _pair(
                b_chain.categories.get(key), h_chain.categories.get(key)
            )

        segments: Dict[str, Any] = {}
        for key in sorted(set(b_chain.segments) | set(h_chain.segments)):
            b_hist, b_budget = b_chain.segments.get(key, (None, None))
            h_hist, h_budget = h_chain.segments.get(key, (None, None))
            d_mon = h_budget if h_budget is not None else b_budget
            entry = _pair(b_hist, h_hist)
            entry["d_mon"] = d_mon
            entry["base_burn"] = _burn(entry["base_p95"], d_mon)
            entry["head_burn"] = _burn(entry["head_p95"], d_mon)
            entry["burn_shift"] = _delta(
                entry["base_burn"], entry["head_burn"]
            )
            entry["base_headroom_ns"] = (
                None if entry["base_p95"] is None or d_mon is None
                else d_mon - entry["base_p95"]
            )
            entry["head_headroom_ns"] = (
                None if entry["head_p95"] is None or d_mon is None
                else d_mon - entry["head_p95"]
            )
            segments[key] = entry

        chains[chain] = {
            "base_instances": b_chain.n_instances,
            "head_instances": h_chain.n_instances,
            "telescoping_ok": {
                "base": b_chain.telescoping_ok(),
                "head": h_chain.telescoping_ok(),
            },
            "e2e": e2e,
            "categories": categories,
            "segments": segments,
        }
    return {
        "schema": DIFF_SCHEMA,
        "base": {
            "selector": base.selector.describe(),
            "runs": base.run_ids,
            "n_spans": base.n_spans,
        },
        "head": {
            "selector": head.selector.describe(),
            "runs": head.run_ids,
            "n_spans": head.n_spans,
        },
        "chains": chains,
    }


def dump_diff(diff: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a diff document canonically (byte-stable goldens)."""
    path = Path(path)
    path.write_text(
        json.dumps(diff, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def _ms(value: Optional[float]) -> str:
    return "      -" if value is None else f"{value / 1e6:7.3f}"


def _pct(value: Optional[float]) -> str:
    return "    -" if value is None else f"{value:+5.1%}"


def render_cohort(agg: CohortAggregate) -> str:
    """Human-readable cohort summary (SNIPPETS.md's p50/p95/p99 tiles)."""
    lines = [
        f"cohort [{agg.selector.describe()}]: "
        f"{len(agg.run_ids)} runs, {agg.n_spans} spans"
    ]
    for chain in sorted(agg.chains):
        cohort = agg.chains[chain]
        lines.append(
            f"  chain {chain}: {cohort.n_instances} instances "
            f"(telescoping {'OK' if cohort.telescoping_ok() else 'BROKEN'})"
        )
        pcts = cohort.e2e.percentiles()
        lines.append(
            f"    e2e        p50={_ms(pcts['p50'])} p95={_ms(pcts['p95'])} "
            f"p99={_ms(pcts['p99'])} ms"
        )
        for key in sorted(
            cohort.categories, key=lambda k: -cohort.categories[k].total
        ):
            hist = cohort.categories[key]
            lines.append(
                f"    {key:<10} p50={_ms(hist.quantile(0.50))} "
                f"p95={_ms(hist.quantile(0.95))} "
                f"p99={_ms(hist.quantile(0.99))} ms  n={hist.count}"
            )
        for key in sorted(cohort.segments):
            hist, d_mon = cohort.segments[key]
            p95 = hist.quantile(0.95)
            burn = _burn(p95, d_mon)
            burn_s = "-" if burn is None else f"{burn:5.1%}"
            lines.append(
                f"    seg {key:<10} p95={_ms(p95)} ms  "
                f"d_mon burn={burn_s}"
            )
    return "\n".join(lines)


def render_diff(diff: Dict[str, Any]) -> str:
    """Human-readable attribution diff report."""
    lines = [
        f"attribution diff: base [{diff['base']['selector']}] "
        f"({len(diff['base']['runs'])} runs) -> "
        f"head [{diff['head']['selector']}] "
        f"({len(diff['head']['runs'])} runs)"
    ]
    for chain, entry in diff["chains"].items():
        e2e = entry["e2e"]
        lines.append(
            f"chain {chain}: {entry['base_instances']} -> "
            f"{entry['head_instances']} instances"
        )
        lines.append(
            f"  e2e        p50 {_ms(e2e['base_p50'])} -> "
            f"{_ms(e2e['head_p50'])} ms  "
            f"p95 {_ms(e2e['base_p95'])} -> {_ms(e2e['head_p95'])} ms  "
            f"burn shift {_pct(e2e['burn_shift'])}"
        )
        ranked = sorted(
            entry["categories"].items(),
            key=lambda item: -abs(item[1]["delta_p95"] or 0.0),
        )
        for key, cat in ranked:
            ratio = cat["ratio_p95"]
            ratio_s = "    -" if ratio is None else f"{ratio:5.2f}x"
            lines.append(
                f"  {key:<10} p50 {_ms(cat['base_p50'])} -> "
                f"{_ms(cat['head_p50'])} ms  "
                f"p95 {_ms(cat['base_p95'])} -> {_ms(cat['head_p95'])} ms  "
                f"{ratio_s}"
            )
        lines.append("  budget burn shifts (p95 vs d_mon):")
        for key, seg in entry["segments"].items():
            lines.append(
                f"    {key:<12} burn {_pct(seg['base_burn'])[1:]} -> "
                f"{_pct(seg['head_burn'])[1:]}  "
                f"shift {_pct(seg['burn_shift'])}  "
                f"headroom {_ms(seg['base_headroom_ns'])} -> "
                f"{_ms(seg['head_headroom_ns'])} ms"
            )
    return "\n".join(lines)


def regressed_categories(
    diff: Dict[str, Any], threshold: float = 0.30
) -> List[Tuple[str, str, float]]:
    """(chain, category, p95 ratio) entries above ``1 + threshold``.

    The bench-compare gate uses this to turn "the suite regressed" into
    "queue edges on this chain regressed".
    """
    out: List[Tuple[str, str, float]] = []
    for chain, entry in diff["chains"].items():
        for key, cat in entry["categories"].items():
            ratio = cat["ratio_p95"]
            if ratio is not None and ratio > 1.0 + threshold:
                out.append((chain, key, ratio))
    out.sort(key=lambda item: (-item[2], item[0], item[1]))
    return out
