"""Online d_mon re-derivation: alignment, drift trigger, padding."""

import random

import pytest

from _telemetry import wire_row
from repro.adaptive import BudgetResolver, ResolverConfig
from repro.adaptive.resolver import align_window
from repro.adaptive.chaos import fleet_chain

_MS = 1_000_000


def window_for(chain, per_activation, source="veh00", drop=()):
    """Segment wire rows for *per_activation* [{segment: latency_ns}]
    rows; ``drop`` holds (activation, segment) pairs left unobserved."""
    records = []
    seq = 0
    for activation, latencies in enumerate(per_activation):
        for segment in chain.segments:
            if (activation, segment.name) in drop:
                continue
            records.append(wire_row(
                "segment", source, chain.name, segment.name, activation,
                latencies[segment.name], "ok", "",
                (activation + 1) * chain.period, seq,
            ))
            seq += 1
    return records


def steady_rows(chain, count, seg0=4 * _MS, seg1=6 * _MS, seg2=8 * _MS):
    return [{"seg0": seg0, "seg1": seg1, "seg2": seg2}
            for _ in range(count)]


class TestAlignWindow:
    def test_keeps_only_complete_rows_sorted(self):
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 4),
                            drop={(2, "seg1")})
        window += window_for(chain, steady_rows(chain, 2), source="veh01")
        rows = align_window(window, chain)
        keys = [(source, activation) for source, activation, _ in rows]
        assert keys == [("veh00", 0), ("veh00", 1), ("veh00", 3),
                        ("veh01", 0), ("veh01", 1)]
        assert all(set(latencies) == {"seg0", "seg1", "seg2"}
                   for _, _, latencies in rows)

    def test_invariant_under_shuffles_and_duplicates(self):
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 6))
        baseline = align_window(window, chain)
        for seed in range(5):
            shuffled = list(window) + window[:4]  # dups carry equal payloads
            random.Random(seed).shuffle(shuffled)
            assert align_window(shuffled, chain) == baseline


class TestBudgetResolver:
    def test_rederived_epoch_is_feasible_and_telescopes(self):
        chain = fleet_chain()
        resolver = BudgetResolver({chain.name: chain})
        window = window_for(chain, steady_rows(chain, 20))
        outcome = resolver.resolve(window)
        assert outcome.ok
        epoch = outcome.epoch(epoch_id=1, parent_id=0)
        budgets = epoch.budgets[chain.name]
        assert set(budgets) == {"seg0", "seg1", "seg2"}
        for segment in chain.segments:
            d = budgets[segment.name] + segment.d_ex
            assert 0 < d <= chain.budget_seg  # Eqs. 2, 4
        total = sum(budgets[s.name] + s.d_ex for s in chain.segments)
        assert total <= chain.budget_e2e  # Eq. 3

    def test_thin_window_refuses_to_resolve(self):
        chain = fleet_chain()
        resolver = BudgetResolver(
            {chain.name: chain}, ResolverConfig(min_activations=12)
        )
        outcome = resolver.resolve(window_for(chain, steady_rows(chain, 5)))
        assert not outcome.ok
        assert "complete activations" in outcome.reasons[0]
        with pytest.raises(ValueError):
            outcome.epoch(epoch_id=1)

    def test_attribution_steers_the_slack(self):
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 20))
        resolver = BudgetResolver(
            {chain.name: chain}, ResolverConfig(slack_share=0.5)
        )
        skewed = resolver.resolve(
            window, attribution={"seg0": 0.98, "seg1": 0.01, "seg2": 0.01}
        ).epoch(1).budgets[chain.name]
        uniform = resolver.resolve(window).epoch(1).budgets[chain.name]
        assert skewed["seg0"] > uniform["seg0"]
        assert skewed["seg1"] < uniform["seg1"]
        # Padding never exceeds the per-segment bound.
        assert max(skewed.values()) <= chain.budget_seg

    def test_zero_slack_share_yields_minimal_budgets(self):
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 20))
        minimal = BudgetResolver(
            {chain.name: chain}, ResolverConfig(slack_share=0.0)
        ).resolve(window)
        padded = BudgetResolver(
            {chain.name: chain}, ResolverConfig(slack_share=1.0)
        ).resolve(window)
        res_min = minimal.resolutions[chain.name]
        res_pad = padded.resolutions[chain.name]
        assert res_min.padded_total == res_min.minimal_total
        assert res_pad.padded_total > res_pad.minimal_total

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResolverConfig(min_activations=1)
        with pytest.raises(ValueError):
            ResolverConfig(slack_share=1.5)
        with pytest.raises(ValueError):
            BudgetResolver({})
