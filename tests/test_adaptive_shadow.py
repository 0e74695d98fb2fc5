"""Shadow-replica validation: regression + silent-violation oracles."""

import random

from repro.adaptive import BudgetEpoch, ShadowValidator
from repro.adaptive.chaos import fleet_chain
from test_adaptive_resolver import steady_rows, window_for

_MS = 1_000_000

FACTORY = {"pipeline": {"seg0": 8 * _MS, "seg1": 10 * _MS, "seg2": 12 * _MS}}


def validator():
    chain = fleet_chain()
    return ShadowValidator({chain.name: chain})


def baseline_epoch():
    return BudgetEpoch(epoch_id=0, budgets=FACTORY)


class TestShadowValidator:
    def test_accepts_equivalent_budgets(self):
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 16))
        candidate = BudgetEpoch(epoch_id=1, budgets=FACTORY)
        verdict = validator().validate(window, candidate, baseline_epoch())
        assert verdict.accepted
        assert verdict.activations == 16
        assert verdict.candidate_violations == verdict.baseline_violations

    def test_rejects_mk_regression(self):
        # 1 ms budget on a segment running at 4 ms: every activation
        # misses, so the candidate violates (3,8) where the baseline
        # never did.
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 16))
        tight = BudgetEpoch(epoch_id=1, budgets={
            "pipeline": {"seg0": 1 * _MS, "seg1": 10 * _MS,
                         "seg2": 12 * _MS},
        })
        verdict = validator().validate(window, tight, baseline_epoch())
        assert not verdict.accepted
        assert verdict.candidate_violations > verdict.baseline_violations
        assert any("(m,k) regression" in r for r in verdict.reasons)

    def test_rejects_silent_chain_violation(self):
        # Budgets wide enough that no segment deadline ever fires while
        # the summed e2e latency breaks B_e2e: the monitor is blind.
        # (Eq. 3 forbids such assignments; the oracle catches them if
        # they ever reach validation anyway.)
        chain = fleet_chain()
        rows = steady_rows(chain, 16, seg0=15 * _MS, seg1=15 * _MS,
                           seg2=15 * _MS)  # e2e 45 ms > B_e2e 40 ms
        window = window_for(chain, rows)
        blind = BudgetEpoch(epoch_id=1, budgets={
            "pipeline": {"seg0": 16 * _MS, "seg1": 16 * _MS,
                         "seg2": 16 * _MS},
        })
        verdict = validator().validate(window, blind, baseline_epoch())
        assert not verdict.accepted
        assert verdict.candidate_silent > 0
        assert any("silent" in r for r in verdict.reasons)

    def test_rejects_missing_budgets(self):
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 16))
        partial = BudgetEpoch(epoch_id=1, budgets={
            "pipeline": {"seg0": 8 * _MS, "seg1": 10 * _MS},
        })
        verdict = validator().validate(window, partial, baseline_epoch())
        assert not verdict.accepted
        assert any("seg2" in r for r in verdict.reasons)

    def test_rejects_thin_window(self):
        chain = fleet_chain()
        window = window_for(chain, steady_rows(chain, 3))
        candidate = BudgetEpoch(epoch_id=1, budgets=FACTORY)
        verdict = ShadowValidator({chain.name: chain}).validate(
            window, candidate, baseline_epoch()
        )
        assert not verdict.accepted
        assert any("too thin" in r for r in verdict.reasons)

    def test_verdict_deterministic_under_record_shuffles(self):
        # The replay consumes sorted aligned rows, so any delivery
        # interleaving of the same records yields the same verdict --
        # acceptance and rejection alike.
        chain = fleet_chain()
        shadow = validator()
        base = baseline_epoch()
        rows = steady_rows(chain, 16)
        for activation in (3, 7, 11):  # a few bursts to score
            rows[activation] = {"seg0": 9 * _MS, "seg1": 6 * _MS,
                                "seg2": 8 * _MS}
        window = window_for(chain, rows)
        for candidate in (
            BudgetEpoch(epoch_id=1, budgets=FACTORY),
            BudgetEpoch(epoch_id=2, budgets={
                "pipeline": {"seg0": 5 * _MS, "seg1": 10 * _MS,
                             "seg2": 12 * _MS},
            }),
        ):
            reference = shadow.validate(window, candidate, base).to_json()
            for seed in range(4):
                shuffled = list(window)
                random.Random(seed).shuffle(shuffled)
                assert shadow.validate(
                    shuffled, candidate, base
                ).to_json() == reference
