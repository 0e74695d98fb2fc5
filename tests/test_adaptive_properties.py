"""Property tests of the adaptive control plane (Hypothesis).

Two guarantees the closed loop leans on:

* every epoch the resolver re-derives from *any* observation window is
  feasible -- per-segment deadlines within ``B_seg`` (Eq. 4) and the
  telescoped deadline sum within the end-to-end budget (Eq. 3, the
  250 ms-class bound the paper's chains carry); and
* the shadow validator's verdict is a pure function of the window's
  *content*: any permutation of the record stream (delivery order,
  interleaving across vehicles) yields the identical verdict document.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _telemetry import wire_row
from repro.adaptive import (
    BudgetEpoch,
    BudgetResolver,
    ResolverConfig,
    ShadowValidator,
)
from repro.adaptive.chaos import fleet_chain

_MS = 1_000_000

SEGMENTS = ("seg0", "seg1", "seg2")

#: Latencies up to 15 ms keep rows individually plausible while letting
#: Hypothesis drive e2e sums past B_e2e = 40 ms and budgets past any
#: minimal assignment.
latency = st.integers(min_value=100_000, max_value=15 * _MS)

windows = st.lists(
    st.tuples(latency, latency, latency), min_size=12, max_size=24
)


def records_for(chain, rows, source="veh00"):
    records = []
    seq = 0
    for activation, latencies in enumerate(rows):
        for segment, value in zip(SEGMENTS, latencies):
            records.append(wire_row(
                "segment", source, chain.name, segment, activation, value,
                "ok", "", (activation + 1) * chain.period, seq,
            ))
            seq += 1
    return records


@settings(max_examples=40, deadline=None)
@given(rows=windows, slack_share=st.floats(0.0, 1.0))
def test_rederived_epochs_are_always_feasible(rows, slack_share):
    chain = fleet_chain()
    resolver = BudgetResolver(
        {chain.name: chain}, ResolverConfig(slack_share=slack_share)
    )
    outcome = resolver.resolve(records_for(chain, rows))
    if not outcome.ok:
        # Refusing to resolve is always allowed; minting from a failed
        # resolve must be impossible.
        try:
            outcome.epoch(epoch_id=1)
        except ValueError:
            return
        raise AssertionError("failed resolve minted an epoch")
    budgets = outcome.epoch(epoch_id=1).budgets[chain.name]
    total = 0
    for segment in chain.segments:
        d = budgets[segment.name] + segment.d_ex
        assert 0 < budgets[segment.name]  # Eq. 2
        assert d <= chain.budget_seg  # Eq. 4
        total += d
    assert total <= chain.budget_e2e  # Eq. 3 (telescoped e2e budget)


@settings(max_examples=30, deadline=None)
@given(
    rows=windows,
    budget_ms=st.tuples(
        st.integers(1, 16), st.integers(1, 16), st.integers(1, 16)
    ),
    data=st.data(),
)
def test_shadow_verdict_invariant_under_record_shuffles(
    rows, budget_ms, data
):
    chain = fleet_chain()
    shadow = ShadowValidator({chain.name: chain})
    baseline = BudgetEpoch(epoch_id=0, budgets={
        chain.name: {"seg0": 8 * _MS, "seg1": 10 * _MS, "seg2": 12 * _MS},
    })
    candidate = BudgetEpoch(epoch_id=1, budgets={
        chain.name: {
            segment: ms * _MS for segment, ms in zip(SEGMENTS, budget_ms)
        },
    })
    window = records_for(chain, rows)
    reference = shadow.validate(window, candidate, baseline).to_json()
    shuffled = data.draw(st.permutations(window))
    assert shadow.validate(
        shuffled, candidate, baseline
    ).to_json() == reference
