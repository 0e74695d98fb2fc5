"""Golden-trace determinism: the simulator's behaviour is frozen.

Each scenario in ``tests/golden/golden_digests.json`` pins a sha256
digest of the full event trace and of the per-segment latency series of
a short perception-stack run.  Any change that alters event order,
timestamps, RNG draws or latency bookkeeping -- however subtly -- flips
a digest and fails here.  Performance work must keep these green: the
optimizations are only legal because they are bit-identical.

Regenerate (after an *intentional* behaviour change) with::

    PYTHONPATH=src:tests python -c "
    import json; from _golden import *
    print(json.dumps({'schema': 'repro-golden/1',
                      'n_frames': GOLDEN_FRAMES,
                      'scenarios': compute_golden_digests()},
                     indent=2, sort_keys=True))"
"""

import json
from pathlib import Path

import pytest

from _golden import (
    GOLDEN_FRAMES,
    golden_scenarios,
    stack_fingerprint,
)

GOLDEN_FILE = Path(__file__).parent / "golden" / "golden_digests.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN_FILE.read_text())
    assert data["schema"] == "repro-golden/1"
    return data


def test_golden_file_covers_all_scenarios(golden):
    assert set(golden["scenarios"]) == set(golden_scenarios())
    assert golden["n_frames"] == GOLDEN_FRAMES
    for name, entry in golden["scenarios"].items():
        assert set(entry) == {"trace", "latencies", "final_time"}, name
        assert len(entry["trace"]) == 64, name
        assert len(entry["latencies"]) == 64, name


@pytest.mark.parametrize("scenario", sorted(golden_scenarios()))
def test_golden_digest_matches(golden, scenario):
    stack = golden_scenarios()[scenario]()
    stack.run(n_frames=golden["n_frames"])
    fingerprint = stack_fingerprint(stack)
    assert fingerprint == golden["scenarios"][scenario], (
        f"{scenario}: simulation diverged from the golden trace -- "
        "a change altered event order, timing or RNG draws"
    )


def test_reruns_are_bit_identical():
    """Two in-process runs of the same scenario agree exactly."""
    factory = golden_scenarios()["benign_seed1"]
    fingerprints = []
    for _ in range(2):
        stack = factory()
        stack.run(n_frames=GOLDEN_FRAMES)
        fingerprints.append(stack_fingerprint(stack))
    assert fingerprints[0] == fingerprints[1]
