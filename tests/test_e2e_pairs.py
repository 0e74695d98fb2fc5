"""``benchmarks/e2e_pairs.py`` runs pair n on seed ``--first-seed`` + n - 1.

The measurement itself is replaced by a recorder, so this checks only
which seed each side of each pair runs, not the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e_pairs.py"


@pytest.fixture
def pairs_module():
    spec = importlib.util.spec_from_file_location("e2e_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seeds_run(module, monkeypatch, tmp_path, *flags):
    """(side, workload, seed) of every run ``main`` asks for."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "frames_per_s", "better": "higher",
                        "bound": 0.25}],
        "per_layer": [],
    }))
    runs = []

    def measure(checkout, workload, seed, seconds, trace):
        runs.append((checkout.name, workload, seed))
        value = 100.0 + seed + (checkout == change)
        return {"attempted": 1, "failed": 0,
                "metrics": {"frames_per_s": {"value": value}}}

    monkeypatch.setattr(module, "measure", measure)
    assert module.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "stack_sparse", "--workload", "fleet_clean", *flags,
    ]) == 0
    return runs


def test_default_pairs_run_seeds_from_one(pairs_module, monkeypatch, tmp_path):
    runs = seeds_run(pairs_module, monkeypatch, tmp_path,
                     "--pairs", "2", "--check-pairs", "1")
    assert [(workload, seed) for _, workload, seed in runs] == [
        ("stack_sparse", 1), ("stack_sparse", 1),
        ("stack_sparse", 2), ("stack_sparse", 2),
        ("fleet_clean", 1), ("fleet_clean", 1),
    ]


def test_first_seed_shifts_every_pair(pairs_module, monkeypatch, tmp_path):
    runs = seeds_run(pairs_module, monkeypatch, tmp_path,
                     "--first-seed", "11", "--pairs", "3", "--check-pairs", "2")
    assert [seed for _, _, seed in runs] == [11, 11, 12, 12, 13, 13,
                                             11, 11, 12, 12]
    # Both sides of a pair run its seed, in alternating order.
    assert [side for side, _, _ in runs[:4]] == \
        ["parent", "change", "change", "parent"]
