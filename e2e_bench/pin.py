"""Regenerate ``expected/``: the outputs every op is checked against.

Pinning is a deliberate act (``python -m e2e_bench pin`` and a reviewed
diff); a run never writes here, so a change that moves modelled time or
a digest fails ops instead of quietly becoming the new truth.
"""

from __future__ import annotations

import json
import shutil
from typing import List, Optional

from e2e_bench import OUT_DIR
from e2e_bench.measure import pin_of, pins_path
from e2e_bench.workloads import WORKLOADS, make


def pin(only: Optional[List[str]] = None) -> int:
    scratch = OUT_DIR / "tmp" / "pin"
    scratch.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for name in only or list(WORKLOADS):
            workload = make(name)
            pins = {}
            for spec in workload.pin_specs():
                handle = workload.run(spec, workload.prepare(spec, scratch))
                obs = workload.observe(spec, handle)
                if not obs.ok:
                    print(f"{name} [{spec.pin}]: NOT OK ({obs.detail})")
                    bad += 1
                pins[spec.pin] = pin_of(obs)
            workload.cleanup(scratch)
            path = pins_path(name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(
                {"schema": "e2e-bench-pins/1", "pins": pins},
                indent=1, sort_keys=True,
            ) + "\n")
            print(f"{name}: {len(pins)} ops pinned -> {path}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if bad else 0
