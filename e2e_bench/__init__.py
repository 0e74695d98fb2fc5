"""e2e_bench: the repository's benchmark of record.

Five named workloads, each run in its own interpreter as a closed loop
of one caller; end-to-end metrics from an untraced run, per-layer
metrics from a separate traced run.  ``BENCHMARK.json`` at the
repository root names every metric, its unit and its regression bound;
``README.md`` here says how the layers are expected to move them.

The driver's command cannot set ``PYTHONPATH``, so the package puts the
repository's ``src/`` on ``sys.path`` itself when ``repro`` is not
already importable.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The benchmark's own directory and the checkout it sits in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Everything a run writes goes here (git-ignored).
OUT_DIR = BENCH_DIR / "out"

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
