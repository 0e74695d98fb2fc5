"""DESIGN.md and EXPERIMENTS.md may not grow.

Each document is held at a ceiling, its size when the check was added;
the targets are 55 KB for DESIGN.md and 30 KB for EXPERIMENTS.md.  A
change that needs more room in either deletes something first: fold a
section to how the code works now, and leave per-change history to
CHANGES.md and git.  Lower a ceiling whenever a change shrinks its
document.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: document -> (ceiling in bytes, target in KB)
BUDGET = {
    "DESIGN.md": (74_644, 55),
    "EXPERIMENTS.md": (46_926, 30),
}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_doc_does_not_grow(name):
    ceiling, target_kb = BUDGET[name]
    size = (ROOT / name).stat().st_size
    assert size <= ceiling, (
        f"{name} is {size:,} bytes, over its {ceiling:,}-byte ceiling "
        f"(target {target_kb} KB): delete something before adding"
    )
