"""Source audit: no stochastic model may use numpy's global RNG.

Determinism of the simulation (and of the fault campaign built on it)
requires every random draw to come from an explicitly seeded generator
-- the simulator's named streams or an ``np.random.Generator`` passed
in.  Calls through the global ``np.random.*`` functions (``seed``,
``normal``, ``rand``, ...) share hidden mutable state across the whole
process and silently break run-to-run reproducibility, so this test
bans them from ``src/``.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: np.random.<something> that is NOT one of the explicit-generator APIs.
FORBIDDEN = re.compile(
    r"\bnp\.random\.(?!default_rng\b|Generator\b|SeedSequence\b)\w+"
)


def test_no_global_numpy_rng_in_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            match = FORBIDDEN.search(code)
            if match:
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {match.group(0)}"
                )
    assert not offenders, (
        "global numpy RNG usage found (use sim.rng(stream) or a passed "
        "np.random.Generator):\n" + "\n".join(offenders)
    )


def test_no_stdlib_random_module_in_src():
    """The stdlib ``random`` module is the same trap."""
    offenders = []
    pattern = re.compile(r"^\s*(import random\b|from random import)")
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "stdlib random imported in src (use seeded generators):\n"
        + "\n".join(offenders)
    )


def test_no_wall_clock_in_src():
    """Simulated time is integer nanoseconds from the kernel; reading
    the host's wall clock (``time.time``, ``datetime.now``/``utcnow``)
    from model code would leak nondeterminism into traces and records.
    (``process_time_ns`` in the bench harness measures the host on
    purpose and is allowed.)
    """
    pattern = re.compile(r"\btime\.time\(|\bdatetime\.now\(|\butcnow\(")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if pattern.search(code):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "wall-clock reads found in src (use sim.now / process_time_ns):\n"
        + "\n".join(offenders)
    )


def test_no_unseeded_generators_in_src_or_tests():
    """``np.random.default_rng()`` without a seed re-randomizes every
    run; both the models and the tests must pass an explicit seed.
    Stdlib ``random`` in tests must go through ``random.Random(seed)``.
    """
    tests = Path(__file__).resolve().parent
    argless = re.compile(r"default_rng\(\s*\)")
    bare_stdlib = re.compile(
        r"\brandom\.(random|randint|choice|shuffle|sample|seed)\("
    )
    this_file = Path(__file__).resolve()
    offenders = []
    for root in (SRC, tests):
        for path in sorted(root.rglob("*.py")):
            if path.resolve() == this_file:
                continue  # the patterns above appear here as text
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = line.split("#", 1)[0]
                if argless.search(code) or bare_stdlib.search(code):
                    offenders.append(f"{path.name}:{lineno}: {code.strip()}")
    assert not offenders, (
        "unseeded RNG use found (pass an explicit seed):\n"
        + "\n".join(offenders)
    )
