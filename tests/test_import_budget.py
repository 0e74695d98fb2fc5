"""Clock-free budget of what a fresh interpreter imports.

Every ``python -m repro`` subcommand, every ``-j`` worker and every
``e2e_bench`` set-up probe starts a new interpreter, and without cached
bytecode it compiles each module it imports.  So the import graph is a
cost, pinned here the way ``tests/test_hot_path_budget.py`` pins calls:
counted in fresh interpreters, never timed.

* ``import repro.__main__`` loads the command line and nothing of any
  subsystem (4 ``repro`` modules; 76 while every package ``__init__``
  imported its whole subtree);
* the ``repro`` imports of ``e2e_bench/workloads.py`` -- the stack,
  the fault campaign and both fleet drivers -- load 74 (104 then);
* neither loads the real IPC monitor or what it stands on
  (``multiprocessing``, ``socket``): the simulated monitor runs the
  thread-free decision core only.  A sweep's ``argparse`` waits for its
  command line.

Ceilings are two modules above what this code reaches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]
MAIN_CEILING = 6
WORKLOADS_CEILING = 76
#: What the simulated paths may never load.
REAL_IPC = ("multiprocessing", "socket", "repro.ipc.monitor",
            "repro.ipc.semaphore", "repro.ipc.shm")


def loaded_after(statement: str) -> set:
    """``sys.modules`` of a fresh interpreter after *statement*."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout))


def own(modules: set) -> list:
    return sorted(m for m in modules if m == "repro" or m.startswith("repro."))


def test_the_command_line_loads_no_subsystem():
    modules = loaded_after("import repro.__main__")
    assert len(own(modules)) <= MAIN_CEILING, own(modules)
    assert modules.isdisjoint(REAL_IPC)


def test_a_workload_loads_what_it_runs():
    modules = loaded_after("import e2e_bench.workloads")
    assert len(own(modules)) <= WORKLOADS_CEILING, own(modules)
    assert modules.isdisjoint(REAL_IPC + ("argparse",))
