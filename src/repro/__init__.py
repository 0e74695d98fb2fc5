"""repro -- reproduction of "Online latency monitoring of time-sensitive
event chains in safety-critical applications" (Peeck, Schlatow, Ernst;
DATE 2021).

The package implements the paper's decentralized end-to-end latency
monitoring for event chains with weakly-hard (m,k) constraints, together
with every substrate its evaluation depends on:

- :mod:`repro.sim` -- deterministic discrete-event execution platform
  (preemptive fixed-priority multicore scheduling, frequency scaling).
- :mod:`repro.network` -- inter-ECU links and PTP-style clock sync.
- :mod:`repro.dds` -- a DDS-like publish/subscribe middleware with QoS.
- :mod:`repro.ros` -- a minimal ROS2-like node/executor layer.
- :mod:`repro.core` -- the contribution: event chains, segments, local and
  remote monitors, temporal exceptions, (m,k) supervision.
- :mod:`repro.budgeting` -- trace-based segment-deadline synthesis
  (the constraint-satisfaction problem of the paper's Eqs. 2-7).
- :mod:`repro.perception` -- an Autoware.Auto-like dual-lidar perception
  workload used by the evaluation.
- :mod:`repro.tracing` -- LTTng-like tracing and latency reconstruction.
- :mod:`repro.ipc` -- a real (non-simulated) shared-memory monitor used
  for overhead measurements.
- :mod:`repro.analysis` -- Tukey/boxplot statistics and report rendering.
- :mod:`repro.experiments` -- one module per paper figure.
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"

#: The layers of the package, bottom first: a module may import from its
#: own layer and from layers to its left, never from one to its right
#: (``tests/test_layering.py`` parses every import, lazy ones and
#: :func:`lazy_exports` tables included; DESIGN.md "Layers" says what each
#: one is for).
LAYERS = (
    "schema", "ipc", "sim", "network", "dds", "ros", "core", "budgeting",
    "analysis", "tracing", "perception", "telemetry", "faults", "adaptive",
    "experiments",
)


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """A package's public names, resolved on first access (PEP 562).

    *table* maps each defining module to the names it exports.  A package
    ``__init__`` imports no submodule; it binds what this returns,
    ``__all__, __getattr__, __dir__ = lazy_exports(__name__, {...})``, so
    ``import repro.x.y`` runs only what ``y`` imports, and the first
    ``repro.x.Name`` imports Name's module and caches Name in the package.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
