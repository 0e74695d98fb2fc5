"""Experiment drivers: one module per paper figure.

Each module exposes a ``run_*`` function that builds the workload,
executes the simulation, and returns a structured result; the
corresponding benchmark in ``benchmarks/`` invokes it, prints the
regenerated figure (as Tukey statistics / ASCII boxplots) and asserts
the *shape* properties the paper reports.

Scale knob: set the ``REPRO_FRAMES`` environment variable to run the
full paper-scale experiments (the paper used ~4700 frames for Fig. 9);
the default keeps CI-friendly run times.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.common": ("default_frames", "interference_governor"),
})
