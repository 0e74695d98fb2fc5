"""Deterministic fault injection, verification oracles and degradation.

Layers:

- :mod:`repro.faults.base` -- injector protocol and bookkeeping;
- :mod:`repro.faults.injectors` -- network, clock, compute and sensor
  fault injectors;
- :mod:`repro.faults.ground_truth` -- omniscient global-time recorder;
- :mod:`repro.faults.oracles` -- soundness and no-silent-violation;
- :mod:`repro.faults.degradation` -- escalation ladder and watchdog;
- :mod:`repro.faults.campaign` -- the scenario matrix and runner.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.base": ("FaultInjector", "frame_window_ns"),
    "repro.faults.campaign": (
        "CampaignConfig", "CampaignResult", "FaultCampaign", "FaultScenario",
        "ScenarioResult", "campaign_frames", "default_scenarios",
        "run_default_campaign",
    ),
    "repro.faults.degradation": (
        "DegradationMode", "EscalationPolicy", "GracefulDegradationManager",
        "MonitorWatchdog",
    ),
    "repro.faults.ground_truth": ("GroundTruthRecorder",),
    "repro.faults.injectors": (
        "ClockDrift", "ClockStep", "CpuOverload", "ExecutorStall",
        "LatencySpike", "LinkPartition", "LossBurst", "PtpHoldover",
        "SilentSensor", "StuckSensor",
    ),
    "repro.faults.oracles": (
        "OracleFailure", "OracleReport", "check_completeness",
        "check_soundness",
    ),
})
