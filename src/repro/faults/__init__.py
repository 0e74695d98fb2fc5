"""Deterministic fault injection, verification oracles and degradation.

Layers:

- :mod:`repro.faults.base` -- injector protocol and bookkeeping;
- :mod:`repro.faults.injectors` -- network, clock, compute and sensor
  fault injectors;
- :mod:`repro.faults.ground_truth` -- omniscient global-time recorder;
- :mod:`repro.faults.oracles` -- soundness and no-silent-violation;
- :mod:`repro.faults.degradation` -- escalation ladder and watchdog;
- :mod:`repro.faults.campaign` -- the scenario matrix and runner;
- :mod:`repro.faults.dag_stack` / :mod:`repro.faults.dag_scenarios` --
  the fork/join DAG pipeline on selectable ROS 2 executor models, with
  per-path oracles and its own scenario matrix.
"""

from repro.faults.base import FaultInjector, frame_window_ns
from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    FaultCampaign,
    FaultScenario,
    ScenarioResult,
    campaign_frames,
    default_scenarios,
    run_default_campaign,
)
from repro.faults.degradation import (
    DegradationMode,
    EscalationPolicy,
    GracefulDegradationManager,
    MonitorWatchdog,
)
from repro.faults.ground_truth import GroundTruthRecorder
from repro.faults.injectors import (
    ClockDrift,
    ClockStep,
    CpuOverload,
    ExecutorStall,
    LatencySpike,
    LinkPartition,
    LossBurst,
    PtpHoldover,
    SilentSensor,
    StuckSensor,
)
from repro.faults.oracles import (
    OracleFailure,
    OracleReport,
    check_completeness,
    check_soundness,
)
from repro.faults.dag_stack import DagGroundTruth, DagStack, DagStackConfig
from repro.faults.dag_scenarios import (
    DagCampaign,
    DagCampaignConfig,
    DagCampaignResult,
    DagFaultScenario,
    DagScenarioResult,
    check_dag_completeness,
    check_dag_soundness,
    default_dag_scenarios,
    run_dag_campaign,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ClockDrift",
    "ClockStep",
    "CpuOverload",
    "DegradationMode",
    "EscalationPolicy",
    "ExecutorStall",
    "FaultCampaign",
    "FaultInjector",
    "FaultScenario",
    "GracefulDegradationManager",
    "GroundTruthRecorder",
    "LatencySpike",
    "LinkPartition",
    "LossBurst",
    "MonitorWatchdog",
    "OracleFailure",
    "OracleReport",
    "PtpHoldover",
    "ScenarioResult",
    "SilentSensor",
    "StuckSensor",
    "campaign_frames",
    "check_completeness",
    "check_soundness",
    "default_scenarios",
    "frame_window_ns",
    "run_default_campaign",
    "DagCampaign",
    "DagCampaignConfig",
    "DagCampaignResult",
    "DagFaultScenario",
    "DagGroundTruth",
    "DagScenarioResult",
    "DagStack",
    "DagStackConfig",
    "check_dag_completeness",
    "check_dag_soundness",
    "default_dag_scenarios",
    "run_dag_campaign",
]
