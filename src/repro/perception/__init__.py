"""Autoware.Auto-like dual-lidar perception workload.

The paper's running example (its Fig. 1): front and rear lidars publish
point clouds to a *fusion* service on ECU1; the fused cloud crosses the
network to ECU2 where a *classifier* splits ground from non-ground
points, an *object detection* service clusters the non-ground points
into bounding boxes, and a sink (*rviz2* standing in for the planner)
consumes objects and ground points.

The original evaluation replays recorded lidar pcap data; we substitute
a synthetic driving-scenario generator producing point clouds whose
sizes and content vary frame to frame, so the services' execution times
are genuinely data-dependent.  The services perform real (numpy)
computation -- fusion, ray-ground classification, euclidean clustering
-- not canned sleeps; their *simulated* CPU cost additionally scales
with the data via :mod:`repro.sim.workload` models.

:mod:`repro.perception.stack` wires everything onto two simulated ECUs
and defines the event chains and monitors of the paper's use case.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perception.pointcloud": ("PointCloud",),
    "repro.perception.scenario": ("DrivingScenario", "ScenarioConfig"),
    "repro.perception.lidar_driver": ("LidarDriver",),
    "repro.perception.fusion": ("FusionService",),
    "repro.perception.ground_filter": (
        "RayGroundClassifier", "classify_ground",
    ),
    "repro.perception.clustering": (
        "BoundingBox", "EuclideanClusterDetector", "euclidean_clusters",
    ),
    "repro.perception.planner": ("SinkService",),
    "repro.perception.stack": ("PerceptionStack", "StackConfig"),
})
