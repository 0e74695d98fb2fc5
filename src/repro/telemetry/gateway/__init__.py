"""Overload-hardened fleet gateway over the windowed uplink.

:class:`FleetGateway` fronts the durable
:class:`~repro.telemetry.uplink.ingest.UplinkIngestor` with sessions
(shared-secret HELLO handshake), per-source token-bucket rate limits,
bounded receive windows with explicit window-update backpressure, and
a NORMAL -> DEGRADED -> SAFE overload ladder that sheds by traffic
class (dashboards first, alerts never) with counted, announced -- never
silent -- rejection.  :mod:`repro.telemetry.gateway.chaos` verifies all
of it under the adversarial channel; :mod:`.status` renders the
operator dashboard; :mod:`.socket_server` serves the same object over
TCP.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.gateway.chaos": (
        "GATEWAY_TOKEN", "GatewayChaosDriver", "GatewayChaosScenario",
        "gateway_scenarios",
    ),
    "repro.telemetry.gateway.overload": (
        "CLASS_ALERT", "CLASS_DASHBOARD", "CLASS_TELEMETRY", "GatewayMode",
        "OverloadLadder", "OverloadPolicy", "SHED_AT", "classify",
    ),
    "repro.telemetry.gateway.ratelimit": ("RateLimitConfig", "TokenBucket"),
    "repro.telemetry.gateway.service": ("FleetGateway", "GatewayConfig"),
    "repro.telemetry.gateway.status": (
        "DEFAULT_STALE_AFTER_NS", "render_status", "status_report",
    ),
})
