"""ProRP reproduction: proactive resume and pause for serverless databases.

This package reproduces the system described in "Proactive Resume and Pause
of Resources for Microsoft Azure SQL Database Serverless" (Poppe et al.,
SIGMOD-Companion 2024).  It contains:

* ``repro.storage`` -- a from-scratch storage substrate (B-tree, typed
  tables) hosting the per-database history store ``sys.pause_resume_history``
  and the region metadata store ``sys.databases``.
* ``repro.sqlengine`` -- a minimal SQL engine so the paper's stored
  procedures (Algorithms 2-4) can run as actual parameterized SQL.
* ``repro.core`` -- the paper's contribution: the probabilistic
  next-activity predictor (Algorithm 4), the proactive policy (Algorithm 1),
  the proactive resume operation (Algorithm 5), and the KPI metrics.
* ``repro.simulation`` / ``repro.cluster`` -- a discrete-event simulator of
  a region of serverless databases on capacity-constrained nodes.
* ``repro.workload`` -- synthetic customer-activity generators standing in
  for Azure production telemetry.
* ``repro.training`` -- the offline knob-tuning pipeline; KPIs are read
  straight from each run's ``RegionSimulationResult`` (``repro.report``
  renders the per-bucket dashboard from it).
* ``repro.experiments`` -- drivers regenerating every evaluation figure.

Quickstart::

    from repro import ProRPConfig, simulate_region
    from repro.workload import RegionPreset, generate_region_traces

    traces = generate_region_traces(RegionPreset.EU1, n_databases=200, seed=7)
    result = simulate_region(traces, policy="proactive", config=ProRPConfig())
    print(result.kpis().qos_percent)
"""

from repro.config import ProRPConfig, Seasonality
from repro.errors import (
    ConfigError,
    DuplicateKeyError,
    ProRPError,
    SchemaError,
    SimulationError,
    SqlError,
    StorageError,
    WorkflowError,
)
from repro.types import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
    EventType,
    HistoryEvent,
    PredictedActivity,
    Session,
)

__version__ = "1.0.0"

# Heavier subsystems (simulator, NumPy-backed predictor) are exposed lazily
# (PEP 562) so that `import repro` stays cheap for storage-only users.
_LAZY_EXPORTS = {
    "KpiReport": ("repro.core.kpi", "KpiReport"),
    "PolicyKind": ("repro.core.policy", "PolicyKind"),
    "simulate_region": ("repro.simulation.region", "simulate_region"),
    "region_digest": ("repro.report", "region_digest"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

__all__ = [
    "ProRPConfig",
    "Seasonality",
    "EventType",
    "HistoryEvent",
    "PredictedActivity",
    "Session",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_MINUTE",
    "ProRPError",
    "ConfigError",
    "StorageError",
    "DuplicateKeyError",
    "SchemaError",
    "SqlError",
    "SimulationError",
    "WorkflowError",
    "KpiReport",
    "PolicyKind",
    "simulate_region",
    "region_digest",
    "__version__",
]
