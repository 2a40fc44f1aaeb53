"""Exception hierarchy for the ProRP reproduction.

Every exception raised by this package derives from :class:`ProRPError` so
callers can catch one base class.  Sub-hierarchies mirror the subsystems:
storage, SQL engine, simulation, control plane, and configuration.
"""

from __future__ import annotations


class ProRPError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ProRPError):
    """An invalid configuration knob value (Table 1 of the paper)."""


# ---------------------------------------------------------------------------
# Storage substrate
# ---------------------------------------------------------------------------


class StorageError(ProRPError):
    """Base class for errors raised by the storage substrate."""


class DuplicateKeyError(StorageError):
    """A unique-key constraint was violated on insert."""


class KeyNotFoundError(StorageError):
    """A key expected to be present in an index was missing."""


class SchemaError(StorageError):
    """A row or query does not conform to the table schema."""


class TableNotFoundError(StorageError):
    """A statement referenced a table that does not exist."""


class TableAlreadyExistsError(StorageError):
    """``CREATE TABLE`` targeted a name that is already in use."""


# ---------------------------------------------------------------------------
# SQL engine
# ---------------------------------------------------------------------------


class SqlError(ProRPError):
    """Base class for errors raised by the SQL engine."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class SqlBindingError(SqlError):
    """A ``@parameter`` placeholder was unbound or of the wrong type."""


class SqlExecutionError(SqlError):
    """A runtime failure while executing a planned statement."""


# ---------------------------------------------------------------------------
# Simulation and control plane
# ---------------------------------------------------------------------------


class SimulationError(ProRPError):
    """An inconsistency detected while running the discrete-event simulator."""


# ---------------------------------------------------------------------------
# Fault injection and resilience
# ---------------------------------------------------------------------------


class FaultPlanError(ProRPError):
    """An invalid fault plan (bad probability, window, or document)."""


class FaultInjectedError(ProRPError):
    """A failure injected by the fault engine at a named fault point.

    Carries the fault-point name so resilience layers (and tests) can tell
    injected failures apart from organic ones.
    """

    def __init__(self, point: str, message: str = ""):
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


class DeadlineExceededError(ProRPError):
    """An operation ran past its deadline budget."""


class CircuitOpenError(ProRPError):
    """A call was refused because its circuit breaker is open."""


class TraceError(ProRPError):
    """A customer-activity trace violates ordering or overlap invariants."""


class WorkflowError(ProRPError):
    """A control-plane workflow failed or was cancelled."""


class WalError(StorageError):
    """Base class for write-ahead-log failures (control-plane durability)."""


class WalCorruptionError(WalError):
    """A WAL segment holds a record that fails its checksum away from the
    tail, or a replayed record contradicts the recovered state."""


class ControlPlaneCrashError(ProRPError):
    """An injected control-plane process death (``controlplane.wal.*``
    fault points).  The in-memory engine is gone; only the WAL and the
    last checkpoint survive."""


class CapacityError(ProRPError):
    """A cluster node could not satisfy a resource allocation request."""


class TuningError(ProRPError):
    """The online knob tuner was driven inconsistently (out-of-order
    evaluation window, missing incumbent score, or a journal that
    contradicts the recovered tuner state)."""
