"""Typed request/response model of the serving gateway.

The gateway speaks a small, explicit vocabulary: four request types
(predict, resume-scan, health, metrics) and one response type per request, plus a
family of typed rejection responses (:class:`Overloaded`,
:class:`RateLimited`, :class:`DeadlineExpired`, :class:`Shutdown`,
:class:`Unavailable`, :class:`InvalidRequest`).  Rejections are *values*,
not exceptions: a shed request costs one object allocation and the client
always learns why it was refused -- the load-shedding contract of the
admission layer (``docs/serving.md``).

Everything is a frozen dataclass with a JSON codec (:func:`decode_request`
/ :func:`encode_response`, plus the :func:`encode_request` /
:func:`decode_response` inverses the sharded router forwards with) so the
same model serves the in-process API, the JSON-over-TCP front end, the
router -> worker hop, and the scripted CLI ``serve --once`` mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple, Union

from repro.errors import ProRPError
from repro.types import PredictedActivity


class ServingProtocolError(ProRPError):
    """A request document could not be decoded into a typed request."""


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictRequest:
    """Predict the next activity of one database.

    ``logins`` is the database's sorted login-timestamp history (the
    serving analogue of ``HistoryStore.login_array()``); ``now`` anchors
    Algorithm 4's candidate windows.  Requests sharing ``(region, config,
    now)`` are coalesced into one ``FastPredictor.predict_fleet`` call by
    the micro-batcher.  ``deadline_ms`` is the client's remaining latency
    budget at send time: admission rejects it once expired, and the
    dispatcher re-checks after the queue wait.

    A request may carry ``database_id`` *instead of* inline ``logins``:
    the server resolves the history from its fleet registry (in-process)
    or the shared-memory arena (sharded workers), so the hot path never
    serialises login arrays -- and the identity makes the result
    cacheable under the history's ``login_version``.  Carrying both is a
    protocol error; inline logins remain the anonymous fallback.
    """

    kind: ClassVar[str] = "predict"

    request_id: str
    logins: Tuple[int, ...]
    now: int
    region: str = "EU1"
    config: str = "default"
    tenant: str = "default"
    deadline_ms: Optional[float] = None
    database_id: Optional[str] = None


@dataclass(frozen=True)
class ResumeScanRequest:
    """One iteration of the proactive resume scan (Algorithm 5) over the
    server's registered fleet: predict every physically paused database of
    ``region`` and return those whose predicted activity starts inside
    ``[now + prewarm_s, now + prewarm_s + period_s)``."""

    kind: ClassVar[str] = "resume_scan"

    request_id: str
    now: int
    prewarm_s: int = 600
    period_s: int = 60
    region: str = "EU1"
    config: str = "default"
    tenant: str = "default"
    deadline_ms: Optional[float] = None


@dataclass(frozen=True)
class HealthRequest:
    """Liveness/stats probe; never queued, never shed."""

    kind: ClassVar[str] = "health"

    request_id: str
    tenant: str = "default"


@dataclass(frozen=True)
class MetricsRequest:
    """OpenMetrics scrape of the live registry; never queued, never shed
    (a monitoring plane that can be shed by the overload it should be
    observing is useless)."""

    kind: ClassVar[str] = "metrics"

    request_id: str
    tenant: str = "default"


Request = Union[PredictRequest, ResumeScanRequest, HealthRequest, MetricsRequest]


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictResponse:
    kind: ClassVar[str] = "predict"

    request_id: str
    prediction: PredictedActivity
    #: How many requests shared the ``predict_fleet`` evaluation.
    batch_size: int
    queue_wait_ms: float


@dataclass(frozen=True)
class ResumeScanResponse:
    kind: ClassVar[str] = "resume_scan"

    request_id: str
    database_ids: Tuple[str, ...]
    #: Paused databases the scan evaluated.
    scanned: int
    queue_wait_ms: float


@dataclass(frozen=True)
class HealthResponse:
    kind: ClassVar[str] = "health"

    request_id: str
    status: str
    queue_depth: int
    in_flight: int
    served: int
    shed: int
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsResponse:
    """The OpenMetrics exposition text (empty registry => bare ``# EOF``)."""

    kind: ClassVar[str] = "metrics"

    request_id: str
    body: str
    #: Number of metric entries the snapshot covered.
    metric_count: int = 0


@dataclass(frozen=True)
class ErrorResponse:
    """Base of the typed rejection family; ``kind`` names the reason."""

    kind: ClassVar[str] = "error"

    request_id: str
    message: str = ""


@dataclass(frozen=True)
class Overloaded(ErrorResponse):
    """Shed: the bounded queue (queued + in-flight) is full."""

    kind: ClassVar[str] = "overloaded"


@dataclass(frozen=True)
class RateLimited(ErrorResponse):
    """Shed: the tenant's token bucket is empty."""

    kind: ClassVar[str] = "rate_limited"


@dataclass(frozen=True)
class DeadlineExpired(ErrorResponse):
    """Shed: the client's deadline passed before the work would start."""

    kind: ClassVar[str] = "deadline_expired"


@dataclass(frozen=True)
class Shutdown(ErrorResponse):
    """Shed: the server is draining; queued work is rejected, not lost."""

    kind: ClassVar[str] = "shutdown"


@dataclass(frozen=True)
class Unavailable(ErrorResponse):
    """The predictor backend failed (retries exhausted or breaker open)."""

    kind: ClassVar[str] = "unavailable"


@dataclass(frozen=True)
class InvalidRequest(ErrorResponse):
    """The request document could not be decoded."""

    kind: ClassVar[str] = "invalid"


Response = Union[
    PredictResponse,
    ResumeScanResponse,
    HealthResponse,
    MetricsResponse,
    ErrorResponse,
]


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

_REQUEST_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (PredictRequest, ResumeScanRequest, HealthRequest, MetricsRequest)
}


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _coerce_logins(value: Any) -> Tuple[int, ...]:
    """``logins`` from a JSON document as a tuple of ints, or a typed
    protocol error: a scalar, a string, or non-integer elements must
    surface as :class:`InvalidRequest`, never reach numpy."""
    if isinstance(value, (str, bytes)):
        raise ServingProtocolError("logins must be an array of integers")
    try:
        items = tuple(value)
    except TypeError as exc:
        raise ServingProtocolError(
            "logins must be an array of integers"
        ) from exc
    for item in items:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ServingProtocolError(
                f"logins elements must be integers, got {item!r}"
            )
    if items and not (_INT64_MIN <= min(items) and max(items) <= _INT64_MAX):
        raise ServingProtocolError("logins elements must fit in int64")
    return items


def _int64(name: str, minimum: Optional[int] = None) -> Callable[[Any], int]:
    """Checker for an int64 integer field, optionally bounded below (JSON
    integers are unbounded; the predictor's clock is int64)."""

    def check(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServingProtocolError(f"{name} must be an integer, got {value!r}")
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ServingProtocolError(f"{name} must fit in int64")
        if minimum is not None and value < minimum:
            raise ServingProtocolError(f"{name} must be at least {minimum}")
        return value

    return check


def _string(name: str, optional: bool = False) -> Callable[[Any], Optional[str]]:
    def check(value: Any) -> Optional[str]:
        if not (isinstance(value, str) or (optional and value is None)):
            raise ServingProtocolError(f"{name} must be a string, got {value!r}")
        return value

    return check


def _coerce_deadline(value: Any) -> Optional[float]:
    """``deadline_ms``: ``null`` or a finite number (admission compares and
    divides it, so a string, a bool or ``1e999`` must stop here)."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an integer beyond float range
            pass
    raise ServingProtocolError(
        f"deadline_ms must be null or a finite number, got {value!r}"
    )


#: The type check of every request field, applied once, at decode.
_FIELD_CHECKS: Dict[str, Callable[[Any], Any]] = {
    "request_id": _string("request_id"),
    "region": _string("region"),
    "config": _string("config"),
    "tenant": _string("tenant"),
    "database_id": _string("database_id", optional=True),
    "logins": _coerce_logins,
    "now": _int64("now"),
    "prewarm_s": _int64("prewarm_s"),
    "period_s": _int64("period_s", minimum=1),
    "deadline_ms": _coerce_deadline,
}


def decode_request(doc: Dict[str, Any]) -> Request:
    """Build a typed request from a decoded JSON object.

    The document carries ``{"type": <kind>, ...fields}``; unknown types,
    unknown/missing fields and mistyped values raise
    :class:`ServingProtocolError` so the front end can answer with
    :class:`InvalidRequest` instead of dying -- nothing past this function
    re-checks a field's type.
    """
    if not isinstance(doc, dict):
        raise ServingProtocolError("request document must be a JSON object")
    request_type = doc.get("type")
    cls = _REQUEST_TYPES.get(request_type) if isinstance(request_type, str) else None
    if cls is None:
        raise ServingProtocolError(f"unknown request type {request_type!r}")
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for name, value in doc.items():
        if name == "type":
            continue
        if name not in known:
            raise ServingProtocolError(
                f"unknown field {name!r} for {request_type!r} request"
            )
        kwargs[name] = _FIELD_CHECKS[name](value)
    if cls is PredictRequest:
        if kwargs.get("database_id") is not None and kwargs.get("logins"):
            raise ServingProtocolError(
                "a predict request carries database_id or inline logins, "
                "not both"
            )
        # A by-id request legitimately omits the logins array.
        kwargs.setdefault("logins", ())
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ServingProtocolError(f"bad {request_type!r} request: {exc}") from exc


def encode_request(request: Request) -> Dict[str, Any]:
    """The request as a JSON-serialisable object (inverse of
    :func:`decode_request`): ``{"type": <kind>, ...non-default fields}``.

    Default-valued fields are omitted so router -> worker forwarding of
    small by-id requests stays small on the wire.
    """
    doc: Dict[str, Any] = {"type": request.kind}
    for f in fields(request):
        value = getattr(request, f.name)
        if f.name == "logins":
            if value:
                doc["logins"] = list(value)
            continue
        if value == f.default:
            continue
        doc[f.name] = value
    return doc


_ERROR_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        Overloaded,
        RateLimited,
        DeadlineExpired,
        Shutdown,
        Unavailable,
        InvalidRequest,
        ErrorResponse,
    )
}


def decode_response(doc: Dict[str, Any]) -> Response:
    """Build a typed response from a decoded JSON object (inverse of
    :func:`encode_response`) -- the router uses this to type worker
    replies before handing them back to clients."""
    if not isinstance(doc, dict):
        raise ServingProtocolError("response document must be a JSON object")
    response_type = doc.get("type")
    if response_type == "predict":
        p = doc.get("prediction")
        prediction = (
            PredictedActivity.none()
            if p is None
            else PredictedActivity(p["start"], p["end"], p["confidence"])
        )
        return PredictResponse(
            request_id=doc["request_id"],
            prediction=prediction,
            batch_size=doc.get("batch_size", 1),
            queue_wait_ms=doc.get("queue_wait_ms", 0.0),
        )
    if response_type == "resume_scan":
        return ResumeScanResponse(
            request_id=doc["request_id"],
            database_ids=tuple(doc.get("database_ids", ())),
            scanned=doc.get("scanned", 0),
            queue_wait_ms=doc.get("queue_wait_ms", 0.0),
        )
    if response_type == "health":
        return HealthResponse(
            request_id=doc["request_id"],
            status=doc["status"],
            queue_depth=doc.get("queue_depth", 0),
            in_flight=doc.get("in_flight", 0),
            served=doc.get("served", 0),
            shed=doc.get("shed", 0),
            stats=dict(doc.get("stats", {})),
        )
    if response_type == "metrics":
        return MetricsResponse(
            request_id=doc["request_id"],
            body=doc.get("body", ""),
            metric_count=doc.get("metric_count", 0),
        )
    cls = _ERROR_TYPES.get(response_type)
    if cls is None:
        raise ServingProtocolError(f"unknown response type {response_type!r}")
    return cls(request_id=doc["request_id"], message=doc.get("message", ""))


def encode_response(response: Response) -> Dict[str, Any]:
    """The response as a JSON-serialisable object (``type`` discriminated)."""
    doc: Dict[str, Any] = {"type": response.kind, "request_id": response.request_id}
    if isinstance(response, PredictResponse):
        p = response.prediction
        doc["prediction"] = (
            None
            if p.is_empty
            else {"start": p.start, "end": p.end, "confidence": p.confidence}
        )
        doc["batch_size"] = response.batch_size
        doc["queue_wait_ms"] = round(response.queue_wait_ms, 3)
    elif isinstance(response, ResumeScanResponse):
        doc["database_ids"] = list(response.database_ids)
        doc["scanned"] = response.scanned
        doc["queue_wait_ms"] = round(response.queue_wait_ms, 3)
    elif isinstance(response, HealthResponse):
        doc.update(
            status=response.status,
            queue_depth=response.queue_depth,
            in_flight=response.in_flight,
            served=response.served,
            shed=response.shed,
            stats=dict(response.stats),
        )
    elif isinstance(response, MetricsResponse):
        doc["body"] = response.body
        doc["metric_count"] = response.metric_count
    else:
        doc["message"] = response.message
    return doc
