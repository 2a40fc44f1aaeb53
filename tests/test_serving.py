"""Tests for the online serving gateway (``repro/serving/``).

The center of gravity is the equivalence property: the micro-batcher,
under *any* interleaving of request arrivals and any batching knobs, must
resolve every request with exactly the prediction a per-request
``FastPredictor.predict`` call would return -- batching is transport, not
semantics.  The strategy reuses the fleet harness of
``tests/test_prediction_cache.py``.

Around that: admission control (bounded depth, token buckets, deadlines),
typed load shedding, fault-point/breaker integration, the JSON-over-TCP
front end, serving metrics, and the graceful-shutdown contract (no
request future is ever left pending).
"""

import asyncio
import json
import time

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.fast_predictor import get_fast_predictor
from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultSpec, chaos
from repro.observability import observed
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    HealthRequest,
    MicroBatcher,
    PredictionServer,
    PredictRequest,
    ResumeScanRequest,
    ServingProtocolError,
    ServingSettings,
    TokenBucket,
    closed_loop,
    decode_request,
    encode_response,
    fleet_login_arrays,
    open_loop,
    serve_tcp,
)
from repro.serving.requests import (
    DeadlineExpired,
    InvalidRequest,
    Overloaded,
    PredictResponse,
    RateLimited,
    ResumeScanResponse,
    Shutdown,
    Unavailable,
)
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR
from tests.test_prediction_cache import CONFIG_VARIANTS, fleet_logins

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR
NOW = 29 * DAY

#: A small deterministic fleet shared by the server-level tests.
FLEETS = fleet_login_arrays(n_databases=24, now=NOW, seed=3)


class SteppingClock:
    """A fake monotonic clock advancing ``step`` seconds per read."""

    def __init__(self, step: float = 0.0, start: float = 100.0):
        self.t = start
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def predict_request(i: int, **overrides) -> PredictRequest:
    defaults = dict(
        request_id=f"r{i}",
        logins=tuple(FLEETS[i % len(FLEETS)]),
        now=NOW,
    )
    defaults.update(overrides)
    return PredictRequest(**defaults)


# ----------------------------------------------------------------------
# Micro-batcher: byte-identical to per-request predict (property-based)
# ----------------------------------------------------------------------


@st.composite
def arrival_schedule(draw):
    """A batch size cap plus a per-request arrival plan: each request
    either joins immediately or sleeps first, so arrivals interleave
    across event-loop turns and batch membership varies arbitrarily."""
    max_batch = draw(st.integers(min_value=1, max_value=8))
    delays = draw(
        st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=12)
    )
    return max_batch, delays


@hsettings(max_examples=25, deadline=None)
@given(
    fleet_logins(),
    arrival_schedule(),
    st.sampled_from(["daily", "weekly", "tight"]),
)
def test_batcher_matches_per_request_predict(fleets, schedule, variant):
    config = CONFIG_VARIANTS[variant]
    predictor = get_fast_predictor(config)
    max_batch, delays = schedule
    # One request per delay slot, cycling over the drawn fleet.
    requests = [fleets[i % len(fleets)] for i in range(len(delays))]

    async def run():
        batcher = MicroBatcher(
            lambda key, batch, now: predictor.predict_fleet(batch, now),
            max_batch_size=max_batch,
        )

        async def one(i):
            if delays[i]:
                await asyncio.sleep(0.0005 * delays[i])
            prediction, _ = await batcher.submit("k", requests[i], NOW)
            return prediction

        return await asyncio.gather(*(one(i) for i in range(len(requests))))

    batched = asyncio.run(run())
    assert batched == [predictor.predict(logins, NOW) for logins in requests]


def test_batcher_caps_batches_at_max_size():
    """Five submits in one turn under a cap of three: the third closes
    a full batch on the spot, the remaining two share the next one."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)

    async def run():
        batcher = MicroBatcher(
            lambda key, batch, now: predictor.predict_fleet(batch, now),
            max_batch_size=3,
        )
        results = await asyncio.gather(
            *(batcher.submit("k", FLEETS[i], NOW) for i in range(5))
        )
        assert [size for _, size in results] == [3, 3, 3, 2, 2]
        assert batcher.batches == 2 and batcher.batched_requests == 5

    asyncio.run(run())


def test_batch_closes_at_end_of_turn(monkeypatch):
    """Submits made in one event-loop turn share a batch; a submit in a
    later turn opens a new one; no timer is ever scheduled."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)
    sizes = []

    def run_batch(key, batch, nows):
        sizes.append(len(batch))
        return predictor.predict_fleet(batch, nows)

    def no_timer(*args, **kwargs):
        raise AssertionError("the batcher scheduled a timer")

    async def run():
        loop = asyncio.get_running_loop()
        monkeypatch.setattr(loop, "call_later", no_timer)
        monkeypatch.setattr(loop, "call_at", no_timer)
        batcher = MicroBatcher(run_batch, max_batch_size=64)

        async def next_turn(i):
            await asyncio.sleep(0)
            return await batcher.submit("k", FLEETS[i], NOW)

        return await asyncio.gather(
            batcher.submit("k", FLEETS[0], NOW),
            batcher.submit("k", FLEETS[1], NOW),
            next_turn(2),
        )

    results = asyncio.run(run())
    assert [size for _, size in results] == [2, 2, 1]
    assert sizes == [2, 1]


def test_batcher_groups_by_key_not_now():
    """Different keys never share a batch; different ``now``s under one
    key do, each entry evaluated at its own instant."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)
    calls = []

    def run_batch(key, batch, nows):
        calls.append((key, list(nows)))
        return predictor.predict_fleet(batch, nows)

    async def run():
        batcher = MicroBatcher(run_batch, max_batch_size=16)
        return await asyncio.gather(
            batcher.submit("a", FLEETS[0], NOW),
            batcher.submit("a", FLEETS[1], NOW),
            batcher.submit("b", FLEETS[2], NOW),
            batcher.submit("a", FLEETS[3], NOW + 7 * HOUR),
        ), batcher

    results, batcher = asyncio.run(run())
    assert [size for _, size in results] == [3, 3, 1, 3]
    assert batcher.batches == 2 and batcher.batched_requests == 4
    assert sorted(calls) == [("a", [NOW, NOW, NOW + 7 * HOUR]), ("b", [NOW])]
    nows = [NOW, NOW, NOW, NOW + 7 * HOUR]
    assert [p for p, _ in results] == [
        predictor.predict(FLEETS[i], nows[i]) for i in range(4)
    ]


def test_batcher_rejects_bad_knobs():
    with pytest.raises(ConfigError):
        MicroBatcher(lambda k, b, n: [], max_batch_size=0)


# ----------------------------------------------------------------------
# Server end-to-end: predictions via the gateway == direct predict
# ----------------------------------------------------------------------


def test_server_serves_batched_predictions():
    predictor = get_fast_predictor(DEFAULT_CONFIG)

    async def run():
        server = PredictionServer()
        responses = await server.serve_script(
            [predict_request(i) for i in range(10)]
        )
        for i, response in enumerate(responses):
            assert isinstance(response, PredictResponse)
            assert response.prediction == predictor.predict(FLEETS[i], NOW)
        # The burst coalesced: far fewer evaluations than requests.
        assert server.batcher.batches < 10
        assert server.batcher.batched_requests == 10

    asyncio.run(run())


def test_server_unknown_config_is_unavailable_not_fatal():
    async def run():
        server = PredictionServer()
        [response] = await server.serve_script(
            [predict_request(0, config="nope")]
        )
        assert isinstance(response, Unavailable)
        assert "nope" in response.message

    asyncio.run(run())


def test_malformed_logins_resolve_not_hang():
    """A request whose logins numpy cannot coerce must resolve as a typed
    error, never strand a future (regression: ValueError escaped
    ``_handle``) -- and the request that shared its batch is still
    answered."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)

    async def run():
        server = PredictionServer(
            settings=ServingSettings(max_batch_size=64)
        )
        bad = predict_request(0, request_id="bad", logins=("bogus",))
        good = predict_request(1, request_id="good")
        bad_response, good_response = await asyncio.wait_for(
            server.serve_script([bad, good]), timeout=5.0
        )
        assert isinstance(bad_response, InvalidRequest)
        assert good_response.prediction == predictor.predict(FLEETS[1], NOW)
        assert good_response.batch_size == 2
        assert server.depth() == 0

    asyncio.run(run())


@pytest.mark.parametrize(
    "overrides",
    [
        dict(logins=FLEETS[1] + (2**63,)),
        dict(logins=(-(2**63) - 1,) + FLEETS[1]),
        dict(logins=None),
        dict(now=2**63),
    ],
    ids=["login-too-large", "login-too-small", "logins-none", "now-too-large"],
)
def test_unconvertible_request_fails_alone(overrides):
    """In-process requests are not decoded, so an out-of-int64 value only
    surfaces in the batch's one-shot conversion (regression: the
    ``OverflowError`` reached every future of the batch as
    ``Unavailable``).  Only the offender may be refused."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)

    async def run():
        server = PredictionServer(
            settings=ServingSettings(max_batch_size=64)
        )
        script = [
            predict_request(0),
            predict_request(1, request_id="bad", **overrides),
            predict_request(2),
        ]
        first, bad, last = await asyncio.wait_for(
            server.serve_script(script), timeout=5.0
        )
        assert isinstance(bad, InvalidRequest) and "int64" in bad.message
        assert first.prediction == predictor.predict(FLEETS[0], NOW)
        assert last.prediction == predictor.predict(FLEETS[2], NOW)
        assert server.stats.errors == 0 and server.depth() == 0

    asyncio.run(run())


def test_resume_scan_matches_direct_predictions():
    """The scan must select exactly the paused databases whose directly
    computed prediction starts inside the pre-warm window."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)

    async def run():
        server = PredictionServer()
        for i, logins in enumerate(FLEETS):
            server.register_database(
                "EU1", f"db-{i}", logins, paused=(i % 3 != 0)
            )
        await server.start()
        for prewarm_s in (0, 600, 3600, 6 * HOUR):
            response = await server.submit(
                ResumeScanRequest(
                    f"scan-{prewarm_s}", NOW, prewarm_s=prewarm_s,
                    period_s=30 * 60,
                )
            )
            assert isinstance(response, ResumeScanResponse)
            expected = tuple(
                f"db-{i}"
                for i, logins in enumerate(FLEETS)
                if i % 3 != 0
                and not predictor.predict(logins, NOW).is_empty
                and prewarm_s + NOW
                <= predictor.predict(logins, NOW).start
                < prewarm_s + NOW + 30 * 60
            )
            assert response.database_ids == expected
            assert response.scanned == sum(
                1 for i in range(len(FLEETS)) if i % 3 != 0
            )
        await server.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Admission control and load shedding
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = SteppingClock(step=0.0)
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.t += 1.5  # 1.5 tokens refill
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = SteppingClock(step=0.0)
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.t += 1000.0
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queue_depth=0)
        # A rate-limited policy with a non-positive burst must fail at
        # configuration time, not at the first admit() for the tenant.
        with pytest.raises(ConfigError):
            AdmissionPolicy(tenant_rate=5.0, tenant_burst=0.0)
        # Burst is irrelevant while rate limiting is disabled.
        AdmissionPolicy(tenant_rate=0.0, tenant_burst=0.0)


def test_admission_controller_reasons():
    controller = AdmissionController(
        AdmissionPolicy(max_queue_depth=2, tenant_rate=10.0, tenant_burst=1.0),
        clock=SteppingClock(step=0.0),
    )
    request = predict_request(0)
    assert controller.admit(request, depth=0) is None
    assert isinstance(controller.admit(request, depth=2), Overloaded)
    # Tenant burst of one: the second immediate request is rate limited,
    # another tenant is not.
    assert isinstance(controller.admit(request, depth=0), RateLimited)
    other = predict_request(1, tenant="other")
    assert controller.admit(other, depth=0) is None
    expired = predict_request(2, tenant="t3", deadline_ms=0.0)
    assert isinstance(controller.admit(expired, depth=0), DeadlineExpired)
    stopping = controller.admit(request, depth=0, stopping=True)
    assert isinstance(stopping, Shutdown)
    assert controller.shed == {
        "queue_full": 1, "rate_limited": 1, "deadline": 1, "shutdown": 1,
    }
    assert controller.admitted == 2


def test_server_sheds_overload_with_bounded_depth():
    """With a depth bound of two, a burst of five sheds three as
    Overloaded; the admitted two are served and depth never exceeds
    the bound."""

    async def run():
        server = PredictionServer(
            settings=ServingSettings(
                max_queue_depth=2,
                max_batch_size=100,
            )
        )
        await server.start()
        tasks = [
            asyncio.get_running_loop().create_task(
                server.submit(predict_request(i))
            )
            for i in range(5)
        ]
        responses = await asyncio.gather(*tasks)
        kinds = sorted(r.kind for r in responses)
        assert kinds == ["overloaded"] * 3 + ["predict"] * 2
        assert all(
            isinstance(r, Overloaded) for r in responses if r.kind != "predict"
        )
        assert server.stats.max_depth <= 2
        assert server.admission.shed["queue_full"] == 3
        await server.stop()

    asyncio.run(run())


def test_server_dispatch_deadline_shed():
    """A queue wait that consumes the client budget sheds at dispatch."""

    async def run():
        # Every clock read advances one second, so the measured queue
        # wait is always >= 1000 ms.
        server = PredictionServer(clock=SteppingClock(step=1.0))
        await server.start()
        response = await server.submit(
            predict_request(0, deadline_ms=500.0)
        )
        assert isinstance(response, DeadlineExpired)
        assert "in queue" in response.message
        assert server.admission.shed["deadline"] == 1
        await server.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Graceful shutdown: no future left pending
# ----------------------------------------------------------------------


def test_stop_resolves_every_future():
    """The regression pin for the shutdown contract: whatever mix of
    queued, in-flight, and about-to-arrive requests exists at stop()
    time, every submit() call resolves to a typed response."""

    async def run():
        server = PredictionServer(
            settings=ServingSettings(max_batch_size=100)
        )
        await server.start()
        loop = asyncio.get_running_loop()
        tasks = [
            loop.create_task(server.submit(predict_request(i)))
            for i in range(8)
        ]
        # One event-loop tick: some requests are dispatched to
        # handlers, the rest are still queued.
        await asyncio.sleep(0)
        await server.stop()
        responses = await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
        assert all(
            isinstance(r, (PredictResponse, Shutdown)) for r in responses
        )
        assert server.batcher.pending_requests == 0
        assert not server._in_flight
        # Post-stop arrivals are rejected, typed.
        late = await server.submit(predict_request(99))
        assert isinstance(late, Shutdown)
        predicted = [r for r in responses if isinstance(r, PredictResponse)]
        predictor = get_fast_predictor(DEFAULT_CONFIG)
        for response in predicted:
            i = int(response.request_id[1:])
            assert response.prediction == predictor.predict(FLEETS[i], NOW)

    asyncio.run(run())


def test_stop_flushes_metrics_snapshot(tmp_path):
    out = tmp_path / "serving_metrics.json"

    async def run():
        server = PredictionServer(
            settings=ServingSettings(metrics_out=str(out))
        )
        await server.serve_script(
            [predict_request(0), HealthRequest("h")]
        )

    with observed():
        asyncio.run(run())
    snapshot = json.loads(out.read_text())
    assert "serving.queue.wait_ms" in snapshot
    assert "serving.batch.size" in snapshot
    assert snapshot["serving.requests.predict"]["value"] == 1
    assert snapshot["serving.requests.health"]["value"] == 1


# ----------------------------------------------------------------------
# Fault injection and resilience
# ----------------------------------------------------------------------


def test_handler_fault_exhausts_retries_then_unavailable():
    plan = FaultPlan.of(FaultSpec("serving.handler", probability=1.0))

    async def run(server):
        return await server.serve_script([predict_request(0)])

    with chaos(plan, seed=7) as injector:
        server = PredictionServer(settings=ServingSettings(retry_attempts=3))
        [response] = asyncio.run(run(server))
    assert isinstance(response, Unavailable)
    assert injector.fires["serving.handler"] == 3  # every attempt failed
    assert injector.events.get("retry.serving.handler") == 2
    assert server.stats.errors == 1


def test_handler_fault_transient_is_retried_away():
    """One fire then clean: the retry absorbs it, the client never sees it."""
    plan = FaultPlan.of(
        FaultSpec("serving.handler", probability=1.0, max_fires=1)
    )

    async def run(server):
        return await server.serve_script([predict_request(0)])

    with chaos(plan, seed=7):
        server = PredictionServer(settings=ServingSettings(retry_attempts=2))
        [response] = asyncio.run(run(server))
    assert isinstance(response, PredictResponse)
    assert server.stats.errors == 0


def test_breaker_opens_after_repeated_handler_faults():
    plan = FaultPlan.of(FaultSpec("serving.handler", probability=1.0))

    async def run(server):
        await server.start()
        responses = []
        for i in range(8):
            responses.append(await server.submit(predict_request(i)))
        await server.stop()
        return responses

    with chaos(plan, seed=1) as injector:
        server = PredictionServer(
            settings=ServingSettings(
                retry_attempts=1,
                breaker_failure_threshold=3,
                breaker_recovery_s=10_000.0,
            )
        )
        responses = asyncio.run(run(server))
    assert all(isinstance(r, Unavailable) for r in responses)
    assert server._breaker.opens == 1
    # Once open, evaluations are refused without consulting the backend:
    # only the first three requests reached the fault point.
    assert injector.fires["serving.handler"] == 3
    assert any("breaker open" in r.message for r in responses[3:])


def test_queue_full_fault_forces_shed():
    plan = FaultPlan.of(FaultSpec("serving.queue_full", probability=1.0))

    async def run(server):
        return await server.serve_script([predict_request(0)])

    with chaos(plan, seed=0):
        server = PredictionServer()
        [response] = asyncio.run(run(server))
    assert isinstance(response, Overloaded)
    assert server.admission.shed["queue_full"] == 1


# ----------------------------------------------------------------------
# JSON codec and the TCP front end
# ----------------------------------------------------------------------


class TestCodec:
    def test_predict_round_trip(self):
        request = decode_request(
            {
                "type": "predict",
                "request_id": "x",
                "logins": [1, 2, 3],
                "now": 100,
                "deadline_ms": 25.5,
            }
        )
        assert isinstance(request, PredictRequest)
        assert request.logins == (1, 2, 3)
        assert request.deadline_ms == 25.5

    def test_unknown_type_rejected(self):
        with pytest.raises(ServingProtocolError):
            decode_request({"type": "drop_tables"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ServingProtocolError):
            decode_request(
                {"type": "health", "request_id": "x", "hack": True}
            )

    def test_missing_field_rejected(self):
        with pytest.raises(ServingProtocolError):
            decode_request({"type": "predict", "request_id": "x"})

    def test_non_object_rejected(self):
        with pytest.raises(ServingProtocolError):
            decode_request(["predict"])

    def test_non_iterable_logins_rejected(self):
        with pytest.raises(ServingProtocolError):
            decode_request(
                {"type": "predict", "request_id": "x", "logins": 5, "now": 0}
            )

    def test_non_integer_logins_rejected(self):
        for logins in (["bogus"], [1.5], [True], "123"):
            with pytest.raises(ServingProtocolError):
                decode_request(
                    {
                        "type": "predict",
                        "request_id": "x",
                        "logins": logins,
                        "now": 0,
                    }
                )

    def test_out_of_int64_rejected(self):
        """JSON integers are unbounded; the kernel's clock is int64."""
        base = {"type": "predict", "request_id": "x", "logins": [1], "now": 0}
        for field, value in (
            ("logins", [1, 2**63]),
            ("logins", [-(2**63) - 1]),
            ("now", 2**63),
            ("now", -(2**63) - 1),
            ("now", "0"),
        ):
            with pytest.raises(ServingProtocolError):
                decode_request({**base, field: value})
        with pytest.raises(ServingProtocolError):
            decode_request({"type": "resume_scan", "request_id": "x", "now": 2**63})
        extremes = decode_request(
            {**base, "logins": [-(2**63), 2**63 - 1], "now": 2**63 - 1}
        )
        assert extremes.logins == (-(2**63), 2**63 - 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("type", [1]),
            ("type", None),
            ("request_id", 7),
            ("request_id", None),
            ("region", {"a": 1}),
            ("config", ["default"]),
            ("tenant", 3.5),
            ("database_id", 12),
            ("deadline_ms", "abc"),
            ("deadline_ms", True),
            ("deadline_ms", [5]),
            ("deadline_ms", float("inf")),
            ("deadline_ms", float("nan")),
            ("deadline_ms", 10**400),
            ("prewarm_s", "600"),
            ("prewarm_s", 1.5),
            ("prewarm_s", False),
            ("prewarm_s", 2**63),
            ("period_s", 0),
            ("period_s", -60),
            ("period_s", 60.0),
            ("period_s", 2**63),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        """Every field's type is settled at the boundary: nothing past
        ``decode_request`` meets a string deadline or a dict region."""
        kind = "resume_scan" if field in ("prewarm_s", "period_s") else "predict"
        doc = {"type": kind, "request_id": "x", "now": 0, field: value}
        with pytest.raises(ServingProtocolError):
            decode_request(doc)

    def test_boundary_values_accepted(self):
        predict = decode_request(
            {
                "type": "predict",
                "request_id": "",
                "now": -(2**63),
                "database_id": None,
                "deadline_ms": None,
                "region": "",
            }
        )
        assert predict.deadline_ms is None and predict.database_id is None
        for deadline in (0, -1, 0.5, 2**62):
            doc = {"type": "predict", "request_id": "x", "now": 0}
            assert decode_request({**doc, "deadline_ms": deadline}).deadline_ms == (
                deadline
            )
        scan = decode_request(
            {
                "type": "resume_scan",
                "request_id": "s",
                "now": 2**63 - 1,
                "prewarm_s": -(2**63),
                "period_s": 1,
            }
        )
        assert (scan.prewarm_s, scan.period_s) == (-(2**63), 1)
        assert decode_request({**vars(scan), "type": "resume_scan"}) == scan

    def test_every_request_field_has_a_type_check(self):
        from dataclasses import fields

        from repro.serving import requests as codec

        for cls in codec._REQUEST_TYPES.values():
            assert {f.name for f in fields(cls)} <= set(codec._FIELD_CHECKS)

    def test_encode_error_response(self):
        doc = encode_response(Overloaded("x", "full"))
        assert doc == {
            "type": "overloaded", "request_id": "x", "message": "full",
        }


def test_tcp_front_end_round_trip():
    predictor = get_fast_predictor(DEFAULT_CONFIG)

    async def run():
        server = PredictionServer()
        listener = await serve_tcp(server, port=0)
        port = listener.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def call(doc):
            writer.write((json.dumps(doc) + "\n").encode())
            await writer.drain()
            return json.loads(await asyncio.wait_for(reader.readline(), 5.0))

        doc = await call(
            {
                "type": "predict",
                "request_id": "t1",
                "logins": list(FLEETS[0]),
                "now": NOW,
            }
        )
        assert doc["type"] == "predict" and doc["request_id"] == "t1"
        direct = predictor.predict(FLEETS[0], NOW)
        if direct.is_empty:
            assert doc["prediction"] is None
        else:
            assert doc["prediction"]["start"] == direct.start
            assert doc["prediction"]["end"] == direct.end

        health = await call({"type": "health", "request_id": "t2"})
        assert health["status"] == "ok"

        writer.write(b"this is not json\n")
        await writer.drain()
        invalid = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
        assert invalid["type"] == "invalid"

        # Malformed logins (non-integer elements, non-iterable) must be
        # refused at decode time -- not hang the batch (regression).
        bad = await call(
            {
                "type": "predict",
                "request_id": "t3",
                "logins": ["bogus"],
                "now": NOW,
            }
        )
        assert bad["type"] == "invalid"
        bad = await call(
            {"type": "predict", "request_id": "t4", "logins": 5, "now": NOW}
        )
        assert bad["type"] == "invalid"
        still_alive = await call({"type": "health", "request_id": "t5"})
        assert still_alive["status"] == "ok"

        writer.close()
        await writer.wait_closed()
        listener.close()
        await listener.wait_closed()
        await server.stop()

    asyncio.run(run())


def test_tcp_front_end_contains_one_bad_request():
    """A malformed request costs its sender one typed answer and nobody
    else anything: the public connection answers and lives on, whether
    the codec refuses the line or admission itself blows up."""

    async def run():
        server = PredictionServer()
        listener = await serve_tcp(server, port=0)
        port = listener.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def call(doc):
            writer.write((json.dumps(doc) + "\n").encode())
            await writer.drain()
            return json.loads(await asyncio.wait_for(reader.readline(), 5.0))

        base = {"type": "predict", "logins": list(FLEETS[0]), "now": NOW}
        answers = [
            await call({**base, "request_id": "d1", "deadline_ms": "abc"}),
            await call({**base, "request_id": "d2", "region": {"a": 1}}),
            await call({"type": [1], "request_id": "d3"}),
        ]
        assert [a["type"] for a in answers] == ["invalid"] * 3
        assert server.stats.errors == 0

        # Past the codec: an exception while admitting one request is that
        # request's typed answer, not the connection's end.
        admit = server.admission.admit

        def flaky_admit(request, **kwargs):
            if request.request_id == "boom":
                raise RuntimeError("admission fell over")
            if request.request_id == "bad":
                raise TypeError("'<=' not supported")
            return admit(request, **kwargs)

        server.admission.admit = flaky_admit
        boom = await call({**base, "request_id": "boom"})
        bad = await call({**base, "request_id": "bad"})
        good = await call({**base, "request_id": "good"})
        assert (boom["type"], boom["request_id"]) == ("unavailable", "boom")
        assert "RuntimeError" in boom["message"]
        assert (bad["type"], bad["request_id"]) == ("invalid", "bad")
        assert (good["type"], good["request_id"]) == ("predict", "good")

        writer.close()
        await writer.wait_closed()
        listener.close()
        await listener.wait_closed()
        await server.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


def test_closed_loop_loadgen_completes_everything():
    async def run():
        server = PredictionServer()
        await server.start()
        report = await closed_loop(
            server, FLEETS, NOW, clients=4, requests_per_client=5, seed=1
        )
        await server.stop()
        return report

    report = asyncio.run(run())
    assert report.offered == 20
    assert report.completed == 20 and report.shed == 0
    assert len(report.latencies_ms) == 20
    assert report.throughput_rps > 0
    assert report.percentile_ms(99.0) >= report.percentile_ms(50.0)
    summary = report.summary()
    assert summary["mode"] == "closed" and summary["clients"] == 4


def test_open_loop_loadgen_accounts_all_arrivals():
    async def run():
        server = PredictionServer(
            settings=ServingSettings(max_queue_depth=4)
        )
        await server.start()
        report = await open_loop(
            server, FLEETS, NOW, rate_rps=2000.0, n_requests=40, seed=2
        )
        await server.stop()
        return report

    report = asyncio.run(run())
    assert report.completed + report.shed == 40
    assert report.shed_by_kind.get("overloaded", 0) == report.shed


def test_open_loop_latency_counts_time_behind_schedule():
    """Coordinated omission: a submit that blocks the loop for 20 ms at
    500 rps leaves every later arrival due before it can fire.  Timed
    from its due instant, the backlog shows (p99 is several stalls long);
    timed from when its task first ran, each request would report just
    its own 20 ms stall."""
    stall_s = 0.02

    class BlockingServer:
        async def submit(self, request):
            time.sleep(stall_s)
            return request

    report = asyncio.run(
        open_loop(
            BlockingServer(), FLEETS, NOW, rate_rps=500.0, n_requests=10,
            seed=2,
        )
    )
    assert report.completed == 10 and report.shed == 0
    assert report.percentile_ms(99.0) >= 2 * stall_s * 1000.0


def test_fleet_login_arrays_are_sorted_and_windowed():
    fleets = fleet_login_arrays(n_databases=10, now=NOW, seed=0)
    assert fleets
    start = NOW - DEFAULT_CONFIG.history_days * DAY
    for logins in fleets:
        assert list(logins) == sorted(logins)
        assert all(start <= t < NOW for t in logins)


def test_stop_checkpoints_control_plane(tmp_path):
    """A server wired to a durable control plane journals every workflow
    its resume scans submit, and ``stop()`` checkpoints the engine before
    exit -- so a restarted server recovers the identical workflow state
    instead of re-resuming databases it already handled."""
    from repro.controlplane.durability import (
        DurableWorkflowEngine,
        checkpoint_paths,
    )

    state_dir = tmp_path / "controlplane"

    async def run():
        # checkpoint_every=0 disables periodic checkpoints: the one the
        # test finds afterwards can only have come from stop().
        engine = DurableWorkflowEngine(state_dir, checkpoint_every=0)
        server = PredictionServer(control_plane=engine)
        for i, logins in enumerate(FLEETS):
            server.register_database("EU1", f"db-{i}", logins, paused=True)
        await server.start()
        selected = set()
        # Scans tiled over the next day: together they cover every
        # possible predicted start, so the fixture fleet is guaranteed
        # to trigger at least one pre-warm submission.
        for k in range(12):
            response = await server.submit(
                ResumeScanRequest(
                    f"scan-{k}", NOW, prewarm_s=k * 2 * HOUR,
                    period_s=2 * HOUR,
                )
            )
            assert isinstance(response, ResumeScanResponse)
            selected.update(response.database_ids)
        await server.stop()
        return engine, selected

    engine, selected = asyncio.run(run())
    assert selected, "fixture fleet produced no pre-warm candidates"
    assert len(engine.workflows) == len(selected)
    assert checkpoint_paths(state_dir), "stop() did not write a checkpoint"
    recovered = DurableWorkflowEngine.recover(state_dir)
    assert recovered.lsn == engine.lsn
    assert {w.database_id for w in recovered.workflows.values()} == selected
    assert recovered.recovery_info["replayed"] == 0, (
        "recovery replayed WAL records despite a fresh stop() checkpoint"
    )
    recovered.close()
