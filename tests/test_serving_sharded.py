"""Tests for the shared-nothing sharded serving tier.

The center of gravity is the equivalence property demanded by the
architecture: the same request trace through ``serve --shards 4`` (real
spawned workers, shared-memory arena, consistent-hash routing) and
through the in-process gateway must yield byte-identical prediction
payloads and resume-scan orderings.  Two layers pin it:

* a hypothesis property test comparing the in-process registry against
  arena-backed views under randomized traces (predicts, cache-hitting
  repeats, appends, pause flips, scans) -- cheap, so it runs many
  examples;
* a full multi-process test driving an actual 4-worker router and the
  single-process server through one mixed trace.

Around that: the arena's CSR layout and single-writer contract, the
``LeanHistory`` CSR export, consistent-hash stability, router
backpressure (typed ``Overloaded`` when every replica's window is
full), breaker-gated worker respawn, merged metrics exposition, and
the admission snapshot's consistency under concurrent admits.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.errors import ConfigError
from repro.serving import (
    HealthRequest,
    MetricsRequest,
    PredictionServer,
    PredictRequest,
    ResumeScanRequest,
    ServingSettings,
    encode_response,
    fleet_login_arrays,
    serve_tcp,
)
from repro.serving.requests import (
    InvalidRequest,
    Overloaded,
    PredictResponse,
    decode_response,
    encode_request,
)
from repro.serving.sharded import (
    HashRing,
    RouterSettings,
    ShardRouter,
    SharedHistoryArena,
)
from repro.serving.sharded.worker import handle_pipelined
from repro.simulation.fleet import LeanHistory
from repro.types import SECONDS_PER_DAY

DAY = SECONDS_PER_DAY
NOW = 29 * DAY

#: Small deterministic fleet spread over four regions.
FLEETS = fleet_login_arrays(n_databases=24, now=NOW, seed=3)
REGIONS = [f"R{i % 4}" for i in range(len(FLEETS))]
DATABASE_IDS = [f"db-{i}" for i in range(len(FLEETS))]


def sharded_fleet():
    fleet = {}
    for database_id, logins, region in zip(DATABASE_IDS, FLEETS, REGIONS):
        fleet.setdefault(region, []).append((database_id, logins, True))
    return fleet


def inprocess_server(**settings) -> PredictionServer:
    server = PredictionServer(settings=ServingSettings(**settings))
    for database_id, logins, region in zip(DATABASE_IDS, FLEETS, REGIONS):
        server.register_database(region, database_id, logins, paused=True)
    return server


def normalized(response) -> str:
    """The response payload as canonical JSON, minus wall-clock noise."""
    doc = encode_response(response)
    doc.pop("queue_wait_ms", None)
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# SharedHistoryArena
# ---------------------------------------------------------------------------


def test_arena_roundtrip_views_and_versions():
    arena = SharedHistoryArena.build(sharded_fleet(), slack=4)
    try:
        views = arena.views()
        assert set(views) == set(REGIONS)
        for i, (database_id, logins, region) in enumerate(
            zip(DATABASE_IDS, FLEETS, REGIONS)
        ):
            view_logins, paused = views[region][database_id]
            assert paused is True
            assert view_logins.tolist() == list(logins)
            assert views[region].login_version(database_id) == len(logins)
        # Registration order is iteration order (resume-scan ordering).
        assert [db for db, _ in views["R0"].items()] == [
            db for db, r in zip(DATABASE_IDS, REGIONS) if r == "R0"
        ]
    finally:
        arena.close()
        arena.unlink()


def test_arena_attach_sees_owner_writes():
    arena = SharedHistoryArena.build(sharded_fleet(), slack=2)
    reader = SharedHistoryArena.attach(arena.spec)
    try:
        region, database_id = REGIONS[0], DATABASE_IDS[0]
        before = reader.login_version(region, database_id)
        ts = int(FLEETS[0][-1]) + 60
        arena.append_login(region, database_id, ts)
        # Version bump and the new login are visible through the
        # separately-mapped reader with no refresh step (same pages).
        assert reader.login_version(region, database_id) == before + 1
        assert int(reader.login_view(region, database_id)[-1]) == ts
        arena.append_login(region, database_id, ts)  # dedup: no-op
        assert reader.login_version(region, database_id) == before + 1
        arena.set_paused(region, database_id, False)
        assert reader.views()[region][database_id][1] is False
    finally:
        reader.close()
        arena.close()
        arena.unlink()


def test_arena_write_contract():
    arena = SharedHistoryArena.build(
        {"R0": [("db-0", (100, 200), True)]}, slack=1
    )
    reader = SharedHistoryArena.attach(arena.spec)
    try:
        with pytest.raises(ConfigError, match="read-only"):
            reader.append_login("R0", "db-0", 300)
        with pytest.raises(ConfigError, match="read-only"):
            reader.set_paused("R0", "db-0", False)
        with pytest.raises(ConfigError, match="older"):
            arena.append_login("R0", "db-0", 50)
        arena.append_login("R0", "db-0", 300)
        with pytest.raises(ConfigError, match="slack"):
            arena.append_login("R0", "db-0", 400)
        with pytest.raises(ConfigError, match="unknown database"):
            arena.login_view("R0", "nope")
    finally:
        reader.close()
        arena.close()
        arena.unlink()


def test_lean_history_export_feeds_arena():
    # Two databases: one with three pre-sim sessions, one with one.
    sess_offsets = np.array([0, 3, 4], dtype=np.int64)
    starts = np.array([100, 500, 900, 300], dtype=np.int64)
    ends = np.array([200, 600, 1000, 400], dtype=np.int64)
    history = LeanHistory(
        sess_offsets, starts, ends, sim_start=2000, history_days=30
    )
    offsets, logins = history.export_csr()
    for d in range(history.n):
        assert (
            logins[int(offsets[d]) : int(offsets[d + 1])].tolist()
            == history.login_array(d).tolist()
        )
    arena = SharedHistoryArena.from_lean_history(
        "EU1", history, ["a", "b"], [True, False], slack=2
    )
    try:
        assert (
            arena.login_view("EU1", "a").tolist()
            == history.login_array(0).tolist()
        )
        assert arena.views()["EU1"]["b"][1] is False
    finally:
        arena.close()
        arena.unlink()


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------


def test_hashring_deterministic_and_distinct():
    ring_a = HashRing(range(4))
    ring_b = HashRing(range(4))
    keys = [f"region-{i}" for i in range(64)]
    assert ring_a.assignment(keys) == ring_b.assignment(keys)
    for key in keys:
        candidates = ring_a.candidates(key, replicas=3)
        assert len(candidates) == len(set(candidates)) == 3
    # Every worker owns some share of a 64-key space.
    owners = set(ring_a.assignment(keys).values())
    assert owners == {0, 1, 2, 3}


def test_hashring_removal_moves_only_lost_arcs():
    keys = [f"region-{i}" for i in range(128)]
    full = HashRing([0, 1, 2, 3]).assignment(keys)
    without_3 = HashRing([0, 1, 2]).assignment(keys)
    for key in keys:
        if full[key] != 3:
            assert without_3[key] == full[key]


def test_hashring_validation():
    with pytest.raises(ConfigError):
        HashRing([])
    with pytest.raises(ConfigError):
        HashRing([0], vnodes=0)


# ---------------------------------------------------------------------------
# Admission snapshot under concurrent admits
# ---------------------------------------------------------------------------


def test_admission_snapshot_consistent_under_concurrent_admits():
    server = inprocess_server(
        max_queue_depth=4, tenant_rate=50.0, tenant_burst=4.0
    )
    observations = []

    async def run():
        await server.start()

        async def sampler():
            for _ in range(200):
                observations.append(server.admission.snapshot())
                await asyncio.sleep(0)

        requests = [
            PredictRequest(
                f"r{i}",
                (),
                NOW,
                region=REGIONS[i % len(REGIONS)],
                database_id=DATABASE_IDS[i % len(DATABASE_IDS)],
                tenant=f"t{i % 3}",
            )
            for i in range(120)
        ]
        sample_task = asyncio.get_running_loop().create_task(sampler())
        await asyncio.gather(*(server.submit(r) for r in requests))
        await sample_task
        await server.stop()

    asyncio.run(run())
    final = server.admission.snapshot()
    # Every request is decided exactly once (no deadlines in this trace,
    # so no dispatch-time second decision).
    assert final["admitted"] + final["total_shed"] == 120
    assert final["shed"]["rate_limited"] > 0 or final["shed"]["queue_full"] > 0
    last_decisions = 0
    for snap in observations + [final]:
        # Internally consistent at every observation point: the shed map
        # sums to the total, decision counts never go backwards, and no
        # bucket exceeds its burst.
        assert snap["total_shed"] == sum(snap["shed"].values())
        decisions = snap["admitted"] + snap["total_shed"]
        assert decisions >= last_decisions
        last_decisions = decisions
        assert snap["max_queue_depth"] == 4
        for tokens in snap["tenant_buckets"].values():
            assert 0.0 <= tokens <= 4.0


# ---------------------------------------------------------------------------
# submit_nowait: the synchronous fast path
# ---------------------------------------------------------------------------


def test_submit_nowait_sync_and_cached_paths():
    server = inprocess_server()

    async def run():
        await server.start()
        response, future = server.submit_nowait(HealthRequest("h0"))
        assert future is None and response.kind == "health"
        by_id = PredictRequest(
            "p0", (), NOW, region=REGIONS[0], database_id=DATABASE_IDS[0]
        )
        response, future = server.submit_nowait(by_id)
        assert response is None  # cold: queued for the batched path
        first = await future
        assert isinstance(first, PredictResponse)
        response, future = server.submit_nowait(
            PredictRequest(
                "p1", (), NOW, region=REGIONS[0], database_id=DATABASE_IDS[0]
            )
        )
        # Warm: resolved synchronously from the prediction cache, and
        # the payload is identical to the batched evaluation.
        assert future is None
        assert response.prediction == first.prediction
        assert server.stats.cache_hits == 1
        # An append bumps the version, so the cache entry is unreachable.
        server.append_login(
            REGIONS[0], DATABASE_IDS[0], int(FLEETS[0][-1]) + 60
        )
        response, future = server.submit_nowait(
            PredictRequest(
                "p2", (), NOW, region=REGIONS[0], database_id=DATABASE_IDS[0]
            )
        )
        assert response is None
        await future
        # Unknown database: typed InvalidRequest, synchronously.
        response, future = server.submit_nowait(
            PredictRequest("p3", (), NOW, region=REGIONS[0], database_id="?")
        )
        assert future is None and response.kind == "invalid"
        await server.stop()

    asyncio.run(run())
    assert server.stats.cache_misses == 2


def test_prediction_cache_bounded():
    server = inprocess_server(prediction_cache_size=4)

    async def run():
        await server.start()
        for i in range(12):
            await server.submit(
                PredictRequest(
                    f"p{i}",
                    (),
                    NOW + i,
                    region=REGIONS[0],
                    database_id=DATABASE_IDS[0],
                )
            )
        await server.stop()

    asyncio.run(run())
    assert len(server._cache) <= 4


# ---------------------------------------------------------------------------
# Equivalence property: in-process registry vs arena-backed views
# ---------------------------------------------------------------------------


op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("predict"), st.integers(0, len(FLEETS) - 1)),
        st.tuples(st.just("scan"), st.integers(0, 3)),
        st.tuples(st.just("append"), st.integers(0, len(FLEETS) - 1)),
        st.tuples(st.just("pause"), st.integers(0, len(FLEETS) - 1)),
    ),
    min_size=1,
    max_size=24,
)


@hsettings(max_examples=25, deadline=None)
@given(ops=op_strategy)
def test_arena_views_equivalent_to_registry(ops):
    """Any interleaving of predicts, appends, pause flips, and scans
    resolves byte-identically whether the server reads its own dict
    registry or attached shared-memory arena views."""
    registry_server = inprocess_server()
    arena = SharedHistoryArena.build(sharded_fleet(), slack=32)
    arena_server = PredictionServer(settings=ServingSettings())
    arena_server.attach_fleet(arena.views())
    appended = {}

    async def run():
        await registry_server.start()
        await arena_server.start()
        try:
            for seq, (op, target) in enumerate(ops):
                if op == "predict":
                    request = PredictRequest(
                        f"p{seq}",
                        (),
                        NOW,
                        region=REGIONS[target],
                        database_id=DATABASE_IDS[target],
                    )
                    a = await registry_server.submit(request)
                    b = await arena_server.submit(request)
                    assert normalized(a) == normalized(b)
                elif op == "scan":
                    request = ResumeScanRequest(
                        f"s{seq}", NOW, region=f"R{target}"
                    )
                    a = await registry_server.submit(request)
                    b = await arena_server.submit(request)
                    assert normalized(a) == normalized(b)
                elif op == "append":
                    ts = (
                        int(FLEETS[target][-1])
                        + 60 * (appended.get(target, 0) + 1)
                    )
                    appended[target] = appended.get(target, 0) + 1
                    registry_server.append_login(
                        REGIONS[target], DATABASE_IDS[target], ts
                    )
                    arena.append_login(
                        REGIONS[target], DATABASE_IDS[target], ts
                    )
                else:  # pause flip
                    flag = target % 2 == 0
                    registry_server.set_paused(
                        REGIONS[target], DATABASE_IDS[target], flag
                    )
                    arena.set_paused(
                        REGIONS[target], DATABASE_IDS[target], flag
                    )
        finally:
            await registry_server.stop()
            await arena_server.stop()

    try:
        asyncio.run(run())
    finally:
        arena.close()
        arena.unlink()


# ---------------------------------------------------------------------------
# Full multi-process equivalence: serve --shards 4 vs in-process
# ---------------------------------------------------------------------------


def equivalence_trace():
    requests = []
    for i in range(len(FLEETS)):
        requests.append(
            PredictRequest(
                f"p{i}", (), NOW, region=REGIONS[i], database_id=DATABASE_IDS[i]
            )
        )
    # Repeats hit the worker-side prediction cache; payloads must not
    # change between the batched and cached paths.
    for i in range(len(FLEETS)):
        requests.append(
            PredictRequest(
                f"q{i}", (), NOW, region=REGIONS[i], database_id=DATABASE_IDS[i]
            )
        )
    requests.append(
        PredictRequest("bad-db", (), NOW, region="R0", database_id="ghost")
    )
    requests.append(
        PredictRequest(
            "bad-config",
            (),
            NOW,
            region="R0",
            database_id=DATABASE_IDS[0],
            config="nope",
        )
    )
    for r in range(4):
        requests.append(ResumeScanRequest(f"scan-{r}", NOW, region=f"R{r}"))
    return requests


def test_sharded_equals_inprocess_end_to_end():
    """The acceptance-criteria property: one trace, two deployments,
    byte-identical payloads and resume-scan orderings."""
    trace = equivalence_trace()

    async def run_inprocess():
        server = inprocess_server()
        await server.start()
        try:
            return [await server.submit(r) for r in trace]
        finally:
            await server.stop()

    async def run_sharded():
        router = ShardRouter.build(
            sharded_fleet(),
            n_workers=4,
            settings=RouterSettings(health_interval_s=0.0),
        )
        await router.start()
        try:
            # Sequential submission pins batch_size=1 on both paths.
            return [await router.submit(r) for r in trace]
        finally:
            await router.stop()

    single = asyncio.run(run_inprocess())
    sharded = asyncio.run(run_sharded())
    assert len(single) == len(sharded) == len(trace)
    for request, a, b in zip(trace, single, sharded):
        assert normalized(a) == normalized(b), request.request_id


# ---------------------------------------------------------------------------
# Router backpressure, respawn, merged metrics
# ---------------------------------------------------------------------------


def test_router_window_backpressure_sheds_typed_overloaded():
    async def run():
        router = ShardRouter.build(
            {"R0": [("db-0", tuple(FLEETS[0]), True)]},
            n_workers=1,
            settings=RouterSettings(
                window=1, replicas=1, health_interval_s=0.0
            ),
        )
        await router.start()
        try:
            requests = [
                PredictRequest(
                    f"p{i}", (), NOW, region="R0", database_id="db-0"
                )
                for i in range(10)
            ]
            responses = await asyncio.gather(
                *(router.submit(r) for r in requests)
            )
        finally:
            await router.stop()
        return router, responses

    router, responses = asyncio.run(run())
    overloaded = [r for r in responses if isinstance(r, Overloaded)]
    served = [r for r in responses if isinstance(r, PredictResponse)]
    # The first submission occupies the only window slot; the other nine
    # are shed synchronously at the router, never reaching a worker.
    assert len(served) == 1
    assert len(overloaded) == 9
    assert router.stats.shed_overloaded == 9
    assert "saturated" in overloaded[0].message


def test_router_respawns_dead_worker_and_merges_metrics():
    async def run():
        router = ShardRouter.build(
            sharded_fleet(),
            n_workers=2,
            settings=RouterSettings(
                health_interval_s=0.1, breaker_recovery_s=0.1
            ),
        )
        await router.start()
        try:
            victim = router.handles[0]
            old_pid = victim.process.pid
            victim.process.terminate()
            deadline = asyncio.get_running_loop().time() + 60.0
            while True:
                if (
                    victim.alive
                    and victim.process.pid != old_pid
                    and victim.process.is_alive()
                ):
                    break
                if asyncio.get_running_loop().time() > deadline:
                    raise AssertionError("worker was not respawned in time")
                await asyncio.sleep(0.1)
            # Traffic flows again across the whole fleet, including the
            # shards whose primary is the respawned worker.
            for i in range(len(FLEETS)):
                response = await router.submit(
                    PredictRequest(
                        f"r{i}",
                        (),
                        NOW,
                        region=REGIONS[i],
                        database_id=DATABASE_IDS[i],
                    )
                )
                assert isinstance(response, PredictResponse)
            metrics = await router.submit(MetricsRequest("m0"))
            health = await router.submit(HealthRequest("h0"))
        finally:
            await router.stop()
        return router, metrics, health

    router, metrics, health = asyncio.run(run())
    assert router.stats.respawns >= 1
    assert health.stats["router_respawns"] >= 1
    assert health.stats["workers_live"] == 2
    # The exposition is the merge of both workers' registries.
    assert metrics.metric_count > 0
    assert "serving_requests" in metrics.body


# ---------------------------------------------------------------------------
# Containment: a malformed request costs its sender one typed answer
# ---------------------------------------------------------------------------


def test_mistyped_field_is_not_a_poison_pill_for_the_tier():
    """20 well-formed by-id predicts beside one ``deadline_ms: "abc"``,
    sent both ways -- as a JSON line through the public front end over
    the router, and as an in-process request whose dataclass does not
    validate, so it reaches the worker's codec.  Each offender gets its
    own ``InvalidRequest``; no neighbour, connection or worker pays."""

    def neighbours(prefix):
        return [
            PredictRequest(
                f"{prefix}{i}",
                (),
                NOW,
                region=REGIONS[i],
                database_id=DATABASE_IDS[i],
            )
            for i in range(20)
        ]

    async def run():
        router = ShardRouter.build(
            sharded_fleet(),
            n_workers=2,
            settings=RouterSettings(health_interval_s=0.0),
        )
        listener = await serve_tcp(router, port=0)
        try:
            offender = PredictRequest(
                "bad-inproc",
                (),
                NOW,
                region=REGIONS[0],
                database_id=DATABASE_IDS[0],
                deadline_ms="abc",
            )
            burst = neighbours("a")
            burst.insert(7, offender)
            inproc = await asyncio.gather(*(router.submit(r) for r in burst))

            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            docs = [encode_request(r) for r in neighbours("b")]
            docs.insert(7, {**docs[0], "request_id": "bad-wire", "deadline_ms": "abc"})
            wire = []
            for doc in docs:
                writer.write((json.dumps(doc) + "\n").encode())
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 10.0)
                wire.append(decode_response(json.loads(line)))
            writer.close()
            await writer.wait_closed()
        finally:
            listener.close()
            await listener.wait_closed()
            await router.stop()
        return router, inproc, wire

    router, inproc, wire = asyncio.run(run())
    # The public front end names an undecodable line "?"; the worker's
    # codec, reached by the in-process offender, knows the request id.
    for responses, offender_id in ((inproc, "bad-inproc"), (wire, "?")):
        assert len(responses) == 21
        for response in responses:
            if response.request_id == offender_id:
                assert isinstance(response, InvalidRequest)
                assert "deadline_ms" in response.message
            else:
                assert isinstance(response, PredictResponse), response
    assert router.stats.retries == 0
    assert router.stats.respawns == 0


def test_worker_front_end_survives_non_object_documents():
    """``7``, ``null``, ``"x"`` and ``[1]`` -- inside a frame beside a
    health probe and as whole frames -- each get one
    ``InvalidRequest("?")``; the probe is answered and the same
    connection serves the next frame.  Likewise an exception while
    admitting one request of a frame is that request's answer only."""

    async def run():
        server = inprocess_server()
        await server.start()
        listener = await asyncio.start_server(
            lambda r, w: handle_pipelined(server, r, w), host="127.0.0.1", port=0
        )
        port = listener.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def exchange(frame):
            """One frame out, its synchronous answers back as a list."""
            writer.write((json.dumps(frame) + "\n").encode())
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5.0)
            assert line, "the worker front end dropped the connection"
            answer = json.loads(line)
            return answer if isinstance(answer, list) else [answer]

        try:
            for n, junk in enumerate((7, None, "x", [1])):
                health = {"type": "health", "request_id": f"h{n}"}
                answers = await exchange([health, junk])
                assert [(a["type"], a["request_id"]) for a in answers] == [
                    ("health", f"h{n}"),
                    ("invalid", "?"),
                ]
                answers = await exchange(junk)
                assert [(a["type"], a["request_id"]) for a in answers] == [
                    ("invalid", "?")
                ]
            [alive] = await exchange({"type": "health", "request_id": "after"})
            assert alive["status"] == "ok"

            submit_nowait = server.submit_nowait

            def flaky(request):
                if request.request_id == "boom":
                    raise RuntimeError("admission fell over")
                return submit_nowait(request)

            server.submit_nowait = flaky
            answers = await exchange(
                [
                    {"type": "health", "request_id": "boom"},
                    {"type": "health", "request_id": "fine"},
                ]
            )
            assert [(a["type"], a["request_id"]) for a in answers] == [
                ("unavailable", "boom"),
                ("health", "fine"),
            ]
        finally:
            writer.close()
            await writer.wait_closed()
            listener.close()
            await listener.wait_closed()
            await server.stop()

    asyncio.run(run())
