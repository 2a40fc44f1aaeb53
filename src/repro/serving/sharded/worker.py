"""The sharded serving worker process.

Each worker is a full :class:`~repro.serving.server.PredictionServer`
(admission -> frame path or micro-batcher ->
``FastPredictor.predict_fleet``) serving
its fleet straight off the shared-memory arena, fronted by a *pipelined*
JSON-over-TCP handler: unlike the public front end (which answers each
line before reading the next), the router's single connection per worker
carries many requests in flight, and responses are written as they
resolve -- out of order, correlated by ``request_id``.  A frame's by-id
predicts are answered inline by ``submit_frame_nowait`` with one kernel
call per config, so the by-id hot path never allocates a queue entry,
task or future; only resume scans and anonymous predicts take the
dispatch loop.

Workers are spawned (never forked -- the router's event loop and the
arena mapping must not be inherited) and bootstrapped over a
``multiprocessing.Pipe``: the worker sends ``("ready", port)`` once
listening, then answers control commands -- ``("metrics",)`` with its
pickled :class:`~repro.observability.metrics.MetricsRegistry` (merged at
the router for one fleet-wide OpenMetrics exposition) and ``("stop",)``
by draining the gateway and exiting.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from dataclasses import dataclass
from typing import Set, Tuple

from repro.serving.requests import (
    InvalidRequest,
    Response,
    ServingProtocolError,
    decode_request,
    encode_response,
)
from repro.serving.server import PredictionServer, ServingSettings
from repro.serving.sharded.arena import ArenaSpec, SharedHistoryArena

#: Above this many buffered outgoing bytes the pipelined handler awaits
#: ``drain()`` before reading more requests, bounding worker memory under
#: a router that outruns the socket.
_DRAIN_THRESHOLD = 1 << 20


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, picklable for the spawn pipe."""

    worker_id: int
    arena: ArenaSpec
    settings: ServingSettings
    #: Collect a per-worker metrics registry for router-side merge.
    observability: bool = True
    host: str = "127.0.0.1"


def _write(writer: asyncio.StreamWriter, response: Response) -> None:
    writer.write(
        (json.dumps(encode_response(response)) + "\n").encode("utf-8")
    )


async def handle_pipelined(
    server: PredictionServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One router connection: newline JSON frames in, newline JSON
    frames out, responses in completion order.

    A frame is either one request document or an array of them (the
    router coalesces every request submitted in the same event-loop
    iteration).  The decoded frame goes to
    :meth:`~repro.serving.server.PredictionServer.submit_frame_nowait`,
    which answers every by-id predict in the same loop turn; those
    answers, typed rejections and health probes go back together as one
    array frame in document order, while resume scans and anonymous
    predicts resolve individually as their futures complete."""
    pending: Set[asyncio.Task] = set()

    async def respond(future: "asyncio.Future") -> None:
        _write(writer, await future)
        try:
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - router gone
            pass

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                frame = json.loads(text)
            except json.JSONDecodeError as exc:
                _write(writer, InvalidRequest("?", str(exc)))
                continue
            docs = frame if isinstance(frame, list) else (frame,)
            # Decode the whole frame, then admit it in one call: by-id
            # predicts are answered in this turn (one kernel call per
            # config), everything else as submit_nowait answers it.
            answers: list = []
            requests: list = []
            for doc in docs:
                try:
                    requests.append(decode_request(doc))
                    answers.append(None)
                except ServingProtocolError as exc:
                    # Only an object can name the request it failed to be.
                    request_id = (
                        doc.get("request_id", "?") if isinstance(doc, dict) else "?"
                    )
                    answers.append(InvalidRequest(str(request_id), str(exc)))
            admitted = iter(server.submit_frame_nowait(requests))
            for slot, answer in enumerate(answers):
                if answer is not None:
                    continue
                response, future = next(admitted)
                if response is not None:
                    answers[slot] = response
                else:
                    task = asyncio.get_running_loop().create_task(
                        respond(future)
                    )
                    pending.add(task)
                    task.add_done_callback(pending.discard)
            sync = [answer for answer in answers if answer is not None]
            if sync:
                if len(sync) == 1:
                    _write(writer, sync[0])
                else:
                    writer.write(
                        (
                            json.dumps(
                                [encode_response(r) for r in sync]
                            )
                            + "\n"
                        ).encode("utf-8")
                    )
                if (
                    writer.transport.get_write_buffer_size()
                    > _DRAIN_THRESHOLD
                ):
                    await writer.drain()
        if pending:
            await asyncio.gather(*list(pending), return_exceptions=True)
        try:
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
    finally:
        for task in pending:
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def _amain(spec: WorkerSpec, conn) -> None:
    if spec.observability:
        from repro.observability.runtime import enable as obs_enable
        from repro.observability.tracer import NULL_TRACER

        obs_enable(tracer=NULL_TRACER)
    arena = SharedHistoryArena.attach(spec.arena)
    server = PredictionServer(settings=spec.settings)
    server.attach_fleet(arena.views())
    await server.start()
    conn_tasks: Set[asyncio.Task] = set()
    conn_writers: Set[asyncio.StreamWriter] = set()

    async def on_connect(reader, writer):
        task = asyncio.current_task()
        conn_tasks.add(task)
        conn_writers.add(writer)
        try:
            await handle_pipelined(server, reader, writer)
        finally:
            conn_tasks.discard(task)
            conn_writers.discard(writer)

    listener = await asyncio.start_server(on_connect, host=spec.host, port=0)
    port = listener.sockets[0].getsockname()[1]
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def on_command() -> None:
        try:
            while conn.poll():
                command = conn.recv()
                if command[0] == "metrics":
                    from repro.observability.runtime import OBS

                    conn.send(
                        ("metrics", OBS.metrics if OBS.enabled else None)
                    )
                elif command[0] == "stop":
                    stop.set()
        except (EOFError, OSError):
            # Router died; drain and exit rather than serving orphaned.
            stop.set()

    loop.add_reader(conn.fileno(), on_command)
    conn.send(("ready", port))
    await stop.wait()
    loop.remove_reader(conn.fileno())
    listener.close()
    await listener.wait_closed()
    await server.stop()
    # The gateway has resolved every future (pending responses are
    # written by the handlers' respond tasks); now EOF the router
    # connections so the pipelined handlers exit instead of being
    # cancelled by loop teardown.
    for conn_writer in list(conn_writers):
        conn_writer.close()
    if conn_tasks:
        await asyncio.gather(*list(conn_tasks), return_exceptions=True)
    try:
        conn.send(
            (
                "stopped",
                {
                    "served": server.stats.served,
                    "shed": server.admission.total_shed(),
                },
            )
        )
    except (BrokenPipeError, OSError):  # pragma: no cover - router gone
        pass
    arena.close()


def worker_main(spec: WorkerSpec, conn) -> None:
    """Spawn entry point (must stay module-level and picklable)."""
    try:
        asyncio.run(_amain(spec, conn))
    finally:
        conn.close()


def spawn_worker(
    spec: WorkerSpec,
) -> Tuple[multiprocessing.Process, "multiprocessing.connection.Connection"]:
    """Start one worker via the spawn context (a fresh interpreter: no
    inherited event loop, no inherited arena mapping); returns the live
    process and the router end of its control pipe.  The caller waits for
    the ``("ready", port)`` bootstrap message."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=worker_main, args=(spec, child_conn), daemon=True
    )
    process.start()
    child_conn.close()
    return process, parent_conn


def await_ready(
    conn, process: multiprocessing.Process, timeout_s: float = 30.0
) -> int:
    """Block for the worker's bootstrap message; returns its TCP port."""
    if not conn.poll(timeout_s):
        raise TimeoutError(
            f"worker pid={process.pid} did not report ready within "
            f"{timeout_s}s"
        )
    tag, port = conn.recv()
    if tag != "ready":  # pragma: no cover - protocol violation
        raise RuntimeError(f"unexpected worker bootstrap message {tag!r}")
    return int(port)


__all__ = [
    "WorkerSpec",
    "worker_main",
    "spawn_worker",
    "await_ready",
    "handle_pipelined",
]
