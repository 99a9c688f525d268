"""The mapping-as-a-service server.

A stdlib-only asyncio server speaking a deliberately small slice of
HTTP/1.1 (one request per connection, ``Connection: close``).  Routes::

    POST /jobs               submit a job spec (201 created, 200 deduped)
    GET  /jobs               list job summaries
    GET  /jobs/{id}          full job record (result once done)
    GET  /jobs/{id}/events   progress events as JSONL; ?follow=1 streams
    POST /jobs/{id}/cancel   stop a queued or running job
    GET  /cache              result-cache counters (ResultCache.stats)
    GET  /healthz            liveness: queue depth, workers, breakers,
                             store health, watchdog counters
    GET  /readyz             readiness: 200 while accepting new work,
                             503 (with reasons) while stopping or full

Design rules:

* The event loop owns all job state (via :class:`JobManager`); searches
  run in worker threads through :func:`asyncio.to_thread` and talk back
  only via ``call_soon_threadsafe`` hops.
* Every search is journaled (``checkpoint=..., resume=True``), so the
  server can be SIGTERM'd/SIGKILL'd at any moment: on the next start,
  :meth:`JobManager.recover` re-enqueues every non-terminal job and the
  engine replays completed shards from the journal.  A resumed job's
  result is equal to an uninterrupted one — the engine's contract, not
  the server's promise.
* SIGTERM/SIGINT trigger a graceful stop: the listener closes, every
  running search gets its stop event, workers drain (a stopping search
  raises ``RunInterrupted`` at the next shard boundary, which marks the
  job ``interrupted`` — i.e. *resumable*), then the process exits 0.
* Failure containment (:mod:`repro.serve.hardening`) wraps the whole
  pipeline: over-capacity submits are shed with 503 + ``Retry-After``
  rather than buffered, poison digests answer from their recorded
  failure rather than re-executing, a per-job watchdog deadline
  reclaims hung worker slots, and disk faults degrade the store to
  memory instead of crashing.  All of it is visible on ``/healthz``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ..dse.cache import ResultCache
from ..dse.resilience import ResiliencePolicy
from ..model.validate import SpecError
from .bridge import execute_job
from .hardening import HardeningPolicy, Rejected
from .protocol import TERMINAL_STATES, error_body, parse_job_spec
from .queue import JobManager, TenantPolicy
from .store import JobStore

logger = logging.getLogger("repro.serve.server")

__all__ = ["ServerConfig", "MappingServer", "run_server"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 1024 * 1024


@dataclass
class ServerConfig:
    """Everything ``repro serve`` configures."""

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 8642
    #: Concurrent searches (worker threads).  Each search may itself
    #: use ``search_jobs`` worker processes.
    workers: int = 2
    #: Default worker-process count per search; a spec's own ``jobs``
    #: field wins but is capped at this value.
    search_jobs: int | None = 1
    cache_dir: str | None = None
    no_cache: bool = False
    tenants: dict[str, TenantPolicy] = field(default_factory=dict)
    resilience: ResiliencePolicy | None = None
    #: The failure-containment layer: queue bound, watchdog deadline,
    #: breaker/quarantine thresholds.  ``HardeningPolicy.disabled()``
    #: turns the whole layer off (benchmark baselines).
    hardening: HardeningPolicy = field(default_factory=HardeningPolicy)
    #: Written once the listener is bound — how tests and scripts learn
    #: an ephemeral (``--port 0``) port.
    port_file: str | None = None


class _BadRequest(Exception):
    pass


class MappingServer:
    """One server instance: store + manager + listener + worker tasks."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = JobStore(config.state_dir)
        self.manager = JobManager(self.store, tenants=config.tenants,
                                  hardening=config.hardening)
        self.cache = ResultCache(config.cache_dir,
                                 enabled=not config.no_cache)
        self._stops: dict[str, threading.Event] = {}
        self._cancelled: set[str] = set()
        self._stopping = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._workers: list[asyncio.Task] = []
        #: Live connection handlers, and the writers of those still
        #: waiting for their request (the drain closes those).
        self._handlers: set[asyncio.Task] = set()
        self._reading: set[asyncio.StreamWriter] = set()
        #: Worker index -> job id currently held (None = idle); the
        #: worker-liveness block of /healthz.
        self._busy: dict[int, str | None] = {}
        self._started_at = time.time()
        #: Watchdog counters: deadlines that fired, executions the
        #: watchdog had to abandon outright (slot reclaimed, thread
        #: orphaned until it winds down on its own).
        self.watchdog_fired = 0
        self.watchdog_abandoned = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.manager.bind_loop(loop)
        requeued = self.manager.recover()
        if requeued:
            logger.info("recovered %d unfinished job(s)", requeued)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            Path(self.config.port_file).write_text(str(port))
        self._busy = {i: None for i in range(self.config.workers)}
        self._workers = [
            asyncio.create_task(self._worker(i), name=f"serve-worker-{i}")
            for i in range(self.config.workers)
        ]
        logger.info("serving on %s:%d (%d worker slots, state in %s)",
                    self.config.host, port, self.config.workers,
                    self.config.state_dir)

    async def serve_forever(self) -> None:
        """Run until a stop signal; returns after a graceful drain."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self.start()
        await self._stopping.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Signal-safe stop: flips the event; the drain happens in
        :meth:`serve_forever`'s context."""
        logger.info("stop requested; draining")
        self._stopping.set()
        for stop in self._stops.values():
            stop.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            # Answers in flight finish; a connection still waiting for
            # its request is closed and its handler ends on EOF.  No
            # handler outlives the loop, and wait_closed() (which waits
            # for every connection from Python 3.12 on) returns.
            for writer in self._reading:
                writer.close()
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
        # Workers see the stopping flag (queue sentinel) and running
        # searches see their stop events; both wind down cleanly.
        for _ in self._workers:
            self.manager.queue.put_nowait("")
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        logger.info("drained; all interrupted jobs are journaled")

    # -- worker loop -----------------------------------------------------

    async def _worker(self, index: int) -> None:
        while not self._stopping.is_set():
            job_id = await self.manager.queue.get()
            if not job_id:  # shutdown sentinel
                break
            record = self.manager.jobs.get(job_id)
            if record is None or record.state != "queued":
                continue  # cancelled or re-armed elsewhere while queued
            self._busy[index] = job_id
            try:
                await self._run_job(job_id)
            finally:
                self._busy[index] = None

    async def _run_job(self, job_id: str) -> None:
        record = self.manager.jobs[job_id]
        self.manager.transition(job_id, "running", started=time.time())
        stop = threading.Event()
        self._stops[job_id] = stop
        if self._stopping.is_set():
            stop.set()
        abandoned = False
        try:
            from .protocol import JobSpec

            spec = JobSpec.from_dict(record.spec)
            budget = self.manager.policy_for(record.tenant).budget()
            search_jobs = spec.jobs or self.config.search_jobs
            if search_jobs and self.config.search_jobs:
                search_jobs = min(search_jobs, self.config.search_jobs)
            task = asyncio.ensure_future(asyncio.to_thread(
                execute_job, spec,
                journal_path=self.store.journal_path(job_id),
                cache=self.cache,
                resilience=self.config.resilience,
                budget=budget,
                stop=stop,
                on_progress=lambda event, _id=job_id:
                    self.manager.post_event_threadsafe(_id, event),
                jobs=search_jobs,
            ))
            outcome = await self._watch(job_id, task, stop)
            if outcome is None:
                abandoned = True  # watchdog reclaimed the slot
                return
        except Exception as exc:  # spec reload / budget minting failed
            logger.exception("job %s could not start", job_id)
            quarantined = self.manager.note_failure(
                job_id, f"{type(exc).__name__}: {exc}")
            self.manager.transition(job_id, "failed",
                                    error=f"{type(exc).__name__}: {exc}",
                                    quarantined=quarantined,
                                    finished=time.time())
            return
        finally:
            if not abandoned:
                self._stops.pop(job_id, None)

        state = outcome.state
        if state == "interrupted" and job_id in self._cancelled:
            self._cancelled.discard(job_id)
            state = "cancelled"
        fields = {"finished": time.time()}
        if outcome.result is not None:
            fields["result"] = outcome.result
            fields["telemetry"] = outcome.telemetry
            fields["cache_hit"] = outcome.cache_hit
        if outcome.error is not None and state != "interrupted":
            fields["error"] = outcome.error
        if state == "done":
            self.manager.note_success(job_id)
        elif state == "failed":
            if self.manager.note_failure(job_id, outcome.error or "failed"):
                fields["quarantined"] = True
        if state == "interrupted":
            # Not terminal: stays resumable.  Don't record a finish
            # time or an error — the job is merely paused in its
            # journal until the next server start re-enqueues it.
            fields = {}
        self.manager.transition(job_id, state, **fields)
        logger.info("job %s -> %s", job_id, state)

    async def _watch(self, job_id: str, task: asyncio.Future,
                     stop: threading.Event):
        """Await the execution under the watchdog deadline.

        Returns the :class:`JobOutcome`, or ``None`` when the execution
        had to be *abandoned*: it ignored its stop event past the grace
        period, so the job was marked (resumable) ``interrupted`` — or
        ``failed`` once its hang strikes quarantine the digest — and
        the worker slot goes back to the pool.  The orphaned thread
        finishes on its own eventually; its late outcome is discarded.
        """
        deadline = self.config.hardening.job_deadline
        if deadline is None:
            return await task
        done, pending = await asyncio.wait({task}, timeout=deadline)
        if not pending:
            return task.result()

        # Deadline passed: ask nicely first (the engine parks at the
        # next shard boundary), then abandon.
        self.watchdog_fired += 1
        grace = self.config.hardening.watchdog_grace
        logger.warning("watchdog: job %s passed its %.1fs deadline; "
                       "stopping (grace %.1fs)", job_id, deadline, grace)
        self.manager.post_event(job_id, {
            "event": "watchdog", "action": "deadline",
            "deadline": deadline,
        })
        stop.set()
        quarantined = self.manager.note_failure(
            job_id, f"watchdog: exceeded {deadline:.1f}s deadline")
        done, pending = await asyncio.wait({task}, timeout=grace)
        if not pending:
            # Cooperative stop: the engine journaled and parked.  The
            # outcome is RunInterrupted -> "interrupted" (resumable)
            # unless the strikes just quarantined the digest.
            outcome = task.result()
            if quarantined and outcome.state == "interrupted":
                self.manager.transition(
                    job_id, "failed",
                    error=f"quarantined: hung past the {deadline:.1f}s "
                          f"deadline {self.manager.hardening.breaker_threshold} time(s)",
                    quarantined=True, finished=time.time())
                self._stops.pop(job_id, None)
                return None
            return outcome

        # Truly hung: reclaim the slot, orphan the thread.
        self.watchdog_abandoned += 1
        task.add_done_callback(_discard_result)
        self._stops.pop(job_id, None)
        self.manager.post_event(job_id, {
            "event": "watchdog", "action": "abandoned",
        })
        if quarantined:
            self.manager.transition(
                job_id, "failed",
                error=f"quarantined: hung past the {deadline:.1f}s "
                      f"deadline repeatedly",
                quarantined=True, finished=time.time())
        else:
            # Resumable: the journal holds every completed shard; the
            # next server start (or resubmit after failure) retries.
            self.manager.transition(job_id, "interrupted")
        logger.error("watchdog: job %s abandoned (slot reclaimed)", job_id)
        return None

    # -- HTTP ------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self._stopping.is_set():  # accepted while the server drains
            writer.close()
            return
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self._reading.add(writer)
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except _BadRequest as exc:
                await self._respond(writer, 400, error_body(str(exc)))
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            finally:
                self._reading.discard(writer)
            await self._route(writer, method, path, query, body)
        except ConnectionError:  # client went away mid-response
            pass
        except Exception:
            logger.exception("request handling failed")
            try:
                await self._respond(writer, 500,
                                    error_body("internal server error"))
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _BadRequest("malformed request line") from None
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if length < 0:
            raise _BadRequest("negative Content-Length")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(
                f"body exceeds {_MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        return method.upper(), parts.path, query, body

    async def _route(self, writer, method: str, path: str,
                     query: dict, body: bytes) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, self._health())
            return
        if path == "/readyz" and method == "GET":
            ready, reasons = self._readiness()
            payload = {"ready": ready}
            if reasons:
                payload["reasons"] = reasons
            await self._respond(writer, 200 if ready else 503, payload)
            return
        if path == "/cache" and method == "GET":
            await self._respond(writer, 200, self.cache.stats())
            return
        if path == "/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        if path == "/jobs" and method == "GET":
            summaries = [
                {k: v for k, v in r.public().items()
                 if k not in ("result", "telemetry", "spec")}
                for r in sorted(self.manager.jobs.values(),
                                key=lambda r: r.created)
            ]
            await self._respond(writer, 200, {"jobs": summaries})
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, action = rest.partition("/")
            record = self.manager.jobs.get(job_id)
            if record is None:
                await self._respond(writer, 404,
                                    error_body(f"no job {job_id!r}"))
                return
            if not action and method == "GET":
                await self._respond(writer, 200, record.public())
                return
            if action == "events" and method == "GET":
                await self._stream_events(writer, job_id, query)
                return
            if action == "cancel" and method == "POST":
                await self._cancel(writer, job_id)
                return
        await self._respond(writer, 404,
                            error_body(f"no route {method} {path}"))

    def _health(self) -> dict:
        """Liveness + the whole failure-containment picture.  Always
        200 while the loop answers — degradation is reported, not
        conflated with being down."""
        census: dict[str, int] = {}
        for r in self.manager.jobs.values():
            census[r.state] = census.get(r.state, 0) + 1
        busy = sum(1 for j in self._busy.values() if j is not None)
        alive = sum(1 for t in self._workers if not t.done())
        quarantine = self.manager.quarantine
        return {
            "status": "ok",
            "uptime_s": time.time() - self._started_at,
            "jobs": census,
            "queue": {
                "depth": self.manager.queued_depth(),
                "max": self.manager.hardening.max_queue,
            },
            "workers": {
                "total": self.config.workers,
                "busy": busy,
                "alive": alive,
            },
            "watchdog": {
                "fired": self.watchdog_fired,
                "abandoned": self.watchdog_abandoned,
            },
            "breakers": self.manager.breaker_states(),
            "shed": dict(self.manager.shed_counts),
            "quarantined": len(quarantine) if quarantine is not None else 0,
            "store": self.store.health(),
        }

    def _readiness(self) -> tuple[bool, list[str]]:
        """Ready = willing to take on new work right now.  A degraded
        store does NOT flip readiness — serving from memory is the
        degradation working, not a reason to pull the server out of
        rotation."""
        reasons = []
        if self._stopping.is_set():
            reasons.append("stopping")
        max_queue = self.manager.hardening.max_queue
        if (max_queue is not None
                and self.manager.queued_depth() >= max_queue):
            reasons.append("queue_full")
        if self._workers and all(t.done() for t in self._workers):
            reasons.append("no_live_workers")
        return (not reasons, reasons)

    async def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond(writer, 400,
                                error_body(f"body is not JSON: {exc}"))
            return
        try:
            spec = parse_job_spec(payload)
            record, created = self.manager.submit(spec)
        except SpecError as exc:
            await self._respond(
                writer, 400,
                error_body(f"invalid specification: {exc}"))
            return
        except Rejected as exc:
            retry_after = max(1, math.ceil(exc.retry_after))
            await self._respond(
                writer, exc.status,
                error_body(str(exc), code=exc.code,
                           retry_after=exc.retry_after),
                headers={"Retry-After": str(retry_after)})
            return
        response = record.public()
        response["created"] = created
        await self._respond(writer, 201 if created else 200, response)

    async def _cancel(self, writer, job_id: str) -> None:
        record = self.manager.jobs[job_id]
        if record.state == "queued":
            self.manager.transition(job_id, "cancelled")
        elif record.state == "running":
            self._cancelled.add(job_id)
            stop = self._stops.get(job_id)
            if stop is not None:
                stop.set()
            # state flips to cancelled when the worker drains.
        await self._respond(writer, 200, self.manager.jobs[job_id].public())

    async def _stream_events(self, writer, job_id: str,
                             query: dict) -> None:
        follow = query.get("follow") in ("1", "true", "yes")
        if not follow:
            lines = "".join(
                json.dumps(e, separators=(",", ":")) + "\n"
                for e in self.store.read_events(job_id)
            )
            await self._respond(writer, 200, lines,
                                content_type="application/x-ndjson")
            return
        # Streaming: close-delimited body, one JSON event per line.
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        index = 0
        while True:
            events = await self.manager.wait_for_events(job_id, index,
                                                        timeout=1.0)
            for event in events:
                writer.write(
                    json.dumps(event, separators=(",", ":")).encode()
                    + b"\n"
                )
            index += len(events)
            await writer.drain()
            record = self.manager.jobs.get(job_id)
            done = record is None or record.state in TERMINAL_STATES
            # A transition appends its state event before anything else
            # runs, so once the job is terminal now and nothing is left
            # unread, its terminal event has been written: close instead
            # of waiting out another poll.  A re-armed job is not
            # terminal, so its old terminal event does not end the stream.
            if done and not self.store.read_events(job_id, index):
                break
            if self._stopping.is_set():
                break

    async def _respond(self, writer, status: int, payload,
                       *, content_type: str = "application/json",
                       headers: dict | None = None) -> None:
        reason = {200: "OK", 201: "Created", 400: "Bad Request",
                  404: "Not Found", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload, separators=(",", ":")).encode()
        else:
            body = str(payload).encode()
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()


def _discard_result(task: asyncio.Future) -> None:
    """Swallow the late outcome of an abandoned execution so it never
    surfaces as an un-retrieved exception warning."""
    try:
        task.exception()
    except asyncio.CancelledError:  # pragma: no cover
        pass


def run_server(config: ServerConfig) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    server = MappingServer(config)
    asyncio.run(server.serve_forever())
    return 0
