"""Asyncio HTTP/JSON front-end for the scheduler.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
stdlib only, one request per connection, JSON in and out.  Endpoints:

====== ============================ ===================================
POST   /v1/jobs                     submit ``{"type", "params",
                                    "client", "priority"}`` → job dict
                                    (202; 200 when answered instantly
                                    from the cache; 429 + Retry-After
                                    when the queue is full; 503 while
                                    draining)
GET    /v1/jobs                     job summaries, newest last
GET    /v1/jobs/<id>[?wait=S]       status; ``wait`` long-polls up to
                                    S seconds for completion
GET    /v1/jobs/<id>/result         the sealed result payload (409
                                    until the job is done)
DELETE /v1/jobs/<id>                cancel (queued: immediate;
                                    running: its worker is killed)
GET    /healthz                     liveness + drain state
GET    /metrics                     served-job counters, queue depth,
                                    cache stats
====== ============================ ===================================

Every body is JSON with sorted keys; job and metrics payloads reuse
the unified ``{"version", "tool": "serve", ...}`` envelope shared with
the analyze/lint/avf reporters.
"""

import asyncio
import json
import signal
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.analysis.report import SCHEMA_VERSION, envelope
from repro.chaos import chaos_point_async
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobSpec, JobValidationError
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import DONE, Draining, QueueFull, Scheduler

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on request bodies (a job spec is tiny; anything larger
#: is a mistake or abuse).
MAX_BODY_BYTES = 1 << 20

#: Upper bounds on request headers — without them a client sending
#: headers forever would hold daemon memory indefinitely.
MAX_HEADER_BYTES = 8192
MAX_HEADER_LINES = 100

#: Wall-clock budget for reading one full request; a client that opens
#: a connection and stalls is dropped rather than parked forever.
REQUEST_READ_TIMEOUT = 30.0

#: Upper bound on a single long-poll wait.
MAX_WAIT_S = 60.0


class ServeServer:
    """One daemon: scheduler + cache + HTTP listener."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workdir: str = "runs/serve", max_queue: int = 16,
                 max_running: int = 2, job_timeout: float = 0.0,
                 campaign_jobs: int = 1,
                 scheduler: Optional[Scheduler] = None) -> None:
        self.host = host
        self.requested_port = port
        #: The worker pool this server built, and so shuts down.
        self._pool: Optional[WorkerPool] = None
        if scheduler is None:
            pool = self._pool = WorkerPool(workdir,
                                           campaign_jobs=campaign_jobs,
                                           workers=max_running)
            cache = ResultCache(f"{workdir}/cache")
            scheduler = Scheduler(pool, cache, max_queue=max_queue,
                                  max_running=max_running,
                                  job_timeout=job_timeout)
        self.scheduler = scheduler
        self.started_at = time.time()
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port)

    async def shutdown(self) -> None:
        """SIGTERM path: stop listening, drain, stop the worker
        processes, then release the loop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.drain()
        if self._pool is not None:
            # No job is running any more; joining the workers blocks.
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shutdown)
        self._stopping.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.shutdown()))

    # -- HTTP plumbing -----------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        request_desc = "?"
        request_t0 = time.monotonic()
        try:
            status, payload, request_desc = await asyncio.wait_for(
                self._handle_request(reader), REQUEST_READ_TIMEOUT)
        except (ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            # Includes an injected serve.api.request conn-reset: the
            # connection just dies, exactly like a yanked cable.
            writer.close()
            return
        except Exception as error:  # never take the daemon down
            status, payload = 500, {"error": f"{type(error).__name__}: "
                                             f"{error}"}
        # In-memory histogram update: a lock-guarded dict bump, never
        # a disk or network touch, so it is loop-safe.
        registry = obs_metrics.registry()
        registry.histogram("serve.request.duration_s").observe(
            time.monotonic() - request_t0)
        registry.counter(f"serve.request.{status // 100}xx").inc()
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body.encode('utf-8'))}",
            "Connection: close",
        ]
        retry_after = payload.get("retry_after") if isinstance(
            payload, dict) else None
        if status == 429 and retry_after is not None:
            headers.append(f"Retry-After: {retry_after}")
        data = ("\r\n".join(headers) + "\r\n\r\n" + body).encode("utf-8")
        fault = await chaos_point_async("serve.api.response",
                                        key=request_desc)
        if fault is not None and fault.fault == "torn-write":
            # Send a truncated response and slam the connection shut:
            # the client sees an IncompleteRead and (for idempotent
            # requests) retries.
            data = data[:fault.tear(len(data))]
        writer.write(data)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> Tuple[int, Dict[str, object], str]:
        """Read, parse, route.  Returns (status, payload, request desc).

        The request description (``"GET /v1/jobs/j000001"``) keys the
        chaos hooks so fault rules can target specific routes.
        """
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, target, _ = request_line.split(" ", 2)
        except ValueError:
            return 400, {"error": f"malformed request line "
                                  f"{request_line!r}"}, request_line
        method = method.upper()
        split = urlsplit(target)
        request_desc = f"{method} {split.path}"
        content_length = 0
        header_bytes = 0
        header_lines = 0
        while True:
            raw_line = await reader.readline()
            header_bytes += len(raw_line)
            header_lines += 1
            if (header_bytes > MAX_HEADER_BYTES
                    or header_lines > MAX_HEADER_LINES):
                return (400, {"error": "request headers too large"},
                        request_desc)
            line = raw_line.decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return (400, {"error": "bad Content-Length"},
                            request_desc)
        if content_length > MAX_BODY_BYTES:
            return (400, {"error": "request body too large"},
                    request_desc)
        raw = (await reader.readexactly(content_length)
               if content_length else b"")
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        # An injected conn-reset here models the socket dying between
        # the read and the reply; the connection handler drops it.
        await chaos_point_async("serve.api.request", key=request_desc)
        status, payload = await self._route(method, split.path, query, raw)
        return status, payload, request_desc

    # -- routing -----------------------------------------------------------
    async def _route(self, method: str, path: str,
                     query: Dict[str, str],
                     raw: bytes) -> Tuple[int, Dict[str, object]]:
        parts = [part for part in path.split("/") if part]
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/metrics" and method == "GET":
            return 200, await self._metrics()
        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2:
                if method == "POST":
                    return await self._submit(raw)
                if method == "GET":
                    return 200, self._list_jobs()
                return 405, {"error": f"{method} not allowed on {path}"}
            job_id = parts[2]
            if job_id not in self.scheduler.jobs:
                return 404, {"error": f"no job {job_id!r}"}
            if len(parts) == 3:
                if method == "GET":
                    return await self._status(job_id, query)
                if method == "DELETE":
                    return 200, self._job_envelope(
                        self.scheduler.cancel(job_id))
                return 405, {"error": f"{method} not allowed on {path}"}
            if len(parts) == 4 and parts[3] == "result" and method == "GET":
                return self._result(job_id)
        return 404, {"error": f"no route for {method} {path}"}

    # -- handlers ----------------------------------------------------------
    async def _submit(self, raw: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            return 400, {"error": f"request body is not JSON: {error}"}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        try:
            spec = JobSpec.build(body.get("type", ""),
                                 body.get("params") or {})
        except JobValidationError as error:
            return 400, {"error": str(error)}
        try:
            job = await self.scheduler.submit_async(
                spec, client=str(body.get("client", "anon")),
                priority=int(body.get("priority", 0)))
        except QueueFull as error:
            return 429, {"error": str(error),
                         "retry_after": error.retry_after}
        except Draining as error:
            return 503, {"error": str(error)}
        status = 200 if job.state == DONE else 202
        return status, self._job_envelope(job)

    async def _status(self, job_id: str, query: Dict[str, str]
                      ) -> Tuple[int, Dict[str, object]]:
        job = self.scheduler.get(job_id)
        try:
            wait = min(float(query.get("wait", 0) or 0), MAX_WAIT_S)
        except ValueError:
            return 400, {"error": f"bad wait value "
                                  f"{query.get('wait')!r}"}
        if wait > 0 and not job.finished:
            try:
                await asyncio.wait_for(job.done_event.wait(), wait)
            except asyncio.TimeoutError:
                pass  # report whatever state it is in now
        return 200, self._job_envelope(job)

    def _result(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        job = self.scheduler.get(job_id)
        if job.state != DONE:
            return 409, {"error": f"job {job_id} is {job.state}, "
                                  f"not done", "state": job.state}
        return 200, self._job_envelope(job, include_result=True)

    def _list_jobs(self) -> Dict[str, object]:
        return envelope("serve", True, [],
                        jobs=[job.to_dict()
                              for job in self.scheduler.jobs.values()])

    def _job_envelope(self, job,
                      include_result: bool = False) -> Dict[str, object]:
        return envelope("serve", job.state != "failed", [],
                        job=job.to_dict(include_result=include_result))

    def _healthz(self) -> Dict[str, object]:
        return {
            "ok": True,
            "version": SCHEMA_VERSION,
            "state": ("draining" if self.scheduler.draining
                      else "serving"),
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    async def _metrics(self) -> Dict[str, object]:
        # cache.stats() walks the result tree on disk — off-loop, so
        # a monitoring scrape never stalls in-flight requests.  Same
        # for the span-log summary (a file read) when tracing is armed.
        loop = asyncio.get_running_loop()
        cache_stats = await loop.run_in_executor(
            None, self.scheduler.cache.stats)
        tracer = obs_trace.tracer()
        spans: Optional[Dict[str, object]] = None
        if tracer is not None:
            spans = await loop.run_in_executor(
                None, obs_trace.trace_summary, tracer.path)
        payload = envelope(
            "serve", True, [],
            counters=self.scheduler.counters.to_dict(),
            queue=self.scheduler.queue_stats(),
            cache=cache_stats,
            histograms=obs_metrics.registry().snapshot()["histograms"],
            uptime_s=round(time.time() - self.started_at, 3))
        if spans is not None:
            payload["spans"] = spans
        return payload


async def run_server(**kwargs) -> None:
    """CLI entry: serve until SIGTERM/SIGINT, then drain and exit."""
    server = ServeServer(**kwargs)
    server.install_signal_handlers()
    await server.start()
    print(f"repro serve: listening on {server.url} "
          f"(queue={server.scheduler.max_queue}, "
          f"slots={server.scheduler.max_running})", flush=True)
    await server._stopping.wait()
    print("repro serve: drained cleanly", flush=True)


class BackgroundServer:
    """A daemon on a private event-loop thread (tests, demos).

    Usage::

        with BackgroundServer(workdir=tmp) as handle:
            client = ServeClient(handle.url)
            ...
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self.server: Optional[ServeServer] = None

    def __enter__(self) -> "BackgroundServer":
        import threading
        ready = threading.Event()

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self.server = ServeServer(**self._kwargs)
            loop.run_until_complete(self.server.start())
            ready.set()
            loop.run_forever()
            loop.close()

        self._thread = threading.Thread(target=runner,
                                        name="repro-serve-loop",
                                        daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("serve daemon failed to start")
        return self

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def drain(self) -> None:
        """Synchronously drain the daemon (the SIGTERM path)."""
        assert self._loop is not None and self.server is not None
        future = asyncio.run_coroutine_threadsafe(self.server.shutdown(),
                                                  self._loop)
        future.result(timeout=120)

    def __exit__(self, *exc_info) -> None:
        try:
            if self.server is not None and self.server._server is not None:
                self.drain()
        finally:
            if self._loop is not None:
                self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=30)
