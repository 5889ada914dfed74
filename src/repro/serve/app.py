"""Stdlib HTTP service over an :class:`~repro.serve.store.ArtifactStore`.

``ThreadingHTTPServer`` gives a thread per client connection with
HTTP/1.1 keep-alive, so a handful of persistent clients drive thousands
of queries per second without any dependency beyond the standard
library.  Artifacts load once into an in-process cache; every query is
then answered from resident columns — the serve path performs zero
raw-graph I/O (the tests assert this through the store's IOStats).

Endpoints (all JSON):

* ``GET /healthz`` — liveness + artifact count.
* ``GET /metricsz`` — request/error counters and latency gauges.
* ``GET /artifacts`` — catalogue of names and versions.
* ``GET /artifacts/<name>`` — one artifact's manifest summary.
* ``GET|POST /v1/query/<kind>?artifact=<name[@vN]>&…`` — run a query
  (kinds in :attr:`~repro.serve.queries.QueryEngine.kinds`; POST accepts
  the same parameters as a JSON object body).

Failures return typed JSON ``{"error": {"code", "message"}}``: 400 for
malformed requests, 404 for unknown artifacts/routes, 409 for questions
the sealed columns cannot answer, 504 for requests that exceed their
deadline (``deadline_ms`` parameter, else the server default), 500 for
integrity failures and everything unexpected.

Each request runs under a :mod:`repro.obs` span (when the server is
configured with a trace sink) and updates the server's counters and
gauges; tracers are per-request because span stacks are not
thread-safe, while the sink and the counters are shared behind locks.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple, cast
from urllib.parse import parse_qsl, urlsplit

from ..errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactNotFound,
    DeadlineExceeded,
    QueryError,
    ReproError,
)
from ..obs import JSONLSink, SpanEvent, TraceSink, Tracer
from .queries import QueryEngine
from .store import ArtifactStore, parse_ref

#: QueryError codes that mean "the artifact cannot answer this", not
#: "the request is malformed" — they map to 409 rather than 400.
_CONFLICT_CODES = frozenset(
    {"column-missing", "not-a-dag", "source-not-pinned"}
)


@dataclass(frozen=True)
class ServeConfig:
    """Configuration for one server instance."""

    store_root: str
    host: str = "127.0.0.1"
    port: int = 8080
    #: Default per-request deadline; requests may tighten (never loosen
    #: past ``max_deadline_seconds``) via the ``deadline_ms`` parameter.
    deadline_seconds: float = 2.0
    max_deadline_seconds: float = 30.0
    #: Optional JSONL file receiving one span event per request.
    trace_path: Optional[str] = None


class _LockedSink(TraceSink):
    """Serializes emits from per-request tracers into one shared sink."""

    def __init__(self, inner: TraceSink) -> None:
        self._inner = inner
        self._lock = threading.Lock()

    def emit(self, event: "SpanEvent") -> None:
        with self._lock:
            self._inner.emit(event)


class ReproServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one artifact store."""

    daemon_threads = True

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.store = ArtifactStore(config.store_root)
        #: ``/metricsz`` state, guarded by :attr:`metrics_lock`.
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.metrics_lock = threading.Lock()
        self._trace_file: Optional[JSONLSink] = (
            JSONLSink(config.trace_path) if config.trace_path else None
        )
        self.sink: Optional[TraceSink] = (
            _LockedSink(self._trace_file)
            if self._trace_file is not None else None
        )
        self._engines: Dict[Tuple[str, int], QueryEngine] = {}
        self._engine_lock = threading.Lock()
        super().__init__((config.host, config.port), _RequestHandler)

    # -- artifact cache ------------------------------------------------
    def engine_for(self, ref: str) -> QueryEngine:
        """The (cached) query engine for ``name[@vN]``; loads on miss."""
        name, version = parse_ref(ref)
        if version is None:
            version = self.store.latest_version(name)
        key = (name, version)
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is None:
                # repro: allow[SEX104] ArtifactStore.open resolves a sealed artifact by name; its payload reads flow through device.read_block
                artifact = self.store.open(name, version)
                engine = QueryEngine(artifact)
                self._engines[key] = engine
            return engine

    def count(self, name: str) -> None:
        with self.metrics_lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def gauge(self, name: str, value: float) -> None:
        with self.metrics_lock:
            self.gauges[name] = value

    def close(self) -> None:
        """Stop accepting, close the socket, the store, and the trace."""
        self.server_close()
        self.store.close()
        if self._trace_file is not None:
            self._trace_file.close()


class _RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Keep-alive responses must leave in one segment: with Nagle on, the
    # separately-written headers and body interact with the client's
    # delayed ACK and every request stalls ~40 ms.
    disable_nagle_algorithm = True

    @property
    def repro(self) -> ReproServer:
        return cast(ReproServer, self.server)

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging (metrics cover it)."""

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self.repro.count(f"serve.errors.{code}")
        self._send_json(status, {"error": {"code": code, "message": message}})

    def _deadline(self, params: Mapping[str, str]) -> float:
        config = self.repro.config
        seconds = config.deadline_seconds
        raw = params.get("deadline_ms")
        if raw is not None:
            try:
                seconds = int(raw) / 1000.0
            except ValueError:
                raise QueryError(
                    f"deadline_ms must be an integer, got {raw!r}"
                ) from None
            seconds = min(seconds, config.max_deadline_seconds)
        return time.monotonic() + seconds

    def _check_deadline(self, deadline_at: float) -> None:
        if time.monotonic() >= deadline_at:
            raise DeadlineExceeded("request exceeded its deadline")

    # -- request entry points ------------------------------------------
    def do_GET(self) -> None:
        self._handle(body_params=None)

    def do_POST(self) -> None:
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            # Only RFC 9110's 1*DIGIT says where the body ends (``-1``
            # would read to EOF); past a bad length the connection
            # cannot be reused.
            self.close_connection = True
            self._send_error_json(
                400, "bad-query", f"invalid Content-Length {declared!r}"
            )
            return
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        body_params: Dict[str, str] = {}
        if raw:
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except ValueError:
                self._send_error_json(
                    400, "bad-query", "request body is not valid JSON"
                )
                return
            if not isinstance(decoded, dict):
                self._send_error_json(
                    400, "bad-query", "request body must be a JSON object"
                )
                return
            body_params = {
                str(key): str(value) for key, value in decoded.items()
            }
        self._handle(body_params=body_params)

    # -- routing -------------------------------------------------------
    def _handle(self, body_params: Optional[Dict[str, str]]) -> None:
        started = time.monotonic()
        server = self.repro
        server.count("serve.requests")
        split = urlsplit(self.path)
        params: Dict[str, str] = dict(parse_qsl(split.query))
        if body_params:
            params.update(body_params)
        tracer = Tracer(sinks=[server.sink]) if server.sink else None
        try:
            if tracer is not None:
                with tracer.span("request", route=split.path):
                    self._route(split.path, params)
            else:
                self._route(split.path, params)
        except DeadlineExceeded as error:
            self._send_error_json(504, "deadline-exceeded", str(error))
        except ArtifactNotFound as error:
            self._send_error_json(404, "artifact-not-found", str(error))
        except ArtifactIntegrityError as error:
            self._send_error_json(500, "artifact-corrupt", str(error))
        except QueryError as error:
            if error.code == "not-found":
                status = 404
            elif error.code in _CONFLICT_CODES:
                status = 409
            else:
                status = 400
            self._send_error_json(status, error.code, str(error))
        except (ArtifactError, ReproError) as error:
            self._send_error_json(500, "internal", str(error))
        # repro: allow[SEX402] HTTP process boundary: unexpected failures must become typed 500 responses, not dropped connections
        except Exception as error:
            self._send_error_json(500, "internal", f"{type(error).__name__}: {error}")
        finally:
            server.gauge(
                "serve.last_latency_ms",
                (time.monotonic() - started) * 1000.0,
            )

    def _route(self, path: str, params: Dict[str, str]) -> None:
        server = self.repro
        deadline_at = self._deadline(params)
        if path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "artifacts": len(server.store.names()),
            })
            return
        if path == "/metricsz":
            with server.metrics_lock:
                payload = {
                    "counters": dict(server.counters),
                    "gauges": dict(server.gauges),
                }
            self._send_json(200, payload)
            return
        if path == "/artifacts":
            names = server.store.names()
            self._send_json(200, {
                "artifacts": [
                    {
                        "name": name,
                        "versions": server.store.versions(name),
                        "latest": server.store.latest_version(name),
                    }
                    for name in names
                ],
            })
            return
        if path.startswith("/artifacts/"):
            ref = path[len("/artifacts/"):]
            engine = server.engine_for(ref)
            self._send_json(200, engine.artifact.describe())
            return
        if path.startswith("/v1/query/"):
            kind = path[len("/v1/query/"):]
            ref = params.get("artifact")
            if not ref:
                raise QueryError("missing required parameter 'artifact'")
            self._check_deadline(deadline_at)
            engine = server.engine_for(ref)
            self._check_deadline(deadline_at)
            answer = engine.execute(kind, params)
            server.count(f"serve.queries.{kind}")
            self._check_deadline(deadline_at)
            self._send_json(200, answer)
            return
        raise QueryError(f"no route for {path!r}", code="not-found")
