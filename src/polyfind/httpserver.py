"""HTTP JSON API over AppState.

Each connection is served on a worker thread that accepted it itself
(Leader/Followers): parked workers take turns waiting in accept(), so a
request on a new connection wakes a thread instead of starting one. Every
handler reads one immutable snapshot, so responses are internally
consistent without read locks. Bodies are UTF-8 JSON except POST
/services, which takes the raw XML descriptor document.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, HTTPServer

from .config import ServerConfig
from .descriptor import descriptor_to_dict
from .discovery import Query, response_to_dict
from .errors import (
    MalformedDocument, PolyfindError, PortionNotFound, SchemaViolation, StartupError,
)
from .ontology import load_portion, save_portion
from .registry import get as registry_get
from .state import AppState
from .textutil import DIGITS_RE, check_fields, load_json

log = logging.getLogger(__name__)

_MAX_BODY = 16 * 1024 * 1024


def _read_body(handler: "ApiHandler") -> bytes:
    """The request body, refused before reading when it has no usable
    Content-Length or a larger one than _MAX_BODY."""
    length = handler.headers.get("Content-Length")
    if length is None or not DIGITS_RE.fullmatch(length):
        raise SchemaViolation("$", "request requires a Content-Length body")
    size = int(length)
    if size > _MAX_BODY:
        raise SchemaViolation("$", "request body too large")
    return handler.rfile.read(size)


def _json_body(handler: "ApiHandler", required: dict, optional: dict) -> dict:
    try:
        doc = load_json(_read_body(handler))
    except MalformedDocument as exc:
        raise SchemaViolation("$", f"body is {exc}") from exc
    return check_fields(doc, "$", required, optional)


class ApiHandler(BaseHTTPRequestHandler):
    server_version = "polyfind/0.1"
    protocol_version = "HTTP/1.1"

    # (method, compiled path pattern, handler name)
    ROUTES = [
        ("GET", re.compile(r"/health\Z"), "handle_health"),
        ("POST", re.compile(r"/services\Z"), "handle_publish"),
        ("GET", re.compile(r"/services/([^/]+)\Z"), "handle_get_service"),
        ("DELETE", re.compile(r"/services/([^/]+)\Z"), "handle_delete_service"),
        ("POST", re.compile(r"/discover\Z"), "handle_discover"),
        ("POST", re.compile(r"/bind\Z"), "handle_bind"),
        ("GET", re.compile(r"/portions\Z"), "handle_list_portions"),
        ("GET", re.compile(r"/portions/([^/]+)/([^/]+)\Z"), "handle_get_portion"),
        ("PUT", re.compile(r"/portions/([^/]+)/([^/]+)\Z"), "handle_put_portion"),
        ("POST", re.compile(r"/ontology/import\Z"), "handle_import"),
    ]

    @property
    def app(self) -> AppState:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Formatted by logging, and only when debug records are on.
        log.debug("%s " + format, self.address_string(), *args)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(status, json.dumps(payload, ensure_ascii=False).encode("utf-8"))

    def _send_body(self, status: int, body: bytes) -> None:
        """Send a UTF-8 JSON body that is already encoded.

        The headers and the body go out in one write: written after the
        headers, the body would wait in Nagle's algorithm for the client's
        delayed ACK, about 40 ms on a kept-alive connection."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # The request body may be unread; do not reuse this connection.
            self.send_header("Connection", "close")
            self.close_connection = True
        if self.request_version == "HTTP/0.9":
            # No status line or headers were buffered: the body is the response.
            self.wfile.write(body)
            return
        # What end_headers() does, with the body joined to the headers.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        try:
            try:
                for route_method, pattern, name in self.ROUTES:
                    match = pattern.match(path)
                    if match and route_method == method:
                        getattr(self, name)(*match.groups())
                        return
                self._send_json(404, {"error": "NotFound", "detail": f"no route {method} {path}"})
            except PolyfindError as exc:
                self._send_json(exc.http_status, {"error": type(exc).__name__, "detail": str(exc)})
        except ConnectionError:
            # Only the client's socket raises it here: the importer wraps
            # remote-repository socket errors in RepoUnreachable.
            log.debug("client %s left during %s %s", self.address_string(), method, path)
            self.close_connection = True
        except Exception:  # pragma: no cover - defensive
            log.exception("unhandled error on %s %s", method, path)
            self._send_json(500, {"error": "InternalError", "detail": "unhandled server error"})

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_PUT(self):
        self._dispatch("PUT")

    def do_DELETE(self):
        self._dispatch("DELETE")

    # --- handlers ---

    def handle_health(self):
        self._send_json(200, self.app.health())

    def handle_publish(self):
        service_id = self.app.publish_descriptor(_read_body(self))
        self._send_json(201, {"service_id": service_id})

    def handle_get_service(self, service_id: str):
        descriptor = registry_get(self.app.snapshot().registry, service_id)
        self._send_json(200, descriptor_to_dict(descriptor))

    def handle_delete_service(self, service_id: str):
        self.app.remove_service(service_id)
        self._send_json(200, {"service_id": service_id, "deleted": True})

    def handle_discover(self):
        body = _json_body(
            self, {"text": str, "domain": str, "requester_id": str}, {"language": (str, type(None))}
        )
        query = Query(
            text=body["text"],
            domain=body["domain"],
            requester_id=body["requester_id"],
            declared_language=body.get("language"),
        )
        self._send_json(200, response_to_dict(self.app.discover(query)))

    def handle_bind(self):
        body = _json_body(self, {"service_id": str, "requester_id": str}, {})
        ticket = self.app.bind_service(body["service_id"], body["requester_id"])
        self._send_json(200, asdict(ticket))

    def handle_list_portions(self):
        portions = self.app.snapshot().ontology.portions
        listing = [
            {"domain": p.domain, "language": p.language, "version": p.version}
            for p in (portions[key] for key in sorted(portions))
        ]
        self._send_json(200, {"portions": listing})

    def handle_get_portion(self, domain: str, language: str):
        portion = self.app.snapshot().ontology.portions.get((domain, language))
        if portion is None:
            raise PortionNotFound(f"no portion {domain}.{language}")
        # The portion's kept file bytes without the newline: what _send_json would send.
        self._send_body(200, save_portion(portion)[:-1])

    def handle_put_portion(self, domain: str, language: str):
        # The held portion only saves work: the terms the body repeats are
        # neither decoded, checked nor encoded again.
        base = self.app.snapshot().ontology.portions.get((domain, language))
        portion = load_portion(_read_body(self), base=base)
        if portion.domain != domain or portion.language != language:
            raise SchemaViolation(
                "$", f"body holds {portion.domain}.{portion.language}, path says {domain}.{language}"
            )
        self.app.put_portion(portion)
        self._send_json(
            200, {"domain": portion.domain, "language": portion.language, "version": portion.version}
        )

    def handle_import(self):
        body = _json_body(self, {"repo": str, "domain": str, "language": str}, {})
        report = self.app.import_portion(
            body["repo"], body["domain"], body["language"], wait=False
        )
        self._send_json(200, asdict(report))


class ApiServer(HTTPServer):
    """Serves each connection on the worker thread that accepted it.

    Parked workers take turns blocking in accept() on the listening socket;
    the one that gets a connection serves it in place, so a connection
    wakes a thread and starts none. A worker that takes a connection while
    no other worker waits in accept() first starts one more, so a kept-alive
    or stalled connection never blocks a new client and concurrency is as
    unbounded as one thread per connection. A worker that finishes while
    two or more others wait exits, so the extra workers of a burst go away
    afterwards. Steady one-at-a-time traffic still starts threads: a new
    connection that arrives before the worker that served the last one has
    parked again finds one worker waiting, and that worker starts another
    (536-890 starts in a 20 s wide-ontology benchmark run). ROADMAP.md items
    9 and 10 plan to measure and bound this. Workers are daemon threads
    named polyfind-worker-<port>.
    """

    allow_reuse_address = True
    # The socketserver default backlog of 5 drops connections under
    # concurrent load; size it for bursts of parallel clients.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], app: AppState):
        self.app = app
        self._lock = threading.Lock()
        self._waiting = 0  # workers in accept(); guarded by _lock
        # Set before binding: a bind that fails calls server_close().
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        super().__init__(address, ApiHandler)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Start the first worker and block until shutdown().

        poll_interval is accepted for socketserver's signature and ignored:
        shutdown wakes the workers instead of having them poll.
        """
        try:
            self._start_worker()
            self._stopping.wait()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop serving; returns once serve_forever() has returned."""
        self._stop_accepting()
        self._stopped.wait()

    def server_close(self) -> None:
        self._stop_accepting()
        super().server_close()

    def _stop_accepting(self) -> None:
        self._stopping.set()
        try:
            # Wakes every worker blocked in accept(); close() alone does not.
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # already shut down, or a platform that refuses it
            pass

    def _start_worker(self) -> None:
        threading.Thread(
            target=self._work, name=f"polyfind-worker-{self.server_port}", daemon=True
        ).start()

    def _work(self) -> None:
        with self._lock:
            self._waiting += 1
        while True:
            try:
                request, client_address = self.get_request()
            except OSError:
                if self._stopping.is_set():
                    return
                continue  # e.g. a client that reset before accept() returned
            with self._lock:
                self._waiting -= 1
                alone = self._waiting == 0
            # A worker that cannot be started fails this connection, as a
            # thread per connection did; this worker keeps accepting.
            try:
                if alone:
                    self._start_worker()
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._lock:
                if self._waiting >= 2:
                    return
                self._waiting += 1


def make_server(config: ServerConfig) -> ApiServer:
    """Build state and bind the listening socket; port 0 picks a free port."""
    app = AppState(config)
    try:
        return ApiServer((config.host, config.port), app)
    except OSError as exc:
        raise StartupError(f"cannot listen on {config.host}:{config.port}: {exc}") from exc
