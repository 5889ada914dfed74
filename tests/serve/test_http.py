"""HTTP service smoke tests: routing, typed errors, concurrency, and the
zero-graph-I/O guarantee for served queries."""

from __future__ import annotations

import json
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.graph.digraph import Digraph
from repro.serve import ReproServer, ServeConfig

from .conftest import publish_graph


@pytest.fixture
def server(tmp_path, device):
    """A running server over one published artifact; yields (server, port)."""
    from repro.serve import ArtifactStore

    root = str(tmp_path / "store")
    with ArtifactStore(root, block_elements=16) as store:
        graph = Digraph.from_edges(
            7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 5)]
        )
        publish_graph(store, device, graph, "mixed", sources=(0, 3))
    config = ServeConfig(store_root=root, port=0, deadline_seconds=5.0)
    srv = ReproServer(config)
    # a short poll lets shutdown() return without waiting out the 0.5 s default
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield srv, srv.server_address[1]
    finally:
        srv.shutdown()
        thread.join(timeout=5)
        srv.close()


def get(port: int, path: str, connection: HTTPConnection = None):
    conn = connection or HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", path)
    response = conn.getresponse()
    body = json.loads(response.read().decode("utf-8"))
    if connection is None:
        conn.close()
    return response.status, body


class TestRouting:
    def test_healthz(self, server):
        _, port = server
        status, body = get(port, "/healthz")
        assert status == 200
        assert body == {"status": "ok", "artifacts": 1}

    def test_catalogue(self, server):
        _, port = server
        status, body = get(port, "/artifacts")
        assert status == 200
        assert body["artifacts"][0]["name"] == "mixed"

    def test_describe(self, server):
        _, port = server
        status, body = get(port, "/artifacts/mixed")
        assert status == 200
        assert body["ref"] == "mixed@v1"
        assert body["nodes"] == 7

    def test_query_cycle(self, server):
        _, port = server
        status, body = get(port, "/v1/query/cycle?artifact=mixed")
        assert status == 200
        assert body["has_cycle"] is True
        assert body["witness"] == [0, 1, 2]

    def test_post_body_params(self, server):
        _, port = server
        conn = HTTPConnection("127.0.0.1", port, timeout=10)
        payload = json.dumps({"artifact": "mixed", "u": 0, "v": 4})
        conn.request("POST", "/v1/query/reachable", body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read().decode("utf-8"))
        conn.close()
        assert response.status == 200
        assert body["reachable"] is True
        assert body["proof"] == "pinned-source"

    def test_metricsz_counts_requests(self, server):
        _, port = server
        get(port, "/v1/query/position?artifact=mixed&node=0")
        status, body = get(port, "/metricsz")
        assert status == 200
        assert body["counters"]["serve.requests"] >= 2
        assert body["counters"]["serve.queries.position"] >= 1


class TestTypedErrors:
    def test_unknown_artifact_404(self, server):
        _, port = server
        status, body = get(port, "/v1/query/cycle?artifact=nope")
        assert status == 404
        assert body["error"]["code"] == "artifact-not-found"

    def test_unknown_route_404(self, server):
        _, port = server
        status, body = get(port, "/nonsense")
        assert status == 404

    def test_toposort_conflict_409(self, server):
        _, port = server
        status, body = get(port, "/v1/query/toposort?artifact=mixed")
        assert status == 409
        assert body["error"]["code"] == "not-a-dag"

    def test_bad_param_400(self, server):
        _, port = server
        status, body = get(port, "/v1/query/position?artifact=mixed&node=x")
        assert status == 400
        assert body["error"]["code"] == "bad-query"

    def test_missing_artifact_param_400(self, server):
        _, port = server
        status, body = get(port, "/v1/query/cycle")
        assert status == 400

    def test_deadline_exceeded_504(self, server):
        _, port = server
        status, body = get(
            port, "/v1/query/order?artifact=mixed&deadline_ms=0"
        )
        assert status == 504
        assert body["error"]["code"] == "deadline-exceeded"


def post_with_length(port: int, declared: str):
    """POST with a hand-written ``Content-Length`` and no body over a raw
    socket; read until the server closes.  The 2 s timeout turns a server
    that waits for a body into a failure, not a hang."""
    request = (
        "POST /v1/query/order?artifact=mixed HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        f"Content-Length: {declared}\r\n"
        "\r\n"
    ).encode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 "), head
    return int(head.split(b" ", 2)[1]), json.loads(body.decode("utf-8"))


class TestMalformedContentLength:
    @pytest.mark.parametrize("declared", ["-1", "abc", "+5"])
    def test_answered_400_and_closed(self, server, declared):
        _, port = server
        status, body = post_with_length(port, declared)
        assert status == 400
        assert body["error"] == {
            "code": "bad-query",
            "message": f"invalid Content-Length {declared!r}",
        }
        # the server still answers a fresh connection
        status, _ = get(port, "/healthz")
        assert status == 200


class TestServedQueriesDoNoGraphIO:
    def test_zero_device_reads_after_warmup(self, server):
        """The artifact loads once; every served answer after that comes
        from the in-memory columns — zero block reads, zero edge scans."""
        srv, port = server
        get(port, "/v1/query/cycle?artifact=mixed")  # warm the engine
        baseline = srv.store.stats.snapshot()
        for path in (
            "/v1/query/order?artifact=mixed",
            "/v1/query/position?artifact=mixed&node=3",
            "/v1/query/ancestor?artifact=mixed&u=0&v=4",
            "/v1/query/path?artifact=mixed&u=0&v=4",
            "/v1/query/scc?artifact=mixed&node=1",
            "/v1/query/reachable?artifact=mixed&u=0&v=4",
            "/v1/query/reachable-set?artifact=mixed&source=0",
        ):
            status, _ = get(port, path)
            assert status == 200
        after = srv.store.stats.snapshot()
        delta = after - baseline
        assert (delta.reads, delta.writes) == (0, 0)


class TestConcurrency:
    def test_parallel_keepalive_clients_agree(self, server):
        _, port = server
        answers = []
        errors = []

        def worker():
            try:
                conn = HTTPConnection("127.0.0.1", port, timeout=10)
                for _ in range(20):
                    status, body = get(port, (
                        "/v1/query/position?artifact=mixed&node=4"
                    ), connection=conn)
                    assert status == 200
                    answers.append(body["position"])
                conn.close()
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(answers) == 8 * 20
        assert len(set(answers)) == 1  # every thread saw the same answer
