import errno
import http.client
import json
import logging
import re
import socket
import string
import threading
import time
from contextlib import contextmanager
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfind.config import ServerConfig
from polyfind.errors import SchemaViolation
from polyfind.httpserver import _MAX_BODY, ApiHandler, _read_body, make_server
from polyfind.importer import RemoteRepoRef
from polyfind.ontology import (
    Relation,
    Term,
    TermId,
    add_terms,
    create_portion,
    load_portion,
    portion_to_dict,
    save_portion,
)

from conftest import ALIGNMENT_FILE, DESCRIPTOR_FILES, PORTION_FILES, run_in_thread

AR_TEXT = "الجذر التربيعي"

# GET /services/s-000002 of the en fixture, byte for byte: service_id first.
GOLDEN_EN_SERVICE = (
    b'{"service_id": "s-000002", "name": "SquareRootService", "language": "en",'
    b' "provider": "Acme Math", "endpoint": "https://math.example.com/sqrt",'
    b' "documentation": "Finds the square root of any number.",'
    b' "categories": [{"term": "math#square_root", "lang": "en"}],'
    b' "operations": [{"name": "sqrt", "documentation": "Returns the square root of x.",'
    b' "inputs": [{"name": "x", "type": "decimal"}], "output": "decimal"}]}'
)

# POST /discover of the Arabic case-study query over the fixture services,
# byte for byte: scores print as repr floats, so any change in the order of
# summation shows.
GOLDEN_AR_DISCOVER = (
    '{"detected": {"language": "ar", "confidence": 1.0, "method": "script"},'
    ' "results": [{"service_id": "s-000002", "name": "SquareRootService", "language": "en",'
    ' "score": 16.635532333438686, "provenance": [{"source": "math#square_root",'
    ' "path": {"source": {"term": "math#square_root", "lang": "ar"},'
    ' "target": {"term": "math#square_root", "lang": "en"}, "confidence": 1.0,'
    ' "hops": [{"target": {"term": "math#square_root", "lang": "en"}, "relation": "exact",'
    ' "confidence": 1.0}]}, "field": "name"}, {"source": "math#square_root",'
    ' "path": {"source": {"term": "math#square_root", "lang": "ar"},'
    ' "target": {"term": "math#square_root", "lang": "en"}, "confidence": 1.0,'
    ' "hops": [{"target": {"term": "math#square_root", "lang": "en"}, "relation": "exact",'
    ' "confidence": 1.0}]}, "field": "operation"}, {"source": "math#square_root",'
    ' "path": {"source": {"term": "math#square_root", "lang": "ar"},'
    ' "target": {"term": "math#square_root", "lang": "en"}, "confidence": 1.0,'
    ' "hops": [{"target": {"term": "math#square_root", "lang": "en"}, "relation": "exact",'
    ' "confidence": 1.0}]}, "field": "documentation"}],'
    ' "requester_language_labels": ["الجذر التربيعي"]}, {"service_id": "s-000001",'
    ' "name": "خدمة الجذر التربيعي", "language": "ar", "score": 13.862943611198904,'
    ' "provenance": [{"source": "math#square_root", "path": null, "field": "name"},'
    ' {"source": "math#square_root", "path": null, "field": "documentation"}],'
    ' "requester_language_labels": ["الجذر التربيعي"]}, {"service_id": "s-000003",'
    ' "name": "ServiceRacineCarree", "language": "fr", "score": 12.476649250079015,'
    ' "provenance": [{"source": "math#square_root",'
    ' "path": {"source": {"term": "math#square_root", "lang": "ar"},'
    ' "target": {"term": "math#square_root", "lang": "fr"}, "confidence": 1.0,'
    ' "hops": [{"target": {"term": "math#square_root", "lang": "fr"}, "relation": "exact",'
    ' "confidence": 1.0}]}, "field": "name"}, {"source": "math#square_root",'
    ' "path": {"source": {"term": "math#square_root", "lang": "ar"},'
    ' "target": {"term": "math#square_root", "lang": "fr"}, "confidence": 1.0,'
    ' "hops": [{"target": {"term": "math#square_root", "lang": "fr"}, "relation": "exact",'
    ' "confidence": 1.0}]}, "field": "operation"}, {"source": "math#square_root",'
    ' "path": {"source": {"term": "math#square_root", "lang": "ar"},'
    ' "target": {"term": "math#square_root", "lang": "fr"}, "confidence": 1.0,'
    ' "hops": [{"target": {"term": "math#square_root", "lang": "fr"}, "relation": "exact",'
    ' "confidence": 1.0}]}, "field": "documentation"}],'
    ' "requester_language_labels": ["الجذر التربيعي"]}], "used_expansion": false,'
    ' "imports_triggered": []}'
).encode()

# POST /ontology/import of math/en from the fixture repository into an empty
# data directory: keys in ImportReport's field order.
GOLDEN_IMPORT = (
    '{"repo": "fixture", "domain": "math", "language": "en", "outcome": "imported",'
    ' "version_before": null, "version_after": 2, "detail": ""}'
).encode()

# Every route that reads a request body goes through the same size and
# Content-Length checks.
BODY_ROUTES = pytest.mark.parametrize("method, path", [
    ("POST", "/services"),
    ("POST", "/discover"),
    ("PUT", "/portions/math/en"),
], ids=["publish", "discover", "put_portion"])


def request(address, method, path, body=None, content_length=None):
    """One HTTP exchange; returns (status, decoded JSON or None)."""
    status, raw = exchange(address, method, path, body, content_length)
    return status, json.loads(raw.decode("utf-8")) if raw else None


def exchange(address, method, path, body=None, content_length=None):
    """One HTTP exchange; returns (status, body bytes)."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        if isinstance(body, (dict, list)):
            body = json.dumps(body).encode("utf-8")
        if content_length is not None:
            conn.putrequest(method, path)
            conn.putheader("Content-Length", str(content_length))
            conn.endheaders()
        else:
            conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@contextmanager
def serving(config):
    """A server for `config` on a background thread; yields its address."""
    server = make_server(config)
    thread = run_in_thread(server)
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def api(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("api") / "data"
    (data_dir / "portions").mkdir(parents=True)
    (data_dir / "alignments").mkdir()
    for path in PORTION_FILES:
        (data_dir / "portions" / path.name).write_bytes(path.read_bytes())
    (data_dir / "alignments" / ALIGNMENT_FILE.name).write_bytes(
        ALIGNMENT_FILE.read_bytes()
    )
    server = make_server(ServerConfig(host="127.0.0.1", port=0, data_dir=data_dir))
    thread = run_in_thread(server)
    address = server.server_address[:2]
    for path in DESCRIPTOR_FILES:
        status, doc = request(address, "POST", "/services", path.read_bytes())
        assert status == 201
    yield address
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestBasicRoutes:
    def test_health(self, api):
        status, doc = request(api, "GET", "/health")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["portions"] >= 3
        assert doc["services"] >= 3

    def test_health_ignores_query_string(self, api):
        status, _ = request(api, "GET", "/health?verbose=1")
        assert status == 200

    def test_unknown_route(self, api):
        status, doc = request(api, "GET", "/nope")
        assert status == 404
        assert doc == {"error": "NotFound", "detail": "no route GET /nope"}

    def test_wrong_method_is_not_found(self, api):
        status, doc = request(api, "DELETE", "/health")
        assert status == 404
        assert doc["error"] == "NotFound"

    def test_an_http_0_9_request_gets_the_bare_body(self, api):
        with socket.create_connection(api, timeout=10) as sock:
            sock.sendall(b"GET /health\r\n\r\n")
            answer = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(answer)["status"] == "ok"

    def test_request_log_is_formatted_only_by_logging(self, api, caplog):
        caplog.set_level(logging.DEBUG, logger="polyfind.httpserver")
        assert request(api, "GET", "/health?log")[0] == 200
        [record] = [r for r in caplog.records if "/health?log" in r.getMessage()]
        assert record.getMessage() == '127.0.0.1 "GET /health?log HTTP/1.1" 200 -'
        assert record.msg == '%s "%s" %s %s'


class TestServices:
    def test_get_seeded_service(self, api):
        status, doc = request(api, "GET", "/services/s-000002")
        assert status == 200
        assert doc["service_id"] == "s-000002"
        assert doc["name"] == "SquareRootService"
        assert doc["language"] == "en"
        assert doc["endpoint"] == "https://math.example.com/sqrt"
        assert doc["operations"]

    def test_get_service_bytes_are_pinned(self, api, tmp_path):
        assert exchange(api, "GET", "/services/s-000002") == (200, GOLDEN_EN_SERVICE)
        config = ServerConfig(host="127.0.0.1", port=0, data_dir=tmp_path / "data")
        with serving(config) as address:
            for path in DESCRIPTOR_FILES:
                request(address, "POST", "/services", path.read_bytes())
        with serving(config) as address:  # the same data directory, restarted
            assert exchange(address, "GET", "/services/s-000002") == (200, GOLDEN_EN_SERVICE)

    def test_discover_bytes_are_pinned(self, tmp_path):
        with serving(fixture_config(tmp_path)) as address:
            for path in DESCRIPTOR_FILES:
                request(address, "POST", "/services", path.read_bytes())
            assert exchange(address, "POST", "/discover", {
                "text": AR_TEXT, "domain": "math", "requester_id": "alice",
            }) == (200, GOLDEN_AR_DISCOVER)

    def test_import_bytes_are_pinned(self, tmp_path, repo_server):
        config = ServerConfig(
            host="127.0.0.1", port=0, data_dir=tmp_path / "data",
            remote_repos=(RemoteRepoRef("fixture", repo_server),),
        )
        with serving(config) as address:
            assert exchange(address, "POST", "/ontology/import", {
                "repo": "fixture", "domain": "math", "language": "en",
            }) == (200, GOLDEN_IMPORT)

    def test_non_ascii_payload_survives(self, api):
        status, doc = request(api, "GET", "/services/s-000001")
        assert status == 200
        assert doc["language"] == "ar"
        assert "الجذر" in doc["name"]

    def test_publish_get_delete_cycle(self, api):
        status, doc = request(
            api, "POST", "/services", DESCRIPTOR_FILES[1].read_bytes()
        )
        assert status == 201
        sid = doc["service_id"]
        assert sid not in {"s-000001", "s-000002", "s-000003"}

        status, _ = request(api, "GET", f"/services/{sid}")
        assert status == 200
        status, doc = request(api, "DELETE", f"/services/{sid}")
        assert (status, doc) == (200, {"service_id": sid, "deleted": True})
        status, doc = request(api, "GET", f"/services/{sid}")
        assert status == 404
        assert doc["error"] == "UnknownService"

    def test_unknown_service(self, api):
        status, doc = request(api, "GET", "/services/s-424242")
        assert status == 404
        assert doc["error"] == "UnknownService"

    def test_publish_malformed_xml(self, api):
        status, doc = request(api, "POST", "/services", b"<service")
        assert status == 400
        assert doc["error"] == "MalformedXml"
        assert "line" in doc["detail"]

    def test_publish_unparsable_endpoint(self, api):
        body = DESCRIPTOR_FILES[1].read_bytes().replace(
            b'endpoint="https://math.example.com/sqrt"', b'endpoint="http://[x"')
        status, doc = request(api, "POST", "/services", body)
        assert status == 400
        assert doc["error"] == "MalformedXml"
        assert doc["detail"] == "endpoint 'http://[x' must be an absolute URL at line 1, column 1"

    def test_publish_without_body(self, api):
        conn = http.client.HTTPConnection(*api, timeout=10)
        try:
            conn.putrequest("POST", "/services")
            conn.endheaders()
            response = conn.getresponse()
            doc = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert doc["error"] == "SchemaViolation"

    @BODY_ROUTES
    def test_oversized_body_rejected_without_reading(self, api, method, path):
        status, doc = request(
            api, method, path, content_length=17 * 1024 * 1024
        )
        assert status == 400
        assert doc["error"] == "SchemaViolation"
        assert "too large" in doc["detail"]

    @BODY_ROUTES
    @pytest.mark.parametrize(
        "length", ["²", "-1", "1e3"], ids=["superscript_two", "negative", "exponent"]
    )
    def test_unusable_content_length_rejected(self, api, method, path, length):
        status, doc = request(api, method, path, content_length=length)
        assert status == 400
        assert doc["error"] == "SchemaViolation"


class TestDiscoverAndBind:
    def test_discover_arabic_query(self, api):
        status, doc = request(api, "POST", "/discover", {
            "text": AR_TEXT, "domain": "math", "requester_id": "alice",
        })
        assert status == 200
        assert doc["detected"] == {
            "language": "ar", "confidence": 1.0, "method": "script",
        }
        assert {r["service_id"] for r in doc["results"]} == {
            "s-000001", "s-000002", "s-000003",
        }

    def test_discover_declared_language(self, api):
        status, doc = request(api, "POST", "/discover", {
            "text": "square root", "domain": "math",
            "requester_id": "alice", "language": "en",
        })
        assert status == 200
        assert doc["detected"]["method"] == "declared"

    @pytest.mark.parametrize("body, fragment", [
        ({"domain": "math", "requester_id": "a"}, "$.text"),
        ({"text": "x", "domain": "math", "requester_id": "a", "x": 1}, "$.x"),
        ({"text": 1, "domain": "math", "requester_id": "a"}, "$.text"),
    ])
    def test_discover_schema_errors(self, api, body, fragment):
        status, doc = request(api, "POST", "/discover", body)
        assert status == 400
        assert doc["error"] == "SchemaViolation"
        assert fragment in doc["detail"]

    def test_discover_body_not_json(self, api):
        status, doc = request(api, "POST", "/discover", b"not json")
        assert status == 400
        assert doc["error"] == "SchemaViolation"

    def test_discover_empty_query(self, api):
        status, doc = request(api, "POST", "/discover", {
            "text": "...", "domain": "math", "requester_id": "a", "language": "en",
        })
        assert status == 400
        assert doc["error"] == "EmptyQuery"

    def test_bind_round_trip(self, api):
        status, doc = request(api, "POST", "/bind", {
            "service_id": "s-000002", "requester_id": "alice",
        })
        assert status == 200
        assert doc["service_id"] == "s-000002"
        assert doc["requester_id"] == "alice"
        assert doc["endpoint"] == "https://math.example.com/sqrt"
        assert doc["ticket_id"].startswith("t-")
        assert doc["issued_at"].endswith("+00:00")

    def test_bind_unknown_service(self, api):
        status, doc = request(api, "POST", "/bind", {
            "service_id": "s-424242", "requester_id": "alice",
        })
        assert status == 404
        assert doc["error"] == "UnknownService"

    def test_bind_missing_field(self, api):
        status, doc = request(api, "POST", "/bind", {"service_id": "s-000002"})
        assert status == 400
        assert doc["error"] == "SchemaViolation"


def german_portion(domain="chem"):
    portion = create_portion(domain, "de")
    return add_terms(portion, [
        Term(TermId(f"{domain}#wurzel"), "wurzel"),
        Term(
            TermId(f"{domain}#quadratwurzel"),
            "quadratwurzel",
            relations=(Relation("broader", TermId(f"{domain}#wurzel")),),
        ),
    ])


class TestPortions:
    def test_listing(self, api):
        status, doc = request(api, "GET", "/portions")
        assert status == 200
        math_entries = [p for p in doc["portions"] if p["domain"] == "math"]
        assert math_entries == [
            {"domain": "math", "language": "ar", "version": 2},
            {"domain": "math", "language": "en", "version": 2},
            {"domain": "math", "language": "fr", "version": 2},
        ]

    def test_get_portion(self, api):
        status, doc = request(api, "GET", "/portions/math/en")
        assert status == 200
        assert (doc["domain"], doc["language"], doc["version"]) == ("math", "en", 2)
        assert any(t["id"] == "math#square_root" for t in doc["terms"])

    def test_get_missing_portion(self, api):
        status, doc = request(api, "GET", "/portions/math/de")
        assert status == 404
        assert doc["error"] == "PortionNotFound"

    def test_put_new_portion(self, api):
        body = save_portion(german_portion())
        status, doc = request(api, "PUT", "/portions/chem/de", body)
        assert status == 200
        assert doc == {"domain": "chem", "language": "de", "version": 2}
        status, doc = request(api, "GET", "/portions/chem/de")
        assert status == 200

    def test_put_path_body_mismatch(self, api):
        body = save_portion(german_portion())
        status, doc = request(api, "PUT", "/portions/math/de", body)
        assert status == 400
        assert doc["error"] == "SchemaViolation"
        assert "chem.de" in doc["detail"]

    def test_put_malformed_body(self, api):
        status, doc = request(api, "PUT", "/portions/math/de", b"{")
        assert status == 400
        assert doc["error"] == "MalformedDocument"

    def test_put_structurally_invalid_portion(self, tmp_path):
        body = {"domain": "math", "language": "en", "version": 1, "terms": [{
            "id": "math#a", "preferred_label": "a", "alt_labels": [], "definition": None,
            "relations": [{"kind": "related", "target": "math#a"}],
        }]}
        data_dir = tmp_path / "data"
        with serving(ServerConfig(host="127.0.0.1", port=0, data_dir=data_dir)) as address:
            status, doc = request(address, "PUT", "/portions/math/en", body)
        assert status == 400
        assert doc["error"] == "InvariantViolation"
        assert doc["detail"].startswith("portion is structurally invalid: self-relation[math#a]")
        assert not (data_dir / "portions").exists()


def fixture_config(tmp_path):
    """A config whose data directory holds the fixture portions and links."""
    data_dir = tmp_path / "data"
    (data_dir / "portions").mkdir(parents=True)
    for path in PORTION_FILES:
        (data_dir / "portions" / path.name).write_bytes(path.read_bytes())
    (data_dir / "alignments").mkdir()
    (data_dir / "alignments" / ALIGNMENT_FILE.name).write_bytes(ALIGNMENT_FILE.read_bytes())
    return ServerConfig(host="127.0.0.1", port=0, data_dir=data_dir)


def data_files(config):
    """Every file under the data directory with its bytes."""
    root = config.data_dir
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def reference_body(portion):
    """The GET /portions body as json encodes portion_to_dict."""
    return json.dumps(portion_to_dict(portion), ensure_ascii=False).encode()


class TestPutThenRestart:
    def test_restart_serves_the_same_portion_and_discovery(self, tmp_path):
        """A put loaded over the held portion answers GET and discover with
        the bytes a restart on the same data directory answers."""
        config = fixture_config(tmp_path)
        query = {"text": "radical sign", "domain": "math", "requester_id": "alice",
                 "language": "en"}
        answers = []
        with serving(config) as address:
            for path in DESCRIPTOR_FILES:
                assert request(address, "POST", "/services", path.read_bytes())[0] == 201
            status, doc = request(address, "GET", "/portions/math/en")
            assert status == 200
            for term in doc["terms"]:
                if term["id"] == "math#square_root":
                    term["alt_labels"].append("Radical  Sign")
            doc["version"] += 1
            assert request(address, "PUT", "/portions/math/en", doc) == (200, {
                "domain": "math", "language": "en", "version": doc["version"],
            })
            answers.append((
                exchange(address, "GET", "/portions/math/en"),
                exchange(address, "POST", "/discover", query),
            ))
        with serving(config) as address:
            answers.append((
                exchange(address, "GET", "/portions/math/en"),
                exchange(address, "POST", "/discover", query),
            ))
        (portion, discovered), after_restart = answers
        assert (portion, discovered) == after_restart
        assert json.loads(portion[1]) == doc
        assert discovered[0] == 200
        assert json.loads(discovered[1])["results"]

    def test_put_layout_changes_nothing(self, tmp_path):
        """The GET /portions bytes with one edit, put as they are or laid out
        with indent=2, give the same answer, files and later GET bytes."""
        outcomes = []
        for layout in ({}, {"indent": 2}):
            config = fixture_config(tmp_path / f"layout{len(outcomes)}")
            with serving(config) as address:
                status, body = exchange(address, "GET", "/portions/math/fr")
                doc = json.loads(body)
                assert json.dumps(doc, ensure_ascii=False).encode() == body
                doc["terms"][1]["alt_labels"].append("racine carrée principale")
                doc["version"] += 1
                body = json.dumps(doc, ensure_ascii=False, **layout).encode()
                answer = exchange(address, "PUT", "/portions/math/fr", body)
                outcomes.append(
                    (answer, data_files(config), exchange(address, "GET", "/portions/math/fr"))
                )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (200, b'{"domain": "math", "language": "fr", "version": 3}')
        assert json.loads(outcomes[0][2][1]) == doc

    def test_get_bodies_are_the_reference_encoding(self, tmp_path):
        """GET /portions sends the bytes json gives for portion_to_dict before
        a put, after one (whose terms keep their encodings) and after a
        restart, also for labels that need escaping."""
        config = fixture_config(tmp_path)
        held = {path.name.split(".")[1]: load_portion(path.read_bytes()) for path in PORTION_FILES}
        with serving(config) as address:
            for lang, portion in held.items():
                assert exchange(address, "GET", f"/portions/math/{lang}") == (
                    200, reference_body(portion))
            doc = portion_to_dict(held["en"])
            doc["terms"][1]["alt_labels"].append('say "√" \\ \t \u2028 \U0001d538 جذر')
            doc["terms"][2]["definition"] = None
            doc["version"] += 1
            body = json.dumps(doc).encode()
            assert request(address, "PUT", "/portions/math/en", body)[0] == 200
            held["en"] = load_portion(body)
            after_put = exchange(address, "GET", "/portions/math/en")
            assert after_put == (200, reference_body(held["en"]))
        with serving(config) as address:
            for lang, portion in held.items():
                assert exchange(address, "GET", f"/portions/math/{lang}") == (
                    200, reference_body(portion))


class TestLoneSurrogates:
    """A JSON escape of a lone surrogate decodes to text that no UTF-8 file
    can hold: the routes that would store it refuse the body with 400 and
    leave the data directory as it was."""

    def test_put_portion_refuses_a_lone_surrogate_label(self, tmp_path):
        config = fixture_config(tmp_path)
        with serving(config) as address:
            status, doc = request(address, "GET", "/portions/math/en")
            doc["version"] += 1
            before = data_files(config)
            for label in ("\ud800x", "x\udfff"):
                doc["terms"][0]["alt_labels"].append(label)
                status, answer = request(address, "PUT", "/portions/math/en", doc)
                assert status == 400
                assert answer["error"] == "MalformedDocument"
                assert "lone surrogate" in answer["detail"]
                assert data_files(config) == before
                doc["terms"][0]["alt_labels"].pop()
            # A non-BMP character, escaped as a surrogate pair, still loads.
            doc["terms"][0]["alt_labels"].append("\U0001f600x")
            assert b"\\ud83d\\ude00x" in json.dumps(doc).encode()
            assert request(address, "PUT", "/portions/math/en", doc)[0] == 200
            assert request(address, "GET", "/portions/math/en") == (200, doc)

    def test_bind_refuses_a_lone_surrogate_requester(self, tmp_path):
        config = fixture_config(tmp_path)
        with serving(config) as address:
            assert request(address, "POST", "/services", DESCRIPTOR_FILES[1].read_bytes())[0] == 201
            before = data_files(config)
            status, answer = request(address, "POST", "/bind", {
                "service_id": "s-000001", "requester_id": "\ud800",
            })
            assert status == 400
            assert answer["error"] == "SchemaViolation"
            assert "lone surrogate" in answer["detail"]
            assert data_files(config) == before


class TestDeepNesting:
    """A body nested deeper than the interpreter's recursion limit is not
    valid JSON: each JSON route answers 400, and the server answers the
    next request."""

    BODY = b"[" * 100_000 + b"]" * 100_000

    @pytest.mark.parametrize("method, path, error", [
        ("POST", "/bind", "SchemaViolation"),
        ("PUT", "/portions/math/en", "MalformedDocument"),
    ], ids=["bind", "put_portion"])
    def test_answers_400(self, api, method, path, error):
        status, doc = request(api, method, path, self.BODY)
        assert (status, doc["error"]) == (400, error)
        assert "nested too deeply" in doc["detail"]
        assert request(api, "GET", "/health")[0] == 200


class TestLongIntegers:
    """An integer with more digits than Python converts (4,300 by default,
    sys.get_int_max_str_digits) is not valid JSON to the server: each JSON
    route answers 400, and the server answers the next request."""

    DIGITS = "1" * 5000

    @pytest.mark.parametrize("method, path, body, error", [
        ("POST", "/discover", '{"text": %s, "domain": "math", "requester_id": "a"}',
         "SchemaViolation"),
        ("POST", "/bind", '{"service_id": %s, "requester_id": "a"}', "SchemaViolation"),
        ("PUT", "/portions/math/en", '{"version": %s}', "MalformedDocument"),
        ("POST", "/ontology/import", '{"repo": %s, "domain": "math", "language": "en"}',
         "SchemaViolation"),
    ], ids=["discover", "bind", "put_portion", "import"])
    def test_answers_400(self, api, method, path, body, error):
        status, doc = request(api, method, path, (body % self.DIGITS).encode())
        assert (status, doc["error"]) == (400, error)
        assert "not valid JSON" in doc["detail"]
        assert request(api, "GET", "/health")[0] == 200

    def test_put_in_get_layout_answers_400(self, api):
        status, body = exchange(api, "GET", "/portions/math/en")
        assert status == 200
        long = re.sub(
            rb'"version": [0-9]+', f'"version": {self.DIGITS}'.encode(), body, count=1
        )
        status, doc = request(api, "PUT", "/portions/math/en", long)
        assert (status, doc["error"]) == (400, "MalformedDocument")
        assert exchange(api, "GET", "/portions/math/en") == (200, body)


class TestBodyLimit:
    """_read_body reads a body of _MAX_BODY bytes and refuses one byte
    more before reading any, seen through a stub handler."""

    class Stub:
        def __init__(self, length):
            self.headers = {"Content-Length": str(length)}
            self.rfile = self
            self.reads = []

        def read(self, size):
            self.reads.append(size)
            return b""

    def test_reads_up_to_the_limit(self):
        at = self.Stub(_MAX_BODY)
        assert _read_body(at) == b""
        assert at.reads == [_MAX_BODY]

    def test_refuses_one_byte_more_unread(self):
        over = self.Stub(_MAX_BODY + 1)
        with pytest.raises(SchemaViolation, match="too large"):
            _read_body(over)
        assert over.reads == []


# --- no route answers 500 ---

# Every key a route reads, and a few it does not.
_KEYS = [
    "text", "domain", "requester_id", "language", "service_id", "repo", "version",
    "terms", "id", "preferred_label", "alt_labels", "definition", "relations", "x",
]
_LONE_SURROGATE = st.integers(0xD800, 0xDFFF).map(chr)
_ODD_TEXT = (
    st.text()
    | st.text(alphabet=st.characters(min_codepoint=0x0600, max_codepoint=0x077F) | st.characters())
    | st.tuples(st.text(max_size=4), _LONE_SURROGATE).map("".join)
    | st.sampled_from(["math", "en", "ar", "fr", "s-000001", "s-00000١", "الجذر التربيعي"])
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ODD_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=6), inner, max_size=5),
    max_leaves=12,
)
# A document shaped for each body route, its values from _ODD_TEXT or _JSON.
_SHAPED = st.one_of(*(
    st.fixed_dictionaries(
        {key: _ODD_TEXT | _JSON for key in required},
        optional={key: _ODD_TEXT | _JSON for key in optional},
    )
    for required, optional in [
        (("text", "domain", "requester_id"), ("language",)),  # discover
        (("service_id", "requester_id"), ()),  # bind
        (("repo", "domain", "language"), ()),  # import
        (("domain", "language", "version", "terms"), ()),  # put a portion
    ]
))
_DEEP = b"[" * 100_000 + b"]" * 100_000
_BODIES = st.one_of(
    _SHAPED.map(lambda doc: json.dumps(doc).encode()),  # escapes lone surrogates
    _JSON.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=64),
    st.just(_DEEP),
    st.sampled_from([path.read_bytes() for path in DESCRIPTOR_FILES + PORTION_FILES]),
)
_SEGMENT = (
    st.text(alphabet=string.printable.strip().replace("/", "").replace("?", ""), max_size=12)
    | st.text(max_size=8).map(lambda text: quote(text, safe=""))
    | st.sampled_from(["math", "en", "ar", "xx", "s-000001", "s-999999"])
)
_REQUESTS = st.one_of(
    st.tuples(
        st.sampled_from([
            ("POST", "/services"), ("POST", "/discover"), ("POST", "/bind"),
            ("POST", "/ontology/import"), ("PUT", "/portions/math/en"),
            ("GET", "/health"), ("GET", "/portions"),
        ]),
        _BODIES,
    ).map(lambda pair: (*pair[0], pair[1])),
    st.tuples(
        st.sampled_from(["GET", "DELETE"]), _SEGMENT.map(lambda tail: f"/services/{tail}"),
        st.none(),
    ),
    st.tuples(
        st.sampled_from(["GET", "PUT"]),
        st.tuples(_SEGMENT, _SEGMENT).map(lambda pair: "/portions/{}/{}".format(*pair)),
        _BODIES,
    ),
    st.tuples(
        st.sampled_from(["GET", "POST", "PUT", "DELETE"]),
        st.lists(_SEGMENT, max_size=3).map(lambda parts: "/" + "/".join(parts)),
        st.none() | _BODIES,
    ),
)


@pytest.fixture(scope="module")
def unreachable_repo_api(tmp_path_factory):
    """A server on a copy of the fixtures whose one remote repository
    refuses every connection; yields its address."""
    with socket.socket() as probe:  # a port that nothing listens on
        probe.bind(("127.0.0.1", 0))
        closed = probe.getsockname()[1]
    config = fixture_config(tmp_path_factory.mktemp("any-request"))
    config = ServerConfig(
        host=config.host, port=0, data_dir=config.data_dir, network_timeout=1.0,
        remote_repos=(RemoteRepoRef("gone", f"http://127.0.0.1:{closed}"),),
    )
    with serving(config) as address:
        for path in DESCRIPTOR_FILES:
            assert request(address, "POST", "/services", path.read_bytes())[0] == 201
        yield address


class TestAnyRequest:
    """No route answers 500, whatever the method, path and body: only an
    import whose repository cannot be reached answers a 5xx, 502. Every
    error body is JSON naming its error."""

    @settings(deadline=None)
    @given(_REQUESTS)
    @example(("POST", "/bind", _DEEP))
    @example(("PUT", "/portions/math/en", _DEEP))
    @example(("POST", "/discover", b'{"text": "\\ud800", "domain": "math", "requester_id": "a"}'))
    @example(("POST", "/discover", b'{"text": "x\\udfff", "domain": "math", "requester_id": "a"}'))
    @example(("POST", "/ontology/import", b'{"repo": "gone", "domain": "math", "language": "de"}'))
    def test_answers_below_500(self, unreachable_repo_api, case):
        method, path, body = case
        status, raw = exchange(unreachable_repo_api, method, path, body)
        assert status < 500 or (status, path) == (502, "/ontology/import"), raw
        if status >= 400:
            assert "error" in json.loads(raw)


class TestImportRoute:
    @pytest.fixture()
    def import_api(self, tmp_path, repo_server):
        config = ServerConfig(
            host="127.0.0.1",
            port=0,
            data_dir=tmp_path / "data",
            remote_repos=(RemoteRepoRef("fixture", repo_server),),
        )
        server = make_server(config)
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
        )
        thread.start()
        yield server.server_address[:2]
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_import_then_already_current(self, import_api):
        body = {"repo": "fixture", "domain": "math", "language": "en"}
        status, doc = request(import_api, "POST", "/ontology/import", body)
        assert status == 200
        assert doc["outcome"] == "imported"
        assert (doc["version_before"], doc["version_after"]) == (None, 2)

        status, doc = request(import_api, "POST", "/ontology/import", body)
        assert status == 200
        assert doc["outcome"] == "already_current"

    def test_import_unknown_repo(self, import_api):
        status, doc = request(import_api, "POST", "/ontology/import", {
            "repo": "ghost", "domain": "math", "language": "en",
        })
        assert status == 404
        assert doc["error"] == "UnknownRepo"

    def test_import_missing_portion(self, import_api):
        status, doc = request(import_api, "POST", "/ontology/import", {
            "repo": "fixture", "domain": "math", "language": "xx",
        })
        assert status == 404
        assert doc["error"] == "PortionNotFound"

    @pytest.mark.parametrize("domain, language, error", [
        ("a b", "en", "InvalidIdentifier"),
        ("x/../..", "en", "InvalidIdentifier"),
        ("math", "EN!", "InvalidLanguageTag"),
    ])
    def test_bad_names_answer_400_without_a_fetch(
        self, tmp_path, truncating_repo, domain, language, error
    ):
        url, paths = truncating_repo
        config = ServerConfig(
            host="127.0.0.1", port=0, data_dir=tmp_path / "data",
            remote_repos=(RemoteRepoRef("cut", url),),
        )
        with serving(config) as address:
            status, doc = request(address, "POST", "/ontology/import", {
                "repo": "cut", "domain": domain, "language": language,
            })
        assert (status, doc["error"]) == (400, error)
        assert paths == []


# --- the serving model: parked workers that accept connections themselves ---


@pytest.fixture()
def server(tmp_path):
    """A fresh server on the fixture data, served from a background thread."""
    server = make_server(fixture_config(tmp_path))
    thread = run_in_thread(server)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def workers(server):
    """The live worker threads of `server`."""
    name = f"polyfind-worker-{server.server_port}"
    return [t for t in threading.enumerate() if t.name == name]


def wait_until(predicate, timeout=10.0):
    """Poll `predicate` until it holds; fail once `timeout` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "the server did not reach the expected state"
        time.sleep(0.001)


def parked(server, count=2):
    """Wait until `count` workers wait in accept()."""
    wait_until(lambda: server._waiting == count)


def held_connection_blocks_no_one(address):
    """Hold a kept-alive connection idle while another client is answered."""
    held = http.client.HTTPConnection(*address, timeout=10)
    try:
        held.request("GET", "/health")
        response = held.getresponse()
        response.read()
        assert response.status == 200
        assert request(address, "GET", "/health")[0] == 200
        held.request("GET", "/health")
        assert held.getresponse().status == 200
    finally:
        held.close()


def steady_thread_starts(server, monkeypatch, n=50):
    """The names of the threads started while `server` answers n sequential
    requests, each on a new connection and each sent once the worker that
    served the one before has parked again."""
    address = server.server_address[:2]
    assert request(address, "GET", "/health")[0] == 200  # starts the second worker
    parked(server)
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", counting_start)
        for _ in range(n):
            assert request(address, "GET", "/health")[0] == 200
            parked(server)
    return started


class TestServingModel:
    """No test here depends on timing: each waits for the server's own state
    under a deadline, and none opens more than eight connections at once."""

    def test_steady_sequential_traffic_starts_no_thread(self, server, monkeypatch):
        assert steady_thread_starts(server, monkeypatch) == []
        assert len(workers(server)) <= 2

    def test_an_idle_kept_alive_connection_blocks_no_new_client(self, server):
        held_connection_blocks_no_one(server.server_address[:2])

    def test_eight_held_connections_grow_the_pool_and_it_shrinks_after(self, server):
        address = server.server_address[:2]
        held = [http.client.HTTPConnection(*address, timeout=10) for _ in range(8)]
        try:
            for conn in held:
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            # Each connection took the only parked worker, which started one more.
            assert len(workers(server)) == 9
        finally:
            for conn in held:
                conn.close()
        wait_until(lambda: len(workers(server)) <= 2)
        assert request(address, "GET", "/health")[0] == 200

    def test_no_worker_survives_shutdown_and_close(self, tmp_path):
        server = make_server(fixture_config(tmp_path))
        thread = run_in_thread(server)
        assert request(server.server_address[:2], "GET", "/health")[0] == 200
        parked(server)
        pool = workers(server)
        assert len(pool) == 2
        server.shutdown()
        server.server_close()
        for worker in [thread, *pool]:
            worker.join(timeout=5)
            assert not worker.is_alive()

    def test_an_aborted_accept_leaves_a_worker_accepting(self, server, monkeypatch):
        real_get_request = server.get_request
        faults = []

        def flaky_get_request():
            try:
                fault = faults.pop()
            except IndexError:
                return real_get_request()
            raise fault

        monkeypatch.setattr(server, "get_request", flaky_get_request)
        address = server.server_address[:2]
        assert request(address, "GET", "/health")[0] == 200
        parked(server)
        faults.append(ConnectionAbortedError(errno.ECONNABORTED, "connection aborted"))
        # The worker that serves this request meets the fault when it next accepts.
        assert request(address, "GET", "/health")[0] == 200
        wait_until(lambda: not faults)
        held_connection_blocks_no_one(address)
        assert steady_thread_starts(server, monkeypatch) == []


class TestOneWritePerResponse:
    """Each response leaves in one write, headers and body together: a body
    written after its headers would wait for the client's delayed ACK."""

    def test_every_route_answers_a_kept_alive_client_in_one_write(self, server, monkeypatch):
        address = server.server_address[:2]
        status, doc = request(address, "POST", "/services", DESCRIPTOR_FILES[0].read_bytes())
        assert status == 201
        bound = doc["service_id"]
        writes = []  # per connection, the bytes of each wfile.write call
        real_setup = ApiHandler.setup

        def recording_setup(handler):
            real_setup(handler)
            calls, write = [], handler.wfile.write
            writes.append(calls)
            handler.wfile.write = lambda data: calls.append(bytes(data)) or write(data)

        monkeypatch.setattr(ApiHandler, "setup", recording_setup)
        conn = http.client.HTTPConnection(*address, timeout=10)
        socks, answers = [], []

        def send(method, path, body=None):
            conn.request(method, path, body=body)
            socks.append(conn.sock)
            response = conn.getresponse()
            answers.append((response.status, response.read()))
            return answers[-1][1]

        query = {"text": "square root", "domain": "math", "requester_id": "agent"}
        try:
            send("GET", "/health")
            send("POST", "/discover", json.dumps(query).encode())
            send("POST", "/bind", json.dumps({"service_id": bound, "requester_id": "agent"}).encode())
            published = send("POST", "/services", DESCRIPTOR_FILES[1].read_bytes())
            send("GET", "/portions/math/en")
            send("DELETE", f"/services/{json.loads(published)['service_id']}")
            send("GET", "/nope")  # answered with Connection: close
        finally:
            conn.close()
        assert [status for status, _ in answers] == [200, 200, 200, 201, 200, 200, 404]
        assert all(sock is socks[0] for sock in socks)
        [calls] = writes
        assert len(calls) == len(answers)
        for data, (_, body) in zip(calls, answers):
            assert data.startswith(b"HTTP/1.1 ")
            assert data.endswith(b"\r\n\r\n" + body)


class TestClientLeaves:
    def test_a_broken_pipe_is_no_server_error(self, server, monkeypatch, caplog, capsys):
        real_send_body = ApiHandler._send_body
        faults = [BrokenPipeError(errno.EPIPE, "broken pipe")]

        def failing_send_body(handler, status, body):
            if faults:
                raise faults.pop()
            real_send_body(handler, status, body)

        monkeypatch.setattr(ApiHandler, "_send_body", failing_send_body)
        caplog.set_level(logging.DEBUG, logger="polyfind.httpserver")
        address = server.server_address[:2]
        with pytest.raises(http.client.RemoteDisconnected):  # closed, nothing sent
            request(address, "GET", "/health")
        assert request(address, "GET", "/health")[0] == 200
        messages = [record.getMessage() for record in caplog.records]
        assert not [m for m in messages if "unhandled error" in m]
        assert [m for m in messages if m.endswith("left during GET /health")]
        assert "Exception occurred" not in capsys.readouterr().err
