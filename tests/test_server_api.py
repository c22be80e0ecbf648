import http.client
import json
import threading
from contextlib import contextmanager

import pytest

from polyfind.config import ServerConfig
from polyfind.httpserver import ApiServer, make_server
from polyfind.importer import RemoteRepoRef
from polyfind.ontology import (
    Relation,
    Term,
    TermId,
    add_terms,
    create_portion,
    save_portion,
)

from conftest import ALIGNMENT_FILE, DESCRIPTOR_FILES, PORTION_FILES, run_in_thread

AR_TEXT = "الجذر التربيعي"

# Every route that reads a request body goes through the same size and
# Content-Length checks.
BODY_ROUTES = pytest.mark.parametrize("method, path", [
    ("POST", "/services"),
    ("POST", "/discover"),
    ("PUT", "/portions/math/en"),
], ids=["publish", "discover", "put_portion"])


def request(address, method, path, body=None, content_length=None):
    """One HTTP exchange; returns (status, decoded JSON or None)."""
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
        raw = response.read()
        doc = json.loads(raw.decode("utf-8")) if raw else None
        return response.status, doc
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


class TestServices:
    def test_get_seeded_service(self, api):
        status, doc = request(api, "GET", "/services/s-000002")
        assert status == 200
        assert doc["service_id"] == "s-000002"
        assert doc["name"] == "SquareRootService"
        assert doc["language"] == "en"
        assert doc["endpoint"] == "https://math.example.com/sqrt"
        assert doc["operations"]

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
        Term(TermId(domain, "wurzel"), "wurzel"),
        Term(
            TermId(domain, "quadratwurzel"),
            "quadratwurzel",
            relations=(Relation("broader", TermId(domain, "wurzel")),),
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
