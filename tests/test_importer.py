import http.server
import json
import shutil
import threading
from contextlib import contextmanager
from functools import partial

import pytest

from polyfind.errors import (
    PortionNotFound,
    RepoUnreachable,
    ValidationFailed,
)
from polyfind.importer import (
    FetchedPortion,
    RemoteRepoRef,
    fetch_portion_docs,
    merge_portion,
)
from polyfind.ontology import TermId, TermRef, empty_store, iter_links, resolve

from conftest import REPO_ROOT, _QuietHandler

SQ = TermId("math#square_root")


@contextmanager
def serve_dir(root):
    handler = partial(_QuietHandler, directory=str(root))
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=lambda: httpd.serve_forever(poll_interval=0.05), daemon=True)
    thread.start()
    try:
        yield RemoteRepoRef("tmp", f"http://127.0.0.1:{httpd.server_address[1]}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join()


def import_portion(repo, domain, language, store):
    """Fetch and merge, the two steps the server takes."""
    return merge_portion(store, fetch_portion_docs(repo, domain, language))


def copy_repo(tmp_path):
    root = tmp_path / "repo"
    shutil.copytree(REPO_ROOT, root)
    return root


class TestImport:
    def test_import_into_empty_store(self, repo_server):
        repo = RemoteRepoRef("fixture", repo_server)
        store, report = import_portion(repo, "math", "fr", empty_store())
        assert report.outcome == "imported"
        assert report.version_before is None
        assert report.version_after == 2
        assert resolve(store, TermRef(SQ, "fr")) is not None
        # No other portion is loaded, so no alignment endpoint resolves yet.
        assert iter_links(store) == []

    def test_alignments_attach_as_portions_arrive(self, repo_server):
        repo = RemoteRepoRef("fixture", repo_server)
        store, _ = import_portion(repo, "math", "fr", empty_store())
        store, _ = import_portion(repo, "math", "en", store)
        assert len(iter_links(store)) == 5
        store, _ = import_portion(repo, "math", "ar", store)
        assert len(iter_links(store)) == 15

    def test_reimport_is_already_current(self, repo_server):
        repo = RemoteRepoRef("fixture", repo_server)
        store, _ = import_portion(repo, "math", "fr", empty_store())
        after, report = import_portion(repo, "math", "fr", store)
        assert report.outcome == "already_current"
        assert after is store

    def test_older_remote_rejected(self, tmp_path, repo_server):
        store, _ = import_portion(RemoteRepoRef("fixture", repo_server), "math", "fr", empty_store())
        root = copy_repo(tmp_path)
        doc = json.loads((root / "portions" / "math.fr.json").read_text())
        doc["version"] = 1
        (root / "portions" / "math.fr.json").write_text(json.dumps(doc, ensure_ascii=False))
        with serve_dir(root) as repo:
            after, report = import_portion(repo, "math", "fr", store)
        assert report.outcome == "rejected"
        assert "older" in report.detail
        assert after is store

    def test_same_version_different_content_rejected(self, tmp_path, repo_server):
        store, _ = import_portion(RemoteRepoRef("fixture", repo_server), "math", "fr", empty_store())
        root = copy_repo(tmp_path)
        doc = json.loads((root / "portions" / "math.fr.json").read_text())
        doc["terms"][0]["alt_labels"].append("autre")
        (root / "portions" / "math.fr.json").write_text(json.dumps(doc, ensure_ascii=False))
        with serve_dir(root) as repo:
            after, report = import_portion(repo, "math", "fr", store)
        assert report.outcome == "rejected"
        assert after is store

    def test_newer_remote_upgrades(self, tmp_path, repo_server):
        store, _ = import_portion(RemoteRepoRef("fixture", repo_server), "math", "fr", empty_store())
        root = copy_repo(tmp_path)
        path = root / "portions" / "math.fr.json"
        doc = json.loads(path.read_text())
        doc["version"] = 3
        doc["terms"][0]["alt_labels"].append("label nouveau")
        path.write_text(json.dumps(doc, ensure_ascii=False))
        with serve_dir(root) as repo:
            after, report = import_portion(repo, "math", "fr", store)
        assert (report.outcome, report.version_before, report.version_after) == ("upgraded", 2, 3)
        portion = after.portions[("math", "fr")]
        assert portion.version == 3

    def test_invalid_remote_portion(self, tmp_path):
        root = copy_repo(tmp_path)
        path = root / "portions" / "math.fr.json"
        doc = json.loads(path.read_text())
        doc["terms"][0]["relations"] = [{"kind": "related", "target": doc["terms"][0]["id"]}]
        path.write_text(json.dumps(doc, ensure_ascii=False))
        store = empty_store()
        with serve_dir(root) as repo:
            with pytest.raises(ValidationFailed):
                import_portion(repo, "math", "fr", store)
        assert store == empty_store()

    @pytest.mark.parametrize("key, value", [("domain", "ma th"), ("language", "FR")])
    def test_bad_domain_or_language_fails_validation(self, key, value):
        doc = json.loads((REPO_ROOT / "portions" / "math.fr.json").read_text())
        doc[key] = value
        fetched = FetchedPortion("tmp", "math", "fr", json.dumps(doc).encode(), None)
        with pytest.raises(ValidationFailed, match=key):
            merge_portion(empty_store(), fetched)

    def test_identity_mismatch(self, tmp_path):
        root = copy_repo(tmp_path)
        shutil.copy(root / "portions" / "math.fr.json", root / "portions" / "math.de.json")
        with serve_dir(root) as repo:
            with pytest.raises(ValidationFailed):
                import_portion(repo, "math", "de", empty_store())

    def test_truncated_body_is_unreachable(self, truncating_repo):
        url, paths = truncating_repo
        with pytest.raises(RepoUnreachable, match="IncompleteRead"):
            fetch_portion_docs(RemoteRepoRef("cut", url), "math", "fr", timeout=5)
        assert paths == ["/portions/math.fr.json"] * 2

    def test_missing_portion(self, repo_server):
        repo = RemoteRepoRef("fixture", repo_server)
        with pytest.raises(PortionNotFound):
            import_portion(repo, "math", "xx", empty_store())

    def test_same_language_remote_link(self, tmp_path):
        root = copy_repo(tmp_path)
        links = {
            "links": [
                {
                    "source": {"term": "math#square_root", "lang": "en"},
                    "target": {"term": "math#operation", "lang": "en"},
                    "relation": "exact",
                    "confidence": 1.0,
                }
            ]
        }
        (root / "alignments" / "math.json").write_text(json.dumps(links))
        with serve_dir(root) as repo:
            with pytest.raises(ValidationFailed):
                import_portion(repo, "math", "en", empty_store())

    def test_same_language_link_between_unknown_terms(self, tmp_path):
        root = copy_repo(tmp_path)
        links = {
            "links": [
                {
                    "source": {"term": "math#nowhere", "lang": "de"},
                    "target": {"term": "math#elsewhere", "lang": "de"},
                    "relation": "exact",
                    "confidence": 1.0,
                }
            ]
        }
        (root / "alignments" / "math.json").write_text(json.dumps(links))
        with serve_dir(root) as repo:
            with pytest.raises(ValidationFailed, match=r"\$\.links\[0\]"):
                import_portion(repo, "math", "en", empty_store())

    def test_malformed_portion_document(self, tmp_path):
        root = copy_repo(tmp_path)
        (root / "portions" / "math.fr.json").write_text("{ truncated")
        with serve_dir(root) as repo:
            with pytest.raises(ValidationFailed):
                import_portion(repo, "math", "fr", empty_store())

    def test_a_long_integer_fails_validation(self, tmp_path):
        root = copy_repo(tmp_path)
        path = root / "portions" / "math.fr.json"
        doc = json.loads(path.read_text("utf-8"))
        path.write_text(json.dumps(doc).replace(f'"version": {doc["version"]}',
                                                '"version": 1' + "0" * 5000))
        with serve_dir(root) as repo:
            with pytest.raises(ValidationFailed, match="not valid JSON"):
                import_portion(repo, "math", "fr", empty_store())

    def test_missing_alignment_file_is_fine(self, tmp_path):
        root = copy_repo(tmp_path)
        (root / "alignments" / "math.json").unlink()
        with serve_dir(root) as repo:
            fetched = fetch_portion_docs(repo, "math", "fr")
            assert fetched.alignment_doc is None
            store, report = merge_portion(empty_store(), fetched)
        assert report.outcome == "imported"
        assert iter_links(store) == []
