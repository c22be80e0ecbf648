import http.server
import json
import os
import socket
import sys
import types

import pytest

from polyfind.cli import main
from polyfind.config import ServerConfig
from polyfind.httpserver import make_server
from polyfind.importer import RemoteRepoRef
from polyfind.ontology import load_alignments, load_portion

from conftest import (
    ALIGNMENT_FILE, DESCRIPTOR_FILES, HELDOUT_DIR, PORTION_FILES, _serve_repo, run_in_thread,
)

AR_TEXT = "الجذر التربيعي"


@pytest.fixture(scope="module")
def server_url(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("cli") / "data"
    (data_dir / "portions").mkdir(parents=True)
    (data_dir / "alignments").mkdir()
    (data_dir / "services").mkdir()
    for path in PORTION_FILES:
        (data_dir / "portions" / path.name).write_bytes(path.read_bytes())
    (data_dir / "alignments" / ALIGNMENT_FILE.name).write_bytes(
        ALIGNMENT_FILE.read_bytes()
    )
    for i, path in enumerate(DESCRIPTOR_FILES, start=1):
        (data_dir / "services" / f"s-{i:06d}.xml").write_bytes(path.read_bytes())
    server = make_server(ServerConfig(host="127.0.0.1", port=0, data_dir=data_dir))
    thread = run_in_thread(server)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestDetectCommand:
    def test_arabic_script(self, capsys):
        assert main(["detect", AR_TEXT]) == 0
        assert capsys.readouterr().out == "ar 1.000 script\n"

    def test_english_trigram(self, capsys):
        code = main(["detect", "the quick brown fox jumps over the lazy dog"])
        assert code == 0
        lang, confidence, method = capsys.readouterr().out.split()
        assert (lang, method) == ("en", "trigram")
        assert 0.0 < float(confidence) <= 1.0

    def test_custom_profile_directory(self, capsys):
        code = main([
            "detect", "racine carrée d'un nombre négatif",
            "--profiles", str(HELDOUT_DIR),
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("fr ")

    def test_missing_profile_directory_fails(self, tmp_path, capsys):
        assert main(["detect", "plain words", "--profiles", str(tmp_path / "absent")]) == 1
        err = capsys.readouterr().err
        assert "error: NoProfiles" in err and "does not exist" in err

    def test_empty_text_fails(self, capsys):
        assert main(["detect", "   "]) == 1
        assert "error: EmptyInput" in capsys.readouterr().err


class TestOntoEditor:
    def test_new_add_show_validate_flow(self, tmp_path, capsys):
        target = str(tmp_path / "geo.en.json")
        assert main(["onto", "new", target, "--domain", "geo", "--lang", "en"]) == 0
        assert "created" in capsys.readouterr().out
        assert load_portion((tmp_path / "geo.en.json").read_bytes()).version == 1

        assert main(["onto", "new", target, "--domain", "geo", "--lang", "en"]) == 1
        assert "already exists" in capsys.readouterr().err

        assert main([
            "onto", "add-term", target, "--id", "geo#river", "--label", "river",
        ]) == 0
        assert main([
            "onto", "add-term", target, "--id", "geo#creek", "--label", "creek",
            "--alt", "brook", "--relation", "broader:geo#river",
            "--definition", "a small stream",
        ]) == 0
        capsys.readouterr()

        assert main(["onto", "show", target]) == 0
        out = capsys.readouterr().out
        assert "geo.en v3, 2 terms" in out
        assert "geo#creek: creek (brook)" in out
        assert "broader -> geo#river" in out
        assert "narrower -> geo#creek" in out

        assert main(["onto", "validate", target]) == 0
        assert capsys.readouterr().out == f"{target}: ok\n"

    def test_add_label_and_noop(self, tmp_path, capsys):
        target = str(tmp_path / "p.json")
        main(["onto", "new", target, "--domain", "geo", "--lang", "en"])
        main(["onto", "add-term", target, "--id", "geo#river", "--label", "river"])
        capsys.readouterr()
        assert main([
            "onto", "add-label", target, "--id", "geo#river", "--label", "stream",
        ]) == 0
        assert "labeled geo#river" in capsys.readouterr().out
        assert main([
            "onto", "add-label", target, "--id", "geo#river", "--label", "STREAM",
        ]) == 0
        assert "already carries" in capsys.readouterr().out

    def test_duplicate_term_rejected(self, tmp_path, capsys):
        target = str(tmp_path / "p.json")
        main(["onto", "new", target, "--domain", "geo", "--lang", "en"])
        main(["onto", "add-term", target, "--id", "geo#river", "--label", "river"])
        capsys.readouterr()
        assert main([
            "onto", "add-term", target, "--id", "geo#river", "--label", "again",
        ]) == 1
        assert "error: DuplicateId" in capsys.readouterr().err

    def test_bad_relation_syntax(self, tmp_path, capsys):
        target = str(tmp_path / "p.json")
        main(["onto", "new", target, "--domain", "geo", "--lang", "en"])
        capsys.readouterr()
        assert main([
            "onto", "add-term", target, "--id", "geo#a", "--label", "a",
            "--relation", "sideways:geo#b",
        ]) == 1
        assert "InvariantViolation: unknown relation kind 'sideways'" in capsys.readouterr().err
        assert main([
            "onto", "add-term", target, "--id", "geo#a", "--label", "a", "--relation", "geo#b",
        ]) == 1
        assert "must look like kind:domain#local" in capsys.readouterr().err

    def test_validate_reports_cycle(self, tmp_path, capsys):
        def term(local, broader):
            return {
                "id": f"geo#{local}", "preferred_label": local, "alt_labels": [],
                "definition": None, "relations": [{"kind": "broader", "target": broader}],
            }

        target = tmp_path / "cycle.json"
        target.write_text(json.dumps({
            "domain": "geo", "language": "en", "version": 3,
            "terms": [term("a", "geo#b"), term("b", "geo#a")],
        }), "utf-8")
        assert main(["onto", "validate", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: InvariantViolation: portion is structurally invalid:" in captured.err
        assert "broader-cycle[geo#a, geo#b]" in captured.err

    def test_add_term_refuses_an_unsound_result(self, tmp_path, capsys):
        target = tmp_path / "geo.en.json"
        main(["onto", "new", str(target), "--domain", "geo", "--lang", "en"])
        before = target.read_bytes()
        capsys.readouterr()
        assert main([
            "onto", "add-term", str(target), "--id", "geo#a", "--label", "a",
            "--relation", "broader:geo#a",
        ]) == 1
        assert "self-relation[geo#a]" in capsys.readouterr().err
        assert target.read_bytes() == before

    @pytest.mark.parametrize("command", [
        ["add-label", "--id", "geo#river", "--label", "stream"],
        ["align", "--source", "geo#river@en", "--target", "geo#fleuve@fr"],
    ])
    def test_interrupted_write_leaves_the_file_whole(self, tmp_path, monkeypatch, command):
        target = tmp_path / "geo.en.json"
        main(["onto", "new", str(target), "--domain", "geo", "--lang", "en"])
        main(["onto", "add-term", str(target), "--id", "geo#river", "--label", "river"])
        if command[0] == "align":
            target = tmp_path / "links.json"
            main(["onto", "align", str(target),
                  "--source", "geo#lake@en", "--target", "geo#lac@fr"])
        before = target.read_bytes()

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed before the rename"):
            main(["onto", command[0], str(target), *command[1:]])
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_show_missing_file(self, tmp_path, capsys):
        assert main(["onto", "show", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_align_file_round_trip(self, tmp_path, capsys):
        target = tmp_path / "links.json"
        base = [
            "onto", "align", str(target),
            "--source", "geo#river@en", "--target", "geo#fleuve@fr",
        ]
        assert main(base) == 0
        assert "aligned geo#river@en exact geo#fleuve@fr (1.0)" in capsys.readouterr().out
        assert len(load_alignments(target.read_bytes())) == 1

        assert main(base + ["--relation", "close", "--confidence", "0.7"]) == 0
        links = load_alignments(target.read_bytes())
        assert len(links) == 1
        assert (links[0].relation, links[0].confidence) == ("close", 0.7)

    def test_align_same_language_rejected(self, tmp_path, capsys):
        assert main([
            "onto", "align", str(tmp_path / "links.json"),
            "--source", "geo#river@en", "--target", "geo#stream@en",
        ]) == 1
        assert "error: SameLanguage" in capsys.readouterr().err


class TestClientCommands:
    def test_publish_prints_id(self, server_url, tmp_path, capsys):
        assert main([
            "publish", str(DESCRIPTOR_FILES[1]), "--server", server_url,
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("s-")

    def test_publish_missing_file(self, server_url, tmp_path, capsys):
        assert main([
            "publish", str(tmp_path / "nope.xml"), "--server", server_url,
        ]) == 1

    def test_discover_prints_table(self, server_url, capsys):
        assert main([
            "discover", "--domain", "math", "--server", server_url,
            AR_TEXT.split()[0], AR_TEXT.split()[1],
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("rank")
        assert {"s-000001", "s-000002", "s-000003"} <= {
            line.split()[1] for line in out.splitlines()[1:]
        }
        assert AR_TEXT in out

    def test_discover_select_binds(self, server_url, capsys):
        assert main([
            "discover", "--domain", "math", "--server", server_url,
            "--select", "1", "--requester", "alice", "square", "root",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("t-")

    def test_discover_select_out_of_range(self, server_url, capsys):
        assert main([
            "discover", "--domain", "math", "--server", server_url,
            "--select", "99", "square", "root",
        ]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_discover_no_match(self, server_url, capsys):
        assert main([
            "discover", "--domain", "math", "--server", server_url,
            "--lang", "en", "banana",
        ]) == 0
        assert capsys.readouterr().out == "no services found\n"

    def test_discover_interactive_selection(self, server_url, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(isatty=lambda: True))
        monkeypatch.setattr("builtins.input", lambda prompt: "1")
        assert main([
            "discover", "--domain", "math", "--server", server_url, "square",
        ]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("t-")

    def test_discover_interactive_skip(self, server_url, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(isatty=lambda: True))
        monkeypatch.setattr("builtins.input", lambda prompt: "")
        assert main([
            "discover", "--domain", "math", "--server", server_url, "square",
        ]) == 0
        assert not capsys.readouterr().out.splitlines()[-1].startswith("t-")

    def test_discover_interactive_not_a_number(self, server_url, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(isatty=lambda: True))
        for answer in ("first", "²"):
            monkeypatch.setattr("builtins.input", lambda prompt: answer)
            assert main([
                "discover", "--domain", "math", "--server", server_url, "square",
            ]) == 1
            assert "is not a number" in capsys.readouterr().err

    def test_bind_prints_ticket_and_endpoint(self, server_url, capsys):
        assert main(["bind", "s-000002", "--server", server_url]) == 0
        ticket_id, endpoint = capsys.readouterr().out.split()
        assert ticket_id.startswith("t-")
        assert endpoint == "https://math.example.com/sqrt"

    def test_bind_unknown_service(self, server_url, capsys):
        assert main(["bind", "s-424242", "--server", server_url]) == 1
        assert "UnknownService" in capsys.readouterr().err

    def test_unreachable_server(self, capsys):
        assert main([
            "bind", "s-000001", "--server", "http://127.0.0.1:1",
        ]) == 1
        assert "cannot reach server" in capsys.readouterr().err


class _NotJsonHandler(http.server.BaseHTTPRequestHandler):
    """Answers every request 200 with the server's `body`."""

    def do_POST(self):
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.server.body)))
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, fmt, *args):
        pass


@pytest.mark.parametrize("body", [b"<html>", b"\xff\xfe{}"], ids=["not-json", "not-utf-8"])
def test_a_2xx_body_that_is_not_utf8_json_is_a_cli_error(body, capsys):
    with _serve_repo(_NotJsonHandler) as (url, httpd):
        httpd.body = body
        assert main(["bind", "s-000001", "--server", url]) == 1
    assert capsys.readouterr().err == (
        f"error: server at {url} answered with a body that is not UTF-8 JSON\n"
    )


class _BadGatewayHandler(http.server.BaseHTTPRequestHandler):
    """Answers every request as a proxy does whose upstream is down."""

    def do_POST(self):
        body = b"<html><body>502 Bad Gateway</body></html>"
        self.send_response(502)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


def test_an_error_body_that_is_not_json_is_a_cli_error(capsys):
    with _serve_repo(_BadGatewayHandler) as (url, _):
        assert main(["bind", "s-000001", "--server", url]) == 1
    assert capsys.readouterr().err == "error: HTTP 502: Bad Gateway\n"


class TestImportCommand:
    @pytest.fixture()
    def import_server_url(self, tmp_path, repo_server):
        import threading

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
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_import_and_repeat(self, import_server_url, capsys):
        args = [
            "onto", "import", "--repo", "fixture", "--domain", "math",
            "--lang", "en", "--server", import_server_url,
        ]
        assert main(args) == 0
        assert capsys.readouterr().out == "imported: math.en v- -> v2\n"
        assert main(args) == 0
        assert capsys.readouterr().out == "already_current: math.en v2 -> v2\n"

    def test_import_unknown_repo(self, import_server_url, capsys):
        assert main([
            "onto", "import", "--repo", "ghost", "--domain", "math",
            "--lang", "en", "--server", import_server_url,
        ]) == 1
        assert "UnknownRepo" in capsys.readouterr().err


class TestUsageAndServe:
    @pytest.mark.parametrize("argv", [
        [],
        ["discover"],
        ["nope"],
        ["onto"],
        ["detect"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "multilingual service discovery" in capsys.readouterr().out

    def test_serve_with_bad_config(self, tmp_path, capsys):
        assert main(["serve", "--config", str(tmp_path / "absent.json")]) == 1
        assert "error: ConfigError" in capsys.readouterr().err

    def test_serve_on_a_busy_port_is_a_startup_error(self, tmp_path, capsys):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            config = tmp_path / "config.json"
            config.write_text(json.dumps(
                {"listen": f"127.0.0.1:{port}", "data_dir": str(tmp_path / "data")}
            ))
            assert main(["serve", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: StartupError: cannot listen on 127.0.0.1:{port}: ")
        assert "Traceback" not in err

    def test_serve_with_a_file_as_data_dir_is_a_startup_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.write_text("not a directory")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"listen": "127.0.0.1:0", "data_dir": str(data_dir)}))
        assert main(["serve", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: StartupError: cannot create data_dir {data_dir}: ")
        assert "Traceback" not in err
