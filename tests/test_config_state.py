import json
import os
import re
import threading
from collections.abc import Mapping
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

from polyfind.config import _CONFIG_FIELDS, DATA_DIR_ENV, ServerConfig, load_config
from polyfind.descriptor import parse_descriptor
from polyfind.errors import (
    ConfigError,
    ImportInProgress,
    PortionUnavailable,
    StartupError,
    UnknownRepo,
    UnknownService,
)
from polyfind.discovery import Query
from polyfind.importer import RemoteRepoRef
from polyfind import langdetect, registry, textutil
from polyfind import ontology as onto
from polyfind import state as state_module
from polyfind.ontology import (
    AlignmentLink,
    OntologyStore,
    Term,
    TermId,
    TermRef,
    iter_links,
    load_portion,
)
from polyfind.registry import find
from polyfind.state import AppState, atomic_write_bytes, load_snapshot

from conftest import ALIGNMENT_FILE, DESCRIPTOR_FILES, PORTION_FILES


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), "utf-8")
    return path


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None, env={})
        assert cfg == ServerConfig()
        assert (cfg.host, cfg.port) == ("127.0.0.1", 8080)

    def test_full_file(self, tmp_path):
        path = write_config(tmp_path, {
            "listen": "0.0.0.0:9000",
            "data_dir": "/var/lib/polyfind",
            "profile_dir": "profiles",
            "remote_repos": [{"name": "main", "base_url": "http://repo.example"}],
            "network_timeout": 2.5,
        })
        cfg = load_config(path, env={})
        assert (cfg.host, cfg.port) == ("0.0.0.0", 9000)
        assert str(cfg.data_dir) == "/var/lib/polyfind"
        assert str(cfg.profile_dir) == "profiles"
        assert cfg.remote_repos == (RemoteRepoRef("main", "http://repo.example"),)
        assert cfg.network_timeout == 2.5

    def test_listen_host_defaults_when_blank(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"listen": ":8081"}), env={})
        assert (cfg.host, cfg.port) == ("127.0.0.1", 8081)

    def test_env_overrides_data_dir(self, tmp_path):
        path = write_config(tmp_path, {"data_dir": "from_file"})
        cfg = load_config(path, env={DATA_DIR_ENV: "/from/env"})
        assert str(cfg.data_dir) == "/from/env"
        assert str(load_config(path, env={DATA_DIR_ENV: ""}).data_dir) == "from_file"

    @pytest.mark.parametrize("doc", [
        {"listen": "nocolon"},
        {"listen": "host:abc"},
        {"listen": "host:70000"},
        {"listen": 8080},
        {"mystery": 1},
        {"profile_dir": 7},
        {"remote_repos": [{"name": "a"}]},
        {"remote_repos": [{"name": "a", "base_url": "u", "extra": 1}]},
        {"remote_repos": [
            {"name": "a", "base_url": "http://u"}, {"name": "a", "base_url": "http://v"},
        ]},
        {"expansion_depth": 0},
        {"expansion_depth": True},
        {"expansion_depth": "deep"},
        {"field_weights": {"name": 3, "rating": 1}},
        {"field_weights": {"name": 0}},
        {"field_weights": {"name": True}},
        {"field_weights": [3, 2, 1]},
        {"network_timeout": 0},
        {"network_timeout": "fast"},
        {"network_timeout": False},
        {"remote_repos": 5},
        {"remote_repos": None},
        {"data_dir": 5},
        {"remote_repos": [{"name": "a", "base_url": "repo.example"}]},
        {"remote_repos": [{"name": "a", "base_url": "ftp://repo.example"}]},
        {"remote_repos": [{"name": "a", "base_url": "http://[::1"}]},
        {"remote_repos": [{"name": "a", "base_url": "http:///x"}]},
        {"remote_repos": [{"name": "a", "base_url": "http://a b"}]},
        {"remote_repos": [{"name": "a", "base_url": "http://a\tb"}]},
        {"remote_repos": [{"name": "a", "base_url": "http://h/x y"}]},
        {"remote_repos": [{"name": "a", "base_url": "http://h/\x7f"}]},
        {"remote_repos": [{"name": "a", "base_url": "http://h/é"}]},
        {"remote_repos": [{"name": "a", "base_url": "http://é.example/"}]},
        {"listen": "h:8_0"},
        {"listen": "h:+80"},
        {"listen": "h: 80"},
        {"listen": "h:\uff18\uff10"},
        {"listen": "h:\u0668\u0660"},
        # Config keys of earlier versions, with the values README gave them.
        {"expansion_depth": 1},
        {"field_weights": {"name": 3, "operation": 2, "documentation": 1}},
    ])
    def test_rejected_documents(self, tmp_path, doc):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc), env={})

    def test_readme_example_names_every_key(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        m = re.search(r"A single JSON file.*?```json\n(.*?)```", readme, re.DOTALL)
        doc = json.loads(m.group(1))
        load_config(write_config(tmp_path, doc), env={})
        assert doc.keys() == _CONFIG_FIELDS.keys()

    def test_punycode_host_accepted(self, tmp_path):
        path = write_config(tmp_path, {"remote_repos": [
            {"name": "a", "base_url": "http://xn--e1afmkfd.example/"},
        ]})
        cfg = load_config(path, env={})
        assert cfg.remote_repos == (RemoteRepoRef("a", "http://xn--e1afmkfd.example/"),)

    def test_bad_base_url_names_its_entry(self, tmp_path):
        path = write_config(tmp_path, {"remote_repos": [
            {"name": "a", "base_url": "https://repo.example/tree/"},
            {"name": "b", "base_url": "repo.example"},
        ]})
        with pytest.raises(ConfigError, match=r"^\$\.remote_repos\[1\]\.base_url: 'repo.example'"):
            load_config(path, env={})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "absent.json", env={})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", "utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path, env={})

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", "utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path, env={})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1e10", "86400.5"])
    def test_timeout_a_socket_cannot_take_is_refused(self, tmp_path, text):
        # NaN makes settimeout raise ValueError, and inf or 1e10 OverflowError.
        path = tmp_path / "config.json"
        path.write_text(f'{{"network_timeout": {text}}}', "utf-8")
        with pytest.raises(ConfigError, match="network_timeout must be"):
            load_config(path, env={})

    def test_timeout_ceiling_is_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"network_timeout": 86_400}), env={})
        assert cfg.network_timeout == 86_400.0

    def test_int_timeout_coerced_to_float(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"network_timeout": 3}), env={})
        assert cfg.network_timeout == 3.0
        assert isinstance(cfg.network_timeout, float)


class TestAtomicWrite:
    def test_write_and_overwrite(self, tmp_path):
        target = tmp_path / "nested" / "file.bin"
        atomic_write_bytes(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert list(target.parent.glob("*.tmp")) == []

    def test_interrupted_replace_preserves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"old")

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []


class TestLoadSnapshot:
    def test_empty_directory(self, tmp_path):
        snap = load_snapshot(tmp_path)
        assert snap.ontology.portions == {}
        assert snap.registry.descriptors == {}
        assert snap.registry.last_seq == 0

    def seeded_dir(self, tmp_path):
        portions = tmp_path / "portions"
        portions.mkdir()
        for src in PORTION_FILES:
            (portions / src.name).write_bytes(src.read_bytes())
        services = tmp_path / "services"
        services.mkdir()
        (services / "s-000007.xml").write_bytes(DESCRIPTOR_FILES[1].read_bytes())
        return tmp_path

    def test_loads_portions_and_services(self, tmp_path):
        snap = load_snapshot(self.seeded_dir(tmp_path))
        assert sorted(snap.ontology.portions) == [
            ("math", "ar"), ("math", "en"), ("math", "fr"),
        ]
        assert list(snap.registry.descriptors) == ["s-000007"]
        assert snap.registry.last_seq == 7

    def test_seq_file_wins_when_larger(self, tmp_path):
        root = self.seeded_dir(tmp_path)
        (root / "seq").write_text("41\n", "utf-8")
        assert load_snapshot(root).registry.last_seq == 41

    def test_max_service_id_wins_when_seq_stale(self, tmp_path):
        root = self.seeded_dir(tmp_path)
        (root / "seq").write_text("2\n", "utf-8")
        assert load_snapshot(root).registry.last_seq == 7

    def test_tmp_files_ignored(self, tmp_path):
        root = self.seeded_dir(tmp_path)
        (root / "portions" / "junk.tmp").write_text("{", "utf-8")
        (root / "services" / "partial.tmp").write_text("<", "utf-8")
        load_snapshot(root)

    @pytest.mark.parametrize("relative, content, fragment", [
        ("portions/readme.txt", "hi", "unexpected file"),
        ("portions/math.de.json", "{", "corrupt portion"),
        ("services/readme.txt", "hi", "unexpected file"),
        ("services/s-000009.xml", "<broken", "corrupt service"),
        pytest.param("services/s-000009.xml", DESCRIPTOR_FILES[1].read_text("utf-8").replace(
            "any number", "any\ufffe number"), "corrupt service", id="service-with-U+FFFE"),
        ("seq", "ten", "corrupt seq"),
        ("seq", "²", "corrupt seq"),
        pytest.param("seq", b"\xff\n", "corrupt seq", id="seq-not-utf-8"),
        ("services/s-٠٠٠٠٠٩.xml", "hi", "unexpected file"),
        ("alignments/math.json", "{", "corrupt alignment"),
        ("alignments/readme.txt", "hi", "unexpected file"),
        pytest.param("alignments/math.json", "[" * 100_000 + "]" * 100_000,
                     "corrupt alignment .*nested too deeply", id="alignment-nested-too-deeply"),
        pytest.param("portions/math.de.json", json.dumps({
            "domain": "math", "language": "de", "version": 1, "terms": [{
                "id": "math#a", "preferred_label": "a", "alt_labels": [], "definition": None,
                "relations": [{"kind": "related", "target": "math#a"}],
            }],
        }), r"self-relation\[math#a\]",
            id="portion-with-self-relation"),
    ])
    def test_startup_errors_name_the_file(self, tmp_path, relative, content, fragment):
        root = self.seeded_dir(tmp_path)
        target = root / relative
        target.parent.mkdir(exist_ok=True)
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content, "utf-8")
        with pytest.raises(StartupError, match=fragment) as err:
            load_snapshot(root)
        assert relative.rsplit("/", 1)[-1] in str(err.value)

    def test_stored_whitespace_reads_back_normalized(self, tmp_path):
        # Older serializers stored tab, CR and LF raw; XML 1.0 reads a raw tab
        # or LF in an attribute as a space and a raw CR in text as LF.
        root = self.seeded_dir(tmp_path)
        stored = DESCRIPTOR_FILES[1].read_text("utf-8")
        stored = stored.replace('provider="Acme Math"', 'provider="Acme\tMa\nth"')
        stored = stored.replace("any number", "any\r\nnum\rber")
        (root / "services" / "s-000009.xml").write_bytes(stored.encode("utf-8"))
        loaded = load_snapshot(root).registry.descriptors["s-000009"]
        assert loaded.provider == "Acme Ma th"
        assert loaded.documentation == "Finds the square root of any\nnum\nber."

    def test_one_add_alignment_call_per_alignment_file(self, tmp_path, monkeypatch):
        root = self.seeded_dir(tmp_path)
        (root / "alignments").mkdir()
        (root / "alignments" / "math.json").write_bytes(ALIGNMENT_FILE.read_bytes())
        links = onto.load_alignments(ALIGNMENT_FILE.read_bytes())
        calls = []
        add_alignment = onto.add_alignment

        def counting(store, *batch):
            calls.append(len(batch))
            return add_alignment(store, *batch)

        monkeypatch.setattr(onto, "add_alignment", counting)
        snap = load_snapshot(root)
        assert calls == [len(links)]
        assert len(iter_links(snap.ontology)) == len(links)

    def test_portion_under_wrong_filename(self, tmp_path):
        root = self.seeded_dir(tmp_path)
        moved = root / "portions" / "math.de.json"
        moved.write_bytes(PORTION_FILES[2].read_bytes())
        with pytest.raises(StartupError, match="holds math.fr"):
            load_snapshot(root)


def make_state(tmp_path, **overrides):
    config = ServerConfig(data_dir=tmp_path / "data", **overrides)
    return AppState(config)


def load_fixture_portions():
    return [load_portion(path.read_bytes()) for path in PORTION_FILES]


class TestAppState:
    def test_health_on_fresh_dir(self, tmp_path):
        state = make_state(tmp_path)
        assert state.health() == {"status": "ok", "services": 0, "portions": 0}
        assert (tmp_path / "data" / "seq").read_text("utf-8") == "0\n"

    @pytest.mark.parametrize("make", ["missing", "empty", "script-only"])
    def test_profile_dir_without_a_trigram_profile_stops_start_up(self, tmp_path, make):
        profiles = tmp_path / "profiles"
        if make != "missing":
            profiles.mkdir()
        if make == "script-only":
            (profiles / "ar.txt").write_text("الجذر التربيعي لعدد سالب " * 10, "utf-8")
        with pytest.raises(StartupError, match=re.escape(str(profiles))):
            make_state(tmp_path, profile_dir=profiles)

    def test_publish_persists_and_restart_restores(self, tmp_path):
        state = make_state(tmp_path)
        for portion in load_fixture_portions():
            state.put_portion(portion)
        ids = [
            state.publish_descriptor(path.read_bytes()) for path in DESCRIPTOR_FILES
        ]
        assert ids == ["s-000001", "s-000002", "s-000003"]
        state.bind_service("s-000002", "alice")

        reborn = make_state(tmp_path)
        assert reborn.snapshot().ontology == state.snapshot().ontology
        assert reborn.snapshot().registry.descriptors == state.snapshot().registry.descriptors
        before = find(state.snapshot().registry, ["square", "root"])
        after = find(reborn.snapshot().registry, ["square", "root"])
        assert before == after
        assert reborn.publish_descriptor(DESCRIPTOR_FILES[1].read_bytes()) == "s-000004"

    @pytest.mark.parametrize("damage", ["stale", "deleted"])
    def test_removed_id_not_reissued_after_seq_damage(self, tmp_path, damage):
        # A kill between a publish's service file write and its seq write
        # leaves seq behind the ids on disk.
        state = make_state(tmp_path)
        for path in DESCRIPTOR_FILES:
            state.publish_descriptor(path.read_bytes())
        seq_path = tmp_path / "data" / "seq"
        if damage == "stale":
            seq_path.write_text("2\n", "utf-8")
        else:
            seq_path.unlink()
        make_state(tmp_path).remove_service("s-000003")
        assert seq_path.read_text("utf-8") == "3\n"
        reborn = make_state(tmp_path)
        assert reborn.publish_descriptor(DESCRIPTOR_FILES[1].read_bytes()) == "s-000004"

    @pytest.mark.parametrize("text", ["3", "0003", "41\n"])
    def test_seq_not_behind_is_left_as_it_is(self, tmp_path, text):
        state = make_state(tmp_path)
        for path in DESCRIPTOR_FILES:
            state.publish_descriptor(path.read_bytes())
        seq_path = tmp_path / "data" / "seq"
        seq_path.write_text(text, "utf-8")
        make_state(tmp_path)
        assert seq_path.read_text("utf-8") == text

    def test_remove_service_deletes_file(self, tmp_path):
        state = make_state(tmp_path)
        sid = state.publish_descriptor(DESCRIPTOR_FILES[1].read_bytes())
        path = tmp_path / "data" / "services" / f"{sid}.xml"
        assert path.exists()
        state.remove_service(sid)
        assert not path.exists()
        with pytest.raises(UnknownService):
            state.remove_service(sid)

    def test_bind_writes_nothing(self, tmp_path):
        state = make_state(tmp_path)
        sid = state.publish_descriptor(DESCRIPTOR_FILES[1].read_bytes())
        data = tmp_path / "data"

        def files():
            return {
                str(path.relative_to(data)): path.read_bytes()
                for path in sorted(data.rglob("*")) if path.is_file()
            }

        before = files()
        t1 = state.bind_service(sid, "alice")
        t2 = state.bind_service(sid, "bob")
        assert (t1.requester_id, t2.requester_id) == ("alice", "bob")
        assert t1.ticket_id != t2.ticket_id
        assert files() == before

    def test_find_repo(self, tmp_path):
        repo = RemoteRepoRef("main", "http://127.0.0.1:1")
        state = make_state(tmp_path, remote_repos=(repo,))
        assert state.find_repo("main") is repo
        with pytest.raises(UnknownRepo):
            state.find_repo("other")

    def test_import_persists_portion_and_alignments(self, tmp_path, repo_server):
        state = make_state(
            tmp_path, remote_repos=(RemoteRepoRef("fixture", repo_server),)
        )
        for language in ("ar", "en", "fr"):
            report = state.import_portion("fixture", "math", language)
            assert report.outcome == "imported"
        assert len(list(iter_links(state.snapshot().ontology))) == 15
        assert (tmp_path / "data" / "alignments" / "math.json").exists()

        reborn = make_state(
            tmp_path, remote_repos=(RemoteRepoRef("fixture", repo_server),)
        )
        assert reborn.snapshot().ontology == state.snapshot().ontology
        again = reborn.import_portion("fixture", "math", "en")
        assert again.outcome == "already_current"

    def test_import_in_progress_guard(self, tmp_path, repo_server):
        state = make_state(
            tmp_path, remote_repos=(RemoteRepoRef("fixture", repo_server),)
        )
        state._imports_in_flight[("math", "en")] = threading.Event()
        try:
            with pytest.raises(ImportInProgress):
                state.import_portion("fixture", "math", "en", wait=False)
        finally:
            state._imports_in_flight.pop(("math", "en")).set()

    def test_discover_uses_configured_repos_for_missing_portion(
        self, tmp_path, repo_server
    ):
        from polyfind.discovery import Query

        state = make_state(
            tmp_path, remote_repos=(RemoteRepoRef("fixture", repo_server),)
        )
        for path in DESCRIPTOR_FILES:
            state.publish_descriptor(path.read_bytes())
        response = state.discover(Query("square root", "math", "alice", "en"))
        assert [r.outcome for r in response.imports_triggered] == ["imported"]
        assert ("math", "en") in state.snapshot().ontology.portions
        assert response.results

    @pytest.mark.parametrize("broken", ["down", "truncating"])
    def test_discover_skips_a_broken_repo(self, tmp_path, truncating_repo, broken):
        from polyfind.discovery import Query

        url = "http://127.0.0.1:1" if broken == "down" else truncating_repo[0]
        state = make_state(
            tmp_path, remote_repos=(RemoteRepoRef("main", url),), network_timeout=5
        )
        for path in DESCRIPTOR_FILES:
            state.publish_descriptor(path.read_bytes())
        with pytest.raises(PortionUnavailable):
            state.discover(Query("square root", "math", "alice", "en"))
        assert state.snapshot().ontology.portions == {}


NEGATIVE = TermId("math#negative_number")


def fixture_data_dir(tmp_path):
    """The data directory make_state(tmp_path) uses, holding the three
    fixture portions and the fixture alignment file."""
    data = tmp_path / "data"
    for sub, sources in (("portions", PORTION_FILES), ("alignments", [ALIGNMENT_FILE])):
        (data / sub).mkdir(parents=True)
        for src in sources:
            (data / sub / src.name).write_bytes(src.read_bytes())
    return data


def en_portion(drop_negative_number=False):
    """The en fixture portion one version on, optionally without
    math#negative_number, which two alignment links reach."""
    en = load_portion(PORTION_FILES[1].read_bytes())
    terms = dict(en.terms)
    if drop_negative_number:
        del terms[NEGATIVE]
        number = TermId("math#number")
        terms[number] = replace(terms[number], relations=())
    return replace(en, version=en.version + 1, terms=terms)


def record_writes(monkeypatch):
    written = []

    def recording(path, data):
        written.append(path.name)
        atomic_write_bytes(path, data)

    monkeypatch.setattr(state_module, "atomic_write_bytes", recording)
    return written


class TestAlignmentFiles:
    def test_put_that_prunes_no_link_writes_only_the_portion(self, tmp_path, monkeypatch):
        fixture_data_dir(tmp_path)
        state = make_state(tmp_path)
        written = record_writes(monkeypatch)
        state.put_portion(en_portion())
        assert written == ["math.en.json"]
        assert len(iter_links(state.snapshot().ontology)) == 15

    def test_put_that_prunes_rewrites_the_alignment_file(self, tmp_path):
        data = fixture_data_dir(tmp_path)
        state = make_state(tmp_path)
        state.put_portion(en_portion(drop_negative_number=True))
        stored = onto.load_alignments((data / "alignments" / "math.json").read_bytes())
        assert stored == iter_links(state.snapshot().ontology)
        assert len(stored) == 13
        assert all(TermRef(NEGATIVE, "en") not in (l.source, l.target) for l in stored)
        assert make_state(tmp_path).snapshot().ontology == state.snapshot().ontology

    def test_crash_between_portion_and_alignment_writes(self, tmp_path, monkeypatch, caplog):
        # A kill -9 inside put_portion, after the portion write and before
        # the alignment write, leaves links to a term the portion dropped.
        shrunk = en_portion(drop_negative_number=True)
        crashed = fixture_data_dir(tmp_path / "crashed")
        make_state(tmp_path / "crashed")._persist_portion(shrunk)
        fixture_data_dir(tmp_path / "completed")
        completed = make_state(tmp_path / "completed")
        completed.put_portion(shrunk)

        written = record_writes(monkeypatch)
        with caplog.at_level("WARNING", logger="polyfind.state"):
            recovered = load_snapshot(crashed)
        assert recovered.ontology == completed.snapshot().ontology
        assert written == ["math.json"]
        assert "dropping 2 links" in caplog.text
        assert load_snapshot(crashed).ontology == recovered.ontology
        assert written == ["math.json"]

    def test_unwritable_alignment_file_fails_startup_by_name(self, tmp_path, monkeypatch):
        data = fixture_data_dir(tmp_path)
        make_state(tmp_path)._persist_portion(en_portion(drop_negative_number=True))

        def refusing(path, data):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr(state_module, "atomic_write_bytes", refusing)
        with pytest.raises(StartupError, match="cannot rewrite alignment file .*math.json"):
            load_snapshot(data)


GEO_A = TermId("geo#a")


class TestSeveralAlignmentFiles:
    """A put rewrites or unlinks only the alignment files whose links it
    changed; a restart then loads the store the server holds."""

    @staticmethod
    def data_dir(tmp_path):
        """The fixture data plus a geo.fr portion whose geo#a is linked to
        math#square_root@en, in alignments/geo.json ("geo" < "math")."""
        data = fixture_data_dir(tmp_path)
        geo = onto.add_terms(
            onto.create_portion("geo", "fr"), [Term(GEO_A, "a"), Term(TermId("geo#b"), "b")]
        )
        (data / "portions" / "geo.fr.json").write_bytes(onto.save_portion(geo))
        link = AlignmentLink(
            TermRef(GEO_A, "fr"), TermRef(TermId("math#square_root"), "en"), "close", 0.5
        )
        (data / "alignments" / "geo.json").write_bytes(onto.save_alignments([link]))
        return data

    @staticmethod
    def put_without(state, monkeypatch, key, dropped):
        """Put the held portion of `key` less the term `dropped`, loaded over
        the held one as the server loads a put; returns the files written and
        how often the full structural check ran."""
        held = state.snapshot().ontology.portions[key]
        doc = onto.portion_to_dict(held)
        doc["terms"] = [t for t in doc["terms"] if t["id"] != str(dropped)]
        for term in doc["terms"]:
            term["relations"] = [r for r in term["relations"] if r["target"] != str(dropped)]
        doc["version"] += 1
        checks = []
        validate = onto.validate_portion
        with monkeypatch.context() as patched:
            patched.setattr(onto, "validate_portion", lambda p: checks.append(1) or validate(p))
            portion = load_portion(json.dumps(doc).encode(), base=held)
        written = record_writes(monkeypatch)
        state.put_portion(portion)
        return written, len(checks)

    def test_put_dropping_a_files_last_link_unlinks_it(self, tmp_path, monkeypatch):
        data = self.data_dir(tmp_path)
        math_file = (data / "alignments" / "math.json").read_bytes()
        state = make_state(tmp_path)
        assert len(iter_links(state.snapshot().ontology)) == 16
        written, checks = self.put_without(state, monkeypatch, ("geo", "fr"), GEO_A)
        assert checks == 1  # a dropped term takes the full check
        assert written == ["geo.fr.json"]
        assert not (data / "alignments" / "geo.json").exists()
        assert (data / "alignments" / "math.json").read_bytes() == math_file
        assert len(iter_links(state.snapshot().ontology)) == 15
        assert load_snapshot(data).ontology == state.snapshot().ontology

    def test_put_skips_the_unchanged_file_among_several(self, tmp_path, monkeypatch):
        data = self.data_dir(tmp_path)
        geo_file = (data / "alignments" / "geo.json").read_bytes()
        state = make_state(tmp_path)
        written, _ = self.put_without(state, monkeypatch, ("math", "en"), NEGATIVE)
        assert written == ["math.en.json", "math.json"]
        assert (data / "alignments" / "geo.json").read_bytes() == geo_file
        links = iter_links(state.snapshot().ontology)
        assert len(links) == 14
        assert onto.load_alignments((data / "alignments" / "math.json").read_bytes()) == [
            link for link in links if link.source.term.domain == "math"
        ]
        assert load_snapshot(data).ontology == state.snapshot().ontology


def discover_counting_normalize(monkeypatch, state, query):
    """(normalize_text calls, response) of one discover, counted through the
    module globals of every module that calls normalize_text."""
    calls = [0]
    original = textutil.normalize_text

    def counted(text):
        calls[0] += 1
        return original(text)

    with monkeypatch.context() as patched:
        for module in (textutil, onto, registry, langdetect):
            patched.setattr(module, "normalize_text", counted)
        response = state.discover(query)
    return calls[0], response


class TestWriterBuildsIndexes:
    """A put or an import publishes a snapshot whose indexes are built, so
    the first discover after it does no more work than the next one."""

    QUERY = Query("square root", "math", "alice", "en")

    def assert_indexes_built(self, state, monkeypatch):
        store = state.snapshot().ontology
        assert "label_index" in vars(store.portions[("math", "en")])
        assert all("term_tokens" in vars(p) for p in store.portions.values())
        assert "adjacency" in vars(store)
        first = discover_counting_normalize(monkeypatch, state, self.QUERY)
        assert first[1].results
        assert first == discover_counting_normalize(monkeypatch, state, self.QUERY)

    @pytest.mark.parametrize("prune", [False, True], ids=["prunes-no-link", "prunes-links"])
    def test_put(self, tmp_path, monkeypatch, prune):
        fixture_data_dir(tmp_path)
        state = make_state(tmp_path)
        for path in DESCRIPTOR_FILES:
            state.publish_descriptor(path.read_bytes())
        state.put_portion(en_portion(drop_negative_number=prune))
        assert len(iter_links(state.snapshot().ontology)) == (13 if prune else 15)
        self.assert_indexes_built(state, monkeypatch)

    def test_import(self, tmp_path, monkeypatch, repo_server):
        state = make_state(tmp_path, remote_repos=(RemoteRepoRef("fixture", repo_server),))
        for path in DESCRIPTOR_FILES:
            state.publish_descriptor(path.read_bytes())
        assert state.import_portion("fixture", "math", "en").outcome == "imported"
        self.assert_indexes_built(state, monkeypatch)

    def test_put_writes_compact_canonical_json(self, tmp_path):
        state = make_state(tmp_path)
        portion = en_portion()
        state.put_portion(portion)
        stored = (tmp_path / "data" / "portions" / "math.en.json").read_bytes()
        assert stored == onto.save_portion(portion)
        assert b"\n " not in stored


class CountedLinks(Mapping):
    """A store's alignment map that counts the walks over its links."""

    def __init__(self, links):
        self.links = dict(links)
        self.walks = 0

    def __getitem__(self, pair):
        return self.links[pair]

    def __len__(self):
        return len(self.links)

    def __iter__(self):
        self.walks += 1
        return iter(self.links)


class TestPutCost:
    """What a put pays, counted rather than timed: the terms it encodes and
    whether set_portion walks the alignment links."""

    @staticmethod
    def one_edit(state):
        """The held en portion with one alt label more, laid out as GET
        /portions sends it and loaded over it as the server loads a put."""
        held = state.snapshot().ontology.portions[("math", "en")]
        doc = onto.portion_to_dict(held)
        doc["terms"][0]["alt_labels"].append("radix")
        doc["version"] += 1
        return load_portion(json.dumps(doc, ensure_ascii=False).encode(), base=held)

    @staticmethod
    def count_encodings(monkeypatch):
        """The ids of the terms whose canonical text is built, in order."""
        encoded = []
        build = Term.canonical_text.func
        counted = cached_property(lambda term: encoded.append(term.id) or build(term))
        counted.__set_name__(Term, "canonical_text")
        monkeypatch.setattr(Term, "canonical_text", counted)
        return encoded

    def test_a_one_edit_put_encodes_one_term(self, tmp_path, monkeypatch):
        fixture_data_dir(tmp_path)
        state = make_state(tmp_path)
        encoded = self.count_encodings(monkeypatch)
        first = self.one_edit(state)
        state.put_portion(first)
        # Start-up encoded nothing: the load encodes each held term, in id
        # order, to match the body against, and the put the edited term.
        edited = sorted(first.terms, key=str)[0]
        assert encoded == [*sorted(first.terms, key=str), edited]
        encoded.clear()
        second = self.one_edit(state)
        state.put_portion(second)
        assert encoded == [edited]
        monkeypatch.undo()
        stored = (tmp_path / "data" / "portions" / "math.en.json").read_bytes()
        reference = json.dumps(onto.portion_to_dict(second), ensure_ascii=False) + "\n"
        assert stored == reference.encode()

    def test_set_portion_walks_no_link_unless_a_term_is_dropped(self, tmp_path):
        fixture_data_dir(tmp_path)
        held = make_state(tmp_path).snapshot().ontology
        links = CountedLinks(held.alignments)
        store = OntologyStore(held.portions, links)
        kept = onto.set_portion(store, en_portion())
        assert links.walks == 0
        assert kept.alignments is links
        pruned = onto.set_portion(store, en_portion(drop_negative_number=True))
        assert links.walks > 0
        assert len(pruned.alignments) == 13
        assert all(TermRef(NEGATIVE, "en") not in pair for pair in pruned.alignments)
