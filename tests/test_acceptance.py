"""End-to-end gate: one test per shipping criterion, pinned tolerances.

The terminal summary hook in conftest prints one PASS/FAIL line per
criterion; the test names carry the criterion number.
"""

import http.client
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import polyfind
from polyfind.config import ServerConfig
from polyfind.descriptor import parse_descriptor, serialize_descriptor
from polyfind.discovery import Query, discover
from polyfind.errors import EmptyQuery, PolyfindError
from polyfind.httpserver import make_server
from polyfind.importer import RemoteRepoRef
from polyfind.langdetect import detect
from polyfind.mapping import translate
from polyfind.registry import RegistryStore, find, publish
from polyfind.state import AppState

from conftest import (
    ALIGNMENT_FILE,
    DESCRIPTOR_FILES,
    HELDOUT_DIR,
    PORTION_FILES,
    build_fixture_registry,
    load_fixture_ontology,
    oracle_find,
    oracle_translate,
    random_alignment_store,
    random_descriptor,
    random_query,
)

AR_QUERY = "الجذر التربيعي"
EN_QUERY = "square root"
FR_QUERY = "racine carrée"


def seed_data_dir(data_dir):
    (data_dir / "portions").mkdir(parents=True)
    (data_dir / "alignments").mkdir()
    for path in PORTION_FILES:
        (data_dir / "portions" / path.name).write_bytes(path.read_bytes())
    (data_dir / "alignments" / ALIGNMENT_FILE.name).write_bytes(
        ALIGNMENT_FILE.read_bytes()
    )


def http_call(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        if isinstance(body, dict):
            body = json.dumps(body).encode("utf-8")
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw.decode("utf-8")) if raw else None
    finally:
        conn.close()


# --- criteria 1-3: fixture pipeline ---


def test_c01_case_study_reproduction(fixture_ontology, fixture_registry, profiles):
    store, ids = fixture_registry
    query = Query(AR_QUERY, "math", "alice")
    started = time.perf_counter()
    response = discover(query, fixture_ontology, store, profiles)
    elapsed = time.perf_counter() - started

    assert elapsed < 1.0
    assert response.detected.language == "ar"
    assert {e.service_id for e in response.results} == set(ids)
    # deterministic order: repeated runs give the identical response
    assert [e.service_id for e in response.results] == [ids[1], ids[0], ids[2]]
    assert discover(query, fixture_ontology, store, profiles) == response


def test_c02_language_indifference(fixture_ontology, fixture_registry, profiles):
    store, ids = fixture_registry
    result_sets = []
    for text in (AR_QUERY, EN_QUERY, FR_QUERY):
        response = discover(Query(text, "math", "alice"), fixture_ontology, store, profiles)
        result_sets.append(frozenset(e.service_id for e in response.results))
    assert result_sets[0] == result_sets[1] == result_sets[2] == frozenset(ids)


def test_c03_pivot_translation(fixture_ontology, fixture_registry, profiles):
    store, ids = fixture_registry
    fr_id = ids[2]
    pivot_store = load_fixture_ontology(
        confidence_by_pair={
            frozenset({"ar", "en"}): 0.9,
            frozenset({"en", "fr"}): 0.8,
        },
        skip_pairs=frozenset({frozenset({"ar", "fr"})}),
    )
    query = Query(AR_QUERY, "math", "alice")
    direct = discover(query, fixture_ontology, store, profiles)
    pivoted = discover(query, pivot_store, store, profiles)

    assert fr_id in {e.service_id for e in pivoted.results}
    direct_score = next(e.score for e in direct.results if e.service_id == fr_id)
    pivot_score = next(e.score for e in pivoted.results if e.service_id == fr_id)
    assert math.isclose(pivot_score, direct_score * 0.72, rel_tol=1e-9)


# --- criterion 4: a missing portion is fetched during discovery ---


def test_c04_missing_portion_import(tmp_path, repo_server):
    config = ServerConfig(
        data_dir=tmp_path / "data",
        remote_repos=(RemoteRepoRef("fixture", repo_server),),
    )
    state = AppState(config)
    fr_id = None
    for path in DESCRIPTOR_FILES:
        sid = state.publish_descriptor(path.read_bytes())
        if path.name.endswith("fr.xml"):
            fr_id = sid
    assert ("math", "fr") not in state.snapshot().ontology.portions

    response = state.discover(Query(FR_QUERY, "math", "alice", "fr"))

    assert [r.outcome for r in response.imports_triggered] == ["imported"]
    assert response.imports_triggered[0].language == "fr"
    assert ("math", "fr") in state.snapshot().ontology.portions
    assert fr_id in {e.service_id for e in response.results}


# --- criterion 5: search agrees with a brute-force rescoring oracle ---


def test_c05_registry_matches_bruteforce_oracle():
    rng = random.Random(20260814)
    started = time.perf_counter()
    comparisons = 0
    for _ in range(200):
        store = RegistryStore()
        for _ in range(rng.randint(0, 20)):
            store, _ = publish(store, random_descriptor(rng))
        for _ in range(3):
            language = rng.choice([None, "ar", "en", "fr", "de"])
            query = random_query(rng)
            try:
                got = [
                    (hit.service_id, hit.score)
                    for hit in find(store, query, language=language)
                ]
            except EmptyQuery:
                continue
            assert got == oracle_find(store.descriptors, query, language=language)
            comparisons += 1
    elapsed = time.perf_counter() - started
    assert comparisons > 500
    assert elapsed < 10.0


# --- criterion 6: translation agrees with exhaustive path enumeration ---


def test_c06_translation_matches_exhaustive_oracle():
    rng = random.Random(4460)
    comparisons = 0
    for _ in range(200):
        store, langs, refs = random_alignment_store(rng)
        for _ in range(10):
            ref = rng.choice(refs)
            target = rng.choice([lang for lang in langs if lang != ref.lang])
            assert translate(ref, target, store) == oracle_translate(store, ref, target)
            comparisons += 1
    assert comparisons == 2000


# --- criterion 7: canonical round-trip plus a 10k-input fuzz run ---


def mutated_document(rng, raw):
    data = bytearray(raw)
    for _ in range(rng.randint(1, 8)):
        if not data:
            data.extend(rng.randbytes(8))
            continue
        start = rng.randrange(len(data))
        end = min(len(data), start + rng.randint(1, 30))
        op = rng.randrange(4)
        if op == 0:
            data[start:end] = rng.randbytes(rng.randint(0, 20))
        elif op == 1:
            del data[start:end]
        elif op == 2:
            data[start:start] = data[start:end]
        else:
            data[start] ^= 1 << rng.randrange(8)
    return bytes(data[:4096])


def fuzz_input(rng, fixtures):
    kind = rng.random()
    if kind < 0.45:
        return mutated_document(rng, rng.choice(fixtures))
    if kind < 0.65:
        return rng.randbytes(rng.randint(0, 300))
    if kind < 0.85:
        text = "".join(chr(rng.randint(32, 0x2FF)) for _ in range(rng.randint(0, 200)))
        return text.encode("utf-8")
    if kind < 0.95:
        depth = rng.randint(1, 60)
        return (b"<service>" + b"<a>" * depth)[:4096]
    soup = "".join(
        rng.choice(["<", ">", "&", '"', "'", "=", "/", "name", "op", " ", "&amp;", "&#x41;"])
        for _ in range(rng.randint(1, 120))
    )
    return soup.encode("utf-8")


def test_c07_parser_round_trip_and_fuzz():
    fixtures = [path.read_bytes() for path in DESCRIPTOR_FILES]
    for raw in fixtures:
        assert serialize_descriptor(parse_descriptor(raw)) == raw

    rng = random.Random(7)
    worst = 0.0
    for _ in range(10_000):
        data = fuzz_input(rng, fixtures)
        started = time.perf_counter()
        try:
            parse_descriptor(data)
        except PolyfindError:
            pass
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert elapsed < 5.0
    assert worst < 5.0


# --- criterion 8: held-out detection accuracy ---


def test_c08_detector_heldout_accuracy(profiles):
    accuracy = {}
    for lang in ("ar", "en", "fr"):
        lines = [
            line
            for line in (HELDOUT_DIR / f"{lang}.txt").read_text("utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) == 100
        results = [detect(line, profiles) for line in lines]
        correct = sum(1 for r in results if r.language == lang)
        accuracy[lang] = correct / len(lines)
        if lang == "ar":
            assert all(r.method == "script" for r in results)
            assert accuracy["ar"] == 1.0
    assert accuracy["en"] >= 0.95
    assert accuracy["fr"] >= 0.95


# --- criterion 9: durability across kill -9 and interrupted writes ---


SERVER_START_TIMEOUT = 10.0


def start_server_process(config_path, cwd):
    """Run `python -m polyfind serve` in `cwd` and return (process, port).

    The child imports the same polyfind copy as this test: the directory
    holding the imported package goes first on its PYTHONPATH, because a
    relative entry such as `src` would resolve against `cwd`. If the banner
    does not arrive within SERVER_START_TIMEOUT, the child is reaped (killed
    if still running) and the test fails with everything it printed.
    """
    env = dict(os.environ)
    env.pop("MOS_DATA_DIR", None)
    package_root = str(Path(polyfind.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyfind", "serve", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=cwd,
        env=env,
    )
    output = []
    first_line = threading.Event()

    def drain():
        # keeps reading after the banner so the server never blocks on a full pipe
        with proc.stdout:
            for line in proc.stdout:
                output.append(line)
                first_line.set()
        first_line.set()

    deadline = time.monotonic() + SERVER_START_TIMEOUT
    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    first_line.wait(SERVER_START_TIMEOUT)
    banner = output[0].strip() if output else ""
    if not banner.startswith("listening on http://"):
        try:
            # a crashing child gets the rest of the deadline to finish its traceback
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        reader.join(timeout=10)
        pytest.fail(
            f"server did not start (exit code {proc.returncode}); "
            f"output:\n{''.join(output)}"
        )
    return proc, int(banner.rsplit(":", 1)[-1])


def observe(port, service_ids):
    _, health = http_call(port, "GET", "/health")
    _, portions = http_call(port, "GET", "/portions")
    services = {sid: http_call(port, "GET", f"/services/{sid}") for sid in service_ids}
    _, found = http_call(port, "POST", "/discover", {
        "text": AR_QUERY, "domain": "math", "requester_id": "probe",
    })
    return {"health": health, "portions": portions, "services": services, "found": found}


def test_c09_durability(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    seed_data_dir(data_dir)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "listen": "127.0.0.1:0", "data_dir": str(data_dir),
    }), "utf-8")

    proc, port = start_server_process(config_path, tmp_path)
    try:
        ids = []
        for path in DESCRIPTOR_FILES[:2]:
            status, doc = http_call(port, "POST", "/services", path.read_bytes())
            assert status == 201
            ids.append(doc["service_id"])
        status, _ = http_call(port, "POST", "/bind", {
            "service_id": ids[0], "requester_id": "alice",
        })
        assert status == 200
        before = observe(port, ids)
    finally:
        proc.kill()
        proc.wait(timeout=10)

    proc, port = start_server_process(config_path, tmp_path)
    try:
        assert observe(port, ids) == before
        status, doc = http_call(port, "POST", "/services", DESCRIPTOR_FILES[2].read_bytes())
        assert status == 201
        assert int(doc["service_id"].rsplit("-", 1)[-1]) == len(ids) + 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # a write interrupted mid-rename must leave the previous state intact
    state = AppState(ServerConfig(data_dir=tmp_path / "data2"))
    first = state.publish_descriptor(DESCRIPTOR_FILES[0].read_bytes())

    def exploding_replace(src, dst):
        raise OSError("simulated power loss")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        state.publish_descriptor(DESCRIPTOR_FILES[1].read_bytes())
    monkeypatch.undo()

    assert list(state.snapshot().registry.descriptors) == [first]
    reborn = AppState(ServerConfig(data_dir=tmp_path / "data2"))
    assert list(reborn.snapshot().registry.descriptors) == [first]
    assert list((tmp_path / "data2" / "services").glob("*.tmp")) == []
    assert reborn.publish_descriptor(DESCRIPTOR_FILES[1].read_bytes()) == "s-000002"


# --- criterion 10: concurrent reads and writes stay consistent ---


def test_c10_concurrent_soak(tmp_path):
    data_dir = tmp_path / "data"
    seed_data_dir(data_dir)
    services_dir = data_dir / "services"
    services_dir.mkdir()
    for i, path in enumerate(DESCRIPTOR_FILES, start=1):
        (services_dir / f"s-{i:06d}.xml").write_bytes(path.read_bytes())

    server = make_server(ServerConfig(host="127.0.0.1", port=0, data_dir=data_dir))
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    port = server.server_address[1]

    verified = set()
    verified_lock = threading.Lock()
    queries = [
        {"text": AR_QUERY, "domain": "math", "requester_id": "w"},
        {"text": EN_QUERY, "domain": "math", "requester_id": "w", "language": "en"},
        {"text": FR_QUERY, "domain": "math", "requester_id": "w", "language": "fr"},
        {"text": "square service", "domain": "math", "requester_id": "w", "language": "en"},
    ]

    def discover_worker(worker_id):
        for i in range(5):
            status, doc = http_call(port, "POST", "/discover", queries[(worker_id + i) % 4])
            assert status == 200
            keys = [(-r["score"], r["service_id"]) for r in doc["results"]]
            assert keys == sorted(keys)
            for entry in doc["results"]:
                sid = entry["service_id"]
                with verified_lock:
                    if sid in verified:
                        continue
                got, _ = http_call(port, "GET", f"/services/{sid}")
                assert got == 200, f"{sid} advertised but not retrievable"
                with verified_lock:
                    verified.add(sid)

    def publish_worker(worker_id):
        rng = random.Random(1000 + worker_id)
        published = []
        for _ in range(4):
            body = serialize_descriptor(random_descriptor(rng))
            status, doc = http_call(port, "POST", "/services", body)
            assert status == 201
            published.append(doc["service_id"])
        return published

    try:
        with ThreadPoolExecutor(max_workers=40) as pool:
            discover_futures = [pool.submit(discover_worker, i) for i in range(32)]
            publish_futures = [pool.submit(publish_worker, i) for i in range(8)]
            for future in discover_futures:
                future.result()
            new_ids = [sid for future in publish_futures for sid in future.result()]

        assert len(set(new_ids)) == 32
        assert set(new_ids) == {f"s-{i:06d}" for i in range(4, 36)}
        status, health = http_call(port, "GET", "/health")
        assert status == 200
        assert health["services"] == 35
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
