"""Tests of the benchmark itself, not of polyfind.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They run in a few seconds and sit outside the suite's `testpaths`.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from oracle import check_path, tfidf  # noqa: E402
from workload import SMOKE, Service, descriptor_xml, generate, write_data_dir  # noqa: E402


def _service(sid, lang, name=(), operation=(), documentation=()):
    fields = {"name": Counter(name), "operation": Counter(operation),
              "documentation": Counter(documentation)}
    return Service(sid, lang, " ".join(name), "p", "https://x.example/", "", [], fields)


def test_generator_is_deterministic_per_seed(tmp_path):
    spec = SMOKE["wide-ontology"]
    a, b, c = generate(spec, 7), generate(spec, 7), generate(spec, 8)
    assert a.portions == b.portions and a.links == b.links and a.queries == b.queries
    assert [descriptor_xml(s) for s in a.services.values()] == [
        descriptor_xml(s) for s in b.services.values()
    ]
    assert a.portions != c.portions
    write_data_dir(a, tmp_path / "a")
    write_data_dir(b, tmp_path / "b")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_tfidf_matches_a_hand_computed_case():
    services = {
        "s-000001": _service("s-000001", "en", name=["alpha", "beta"], documentation=["alpha"]),
        "s-000002": _service("s-000002", "en", documentation=["beta", "beta"]),
        "s-000003": _service("s-000003", "fr", operation=["gamma"]),
    }
    got = tfidf(services, ["alpha", "beta"])
    # N = 3; df(alpha) = 1, df(beta) = 2.
    idf_alpha, idf_beta = math.log(1 + 3 / 1), math.log(1 + 3 / 2)
    assert got["s-000001"][0] == 3 * idf_alpha + 1 * idf_alpha + 3 * idf_beta
    assert got["s-000001"][1] == [("alpha", "name"), ("alpha", "documentation"), ("beta", "name")]
    assert got["s-000002"][0] == 1 * 2 * idf_beta
    assert "s-000003" not in got


def test_path_confidence_is_the_product_of_the_links():
    links = {(("t1", "ar"), ("t1", "en")): ("exact", 0.9), (("t1", "en"), ("t1", "fr")): ("close", 0.8)}
    path = {
        "source": {"term": "bench#t1", "lang": "ar"},
        "target": {"term": "bench#t1", "lang": "fr"},
        "confidence": 0.9 * 0.8,
        "hops": [
            {"target": {"term": "bench#t1", "lang": "en"}, "relation": "exact", "confidence": 0.9},
            {"target": {"term": "bench#t1", "lang": "fr"}, "relation": "close", "confidence": 0.8},
        ],
    }
    assert check_path(path, links, "t1", "ar", "fr") == []
    assert check_path({**path, "confidence": 0.72001}, links, "t1", "ar", "fr")
    direct = {**path, "hops": path["hops"][:1]}
    assert check_path(direct, links, "t1", "ar", "fr")


def test_tfidf_agrees_with_the_registry_on_generated_services():
    from polyfind.descriptor import parse_descriptor
    from polyfind.registry import find, registry_from_descriptors
    from dataclasses import replace

    gen = generate(SMOKE["provider-churn"], 3)
    store = registry_from_descriptors(
        replace(parse_descriptor(descriptor_xml(s)), service_id=sid)
        for sid, s in gen.services.items()
    )
    for lang, words in gen.filler_words.items():
        query = words[:3]
        want = sorted(((-score, sid) for sid, (score, _) in tfidf(gen.services, query).items()))
        got = [(-m.score, m.service_id) for m in find(store, query)]
        assert [sid for _, sid in got] == [sid for _, sid in want]
        assert all(math.isclose(g, w, rel_tol=1e-12) for (g, _), (w, _) in zip(got, want))


def test_smoke_run_prints_a_correct_result():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", "provider-churn",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) >= {"setup_s", "discover_p50_ms", "server_rss_mb"}
