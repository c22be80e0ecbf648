"""Shared fixtures, independent oracles, and the acceptance summary hook."""

from __future__ import annotations

import http.server
import json
import math
import threading
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest
from hypothesis import settings

from polyfind.descriptor import (
    FIELD_NAMES,
    ServiceDescriptor,
    field_texts,
    parse_descriptor,
)
from polyfind.langdetect import build_profiles_from_corpora, packaged_corpora_dir
from polyfind.mapping import TranslationPath
from polyfind.ontology import (
    AlignmentLink,
    OntologyStore,
    Term,
    TermId,
    TermRef,
    add_alignment,
    add_terms,
    create_portion,
    empty_store,
    iter_links,
    load_alignments,
    load_portion,
    set_portion,
)
from polyfind.registry import FIELD_WEIGHTS, RegistryStore, publish
from polyfind.textutil import normalize_text, split_words

# Tier-1 runs hypothesis with its default settings; CI also runs the ontology,
# mapping, discovery, text, descriptor, registry and language detection tests,
# and the API's any-request property, with `--hypothesis-profile=ci`.
settings.register_profile("ci", max_examples=1000, deadline=None, print_blob=True)

FIXTURES = Path(__file__).parent / "fixtures"
PORTION_FILES = [FIXTURES / "portions" / f"math.{lang}.json" for lang in ("ar", "en", "fr")]
DESCRIPTOR_FILES = [FIXTURES / "descriptors" / f"sqrt_{lang}.xml" for lang in ("ar", "en", "fr")]
ALIGNMENT_FILE = FIXTURES / "alignments" / "math.json"
HELDOUT_DIR = FIXTURES / "corpora" / "heldout"
REPO_ROOT = FIXTURES / "repo"


# --- fixture data builders ---


def load_fixture_ontology(
    confidence_by_pair: dict[frozenset, float] | None = None,
    skip_pairs: frozenset = frozenset(),
    languages: tuple[str, ...] = ("ar", "en", "fr"),
) -> OntologyStore:
    """The three aligned math portions, optionally reweighting or dropping
    alignment links by unordered language pair (e.g. {frozenset({"ar", "fr"})})."""
    store = empty_store()
    for path in PORTION_FILES:
        portion = load_portion(path.read_bytes())
        if portion.language not in languages:
            continue
        store = set_portion(store, portion)
    for link in load_alignments(ALIGNMENT_FILE.read_bytes()):
        pair = frozenset({link.source.lang, link.target.lang})
        if pair in skip_pairs:
            continue
        if not pair <= set(languages):
            continue
        if confidence_by_pair and pair in confidence_by_pair:
            link = AlignmentLink(
                link.source, link.target, link.relation, confidence_by_pair[pair]
            )
        store = add_alignment(store, link)
    return store


# Local names where one is a prefix of another, with "-", "_", a digit and
# an uppercase letter. "term@lang" text order differs from (term, lang)
# order on them: "x#a1@fr" < "x#a@en", since "1" < "@".
PREFIX_LOCALS = ("a", "a1", "a-b", "aB", "a_")


def prefix_store(links: list[tuple[str, str, str, float]]) -> OntologyStore:
    """Portions x.de, x.en and x.fr, each holding x#<local> for every local
    in PREFIX_LOCALS, and `links` as (source, target, relation, confidence)
    with "domain#local@lang" endpoints. Built from documents, not constructors."""
    store = empty_store()
    for lang in ("de", "en", "fr"):
        terms = [
            {"id": f"x#{local}", "preferred_label": f"{local} {lang}", "alt_labels": [],
             "definition": None, "relations": []}
            for local in PREFIX_LOCALS
        ]
        doc = {"domain": "x", "language": lang, "version": 1, "terms": terms}
        store = set_portion(store, load_portion(json.dumps(doc).encode()))

    def ref(text):
        term, lang = text.split("@")
        return {"term": term, "lang": lang}

    doc = {"links": [
        {"source": ref(source), "target": ref(target), "relation": relation, "confidence": conf}
        for source, target, relation, conf in links
    ]}
    return add_alignment(store, *load_alignments(json.dumps(doc).encode()))


def load_fixture_descriptors() -> list[ServiceDescriptor]:
    return [parse_descriptor(path.read_bytes()) for path in DESCRIPTOR_FILES]


def build_fixture_registry():
    """Publish the ar, en, fr fixture descriptors; returns (store, ids)."""
    store = RegistryStore()
    ids = []
    for descriptor in load_fixture_descriptors():
        store, sid = publish(store, descriptor)
        ids.append(sid)
    return store, ids


@pytest.fixture(scope="session")
def profiles():
    return build_profiles_from_corpora(packaged_corpora_dir())


@pytest.fixture(scope="session")
def fixture_ontology():
    return load_fixture_ontology()


@pytest.fixture()
def fixture_registry():
    return build_fixture_registry()


# --- servers on background threads ---


def run_in_thread(server) -> threading.Thread:
    """Serve `server` on a daemon thread until its shutdown() is called."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


class _QuietHandler(http.server.SimpleHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass


@contextmanager
def _serve_repo(handler):
    """Serve `handler` on a background thread; yields (base URL, server)."""
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=lambda: httpd.serve_forever(poll_interval=0.05), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join()


@pytest.fixture()
def repo_server():
    with _serve_repo(partial(_QuietHandler, directory=str(REPO_ROOT))) as (url, _):
        yield url


class _TruncatingHandler(http.server.BaseHTTPRequestHandler):
    """Records each path, promises a 100-byte body, sends 5 bytes, hangs up."""

    def do_GET(self):
        self.server.paths.append(self.path)
        self.send_response(200)
        self.send_header("Content-Length", "100")
        self.end_headers()
        self.wfile.write(b'{"dom')

    def log_message(self, fmt, *args):
        pass


@pytest.fixture()
def truncating_repo():
    """A repository that breaks off every body; yields (base URL, requested paths)."""
    with _serve_repo(_TruncatingHandler) as (url, httpd):
        httpd.paths = []
        yield url, httpd.paths


# --- deterministic random data for oracle trials ---

WORDS = [
    "square", "root", "service", "math", "number", "negative", "racine",
    "carre", "jathr", "finder", "solver", "compute", "fast", "prime", "sum",
    "integral", "matrix", "vector", "graph", "search",
]


def random_descriptor(rng) -> ServiceDescriptor:
    from polyfind.descriptor import SIMPLE_TYPES, OperationSig

    name = "".join(w.capitalize() for w in rng.sample(WORDS, rng.randint(1, 3)))
    operations = []
    for i in range(rng.randint(1, 3)):
        inputs = tuple((f"p{j}", rng.choice(SIMPLE_TYPES)) for j in range(rng.randint(0, 2)))
        operations.append(
            OperationSig(
                f"{rng.choice(WORDS)}{i}",
                " ".join(rng.choices(WORDS, k=rng.randint(0, 6))),
                inputs,
                rng.choice(SIMPLE_TYPES),
            )
        )
    return ServiceDescriptor(
        name=name,
        documentation=" ".join(rng.choices(WORDS, k=rng.randint(0, 10))),
        language=rng.choice(["ar", "en", "fr", "de"]),
        endpoint=f"https://example.org/{rng.randint(1, 999)}",
        provider="prov",
        operations=tuple(operations),
    )


def random_query(rng) -> list[str]:
    pool = WORDS + ["banana", "xyz", "Square", "ROOT"]
    return rng.choices(pool, k=rng.randint(1, 4))


def random_alignment_store(rng):
    """A store of 2-4 languages, each with a few terms, and random links
    between them: (store, its languages, every term's ref)."""
    langs = rng.sample(["ar", "en", "fr", "de"], rng.randint(2, 4))
    store = empty_store()
    refs_by_lang = {}
    for lang in langs:
        count = rng.randint(1, 30 // len(langs))
        terms = [Term(TermId(f"d#t{i}"), f"term {i}") for i in range(count)]
        store = set_portion(store, add_terms(create_portion("d", lang), terms))
        refs_by_lang[lang] = [TermRef(term.id, lang) for term in terms]
    all_refs = [ref for refs in refs_by_lang.values() for ref in refs]
    for _ in range(rng.randint(0, 2 * len(all_refs))):
        source_lang, target_lang = rng.sample(langs, 2)
        link = AlignmentLink(
            rng.choice(refs_by_lang[source_lang]),
            rng.choice(refs_by_lang[target_lang]),
            rng.choice(("exact", "close")),
            round(rng.uniform(0.05, 1.0), 6),
        )
        store = add_alignment(store, link)
    return store, langs, all_refs


# --- oracle: brute-force field-weighted tf-idf, no inverted index ---


def oracle_find(descriptors_by_id, query_tokens, language=None):
    """Rank services for a query by rescoring every descriptor from scratch.

    Returns [(service_id, score)] sorted by (score desc, id asc). Summation
    follows the documented order (tokens sorted, then field order) so scores
    are bit-identical to a correct index-based implementation.
    """
    distinct = sorted({t for t in (normalize_text(tok) for tok in query_tokens) if t})
    counts = {
        sid: _count_fields(descriptor) for sid, descriptor in descriptors_by_id.items()
    }
    total = len(descriptors_by_id)
    df = {
        token: sum(1 for per_doc in counts.values() if token in per_doc)
        for token in distinct
    }
    ranked = []
    for sid in sorted(descriptors_by_id):
        descriptor = descriptors_by_id[sid]
        if language is not None and descriptor.language != language:
            continue
        score = 0.0
        hit = False
        for token in distinct:
            per_field = counts[sid].get(token)
            if not per_field:
                continue
            hit = True
            idf = math.log(1.0 + total / df[token])
            for fname in FIELD_NAMES:
                tf = per_field.get(fname, 0)
                if tf:
                    score += FIELD_WEIGHTS[fname] * tf * idf
        if hit:
            ranked.append((sid, score))
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


def field_tokens(descriptor: ServiceDescriptor) -> list[tuple[str, str]]:
    """The descriptor's (field, token) pairs, in field_texts order."""
    return [(name, token) for name, text in field_texts(descriptor) for token in split_words(text)]


def _count_fields(descriptor: ServiceDescriptor) -> dict[str, Counter]:
    counts: dict[str, Counter] = {}
    for field_name, token in field_tokens(descriptor):
        counts.setdefault(token, Counter())[field_name] += 1
    return counts


# --- oracle: exhaustive <=2-hop translation path enumeration ---


def oracle_translate(store: OntologyStore, ref: TermRef, target_lang: str):
    """Enumerate every 1-hop and 2-hop alignment path from the flat link list.

    One-hop paths, when any exist, shadow two-hop paths. Ordering matches the
    documented contract: all-exact first, then confidence desc, target id,
    intermediate ids.
    """
    directed: list[AlignmentLink] = []
    for link in iter_links(store):
        directed.append(link)
        directed.append(link.reversed())

    def as_path(hops):
        confidence = 1.0
        for hop in hops:
            confidence *= hop.confidence
        return TranslationPath(ref, hops[-1].target, tuple(hops), confidence)

    one_hop = [
        as_path([link])
        for link in directed
        if link.source == ref and link.target.lang == target_lang
    ]
    if one_hop:
        paths = one_hop
    else:
        paths = []
        for first in directed:
            if first.source != ref or first.target == ref:
                continue
            mid = first.target
            for second in directed:
                if second.source != mid:
                    continue
                end = second.target
                if end in (ref, mid) or end.lang != target_lang:
                    continue
                paths.append(as_path([first, second]))
    paths.sort(
        key=lambda p: (
            0 if p.all_exact else 1,
            -p.confidence,
            str(p.target.term),
            tuple(str(hop.target) for hop in p.hops),
        )
    )
    return paths


# --- oracle: the whole discover pipeline, by brute force ---


def oracle_discover(store, descriptors_by_id, text, domain, language):
    """response_to_dict of a discover with a declared language, worked out
    from README's rules ("How a discover answers"): labels by a full scan,
    paths from oracle_translate and scores from oracle_find."""
    portion = store.portions[(domain, language)]

    def holders(phrase):
        key = normalize_text(phrase)
        return [
            tid for tid in sorted(portion.terms)
            if any(normalize_text(label) == key for label in portion.terms[tid].labels())
        ]

    words = split_words(text)
    matched, raw = [], []
    i = 0
    while i < len(words):
        pair = holders(f"{words[i]} {words[i + 1]}") if i + 1 < len(words) else []
        if pair:
            matched += pair
            i += 2
            continue
        single = holders(words[i])
        if single:
            matched += single
        else:
            raw.append(words[i])
        i += 1
    matched = list(dict.fromkeys(matched))

    def ref_doc(ref):
        return {"term": ref.term, "lang": ref.lang}

    def path_doc(path):
        return None if path is None else {
            "source": ref_doc(path.source),
            "target": ref_doc(path.target),
            "confidence": path.confidence,
            "hops": [
                {"target": ref_doc(hop.target), "relation": hop.relation,
                 "confidence": hop.confidence}
                for hop in path.hops
            ],
        }

    def search(terms):
        results = []
        for target in sorted({d.language for d in descriptors_by_id.values()}):
            # token -> its sources: (origin, term or None, path or None, confidence)
            sources = {word: [(word, None, None, 1.0)] for word in raw}
            for tid in terms:
                ref = TermRef(tid, language)
                if target == language:
                    reached = [(ref, None)]
                else:
                    reached = [(p.target, p) for p in oracle_translate(store, ref, target)]
                for end, path in reached:
                    held = store.portions.get((end.term.domain, end.lang))
                    if held is None or end.term not in held.terms:
                        continue
                    confidence = 1.0 if path is None else path.confidence
                    for label in held.terms[end.term].labels():
                        for word in split_words(label):
                            sources.setdefault(word, []).append((tid, tid, path, confidence))
            if not sources:
                continue
            for sid, score in oracle_find(descriptors_by_id, list(sources), language=target):
                hits = {
                    (token, name) for name, token in field_tokens(descriptors_by_id[sid])
                    if token in sources
                }
                factor = max(src[3] for token, _ in hits for src in sources[token])
                provenance, labels = {}, set()
                for token, name in hits:
                    for origin, tid, path, _ in sources[token]:
                        hops = () if path is None else tuple(str(h.target) for h in path.hops)
                        key = (origin, FIELD_NAMES.index(name), hops)
                        provenance[key] = {"source": origin, "path": path_doc(path), "field": name}
                        if tid is not None:
                            labels.add(portion.terms[tid].preferred_label)
                results.append({
                    "service_id": sid,
                    "name": descriptors_by_id[sid].name,
                    "language": target,
                    "score": score * factor,
                    "provenance": [provenance[key] for key in sorted(provenance)],
                    "requester_language_labels": sorted(labels),
                })
        return sorted(results, key=lambda r: (-r["score"], r["service_id"]))

    results = search(matched)
    expanded = not results and bool(matched)
    if expanded:
        near = {
            rel.target for tid in matched for rel in portion.terms[tid].relations
            if rel.kind in ("related", "broader")
        }
        results = search(matched + sorted(near - set(matched)))
    return {
        "detected": {"language": language, "confidence": 1.0, "method": "declared"},
        "results": results,
        "used_expansion": expanded,
        "imports_triggered": [],
    }


# --- acceptance summary: one pass/fail line per criterion ---

ACCEPTANCE_CRITERIA = {
    1: "case-study reproduction (ar query, 3 services, <1s)",
    2: "language indifference (en/fr queries, same set)",
    3: "pivot translation (score ratio 0.72 within 1e-9)",
    4: "missing-portion import (one imported report)",
    5: "registry vs brute-force oracle (200 trials, <10s)",
    6: "translation vs exhaustive oracle (200 graphs)",
    7: "parser round-trip + 10k-input fuzz",
    8: "detector held-out accuracy (>=95%, ar 100% script)",
    9: "durability: kill/restart + interrupted write",
    10: "concurrent soak (32 discover / 8 publish)",
}

_acceptance_outcomes: dict[int, list[str]] = {}


def _criterion_of(nodeid: str) -> int | None:
    if "test_acceptance.py" not in nodeid:
        return None
    name = nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_c"):
        return None
    digits = name[6:8]
    if not digits.isdigit():
        return None
    return int(digits)


def pytest_runtest_logreport(report):
    criterion = _criterion_of(report.nodeid)
    if criterion is None:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcomes.setdefault(criterion, []).append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_CRITERIA):
        outcomes = _acceptance_outcomes.get(number)
        if not outcomes:
            continue
        if any(o == "failed" for o in outcomes):
            verdict = "FAIL"
        elif all(o == "passed" for o in outcomes):
            verdict = "PASS"
        else:
            verdict = "SKIP"
        label = ACCEPTANCE_CRITERIA[number]
        terminalreporter.write_line(f"criterion {number:2d} {label}: {verdict}")
