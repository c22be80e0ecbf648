"""Checks of discovery answers against computations made apart from the server.

The benchmark knows what it generated, so it can say what a correct answer
is without asking the program: a brute-force field-weighted tf-idf over the
descriptors it published, the products of the link confidences it wrote, and
the services it planted for each query term. Every function here returns a
list of problems; an empty list means the answer is correct.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

from workload import DOMAIN, FIELDS, LANGS, QuerySpec, Service

FIELD_WEIGHTS = {"name": 3.0, "operation": 2.0, "documentation": 1.0}


def tfidf(
    services: Mapping[str, Service], tokens: Iterable[str]
) -> dict[str, tuple[float, list[tuple[str, str]]]]:
    """Score every service that shares a token with the query, from scratch.

    score(d) = sum over tokens t (codepoint order), fields f (name,
    operation, documentation) of weight(f) * tf(t, d, f) * ln(1 + N / df(t)),
    with N the number of services in every language and df the number of
    services holding t in any field. Returns id -> (score, matched (t, f)).
    """
    distinct = sorted(set(tokens))
    total = len(services)
    df = Counter()
    for svc in services.values():
        for token in distinct:
            if token in svc.tokens:
                df[token] += 1
    out = {}
    for sid in sorted(services):
        svc = services[sid]
        score = 0.0
        matched = []
        for token in distinct:
            if token not in svc.tokens:
                continue
            idf = math.log(1.0 + total / df[token])
            for f in FIELDS:
                tf = svc.fields[f].get(token, 0)
                if tf:
                    score += FIELD_WEIGHTS[f] * tf * idf
                    matched.append((token, f))
        if matched:
            out[sid] = (score, matched)
    return out


def path_hops(query_lang: str, target_lang: str) -> tuple[str, ...]:
    """Languages a translation visits after the source: Arabic links only to
    English and English to French, so Arabic <-> French pivots through English."""
    if {query_lang, target_lang} == {"ar", "fr"}:
        return ("en", target_lang)
    return (target_lang,)


def check_path(path: dict, links: Mapping, local: str, query_lang: str, target_lang: str) -> list[str]:
    """A translation path must follow generated links, and its confidence must
    be the product of their confidences, multiplied in hop order."""
    problems = []
    term = f"{DOMAIN}#{local}"
    if path["source"] != {"term": term, "lang": query_lang}:
        problems.append(f"path source {path['source']} is not {term}@{query_lang}")
    hops = path_hops(query_lang, target_lang)
    if len(path["hops"]) != len(hops):
        return problems + [f"path {term}@{query_lang}->{target_lang} has {len(path['hops'])} hops"]
    confidence = 1.0
    prev = (local, query_lang)
    for hop, lang in zip(path["hops"], hops):
        if hop["target"] != {"term": term, "lang": lang}:
            problems.append(f"hop target {hop['target']} is not {term}@{lang}")
        link = links.get((prev, (local, lang))) or links.get(((local, lang), prev))
        if link is None or (hop["relation"], hop["confidence"]) != link:
            problems.append(f"hop {prev}->{lang} is {hop['relation']}/{hop['confidence']}, generated {link}")
            return problems
        confidence *= link[1]
        prev = (local, lang)
    if path["confidence"] != confidence:
        problems.append(f"path confidence {path['confidence']!r} != product of links {confidence!r}")
    if path["target"] != {"term": term, "lang": target_lang}:
        problems.append(f"path target {path['target']} is not {term}@{target_lang}")
    return problems


def expected_results(
    query: QuerySpec,
    detected: str,
    services: Mapping[str, Service],
    labels: Mapping[tuple[str, str], tuple[str, ...]],
    links: Mapping,
) -> list[dict]:
    """The ranked results the pipeline must return, computed without it.

    A term query whose language was detected correctly searches, in every
    language X, the label words of its terms in X, each weighted by the
    confidence of its translation path. Any other query matches no label (the
    generated vocabularies are disjoint), so its words are searched verbatim
    at confidence 1.
    """
    words = query.text.split()
    # token -> (query term it came from, or None for a verbatim word; confidence)
    sources: dict[str, tuple[str | None, float]] = {}
    if query.kind == "kw" or detected != query.language:
        sources = {w: (None, 1.0) for w in words}
    else:
        # Label words of different languages never coincide, so a token can
        # only match services of the language whose labels it came from.
        for lang in LANGS:
            for local in query.terms:
                confidence = 1.0
                prev = (local, query.language)
                for hop in path_hops(query.language, lang) if lang != query.language else ():
                    link = links.get((prev, (local, hop))) or links.get(((local, hop), prev))
                    confidence *= link[1]
                    prev = (local, hop)
                for label in labels[(local, lang)]:
                    for token in label.split():
                        sources[token] = (local, confidence)
    results = []
    for sid, (score, matched) in tfidf(services, sources).items():
        factor = max(sources[token][1] for token, _ in matched)
        results.append(
            {
                "service_id": sid,
                "score": score * factor,
                "matched": matched,
                "contributing": {sources[token][0] for token, _ in matched} - {None},
            }
        )
    results.sort(key=lambda r: (-r["score"], r["service_id"]))
    return results


def check_discover(
    query: QuerySpec,
    body: dict,
    services: Mapping[str, Service],
    labels: Mapping[tuple[str, str], tuple[str, ...]],
    links: Mapping,
    planted: Mapping[tuple[str, str], str],
) -> list[str]:
    problems = []
    detected = body["detected"]
    if query.declared:
        if (detected["language"], detected["method"]) != (query.language, "declared"):
            problems.append(f"declared {query.language} came back as {detected}")
    elif query.language == "ar" and (detected["language"], detected["method"]) != ("ar", "script"):
        problems.append(f"Arabic-script query came back as {detected}")
    if body["used_expansion"] or body["imports_triggered"]:
        problems.append("unexpected expansion or import")

    results = body["results"]
    keys = [(-r["score"], r["service_id"]) for r in results]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append("results are not ordered by (score desc, service id)")
    ids = [r["service_id"] for r in results]
    term_query = query.kind == "term" and detected["language"] == query.language
    if term_query:
        for local in query.terms:
            for lang in LANGS:
                if planted[(local, lang)] not in ids:
                    problems.append(f"planted {planted[(local, lang)]} for {local}@{lang} missing")

    expected = expected_results(query, detected["language"], services, labels, links)
    if ids != [e["service_id"] for e in expected]:
        return problems + [f"result ids {ids[:8]}... differ from the oracle's {[e['service_id'] for e in expected][:8]}..."]
    for got, want in zip(results, expected):
        svc = services[got["service_id"]]
        if (got["name"], got["language"]) != (svc.name, svc.language):
            problems.append(f"{svc.service_id}: name/language {got['name']}/{got['language']}")
        if not math.isclose(got["score"], want["score"], rel_tol=1e-12):
            problems.append(f"{svc.service_id}: score {got['score']!r} != oracle {want['score']!r}")
        if {p["field"] for p in got["provenance"]} != {f for _, f in want["matched"]}:
            problems.append(f"{svc.service_id}: provenance fields differ from the matched fields")
        for p in got["provenance"]:
            if not term_query:
                if p["path"] is not None or (p["source"], p["field"]) not in want["matched"]:
                    problems.append(f"{svc.service_id}: keyword provenance {p} did not match")
                continue
            local = p["source"].partition("#")[2]
            if local not in want["contributing"]:
                problems.append(f"{svc.service_id}: provenance source {p['source']} did not match")
            elif svc.language == query.language:
                if p["path"] is not None:
                    problems.append(f"{svc.service_id}: same-language match carries a path")
            else:
                problems += check_path(p["path"], links, local, query.language, svc.language)
        want_labels = sorted(labels[(local, query.language)][0] for local in want["contributing"])
        if got["requester_language_labels"] != want_labels:
            problems.append(
                f"{svc.service_id}: labels {got['requester_language_labels']} != {want_labels}"
            )
    return problems
