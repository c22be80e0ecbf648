"""The discovery pipeline: detect, map keywords to terms, translate term
labels into every registered language, search, scale by translation
confidence, merge. An expansion round that adds the terms one related/broader
hop away runs only when the first pass comes back empty."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping

from . import registry as reg
from .errors import (
    EmptyInput,
    EmptyQuery,
    DetectionFailed,
    NoProfiles,
    PortionUnavailable,
)
from .importer import ImportReport
from .langdetect import DetectionResult, TrigramProfile, detect
from .mapping import TranslationPath, expand_terms, match_keywords, path_to_dict, translate
from .ontology import OntologyStore, TermId, TermRef
from .registry import RegistryStore
from .textutil import check_identifier, split_words

# Optional hook used when the portion for the detected language is absent:
# (domain, language) -> (possibly updated store, reports of performed imports)
ImportHook = Callable[[str, str], tuple[OntologyStore, tuple[ImportReport, ...]]]


@dataclass(frozen=True)
class Query:
    text: str
    domain: str
    requester_id: str
    declared_language: str | None = None


@dataclass(frozen=True)
class ProvenanceEntry:
    source: str  # the query keyword, or the requester-side term id
    path: TranslationPath | None
    field: str


@dataclass(frozen=True)
class ResultEntry:
    service_id: str
    name: str
    language: str
    score: float
    provenance: tuple[ProvenanceEntry, ...]
    requester_language_labels: tuple[str, ...]


@dataclass(frozen=True)
class DiscoveryResponse:
    detected: DetectionResult
    results: tuple[ResultEntry, ...]
    used_expansion: bool
    imports_triggered: tuple[ImportReport, ...]


@dataclass(frozen=True)
class _TokenSource:
    origin: str  # keyword text, or the term id
    term: TermId | None
    path: TranslationPath | None
    confidence: float
    hops: tuple[str, ...]  # the path's hop ends as text; () without a path


def _token_sources(
    raw_keywords: list[str],
    terms: list[TermId],
    query_lang: str,
    target_lang: str,
    store: OntologyStore,
) -> dict[str, list[_TokenSource]]:
    """For one registry language, every searchable token with where it came
    from: a term's words are the ones its portion keeps (term_tokens)."""
    sources: dict[str, list[_TokenSource]] = {}
    for keyword in raw_keywords:
        sources.setdefault(keyword, []).append(_TokenSource(keyword, None, None, 1.0, ()))
    for term in terms:
        ref = TermRef(term, query_lang)
        if target_lang == query_lang:
            reached = [(ref, None)]
        else:
            reached = [(path.target, path) for path in translate(ref, target_lang, store)]
        for target, path in reached:
            portion = store.portions.get((target.term.domain, target.lang))
            words = None if portion is None else portion.term_tokens.get(target.term)
            if words is None:
                continue
            if path is None:
                source = _TokenSource(term, term, None, 1.0, ())
            else:
                hops = tuple(str(hop.target) for hop in path.hops)
                source = _TokenSource(term, term, path, path.confidence, hops)
            for word in words:
                sources.setdefault(word, []).append(source)
    return sources


def _search_pass(
    raw_keywords: list[str],
    terms: list[TermId],
    query_lang: str,
    portion_terms: Mapping,
    ontology: OntologyStore,
    registry_store: RegistryStore,
) -> list[ResultEntry]:
    # Each service has one language, so it is found in at most one pass.
    entries: list[ResultEntry] = []
    for target_lang in reg.languages(registry_store):
        sources = _token_sources(raw_keywords, terms, query_lang, target_lang, ontology)
        if not sources:
            continue
        matches = reg.find(registry_store, sorted(sources), language=target_lang)
        for match in matches:
            factor = 0.0
            # (source, field rank, hop ends): one key per distinct entry,
            # and the order the entries are listed in.
            provenance: dict[tuple, ProvenanceEntry] = {}
            contributing: set[TermId] = set()
            for token, fname in match.matched_tokens:
                rank = reg.FIELD_RANK[fname]
                for src in sources[token]:
                    factor = max(factor, src.confidence)
                    key = (src.origin, rank, src.hops)
                    if key not in provenance:
                        provenance[key] = ProvenanceEntry(src.origin, src.path, fname)
                    if src.term is not None:
                        contributing.add(src.term)
            labels = sorted({portion_terms[term].preferred_label for term in contributing})
            entries.append(ResultEntry(
                service_id=match.service_id,
                name=registry_store.descriptors[match.service_id].name,
                language=match.language,
                score=match.score * factor,
                provenance=tuple(provenance[key] for key in sorted(provenance)),
                requester_language_labels=tuple(labels),
            ))
    return sorted(entries, key=lambda e: (-e.score, e.service_id))


def discover(
    query: Query,
    ontology: OntologyStore,
    registry_store: RegistryStore,
    profiles: Iterable[TrigramProfile] = (),
    *,
    import_missing: ImportHook | None = None,
) -> DiscoveryResponse:
    """Run the full pipeline for one query against store snapshots."""
    check_identifier(query.domain, "domain")
    words = split_words(query.text)
    if not words:
        raise EmptyQuery("query text has no usable words")
    try:
        detected = detect(query.text, tuple(profiles), declared=query.declared_language)
    except EmptyInput as exc:
        raise EmptyQuery(str(exc)) from exc
    except NoProfiles as exc:
        raise DetectionFailed(str(exc)) from exc
    language = detected.language

    imports: tuple[ImportReport, ...] = ()
    key = (query.domain, language)
    if key not in ontology.portions and import_missing is not None:
        ontology, imports = import_missing(query.domain, language)
    portion = ontology.portions.get(key)
    if portion is None:
        raise PortionUnavailable(
            f"no ontology portion for domain {query.domain!r} in language {language!r}"
        )

    terms, raw_keywords = match_keywords(words, portion)

    results = _search_pass(
        raw_keywords, terms, language, portion.terms, ontology, registry_store
    )
    used_expansion = False
    if not results and terms:
        used_expansion = True
        widened = terms + expand_terms(terms, portion)
        results = _search_pass(
            raw_keywords, widened, language, portion.terms, ontology, registry_store
        )
    return DiscoveryResponse(detected, tuple(results), used_expansion, imports)


def response_to_dict(response: DiscoveryResponse) -> dict:
    return {
        "detected": asdict(response.detected),
        "results": [
            {
                "service_id": entry.service_id,
                "name": entry.name,
                "language": entry.language,
                "score": entry.score,
                "provenance": [
                    {
                        "source": p.source,
                        "path": None if p.path is None else path_to_dict(p.path),
                        "field": p.field,
                    }
                    for p in entry.provenance
                ],
                "requester_language_labels": list(entry.requester_language_labels),
            }
            for entry in response.results
        ],
        "used_expansion": response.used_expansion,
        "imports_triggered": [asdict(r) for r in response.imports_triggered],
    }
