"""Keyword-to-term matching, cross-language translation, term expansion.

Translation walks the alignment graph: direct links first, two-hop pivot
paths only when no direct link reaches the target language. Confidence of
a path is the product of its edge confidences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyQuery, UnknownTerm
from .ontology import (
    AlignmentLink,
    OntologyPortion,
    OntologyStore,
    TermId,
    TermRef,
    links_from,
    lookup_label_kinds,
    require_term,
)
from .textutil import check_language


@dataclass(frozen=True)
class TermMatch:
    keyword: str  # the consumed word or two-word phrase, as given
    term: TermId
    language: str
    match_kind: str  # preferred | alt


@dataclass(frozen=True)
class TranslationPath:
    source: TermRef
    target: TermRef
    hops: tuple[AlignmentLink, ...]
    confidence: float

    @property
    def all_exact(self) -> bool:
        return all(hop.relation == "exact" for hop in self.hops)


def match_keywords(
    keywords: list[str], portion: OntologyPortion
) -> tuple[list[TermMatch], list[str]]:
    """Greedy left-to-right matching of keywords against portion labels.

    At each position the two-word phrase is tried before the single word,
    so multi-word labels win over their parts. Unconsumed keywords come
    back verbatim in the second list.
    """
    if not keywords:
        raise EmptyQuery("no keywords to match")
    matches: list[TermMatch] = []
    unmatched: list[str] = []
    i = 0
    while i < len(keywords):
        if i + 1 < len(keywords):
            consumed = f"{keywords[i]} {keywords[i + 1]}"
            hits = lookup_label_kinds(portion, consumed)
            if hits:
                for tid, kind in hits:
                    matches.append(TermMatch(consumed, tid, portion.language, kind))
                i += 2
                continue
        hits = lookup_label_kinds(portion, keywords[i])
        if hits:
            for tid, kind in hits:
                matches.append(TermMatch(keywords[i], tid, portion.language, kind))
        else:
            unmatched.append(keywords[i])
        i += 1
    return matches, unmatched


def _path(source: TermRef, hops: tuple[AlignmentLink, ...]) -> TranslationPath:
    confidence = 1.0
    for hop in hops:
        confidence *= hop.confidence
    return TranslationPath(source, hops[-1].target, hops, confidence)


def _path_sort_key(path: TranslationPath):
    # All-exact paths outrank paths with a close edge at equal length; then
    # higher confidence, then target id, then intermediate ids.
    return (
        0 if path.all_exact else 1,
        -path.confidence,
        path.target.term,
        tuple(str(hop.target) for hop in path.hops),
    )


def translate(ref: TermRef, target_lang: str, store: OntologyStore) -> list[TranslationPath]:
    """All shortest simple alignment paths (length 1 or 2) into target_lang.

    Returns [] when no path exists. Paths never revisit the source and the
    one-hop level, when non-empty, shadows the two-hop level entirely.
    """
    require_term(store, ref)
    check_language(target_lang)
    direct = [
        _path(ref, (link,))
        for link in links_from(store, ref)
        if link.target.lang == target_lang
    ]
    if direct:
        return sorted(direct, key=_path_sort_key)
    pivots: list[TranslationPath] = []
    for first in links_from(store, ref):
        mid = first.target
        if mid == ref:
            continue
        for second in links_from(store, mid):
            end = second.target
            if end == ref or end == mid:
                continue
            if end.lang == target_lang:
                pivots.append(_path(ref, (first, second)))
    return sorted(pivots, key=_path_sort_key)


def expand_terms(terms: list[TermId], portion: OntologyPortion) -> list[TermId]:
    """Terms one related/broader hop from the inputs, inputs excluded, in id order."""
    found: set[TermId] = set()
    for tid in terms:
        if tid not in portion.terms:
            raise UnknownTerm(f"no term {tid} in {portion.domain}.{portion.language}")
        for rel in portion.terms[tid].relations:
            if rel.kind != "narrower":
                found.add(rel.target)
    return sorted(found - set(terms))


def path_to_dict(path: TranslationPath) -> dict:
    return {
        "source": path.source._asdict(),
        "target": path.target._asdict(),
        "confidence": path.confidence,
        "hops": [
            {
                "target": hop.target._asdict(),
                "relation": hop.relation,
                "confidence": hop.confidence,
            }
            for hop in path.hops
        ],
    }
