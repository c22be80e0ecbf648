"""Keyword-to-term matching, cross-language translation, term expansion.

Translation walks the alignment graph: direct links first, two-hop pivot
paths only when no direct link reaches the target language. Confidence of
a path is the product of its edge confidences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownTerm
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
) -> tuple[list[TermId], list[str]]:
    """Greedy left-to-right matching of keywords against portion labels.

    At each position the two-word phrase is tried before the single word,
    so multi-word labels win over their parts. Returns the matched term ids,
    each once in first-match order, and the unconsumed keywords verbatim.
    """
    terms: list[TermId] = []
    unmatched: list[str] = []
    i = 0
    while i < len(keywords):
        if i + 1 < len(keywords):
            hits = lookup_label_kinds(portion, f"{keywords[i]} {keywords[i + 1]}")
            if hits:
                terms.extend(hits)
                i += 2
                continue
        hits = lookup_label_kinds(portion, keywords[i])
        if hits:
            terms.extend(hits)
        else:
            unmatched.append(keywords[i])
        i += 1
    return list(dict.fromkeys(terms)), unmatched


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
    one-hop level, when non-empty, shadows the two-hop level entirely. The
    paths into every language are found at a ref's first translation and
    kept in the store's memo, so later calls walk no link.
    """
    require_term(store, ref)
    check_language(target_lang)
    memo = store.translations
    by_lang = memo.get(ref)
    if by_lang is None:
        by_lang = memo[ref] = _paths_by_language(ref, store)
    return list(by_lang.get(target_lang, ()))


def _paths_by_language(
    ref: TermRef, store: OntologyStore
) -> dict[str, tuple[TranslationPath, ...]]:
    """translate(ref, lang, store) for each language it reaches."""
    found: dict[str, list[TranslationPath]] = {}
    outgoing = links_from(store, ref)
    for link in outgoing:
        found.setdefault(link.target.lang, []).append(_path(ref, (link,)))
    direct = set(found)
    for first in outgoing:
        mid = first.target
        if mid == ref:
            continue
        for second in links_from(store, mid):
            end = second.target
            if end == ref or end == mid or end.lang in direct:
                continue
            found.setdefault(end.lang, []).append(_path(ref, (first, second)))
    return {lang: tuple(sorted(paths, key=_path_sort_key)) for lang, paths in found.items()}


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
