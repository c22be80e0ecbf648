"""Service registry: publication, an inverted index, ranked retrieval, binding.

The store is a frozen snapshot; publish/remove return a new store. Scoring
is field-weighted tf-idf:

    score(d) = sum over matched tokens t, fields f of
               weight(f) * tf(t, d, f) * ln(1 + N / df(t))

with N the registry size and df the number of descriptors containing t in
any field. Summation order is fixed (tokens in codepoint order, fields in
FIELD_NAMES order) so scores are bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterable, Mapping

from .descriptor import FIELD_NAMES, ServiceDescriptor, tokenize
from .errors import EmptyQuery, EmptyRequester, InvariantViolation, UnknownService
from .textutil import normalize_text

DEFAULT_FIELD_WEIGHTS: Mapping[str, float] = {"name": 3.0, "operation": 2.0, "documentation": 1.0}

FIELD_RANK = {name: i for i, name in enumerate(FIELD_NAMES)}


@dataclass(frozen=True)
class RegistryStore:
    descriptors: Mapping[str, ServiceDescriptor] = field(default_factory=dict)
    # token -> service_id -> field -> term frequency
    postings: Mapping[str, Mapping[str, Mapping[str, int]]] = field(default_factory=dict)
    doc_count_by_lang: Mapping[str, int] = field(default_factory=dict)
    last_seq: int = 0


@dataclass(frozen=True)
class MatchResult:
    service_id: str
    score: float
    matched_tokens: tuple[tuple[str, str], ...]  # (token, field)
    language: str


@dataclass(frozen=True)
class BindingTicket:
    ticket_id: str
    service_id: str
    requester_id: str
    endpoint: str
    issued_at: str


def empty_registry() -> RegistryStore:
    return RegistryStore({}, {}, {}, 0)


def _field_counts(descriptor: ServiceDescriptor) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for ft in tokenize(descriptor):
        per_field = counts.setdefault(ft.token, {})
        per_field[ft.field] = per_field.get(ft.field, 0) + 1
    return counts


def publish(store: RegistryStore, descriptor: ServiceDescriptor) -> tuple[RegistryStore, str]:
    """Assign the next id, index the descriptor, return (new store, id)."""
    if descriptor.service_id:
        raise InvariantViolation(
            f"descriptor already carries service id {descriptor.service_id!r}"
        )
    seq = store.last_seq + 1
    service_id = f"s-{seq:06d}"
    published = replace(descriptor, service_id=service_id)
    postings = {token: dict(by_sid) for token, by_sid in store.postings.items()}
    for token, per_field in _field_counts(published).items():
        postings.setdefault(token, {})[service_id] = per_field
    langs = dict(store.doc_count_by_lang)
    langs[published.language] = langs.get(published.language, 0) + 1
    new_store = RegistryStore(
        {**store.descriptors, service_id: published}, postings, langs, seq
    )
    return new_store, service_id


def get(store: RegistryStore, service_id: str) -> ServiceDescriptor:
    descriptor = store.descriptors.get(service_id)
    if descriptor is None:
        raise UnknownService(f"no service {service_id!r}")
    return descriptor


def remove(store: RegistryStore, service_id: str) -> RegistryStore:
    descriptor = get(store, service_id)
    postings: dict[str, dict] = {}
    for token, by_sid in store.postings.items():
        remaining = {sid: fields for sid, fields in by_sid.items() if sid != service_id}
        if remaining:
            postings[token] = remaining
    langs = dict(store.doc_count_by_lang)
    langs[descriptor.language] -= 1
    if langs[descriptor.language] == 0:
        del langs[descriptor.language]
    descriptors = {sid: d for sid, d in store.descriptors.items() if sid != service_id}
    return RegistryStore(descriptors, postings, langs, store.last_seq)


def registry_from_descriptors(
    published: Iterable[ServiceDescriptor], last_seq: int = 0
) -> RegistryStore:
    """Rebuild a store from already-published descriptors (ids assigned).

    The store's last_seq is `last_seq` raised to the highest sequence number
    among the ids, so a stale `last_seq` never makes publish reuse an id.
    """
    descriptors: dict[str, ServiceDescriptor] = {}
    postings: dict[str, dict[str, dict[str, int]]] = {}
    langs: dict[str, int] = {}
    for d in published:
        if not d.service_id:
            raise InvariantViolation("descriptor has no service id")
        if d.service_id in descriptors:
            raise InvariantViolation(f"duplicate service id {d.service_id!r}")
        descriptors[d.service_id] = d
        for token, per_field in _field_counts(d).items():
            postings.setdefault(token, {})[d.service_id] = per_field
        langs[d.language] = langs.get(d.language, 0) + 1
        tail = d.service_id.rsplit("-", 1)[-1]
        if tail.isdigit():
            last_seq = max(last_seq, int(tail))
    return RegistryStore(descriptors, postings, langs, last_seq)


def languages(store: RegistryStore) -> list[str]:
    """Languages with at least one registered service, sorted."""
    return sorted(lang for lang, count in store.doc_count_by_lang.items() if count > 0)


def find(
    store: RegistryStore,
    tokens: Iterable[str],
    language: str | None = None,
    weights: Mapping[str, float] | None = None,
) -> list[MatchResult]:
    """Rank descriptors sharing at least one token with the query.

    Results are sorted by (score desc, service_id asc); matched_tokens by
    (token, field rank). Query tokens are normalized and deduplicated;
    a query with nothing left after normalization is an error.
    """
    if weights is None:
        weights = DEFAULT_FIELD_WEIGHTS
    distinct = sorted({t for t in (normalize_text(tok) for tok in tokens) if t})
    if not distinct:
        raise EmptyQuery("no usable query tokens")
    total = len(store.descriptors)
    candidates: set[str] = set()
    idf: dict[str, float] = {}
    for token in distinct:
        by_sid = store.postings.get(token)
        if not by_sid:
            continue
        idf[token] = math.log(1.0 + total / len(by_sid))
        for sid in by_sid:
            if language is None or store.descriptors[sid].language == language:
                candidates.add(sid)
    results = []
    for sid in sorted(candidates):
        score = 0.0
        matched: list[tuple[str, str]] = []
        for token in distinct:
            per_field = store.postings.get(token, {}).get(sid)
            if not per_field:
                continue
            for fname in FIELD_NAMES:
                tf = per_field.get(fname)
                if tf:
                    score += weights[fname] * tf * idf[token]
                    matched.append((token, fname))
        results.append(
            MatchResult(
                service_id=sid,
                score=score,
                matched_tokens=tuple(matched),
                language=store.descriptors[sid].language,
            )
        )
    results.sort(key=lambda r: (-r.score, r.service_id))
    return results


def bind(
    store: RegistryStore,
    service_id: str,
    requester_id: str,
    ticket_id: str | None = None,
    issued_at: str | None = None,
) -> BindingTicket:
    """Issue an access ticket for a published service."""
    descriptor = get(store, service_id)
    if not requester_id or not requester_id.strip():
        raise EmptyRequester("requester_id must not be empty")
    if ticket_id is None:
        ticket_id = f"t-{uuid.uuid4().hex}"
    if issued_at is None:
        issued_at = datetime.now(timezone.utc).isoformat()
    return BindingTicket(ticket_id, service_id, requester_id, descriptor.endpoint, issued_at)
