"""Service registry: publication, an inverted index, ranked retrieval, binding.

The store is a frozen snapshot; publish/remove return a new store that
shares every postings entry the descriptor does not touch. Scoring
is field-weighted tf-idf:

    score(d) = sum over matched tokens t, fields f of
               FIELD_WEIGHTS[f] * tf(t, d, f) * ln(1 + N / df(t))

with N the registry size and df the number of descriptors containing t in
any field. Summation order is fixed (tokens in codepoint order, fields in
FIELD_NAMES order) so scores are bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import re
import uuid
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterable, Mapping

from .descriptor import FIELD_NAMES, ServiceDescriptor, field_texts
from .errors import EmptyQuery, EmptyRequester, InvariantViolation, UnknownService
from .textutil import normalize_text, split_words

FIELD_WEIGHTS: Mapping[str, float] = {"name": 3.0, "operation": 2.0, "documentation": 1.0}

FIELD_RANK = {name: i for i, name in enumerate(FIELD_NAMES)}

# A service id is "s-" and its sequence number, zero-padded to six digits.
SERVICE_ID_RE = re.compile(r"s-([0-9]{6,})")


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


def _field_counts(descriptor: ServiceDescriptor) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for field_name, text in field_texts(descriptor):
        for token in split_words(text):
            per_field = counts.setdefault(token, {})
            per_field[field_name] = per_field.get(field_name, 0) + 1
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
    postings = dict(store.postings)
    for token, per_field in _field_counts(published).items():
        postings[token] = {**postings.get(token, {}), service_id: per_field}
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
    postings = dict(store.postings)
    for token in _field_counts(descriptor):
        remaining = dict(postings[token])
        del remaining[service_id]
        if remaining:
            postings[token] = remaining
        else:
            del postings[token]
    langs = dict(store.doc_count_by_lang)
    langs[descriptor.language] -= 1
    if langs[descriptor.language] == 0:
        del langs[descriptor.language]
    descriptors = dict(store.descriptors)
    del descriptors[service_id]
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
        numbered = SERVICE_ID_RE.fullmatch(d.service_id)
        if numbered:
            last_seq = max(last_seq, int(numbered[1]))
    return RegistryStore(descriptors, postings, langs, last_seq)


def languages(store: RegistryStore) -> list[str]:
    """Languages with at least one registered service, sorted."""
    return sorted(store.doc_count_by_lang)


def find(
    store: RegistryStore,
    tokens: Iterable[str],
    language: str | None = None,
) -> list[MatchResult]:
    """Rank descriptors sharing at least one token with the query.

    Results are sorted by (score desc, service_id asc); matched_tokens by
    (token, field rank). Query tokens are normalized and deduplicated;
    a query with nothing left after normalization is an error.
    """
    weights = FIELD_WEIGHTS  # a local name keeps the inner loop's lookup cheap
    distinct = sorted({t for t in (normalize_text(tok) for tok in tokens) if t})
    if not distinct:
        raise EmptyQuery("no usable query tokens")
    total = len(store.descriptors)
    # Term at a time: each token's postings are read once, and each service's
    # score sums from 0.0 in token order, then FIELD_NAMES order.
    found: dict[str, tuple[float, list[tuple[str, str]]]] = {}
    for token in distinct:
        by_sid = store.postings.get(token)
        if not by_sid:
            continue
        idf = math.log(1.0 + total / len(by_sid))
        for sid, per_field in by_sid.items():
            if language is not None and store.descriptors[sid].language != language:
                continue
            score, matched = found.get(sid, (0.0, []))
            for fname in FIELD_NAMES:
                tf = per_field.get(fname)
                if tf:
                    score += weights[fname] * tf * idf
                    matched.append((token, fname))
            found[sid] = (score, matched)
    results = [
        MatchResult(
            service_id=sid,
            score=score,
            matched_tokens=tuple(matched),
            language=store.descriptors[sid].language,
        )
        for sid, (score, matched) in found.items()
    ]
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
