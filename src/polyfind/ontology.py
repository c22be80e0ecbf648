"""Multilingual ontology model: terms, portions, alignments, persistence.

A portion holds the terms of one (domain, language) pair. Cross-language
links live in an OntologyStore next to the portions. All values are frozen;
mutating operations return updated copies, which is what lets the server
hand out consistent snapshots without locking readers.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DuplicateId,
    InvalidIdentifier,
    InvariantViolation,
    SameLanguage,
    SchemaViolation,
    UnknownTerm,
)
from .textutil import (
    IDENTIFIER_RE,
    SURROGATE_ESCAPE_RE,
    check_fields,
    check_identifier,
    check_language,
    load_json,
    normalize_text,
    split_words,
)

__all__ = [
    "TermId", "Relation", "Term", "OntologyPortion", "TermRef", "AlignmentLink",
    "OntologyStore", "Violation", "RELATION_KINDS", "ALIGNMENT_RELATIONS",
    "create_portion", "add_term", "add_terms", "add_label", "lookup_label_kinds",
    "validate_portion", "portion_to_dict", "save_portion",
    "load_portion", "empty_store", "resolve", "require_term", "resolves", "set_portion",
    "add_alignment", "links_from", "iter_links", "save_alignments", "load_alignments",
]

RELATION_KINDS = ("broader", "narrower", "related")
_INVERSE = {"broader": "narrower", "narrower": "broader"}
ALIGNMENT_RELATIONS = ("exact", "close")

_TERM_ID_RE = re.compile(f"{IDENTIFIER_RE.pattern}#{IDENTIFIER_RE.pattern}")


class TermId(str):
    """A term id: its text domain#local, checked once at construction.
    It hashes, compares and sorts as that text; since "#" sorts before every
    identifier character, text order is (domain, local) order."""

    __slots__ = ()

    def __new__(cls, text: str) -> "TermId":
        if not (isinstance(text, str) and _TERM_ID_RE.fullmatch(text)):
            raise InvalidIdentifier(f"term id {text!r} must look like domain#local")
        return super().__new__(cls, text)

    @property
    def domain(self) -> str:
        return self.partition("#")[0]

    @property
    def local(self) -> str:
        return self.partition("#")[2]


@dataclass(frozen=True)
class Relation:
    kind: str
    target: TermId

    def __post_init__(self):
        if self.kind not in RELATION_KINDS:
            raise InvariantViolation(f"unknown relation kind {self.kind!r}")


@dataclass(frozen=True)
class Term:
    id: TermId
    preferred_label: str
    alt_labels: tuple[str, ...] = ()
    definition: str | None = None
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alt_labels", tuple(self.alt_labels))
        object.__setattr__(self, "relations", tuple(self.relations))

    def labels(self) -> tuple[str, ...]:
        return (self.preferred_label, *self.alt_labels)

    @cached_property
    def canonical_text(self) -> str:
        """The term as save_portion writes it; built on first use. A portion
        loaded over a base keeps the base's Term objects, and so their
        encodings, for every term it does not change."""
        return json.dumps(_term_to_dict(self), ensure_ascii=False)


@dataclass(frozen=True)
class OntologyPortion:
    """The terms of one (domain, language) pair; the constructor refuses a
    portion that breaks any rule: domain, language tag or structure."""

    domain: str
    language: str
    version: int
    terms: Mapping[TermId, Term] = field(default_factory=dict)

    def __post_init__(self):
        check_identifier(self.domain, "domain")
        check_language(self.language)
        violations = validate_portion(self)
        if violations:
            raise InvariantViolation(
                "portion is structurally invalid: " + "; ".join(str(v) for v in violations)
            )

    @cached_property
    def label_index(self) -> dict[str, tuple[TermId, ...]]:
        """Normalized label -> the ids of the terms holding it, in id order;
        built on first lookup."""
        index: dict[str, list[TermId]] = {}
        for tid in sorted(self.terms):
            for key in _label_keys(self.terms[tid]):
                index.setdefault(key, []).append(tid)
        return {key: tuple(ids) for key, ids in index.items()}

    @cached_property
    def term_tokens(self) -> dict[TermId, tuple[str, ...]]:
        """Term id -> the distinct words of its labels, first seen first;
        built on first use."""
        return {tid: _label_words(term) for tid, term in self.terms.items()}


def _label_words(term: Term) -> tuple[str, ...]:
    return tuple(dict.fromkeys(word for label in term.labels() for word in split_words(label)))


def _label_keys(term: Term) -> set[str]:
    """The term's distinct normalized labels."""
    return {normalize_text(label) for label in term.labels()}


def _patched_index(base: OntologyPortion, changed: list[Term]) -> dict:
    """base.label_index with the changed terms re-keyed: their ids leave
    the keys of their base labels and join those of their new labels."""
    ids = {term.id for term in changed}
    fresh: dict[str, list[TermId]] = {}
    for term in changed:
        old = base.terms.get(term.id)
        for key in () if old is None else _label_keys(old):
            fresh.setdefault(key, [])
        for key in _label_keys(term):
            fresh.setdefault(key, []).append(term.id)
    index = dict(base.label_index)
    for key, added in fresh.items():
        merged = sorted([*(tid for tid in index.get(key, ()) if tid not in ids), *added])
        if merged:
            index[key] = tuple(merged)
        else:
            index.pop(key, None)
    return index


def create_portion(domain: str, language: str) -> OntologyPortion:
    """New empty portion at version 1."""
    return OntologyPortion(domain, language, 1, {})


def add_term(portion: OntologyPortion, term: Term) -> OntologyPortion:
    return add_terms(portion, [term])


def add_terms(portion: OntologyPortion, terms: Iterable[Term]) -> OntologyPortion:
    """Insert a batch of terms; one version bump for the whole batch.

    Relation targets may point at other members of the batch. Inverse
    broader/narrower edges are materialized on the targets; the portion's
    constructor refuses a term of another domain or a missing target.
    """
    batch = list(terms)
    if not batch:
        return portion
    new_terms: dict[TermId, Term] = dict(portion.terms)
    for term in batch:
        if term.id in new_terms:
            raise DuplicateId(f"term {term.id} already exists")
        new_terms[term.id] = term
    for term in batch:
        for rel in term.relations:
            inv = _INVERSE.get(rel.kind)
            target = new_terms.get(rel.target)
            if inv is None or target is None:
                continue
            back = Relation(inv, term.id)
            if back not in target.relations:
                new_terms[rel.target] = replace(target, relations=target.relations + (back,))
    return replace(portion, version=portion.version + 1, terms=new_terms)


def add_label(portion: OntologyPortion, term_id: TermId, label: str) -> OntologyPortion:
    """Append an alternative label. No-op if the label is already present."""
    term = portion.terms.get(term_id)
    if term is None:
        raise UnknownTerm(f"no term {term_id} in {portion.domain}.{portion.language}")
    key = normalize_text(label)
    if any(normalize_text(existing) == key for existing in term.labels()):
        return portion
    new_term = replace(term, alt_labels=term.alt_labels + (label,))
    return replace(
        portion, version=portion.version + 1, terms={**portion.terms, term_id: new_term}
    )


def lookup_label_kinds(portion: OntologyPortion, label: str) -> tuple[TermId, ...]:
    """The ids, in id order, of the terms with a label that normalizes equal
    to `label`. The name outlives the match kinds the index once kept:
    mapping calls it through this module's global, which the benchmark's
    tracer (bench/traced_serve.py) wraps under this name."""
    return portion.label_index.get(normalize_text(label), ())


# --- structural validation ---


@dataclass(frozen=True)
class Violation:
    rule: str
    terms: tuple[TermId, ...]
    detail: str

    def __str__(self) -> str:
        names = ", ".join(self.terms)
        return f"{self.rule}[{names}]: {self.detail}"


def _broader_sccs(terms: Mapping[TermId, Term]) -> list[list[TermId]]:
    # Tarjan over the broader-edge subgraph; iterative to survive deep chains.
    # Nodes are term positions in id order, so the loop's state is index arrays.
    order = sorted(terms)
    position = {tid: i for i, tid in enumerate(order)}
    graph = [
        [position[r.target] for r in terms[tid].relations
         if r.kind == "broader" and r.target in position]
        for tid in order
    ]
    n = len(order)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    sccs: list[list[TermId]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1 or node in graph[node]:
                    sccs.append([order[member] for member in sorted(scc)])
    return sccs


def _check_term(
    domain: str, terms: Mapping[TermId, Term], tid: TermId, out: list[Violation]
) -> None:
    """Append the term under `tid`'s violations of the per-term rules."""
    term = terms[tid]
    if tid.domain != domain:
        out.append(Violation("term-domain", (tid,), f"domain {tid.domain!r} != portion domain"))
    for label in term.labels():
        if not normalize_text(label):
            out.append(Violation("empty-label", (tid,), f"label {label!r} normalizes to nothing"))
    for rel in term.relations:
        if rel.target == tid:
            out.append(Violation("self-relation", (tid,), f"{rel.kind} points at itself"))
        elif rel.target not in terms:
            out.append(
                Violation("dangling-relation", (tid, rel.target), f"{rel.kind} target missing")
            )
        else:
            inv = _INVERSE.get(rel.kind)
            if inv and Relation(inv, tid) not in terms[rel.target].relations:
                out.append(
                    Violation(
                        "missing-inverse",
                        (tid, rel.target),
                        f"{rel.kind} has no {inv} back-edge",
                    )
                )


def validate_portion(portion: OntologyPortion) -> list[Violation]:
    """Structural checks; returns all violations, empty list when sound."""
    out: list[Violation] = []
    if portion.version < 1:
        out.append(Violation("version", (), f"version {portion.version} must be >= 1"))
    for tid in sorted(portion.terms):
        _check_term(portion.domain, portion.terms, tid, out)
    for scc in _broader_sccs(portion.terms):
        out.append(Violation("broader-cycle", tuple(scc), "broader edges form a cycle"))
    out.sort(key=lambda v: (v.rule, v.terms, v.detail))
    return out


# --- portion persistence (canonical JSON) ---


def _term_to_dict(term: Term) -> dict:
    """One term as portion_to_dict emits it."""
    return {
        "id": term.id,
        "preferred_label": term.preferred_label,
        "alt_labels": list(term.alt_labels),
        "definition": term.definition,
        "relations": [{"kind": r.kind, "target": r.target} for r in term.relations],
    }


def portion_to_dict(portion: OntologyPortion) -> dict:
    """The portion as a JSON-ready dict: the definition that save_portion's
    bytes, built from the terms' kept encodings, are tested against."""
    return {
        "domain": portion.domain,
        "language": portion.language,
        "version": portion.version,
        "terms": [_term_to_dict(portion.terms[tid]) for tid in sorted(portion.terms)],
    }


def _portion_head(domain: str, language: str) -> str:
    """What save_portion writes before the version. Both names are checked
    identifiers, which JSON writes as they are."""
    return f'{{"domain": "{domain}", "language": "{language}", "version": '


_TERMS_OPEN = ', "terms": ['  # what save_portion writes after the version


def save_portion(portion: OntologyPortion) -> bytes:
    """Compact canonical serialization: terms sorted by id, stable key order;
    the loader reads any layout. The bytes are those of
    json.dumps(portion_to_dict(portion), ensure_ascii=False) + "\n": the
    compact encoder joins list members with ", ", so the terms' own
    encodings are joined the same way and only terms without one are encoded."""
    head = _portion_head(portion.domain, portion.language)
    terms = ", ".join(portion.terms[tid].canonical_text for tid in sorted(portion.terms))
    return f"{head}{portion.version}{_TERMS_OPEN}{terms}]}}\n".encode()


# Document shapes; every key is required.
_PORTION_FIELDS = {"domain": str, "language": str, "version": int, "terms": list}
_TERM_FIELDS = {
    "id": str,
    "preferred_label": str,
    "alt_labels": list,
    "definition": (str, type(None)),
    "relations": list,
}
_RELATION_FIELDS = {"kind": str, "target": str}
_ALIGNMENTS_FIELDS = {"links": list}
_LINK_FIELDS = {"source": dict, "target": dict, "relation": str, "confidence": (int, float)}
_REF_FIELDS = {"term": str, "lang": str}


def _parse_term_id(value: str, path: str) -> TermId:
    try:
        return TermId(value)
    except InvalidIdentifier as exc:
        raise SchemaViolation(path, str(exc)) from exc


_VERSION_RE = re.compile(r"[1-9][0-9]*")


def _scan_terms(data: bytes, base: OntologyPortion) -> tuple[int, list] | None:
    """The version and term entries of a body laid out as save_portion lays
    out a portion of base's domain and language, or None for any other body.

    Each entry is the base Term whose canonical text the body repeats at its
    place, or else the element json decodes there. The base is walked in id
    order, so a body that changes a few terms decodes only those; a decoded
    element holding a base id moves the walk past that term. A body that is
    not UTF-8 or JSON, or holds a surrogate escape, gives None: load_json
    decides it."""
    try:
        text = data.decode("utf-8")
        head = _portion_head(base.domain, base.language)
        version = _VERSION_RE.match(text, len(head)) if text.startswith(head) else None
        if (
            version is None
            or not text.startswith(_TERMS_OPEN, version.end())
            or SURROGATE_ESCAPE_RE.search(text)
        ):
            return None
        pos = version.end() + len(_TERMS_OPEN)
        order = sorted(base.terms)
        k = 0
        decode = json.JSONDecoder().raw_decode
        entries: list = []
        more = not text.startswith("]", pos)
        while more:
            old = base.terms[order[k]] if k < len(order) else None
            if old is not None and text.startswith(old.canonical_text, pos):
                entry, pos, k = old, pos + len(old.canonical_text), k + 1
            else:
                entry, pos = decode(text, pos)
                tid = entry.get("id") if isinstance(entry, dict) else None
                if isinstance(tid, str) and tid in base.terms:
                    k = bisect_right(order, tid)
            entries.append(entry)
            more = text.startswith(", ", pos)
            pos += 2 if more else 0
        if not text.startswith("]}", pos) or text[pos + 2:].strip(" \t\n\r"):
            return None
        return int(version[0]), entries
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError too
        return None


def load_portion(data: bytes, base: OntologyPortion | None = None) -> OntologyPortion:
    """Parse and schema-check a portion document. Unknown fields are errors.

    `base`, an earlier result of this function such as the portion a server
    holds for the same (domain, language), only saves work: the result, or
    the error, is the one load_portion(data) gives. A body laid out as
    save_portion writes it is decoded only where it differs from the base's
    terms (_scan_terms), reusing the Term of every entry it repeats, and
    every decoded entry counts as changed; see _rebased for the rest. Any
    other body is loaded in full, the base ignored. The constructor's error
    for a bad version, domain or language passes through."""
    scanned = None if base is None else _scan_terms(data, base)
    if scanned is None:
        doc = check_fields(load_json(data), "$", _PORTION_FIELDS, {})
        domain, language, version = doc["domain"], doc["language"], doc["version"]
        entries = doc["terms"]
        base = None
    else:
        domain, language = base.domain, base.language
        version, entries = scanned
    terms: dict[TermId, Term] = {}
    changed: list[Term] = []  # the terms not reused from base
    # Each id text parsed once; targets share the keys, and the base's.
    ids: dict[str, TermId] = {} if base is None else {tid: tid for tid in base.terms}

    def term_id(text: str, path: str) -> TermId:
        tid = ids.get(text)
        if tid is None:
            tid = ids[text] = _parse_term_id(text, path)
        return tid

    for i, entry in enumerate(entries):
        if isinstance(entry, Term):
            size = len(terms)
            terms[entry.id] = entry
            if len(terms) == size:
                raise SchemaViolation(f"$.terms[{i}].id", f"duplicate term id {entry.id}")
            continue
        path = f"$.terms[{i}]"
        check_fields(entry, path, _TERM_FIELDS, {})
        tid = term_id(entry["id"], f"{path}.id")
        if tid in terms:
            raise SchemaViolation(f"{path}.id", f"duplicate term id {tid}")
        for j, alt in enumerate(entry["alt_labels"]):
            if not isinstance(alt, str):
                raise SchemaViolation(f"{path}.alt_labels[{j}]", "expected a string")
        relations = []
        for j, rel in enumerate(entry["relations"]):
            rpath = f"{path}.relations[{j}]"
            check_fields(rel, rpath, _RELATION_FIELDS, {})
            try:
                relations.append(Relation(rel["kind"], term_id(rel["target"], f"{rpath}.target")))
            except InvariantViolation as exc:
                raise SchemaViolation(f"{rpath}.kind", exc.detail) from exc
        term = Term(
            tid,
            entry["preferred_label"],
            tuple(entry["alt_labels"]),
            entry["definition"],
            tuple(relations),
        )
        terms[tid] = term
        changed.append(term)
    if base is None:
        return OntologyPortion(domain, language, version, terms)
    return _rebased(base, domain, language, version, terms, changed)


def _rebased(
    base: OntologyPortion,
    domain: str,
    language: str,
    version: int,
    terms: dict[TermId, Term],
    changed: list[Term],
) -> OntologyPortion:
    """The portion of `terms`: the base's terms, unchanged but for `changed`.

    When every base term is kept, the unchanged ones passed every rule in
    base, and only a changed term can break one for them: its own relations,
    or a back-edge that one of its base broader/narrower neighbours relies
    on. The broader graph differs from the base's, which has no cycle, only
    if a broader edge changed. A dropped term, which any term may have named,
    a version below 1 or a violation found here goes to the full check."""
    kept = len(terms) - len(changed) + sum(term.id in base.terms for term in changed)
    if version < 1 or kept < len(base.terms):
        return OntologyPortion(domain, language, version, terms)
    check = set()
    broader_changed = False
    for term in changed:
        check.add(term.id)
        old = base.terms.get(term.id)
        old_relations = () if old is None else old.relations
        check.update(r.target for r in old_relations if r.kind in _INVERSE)
        broader_changed = broader_changed or (
            {r.target for r in term.relations if r.kind == "broader"}
            != {r.target for r in old_relations if r.kind == "broader"}
        )
    out: list[Violation] = []
    for tid in check:
        _check_term(domain, terms, tid, out)
    if out or (broader_changed and _broader_sccs(terms)):
        return OntologyPortion(domain, language, version, terms)
    # The cached_property slots, patched over the base's.
    built = {"label_index": _patched_index(base, changed)}
    if "term_tokens" in vars(base):
        built["term_tokens"] = {
            **base.term_tokens, **{term.id: _label_words(term) for term in changed}
        }
    return _checked(
        OntologyPortion, domain=domain, language=language, version=version, terms=terms,
        **built,
    )


def _checked(cls: type, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, built
    without running __post_init__: the caller has checked them."""
    instance = object.__new__(cls)
    vars(instance).update(fields)
    return instance


# --- cross-language alignment ---


class TermRef(NamedTuple):
    """A term in one language. Links order their ends by this text,
    domain#local@lang, which is not tuple order: "x#a1@fr" < "x#a@en"."""

    term: TermId
    lang: str

    def __str__(self) -> str:
        return f"{self.term}@{self.lang}"


@dataclass(frozen=True)
class AlignmentLink:
    """A cross-language link; the constructor owns every per-link rule."""

    source: TermRef
    target: TermRef
    relation: str
    confidence: float

    def __post_init__(self):
        check_language(self.source.lang)
        check_language(self.target.lang)
        if self.relation not in ALIGNMENT_RELATIONS:
            raise InvariantViolation(f"alignment relation must be one of {ALIGNMENT_RELATIONS}")
        if not isinstance(self.confidence, (int, float)) or not 0.0 < self.confidence <= 1.0:
            raise InvariantViolation(f"confidence {self.confidence!r} must be in (0, 1]")
        if self.source.lang == self.target.lang:
            raise SameLanguage(f"both endpoints are in language {self.source.lang!r}")
        object.__setattr__(self, "confidence", float(self.confidence))

    def reversed(self) -> "AlignmentLink":
        """The link from target to source; this link passed every check."""
        return _checked(
            AlignmentLink, source=self.target, target=self.source, relation=self.relation,
            confidence=self.confidence,
        )


@dataclass(frozen=True)
class OntologyStore:
    """All loaded portions plus each alignment link once, keyed by its
    endpoints in canonical orientation (smaller str(TermRef) first)."""

    portions: Mapping[tuple[str, str], OntologyPortion] = field(default_factory=dict)
    alignments: Mapping[tuple[TermRef, TermRef], AlignmentLink] = field(default_factory=dict)

    @cached_property
    def adjacency(self) -> dict[TermRef, tuple[AlignmentLink, ...]]:
        """Each endpoint's outgoing links, sorted by (target language, target id);
        built once per store."""
        out: dict[TermRef, list[AlignmentLink]] = {}
        for link in self.alignments.values():
            out.setdefault(link.source, []).append(link)
            out.setdefault(link.target, []).append(link.reversed())
        return {
            ref: tuple(sorted(links, key=lambda l: (l.target.lang, l.target.term)))
            for ref, links in out.items()
        }

    @cached_property
    def translations(self) -> dict:
        """mapping.translate's memo, ref -> {target language: sorted paths},
        filled as refs are translated. It depends on the links alone, so it
        lives as long as the adjacency does."""
        return {}


def empty_store() -> OntologyStore:
    return OntologyStore({}, {})


def resolve(store: OntologyStore, ref: TermRef) -> Term | None:
    portion = store.portions.get((ref.term.domain, ref.lang))
    if portion is None:
        return None
    return portion.terms.get(ref.term)


def require_term(store: OntologyStore, ref: TermRef) -> Term:
    term = resolve(store, ref)
    if term is None:
        raise UnknownTerm(f"no term {ref.term} in language {ref.lang!r}")
    return term


def resolves(store: OntologyStore, link: AlignmentLink) -> bool:
    """Whether both endpoints name a term the store holds."""
    return resolve(store, link.source) is not None and resolve(store, link.target) is not None


def set_portion(store: OntologyStore, portion: OntologyPortion) -> OntologyStore:
    """Insert or replace a portion; links into it that no longer resolve are
    pruned. When none is, the store's own alignment map, adjacency and
    translation memo are kept.
    A link into the portion names a term the replaced portion holds, so when
    the new one keeps every such term no link is scanned."""
    key = (portion.domain, portion.language)
    old = store.portions.get(key)
    dead = set()
    if old is None or not old.terms.keys() <= portion.terms.keys():
        dead = {
            pair for pair in store.alignments
            if any(
                (ref.term.domain, ref.lang) == key and ref.term not in portion.terms
                for ref in pair
            )
        }
    if dead:
        alignments = {pair: link for pair, link in store.alignments.items() if pair not in dead}
        return OntologyStore({**store.portions, key: portion}, alignments)
    new = OntologyStore({**store.portions, key: portion}, store.alignments)
    for slot in ("adjacency", "translations"):  # the cached_property slots
        if slot in vars(store):
            vars(new)[slot] = vars(store)[slot]
    return new


def add_alignment(store: OntologyStore, *links: AlignmentLink) -> OntologyStore:
    """Upsert links in order; one entry per unordered endpoint pair.
    Every endpoint is checked before the link map is copied, once."""
    for link in links:
        require_term(store, link.source)
        require_term(store, link.target)
    alignments = dict(store.alignments)
    for link in links:
        if str(link.target) < str(link.source):
            link = link.reversed()
        alignments[(link.source, link.target)] = link
    return OntologyStore(store.portions, alignments)


def links_from(store: OntologyStore, ref: TermRef) -> tuple[AlignmentLink, ...]:
    """Outgoing links, sorted by (target language, target id)."""
    return store.adjacency.get(ref, ())


def iter_links(store: OntologyStore) -> list[AlignmentLink]:
    """Each stored link once, in canonical orientation, sorted by endpoints."""
    return sorted(store.alignments.values(), key=lambda l: (str(l.source), str(l.target)))


# --- alignment persistence ---


def save_alignments(links: Iterable[AlignmentLink]) -> bytes:
    doc = {
        "links": [
            {
                "source": link.source._asdict(),
                "target": link.target._asdict(),
                "relation": link.relation,
                "confidence": link.confidence,
            }
            for link in links
        ]
    }
    return (json.dumps(doc, ensure_ascii=False) + "\n").encode()


def _parse_ref(value: object, path: str) -> TermRef:
    check_fields(value, path, _REF_FIELDS, {})
    return TermRef(_parse_term_id(value["term"], f"{path}.term"), value["lang"])


def load_alignments(data: bytes) -> list[AlignmentLink]:
    doc = check_fields(load_json(data), "$", _ALIGNMENTS_FIELDS, {})
    links: list[AlignmentLink] = []
    for i, entry in enumerate(doc["links"]):
        path = f"$.links[{i}]"
        check_fields(entry, path, _LINK_FIELDS, {})
        source = _parse_ref(entry["source"], f"{path}.source")
        target = _parse_ref(entry["target"], f"{path}.target")
        try:
            links.append(AlignmentLink(source, target, entry["relation"], entry["confidence"]))
        except (InvalidIdentifier, InvariantViolation, SameLanguage) as exc:
            raise SchemaViolation(path, exc.detail) from exc
    return links
