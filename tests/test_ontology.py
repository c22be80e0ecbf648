import gc
import json
import re
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfind.errors import (
    DuplicateId,
    InvalidIdentifier,
    InvalidLanguageTag,
    InvariantViolation,
    MalformedDocument,
    PolyfindError,
    SameLanguage,
    SchemaViolation,
    UnknownTerm,
)
from polyfind import ontology
from polyfind.ontology import (
    RELATION_KINDS,
    AlignmentLink,
    OntologyPortion,
    Relation,
    Term,
    TermId,
    TermRef,
    add_alignment,
    add_label,
    add_term,
    add_terms,
    create_portion,
    empty_store,
    iter_links,
    links_from,
    load_alignments,
    load_portion,
    lookup_label_kinds,
    portion_to_dict,
    save_alignments,
    save_portion,
    set_portion,
    validate_portion,
)
from polyfind.textutil import normalize_text

from conftest import ALIGNMENT_FILE, PORTION_FILES, load_fixture_ontology, prefix_store

SQ = TermId("math#square_root")
OP = TermId("math#operation")
RF = TermId("math#root_finding")


def small_portion(language="en"):
    portion = create_portion("math", language)
    return add_terms(
        portion,
        [
            Term(OP, "operation"),
            Term(SQ, "square root", ("sqrt",), "principal square root",
                 (Relation("broader", OP), Relation("related", RF))),
            Term(RF, "root finding"),
        ],
    )


class TestCreatePortion:
    def test_empty_at_version_one(self):
        portion = create_portion("math", "ar")
        assert (portion.domain, portion.language) == ("math", "ar")
        assert portion.version == 1
        assert portion.terms == {}

    def test_bad_language(self):
        with pytest.raises(InvalidIdentifier):
            create_portion("math", "arabic")

    def test_bad_domain(self):
        with pytest.raises(InvalidIdentifier):
            create_portion("", "en")

    def test_replace_checks_domain_and_language(self):
        portion = small_portion()
        with pytest.raises(InvalidIdentifier):
            replace(portion, domain="a b")
        with pytest.raises(InvalidLanguageTag):
            replace(portion, language="EN")


class TestAddTerm:
    def test_single_insert_bumps_version(self):
        portion = add_term(create_portion("math", "ar"), Term(SQ, "الجذر التربيعي"))
        assert portion.version == 2
        assert set(portion.terms) == {SQ}

    def test_duplicate_id(self):
        portion = add_term(create_portion("math", "ar"), Term(SQ, "x"))
        with pytest.raises(DuplicateId):
            add_term(portion, Term(SQ, "y"))

    def test_dangling_relation(self):
        with pytest.raises(InvariantViolation, match="dangling-relation"):
            add_term(
                create_portion("math", "ar"),
                Term(SQ, "x", relations=(Relation("broader", OP),)),
            )

    def test_wrong_domain(self):
        with pytest.raises(InvariantViolation, match="term-domain"):
            add_term(create_portion("math", "ar"), Term(TermId("sports#x"), "x"))

    def test_batch_is_one_version_bump(self):
        portion = small_portion()
        assert portion.version == 2

    def test_inverse_broader_materialized(self):
        portion = small_portion()
        assert Relation("narrower", SQ) in portion.terms[OP].relations

    def test_related_stays_one_way(self):
        portion = small_portion()
        assert all(r.kind != "related" for r in portion.terms[RF].relations)


class TestAddLabel:
    def test_appends_and_bumps_version(self):
        before = small_portion()
        after = add_label(before, SQ, "radical")
        assert after.version == before.version + 1
        assert "radical" in after.terms[SQ].alt_labels

    def test_duplicate_label_is_noop(self):
        portion = small_portion()
        assert add_label(portion, SQ, "SQRT") is portion

    def test_unknown_term(self):
        with pytest.raises(UnknownTerm):
            add_label(small_portion(), TermId("math#nope"), "x")

    def test_blank_label(self):
        with pytest.raises(InvariantViolation):
            add_label(small_portion(), SQ, "   ")


class TestLookupLabel:
    def test_preferred_case_insensitive(self):
        assert lookup_label_kinds(small_portion(), "Square Root") == (SQ,)

    def test_alt_label_kind(self):
        assert lookup_label_kinds(small_portion(), "sqrt") == (SQ,)

    def test_arabic_fixture_label(self):
        portion = load_portion(PORTION_FILES[0].read_bytes())
        assert portion.language == "ar"
        assert lookup_label_kinds(portion, "الجذر التربيعي") == (SQ,)

    def test_no_match(self):
        assert lookup_label_kinds(small_portion(), "banana") == ()

    def test_whitespace_invariant(self):
        portion = small_portion()
        assert lookup_label_kinds(portion, "  square   root ") == lookup_label_kinds(
            portion, "square root"
        )


def brute_force_lookup(portion, label):
    """The sorted full scan that the label index replaced: the oracle."""
    key = normalize_text(label)
    return tuple(
        tid for tid in sorted(portion.terms, key=str)
        if any(normalize_text(held) == key for held in portion.terms[tid].labels())
    )


# Labels that collide after normalization: case, whitespace runs, Arabic
# tashkeel (U+064E, U+0652) and tatweel (U+0640).
_COLLIDING_LABELS = [
    "root", "Root", " ROOT ", "square root", "Square\t  Root", "sqrt",
    "جذر", "جـذر", "جَذْر", "رقم", "رَقْم",
]
_index_label = st.sampled_from(_COLLIDING_LABELS) | st.text(
    alphabet="abAB \tجذر\u064e\u0640", min_size=1, max_size=6
).filter(lambda s: normalize_text(s) != "")


@st.composite
def labelled_portions(draw):
    # Up to 12 terms, so str order (t10 < t2) differs from numeric order.
    n = draw(st.integers(min_value=1, max_value=12))
    batch = []
    for i in range(n):
        preferred = draw(_index_label)
        alts = draw(st.lists(_index_label, max_size=3))
        if draw(st.booleans()):
            alts.append(preferred.upper())  # alt equal to the preferred label
        if alts and draw(st.booleans()):
            alts.append(alts[0])  # a duplicate alt label
        batch.append(Term(TermId(f"dom#t{i}"), preferred, tuple(alts)))
    language = draw(st.sampled_from(["en", "ar"]))
    return add_terms(create_portion("dom", language), batch)


class TestLabelIndex:
    @given(
        labelled_portions(),
        st.lists(_index_label | st.sampled_from(["", "  ", "\t", "ـ", "َ"]), max_size=8),
    )
    def test_index_equals_brute_force_scan(self, portion, queries):
        labels = [label for term in portion.terms.values() for label in term.labels()]
        variants = [v for label in labels for v in (label, label.upper(), f"  {label}\t")]
        for query in queries + variants:
            assert lookup_label_kinds(portion, query) == brute_force_lookup(portion, query)

    def test_shared_label_lists_each_term_once_in_id_order(self):
        a, b = TermId("dom#t10"), TermId("dom#t2")
        portion = add_terms(create_portion("dom", "en"), [
            Term(b, "root", ("Root", "root")),
            Term(a, "radix", ("ROOT",)),
        ])
        assert lookup_label_kinds(portion, "root") == (a, b)

    def test_edited_portion_sees_the_edit(self):
        portion = small_portion()
        assert lookup_label_kinds(portion, "radix") == ()  # builds the index
        new = TermId("math#radix")
        replaced = replace(portion, terms={**portion.terms, new: Term(new, "radix")})
        assert lookup_label_kinds(replaced, "radix") == (new,)
        added = add_terms(portion, [Term(new, "radix")])
        assert lookup_label_kinds(added, "radix") == (new,)
        labelled = add_label(portion, SQ, "Radix")
        assert lookup_label_kinds(labelled, "radix") == (SQ,)
        assert lookup_label_kinds(portion, "radix") == ()


class TestTermTokens:
    def test_distinct_words_of_every_label_first_seen_first(self):
        sq, rf = TermId("math#sq"), TermId("math#rf")
        portion = add_terms(create_portion("math", "en"), [
            Term(sq, "Square Root", ("squareRoot", "root of X", "الجَذر")),
            Term(rf, "root_finding"),
        ])
        assert portion.term_tokens == {
            sq: ("square", "root", "of", "x", "الجذر"),
            rf: ("root", "finding"),
        }


def structural_error(build) -> str:
    """The detail of the InvariantViolation that build() raises."""
    with pytest.raises(InvariantViolation) as err:
        build()
    return err.value.detail


class TestValidatePortion:
    def test_fixture_is_clean(self):
        assert validate_portion(small_portion()) == []
        for path in PORTION_FILES:
            assert validate_portion(load_portion(path.read_bytes())) == []

    def test_broader_cycle(self):
        a, b = TermId("d#a"), TermId("d#b")
        detail = structural_error(lambda: add_terms(
            create_portion("d", "en"),
            [
                Term(a, "a", relations=(Relation("broader", b),)),
                Term(b, "b", relations=(Relation("broader", a),)),
            ],
        ))
        assert "broader-cycle[d#a, d#b]: broader edges form a cycle" in detail

    def test_missing_inverse(self):
        # Hand-built terms bypass add_terms, so no back-edge exists.
        a, b = TermId("d#a"), TermId("d#b")
        terms = {a: Term(a, "a", relations=(Relation("broader", b),)), b: Term(b, "b")}
        assert structural_error(lambda: OntologyPortion("d", "en", 2, terms)) == (
            "portion is structurally invalid: missing-inverse[d#a, d#b]: "
            "broader has no narrower back-edge"
        )

    def test_self_relation_and_bad_version(self):
        a = TermId("d#a")
        terms = {a: Term(a, "a", relations=(Relation("related", a),))}
        assert structural_error(lambda: OntologyPortion("d", "en", 0, terms)) == (
            "portion is structurally invalid: self-relation[d#a]: related points at itself; "
            "version[]: version 0 must be >= 1"
        )

    def test_violation_str_names_rule_and_terms(self):
        a = TermId("d#a")
        assert structural_error(lambda: OntologyPortion("d", "en", 1, {a: Term(a, " ")})) == (
            "portion is structurally invalid: empty-label[d#a]: label ' ' normalizes to nothing"
        )

    def test_replace_and_load_check_the_portion(self):
        portion = small_portion()
        operation = portion.terms[OP]
        looped = replace(operation, relations=operation.relations + (Relation("related", OP),))
        detail = structural_error(
            lambda: replace(portion, terms={**portion.terms, OP: looped})
        )
        assert detail == (
            "portion is structurally invalid: self-relation[math#operation]: related points at itself"
        )
        doc = json.loads(save_portion(portion))
        doc["terms"][0]["relations"] = []  # math#operation loses its narrower edge
        detail = structural_error(lambda: load_portion(json.dumps(doc).encode()))
        assert detail.startswith(
            "portion is structurally invalid: missing-inverse[math#square_root, math#operation]"
        )


def violation_texts(terms):
    """validate_portion's verdict, as text, on terms no portion may hold:
    the constructor raises with every violation."""
    try:
        OntologyPortion("d", "en", 1, terms)
    except InvariantViolation as exc:
        return exc.detail.removeprefix("portion is structurally invalid: ").split("; ")
    return []


def brute_force_violations(broader, back_edges):
    """The oracle: self-relation and missing-inverse per edge, and one
    broader-cycle per group of mutually reachable terms on a cycle."""
    reach = {}
    for tid in broader:
        seen, todo = set(), list(broader[tid])
        while todo:
            nxt = todo.pop()
            if nxt not in seen:
                seen.add(nxt)
                todo.extend(broader[nxt])
        reach[tid] = seen
    out = set()
    for tid, targets in broader.items():
        for target in targets:
            if target == tid:
                out.add(("self-relation", (tid,), "broader points at itself"))
            elif (target, tid) not in back_edges:
                out.add(("missing-inverse", (tid, target), "broader has no narrower back-edge"))
        if tid in reach[tid]:
            group = sorted((u for u in broader if u in reach[tid] and tid in reach[u]), key=str)
            out.add(("broader-cycle", tuple(group), "broader edges form a cycle"))
    return [
        f"{rule}[{', '.join(str(t) for t in tids)}]: {detail}"
        for rule, tids, detail in sorted(out, key=lambda v: (v[0], tuple(map(str, v[1])), v[2]))
    ]


@st.composite
def broader_graphs(draw):
    # Up to 12 terms, so str order (d#t10 < d#t2) differs from numeric order;
    # self-edges allowed; each back-edge present or not.
    n = draw(st.integers(min_value=1, max_value=12))
    ids = [TermId(f"d#t{i}") for i in range(n)]
    broader = {
        tid: draw(st.lists(st.sampled_from(ids), unique=True, max_size=3)) for tid in ids
    }
    back_edges = {
        (target, tid)
        for tid, targets in broader.items() for target in targets
        if target != tid and draw(st.booleans())
    }
    return broader, back_edges


class TestBroaderCycleOracle:
    @given(broader_graphs())
    def test_violations_equal_brute_force(self, graph):
        broader, back_edges = graph
        terms = {
            tid: Term(tid, str(tid), relations=(
                *(Relation("broader", t) for t in targets),
                *(Relation("narrower", src) for tgt, src in sorted(back_edges) if tgt == tid),
            ))
            for tid, targets in broader.items()
        }
        assert violation_texts(terms) == brute_force_violations(broader, back_edges)


class TestPersistence:
    def test_round_trip_fixture(self):
        portion = small_portion()
        assert load_portion(save_portion(portion)) == portion

    def test_truncated_document(self):
        data = save_portion(small_portion())[:-30]
        with pytest.raises(MalformedDocument):
            load_portion(data)

    def test_version_zero(self):
        doc = json.loads(save_portion(small_portion()))
        doc["version"] = 0
        with pytest.raises(InvariantViolation, match="version 0 must be >= 1"):
            load_portion(json.dumps(doc).encode())

    def test_unknown_field_rejected(self):
        doc = json.loads(save_portion(small_portion()))
        doc["extra"] = 1
        with pytest.raises(SchemaViolation):
            load_portion(json.dumps(doc).encode())

    def test_boolean_is_not_a_version(self):
        doc = json.loads(save_portion(small_portion()))
        doc["version"] = True
        with pytest.raises(SchemaViolation):
            load_portion(json.dumps(doc).encode())

    def test_error_paths_point_at_field(self):
        doc = json.loads(save_portion(small_portion()))
        doc["terms"][0]["id"] = "no-separator"
        with pytest.raises(SchemaViolation) as err:
            load_portion(json.dumps(doc).encode())
        assert err.value.path == "$.terms[0].id"

    def test_save_is_canonical(self):
        portion = small_portion()
        assert save_portion(portion) == save_portion(portion)
        assert save_portion(portion).endswith(b"\n")

    @pytest.mark.parametrize("path", [*PORTION_FILES, ALIGNMENT_FILE], ids=lambda p: p.name)
    def test_indented_files_load_equal_to_their_compact_rewrite(self, path):
        indented = path.read_bytes()
        assert b"\n " in indented
        compact = (json.dumps(json.loads(indented), ensure_ascii=False) + "\n").encode()
        load, save = (
            (load_alignments, save_alignments) if path == ALIGNMENT_FILE
            else (load_portion, save_portion)
        )
        assert load(compact) == load(indented)
        assert save(load(indented)) == compact

    # A bad domain or language tag is the portion constructor's own error,
    # which has no path; every other refusal here names its path.
    @pytest.mark.parametrize("mutate, error, path", [
        (lambda doc: doc.update(domain="ma th"), InvalidIdentifier, None),
        (lambda doc: doc.update(language="english"), InvalidLanguageTag, None),
        (
            lambda doc: doc["terms"][1].update(id=doc["terms"][0]["id"]),
            SchemaViolation, "$.terms[1].id",
        ),
        # terms[0] (math#operation) names math#square_root as a narrower
        # target; terms[1] then defines it, which is no duplicate, and
        # terms[2] defines it again.
        (
            lambda doc: doc["terms"][1].update(id="math#square_root"),
            SchemaViolation, "$.terms[2].id",
        ),
        (
            lambda doc: doc["terms"][0].update(alt_labels=[3]),
            SchemaViolation, "$.terms[0].alt_labels[0]",
        ),
        (
            lambda doc: doc["terms"][0]["relations"][0].update(kind="sideways"),
            SchemaViolation, "$.terms[0].relations[0].kind",
        ),
    ], ids=[
        "bad-domain", "bad-language", "duplicate-id", "duplicate-of-a-target",
        "non-string-alt-label", "bad-relation-kind",
    ])
    def test_schema_violation_names_its_path(self, mutate, error, path):
        doc = json.loads(save_portion(small_portion()))
        assert doc["terms"][0]["relations"][0] == {"kind": "narrower", "target": str(SQ)}
        mutate(doc)
        with pytest.raises(error) as err:
            load_portion(json.dumps(doc).encode())
        assert err.type is error
        assert getattr(err.value, "path", None) == path

    def test_relation_targets_are_the_term_keys(self):
        for portion in [small_portion(), *map(load_portion, map(Path.read_bytes, PORTION_FILES))]:
            doc = json.loads(save_portion(portion))
            doc["terms"][-1]["alt_labels"].append("edited")  # one term not reused
            for loaded in (
                load_portion(save_portion(portion)),
                load_portion(json.dumps(doc).encode(), base=portion),
            ):
                keys = {tid: tid for tid in loaded.terms}
                targets = [rel.target for term in loaded.terms.values() for rel in term.relations]
                assert targets
                assert all(keys[target] is target for target in targets)


_label = st.text(
    alphabet="abcdefghij éàç", min_size=1, max_size=10
).filter(lambda s: normalize_text(s) != "")


@st.composite
def portions(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [TermId(f"dom#t{i}") for i in range(n)]
    batch = []
    for i, tid in enumerate(ids):
        relations = []
        if i and draw(st.booleans()):
            relations.append(Relation("broader", ids[draw(st.integers(0, i - 1))]))
        if i and draw(st.booleans()):
            relations.append(Relation("related", ids[draw(st.integers(0, i - 1))]))
        batch.append(
            Term(
                tid,
                draw(_label),
                tuple(draw(st.lists(_label, max_size=2))),
                draw(st.none() | _label),
                tuple(relations),
            )
        )
    language = draw(st.sampled_from(["en", "fr", "ar"]))
    return add_terms(create_portion("dom", language), batch)


class TestProperties:
    @given(portions())
    def test_round_trip_identity(self, portion):
        assert load_portion(save_portion(portion)) == portion

    @given(portions())
    def test_generated_portions_validate_clean(self, portion):
        assert validate_portion(portion) == []

    @given(portions(), _label)
    def test_add_label_keeps_portion_valid(self, portion, label):
        tid = sorted(portion.terms, key=str)[0]
        after = add_label(portion, tid, label)
        assert validate_portion(after) == []
        assert after.version >= portion.version


# Text the encoder must escape or pass through: quotes, backslashes,
# control characters, line separators, non-BMP and non-Latin characters.
_hard_text = st.text(
    alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\U0001d538\U0001f600éجـ a')
    | st.characters(blacklist_categories=("Cs",)),
    max_size=8,
)
_hard_label = _hard_text.filter(lambda s: normalize_text(s) != "")


@st.composite
def hard_text_portions(draw):
    """A portion from portions() or labelled_portions() with labels and
    definitions drawn from _hard_text, or None as a definition."""
    portion = draw(portions() | labelled_portions())
    terms = {
        tid: replace(
            term,
            preferred_label=draw(st.just(term.preferred_label) | _hard_label),
            alt_labels=term.alt_labels + tuple(draw(st.lists(_hard_label, max_size=2))),
            definition=draw(st.just(term.definition) | st.none() | _hard_text),
        )
        for tid, term in portion.terms.items()
    }
    return replace(portion, terms=terms)


def reference_encoding(portion):
    """What save_portion writes, by its definition."""
    return (json.dumps(portion_to_dict(portion), ensure_ascii=False) + "\n").encode()


_ident_text = st.from_regex(r"[A-Za-z0-9_-]{1,4}", fullmatch=True)


class TestIdOrder:
    """Files list ids and links in text order: an id's domain#local, a
    link end's domain#local@lang, which is not (term, lang) order."""

    LINKS = [
        ("x#a@en", "x#a1@fr", "exact", 1.0),
        ("x#a-b@en", "x#a@fr", "close", 0.5),
        ("x#a_@en", "x#aB@fr", "exact", 0.75),
        ("x#a@fr", "x#a@en", "exact", 1.0),
        ("x#a@en", "x#a_@fr", "close", 0.25),
        ("x#a@en", "x#a-b@de", "exact", 1.0),
    ]

    def test_saved_links_keep_text_orientation_and_order(self):
        def link(source, target, relation, confidence):
            (s, sl), (t, tl) = source.split("@"), target.split("@")
            return (
                f'{{"source": {{"term": "{s}", "lang": "{sl}"}}, '
                f'"target": {{"term": "{t}", "lang": "{tl}"}}, '
                f'"relation": "{relation}", "confidence": {confidence}}}'
            )

        expected = [
            link("x#a-b@de", "x#a@en", "exact", 1.0),
            link("x#a-b@en", "x#a@fr", "close", 0.5),
            link("x#a1@fr", "x#a@en", "exact", 1.0),  # "1" < "@": x#a1@fr is the source
            link("x#a@en", "x#a@fr", "exact", 1.0),
            link("x#a@en", "x#a_@fr", "close", 0.25),
            link("x#aB@fr", "x#a_@en", "exact", 0.75),
        ]
        body = save_alignments(iter_links(prefix_store(self.LINKS)))
        assert body == ('{"links": [' + ", ".join(expected) + "]}\n").encode()

    def test_links_from_order(self):
        store = prefix_store(self.LINKS)
        (a,) = (tid for tid in store.portions[("x", "en")].terms if tid.local == "a")
        assert [str(l.target) for l in links_from(store, TermRef(a, "en"))] == [
            "x#a-b@de", "x#a@fr", "x#a1@fr", "x#a_@fr",
        ]

    @given(st.sampled_from(["x", "X-1", "d_0"]), st.lists(_ident_text, min_size=1, unique=True))
    def test_save_portion_lists_terms_in_text_order(self, domain, locals_):
        ids = [f"{domain}#{local}" for local in locals_]
        terms = [
            {"id": tid, "preferred_label": "t", "alt_labels": [], "definition": None,
             "relations": []}
            for tid in ids
        ]
        doc = {"domain": domain, "language": "en", "version": 1, "terms": terms}
        saved = json.loads(save_portion(load_portion(json.dumps(doc).encode())))
        assert [term["id"] for term in saved["terms"]] == sorted(ids)


class TestSerializer:
    @given(hard_text_portions(), st.data())
    def test_save_equals_the_reference_encoding(self, portion, data):
        body = save_portion(portion)
        assert body == reference_encoding(portion)
        # A load over the portion keeps its terms, now carrying encodings.
        assert save_portion(load_portion(body, base=portion)) == body
        doc = json.loads(body)
        term = doc["terms"][data.draw(st.integers(0, len(doc["terms"]) - 1))]
        term["alt_labels"].append(data.draw(_hard_label))
        term["definition"] = data.draw(st.none() | _hard_text)
        doc["version"] += 1
        edited = load_portion(json.dumps(doc).encode(), base=portion)
        assert save_portion(edited) == reference_encoding(edited)
        assert json.loads(save_portion(edited)) == doc


def load_outcome(load):
    """What a load gives: the portion and its label index, or the error's
    class, path and detail."""
    try:
        portion = load()
    except PolyfindError as exc:
        return type(exc).__name__, getattr(exc, "path", None), exc.detail
    return portion, portion.label_index


_EDITS = (
    "relabel", "add-alt", "remove-alt", "add-term", "remove-term", "add-edge",
    "remove-edge", "break-back-edge", "cycle", "empty-label", "duplicate-id",
    "move-term", "version", "bad-field",
)
_EMPTY_LABELS = [" ", "\t", "\u0640", "\u064e"]
_INVERSE_KIND = {"broader": "narrower", "narrower": "broader"}


@st.composite
def edited_bodies(draw):
    """(base, body): a sound base and its canonical document after one to
    three random edits, which may leave the document unsound."""
    base = draw(portions() | labelled_portions())
    doc = json.loads(save_portion(base))
    terms = doc["terms"]
    label = _label | _index_label
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(_EDITS))
        if edit == "add-term" or not terms:
            ids = [t["id"] for t in terms] + ["dom#gone"]
            relations = [
                {"kind": kind, "target": draw(st.sampled_from(ids))}
                for kind in draw(st.lists(st.sampled_from(RELATION_KINDS), max_size=2))
            ]
            new = {
                "id": draw(st.sampled_from(["dom#new", "dom#t3", "other#x"])),
                "preferred_label": draw(label),
                "alt_labels": draw(st.lists(label, max_size=2)),
                "definition": draw(st.none() | label),
                "relations": relations,
            }
            if draw(st.booleans()):  # give the edges their back-edges
                for rel in relations:
                    inverse = _INVERSE_KIND.get(rel["kind"])
                    for t in terms:
                        if inverse and t["id"] == rel["target"]:
                            t["relations"].append({"kind": inverse, "target": new["id"]})
            terms.insert(draw(st.integers(0, len(terms))), new)
            continue
        term = terms[draw(st.integers(0, len(terms) - 1))]
        other = terms[draw(st.integers(0, len(terms) - 1))]
        if edit == "relabel":
            term["preferred_label"] = draw(label)
        elif edit == "add-alt":
            term["alt_labels"].append(draw(label | st.sampled_from(term["alt_labels"] or [""])))
        elif edit == "remove-alt" and term["alt_labels"]:
            term["alt_labels"].pop(draw(st.integers(0, len(term["alt_labels"]) - 1)))
        elif edit == "remove-term":
            terms.remove(term)
        elif edit == "add-edge":
            kind = draw(st.sampled_from(RELATION_KINDS))
            target = draw(st.sampled_from([other["id"], "dom#gone"]))
            term["relations"].append({"kind": kind, "target": target})
            inverse = _INVERSE_KIND.get(kind)
            if inverse and target == other["id"] and draw(st.booleans()):
                other["relations"].append({"kind": inverse, "target": term["id"]})
        elif edit in ("remove-edge", "break-back-edge") and term["relations"]:
            rel = term["relations"].pop(draw(st.integers(0, len(term["relations"]) - 1)))
            inverse = _INVERSE_KIND.get(rel["kind"])
            back = {"kind": inverse, "target": term["id"]}
            if edit == "remove-edge":
                for t in terms:
                    if t["id"] == rel["target"] and back in t["relations"]:
                        t["relations"].remove(back)
        elif edit == "cycle":
            # term and other each broader than the other, back-edges included.
            for a, b in ((term, other), (other, term)):
                a["relations"].append({"kind": "broader", "target": b["id"]})
                b["relations"].append({"kind": "narrower", "target": a["id"]})
        elif edit == "empty-label":
            if draw(st.booleans()):
                term["preferred_label"] = draw(st.sampled_from(_EMPTY_LABELS))
            else:
                term["alt_labels"].append(draw(st.sampled_from(_EMPTY_LABELS)))
        elif edit == "duplicate-id":
            if draw(st.booleans()):
                terms.append(json.loads(json.dumps(term)))
            else:
                other["id"] = term["id"]
        elif edit == "move-term":
            terms.remove(term)
            terms.append(term)
        elif edit == "version":
            doc["version"] = draw(st.integers(0, 9))
        elif edit == "bad-field":
            term[draw(st.sampled_from(["definition", "extra"]))] = 3
    return base, json.dumps(doc, ensure_ascii=False).encode()


def _nth_replaced(text, old, new, n):
    """`text` with occurrence n, modulo their count, of `old` replaced."""
    parts = text.split(old)
    if len(parts) == 1:
        return text
    n %= len(parts) - 1
    return old.join(parts[: n + 1]) + new + old.join(parts[n + 1 :])


def _canonical(doc):
    return json.dumps(doc, ensure_ascii=False)


def _version(text):
    return lambda doc, n: re.sub(r'"version": -?\d+', f'"version": {text}', _canonical(doc), 1)


# Other layouts of a document, each a function of the document and a number
# that picks which occurrence of a text to change. Escapes, whitespace and
# key order leave the document as it was; the other changes break it.
_LAYOUTS = {
    "ensure-ascii": lambda doc, n: json.dumps(doc),
    "indent": lambda doc, n: json.dumps(doc, ensure_ascii=False, indent=2),
    "compact": lambda doc, n: json.dumps(doc, ensure_ascii=False, separators=(",", ":")),
    "head-reordered": lambda doc, n: _canonical(dict(sorted(doc.items(), reverse=True))),
    "leading-space": lambda doc, n: " " + _canonical(doc),
    "trailing-space": lambda doc, n: _canonical(doc) + " \t\r\n",
    "bom": lambda doc, n: "\ufeff" + _canonical(doc),
    "trailing-bytes": lambda doc, n: _canonical(doc) + ["}", "x", " 1", "]}"][n % 4],
    "unclosed": lambda doc, n: _canonical(doc)[:-1],
    "duplicate-terms": lambda doc, n: _canonical(doc)[:-1] + ', "terms": []}',
    "escaped-key": lambda doc, n: _nth_replaced(
        _canonical(doc), '"preferred_label"', '"preferred_l\\u0061bel"', n
    ),
    "escaped-hash": lambda doc, n: _nth_replaced(_canonical(doc), "#", "\\u0023", n),
    "lone-surrogate": lambda doc, n: _nth_replaced(
        _canonical(doc), '"preferred_label": "', '"preferred_label": "\\ud800', n
    ),
    "deep": lambda doc, n: _nth_replaced(
        _canonical(doc), '"definition": ', '"definition": ' + "[" * 100_000 + "]" * 100_000
        + ', "definition": ', n
    ),
    "version-1.0": _version("1.0"),
    "version-01": _version("01"),
    "version--1": _version("-1"),
    "version-0": _version("0"),
}


@st.composite
def relaid_bodies(draw):
    """(base, body): an edited body of edited_bodies() in another layout,
    or as bytes that are not UTF-8."""
    base, body = draw(edited_bodies())
    doc = json.loads(body)
    layout = draw(st.sampled_from([*_LAYOUTS, "not-utf-8"]))
    if layout == "not-utf-8":
        at = draw(st.integers(0, len(body)))
        return base, body[:at] + b"\xc3" + body[at:]
    return base, _LAYOUTS[layout](doc, draw(st.integers(0, 9))).encode()


class TestLoadOverBase:
    """load_portion(body, base=...) reuses the base's unchanged terms and
    patches its label index, and its term tokens when the base's were built;
    load_portion(body) is the definition."""

    @given(edited_bodies() | relaid_bodies(), st.booleans())
    def test_equals_a_full_load(self, case, with_tokens):
        base, body = case
        index = base.label_index  # built, as for every portion a server holds
        tokens = base.term_tokens if with_tokens else None  # built after the first put
        fast = load_outcome(lambda: load_portion(body, base=base))
        assert fast == load_outcome(lambda: load_portion(body))
        assert base.label_index is index
        assert index == replace(base).label_index  # the patch left the base alone
        if isinstance(fast[0], OntologyPortion):
            assert fast[1] is not index
            if with_tokens:
                assert fast[0].term_tokens == load_portion(body).term_tokens
        if with_tokens:
            assert base.term_tokens is tokens
            assert tokens == replace(base).term_tokens

    @staticmethod
    def edited(portion, edit):
        doc = json.loads(save_portion(portion))
        edit(doc)
        return json.dumps(doc, ensure_ascii=False).encode()

    @staticmethod
    def count_validations(monkeypatch):
        calls = []
        validate = ontology.validate_portion
        monkeypatch.setattr(
            ontology, "validate_portion", lambda portion: calls.append(1) or validate(portion)
        )
        return calls

    def test_an_edit_reuses_the_other_terms_and_patches_the_index(self, monkeypatch):
        base = load_portion(PORTION_FILES[1].read_bytes())
        base.label_index, base.term_tokens
        body = self.edited(base, lambda doc: doc["terms"][0]["alt_labels"].append("Radix"))
        calls = self.count_validations(monkeypatch)
        portion = load_portion(body, base=base)
        assert calls == []
        changed = [tid for tid in portion.terms if portion.terms[tid] is not base.terms[tid]]
        assert changed == [sorted(base.terms, key=str)[0]]
        assert "label_index" in vars(portion) and "term_tokens" in vars(portion)
        assert lookup_label_kinds(portion, "radix") == (changed[0],)
        assert portion.term_tokens[changed[0]][-1] == "radix"
        assert (portion, portion.label_index) == load_outcome(lambda: load_portion(body))
        assert portion.term_tokens == load_portion(body).term_tokens

    def test_a_dropped_term_takes_the_full_check(self, monkeypatch):
        base = load_portion(PORTION_FILES[1].read_bytes())
        body = self.edited(base, lambda doc: doc["terms"].pop())
        calls = self.count_validations(monkeypatch)
        detail = structural_error(lambda: load_portion(body, base=base))
        assert calls == [1]
        assert "dangling-relation" in detail or "missing-inverse" in detail

    def test_a_violation_takes_the_full_check(self, monkeypatch):
        base = small_portion()
        body = self.edited(base, lambda doc: doc["terms"][0]["relations"].clear())
        calls = self.count_validations(monkeypatch)
        with pytest.raises(InvariantViolation) as fast:
            load_portion(body, base=base)
        assert calls == [1]
        with pytest.raises(InvariantViolation) as full:
            load_portion(body)
        assert fast.value.detail == full.value.detail

    def test_version_zero_refuses_as_a_full_load_does(self):
        base = small_portion()
        body = self.edited(base, lambda doc: doc.update(version=0))  # every term kept
        with pytest.raises(InvariantViolation) as fast:
            load_portion(body, base=base)
        with pytest.raises(InvariantViolation) as full:
            load_portion(body)
        assert fast.value.detail == full.value.detail == (
            "portion is structurally invalid: version[]: version 0 must be >= 1"
        )

    def test_base_of_another_pair_is_ignored(self):
        en = small_portion("en")
        body = self.edited(en, lambda doc: doc.update(language="fr"))
        assert load_portion(body, base=en) == replace(en, language="fr")

    def test_a_label_holding_escape_text_is_scanned_not_decoded(self):
        term = Term(TermId("math#back"), "back\\ud800slash")
        base = add_terms(create_portion("math", "en"), [term])
        body = save_portion(base)
        assert b'"back\\\\ud800slash"' in body  # an escaped backslash, then text
        assert ontology._scan_terms(body, base) == (base.version, [term])
        # An escaped backslash, then a lone surrogate escape.
        bad = body.replace(b"back\\\\ud800", b"back\\\\\\ud800")
        for load in (lambda: load_portion(bad, base=base), lambda: load_portion(bad)):
            with pytest.raises(MalformedDocument, match="lone surrogate"):
                load()

    def test_keeps_no_reference_to_its_base(self):
        base = load_portion(PORTION_FILES[1].read_bytes())
        base.label_index
        body = self.edited(base, lambda doc: doc["terms"][0]["alt_labels"].append("radix"))
        portion = load_portion(body, base=base)
        gone = weakref.ref(base)
        del base
        gc.collect()
        assert gone() is None
        assert lookup_label_kinds(portion, "radix")


class TestAlignments:
    def build_store(self):
        store = empty_store()
        store = set_portion(store, small_portion("en"))
        ar = add_terms(
            create_portion("math", "ar"),
            [Term(OP, "عملية"), Term(SQ, "الجذر التربيعي", relations=(Relation("broader", OP),))],
        )
        return set_portion(store, ar)

    def test_symmetric_retrieval(self):
        store = self.build_store()
        link = AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "en"), "exact", 1.0)
        store = add_alignment(store, link)
        forward = links_from(store, TermRef(SQ, "ar"))
        backward = links_from(store, TermRef(SQ, "en"))
        assert [(l.target, l.relation, l.confidence) for l in forward] == [
            (TermRef(SQ, "en"), "exact", 1.0)
        ]
        assert [(l.target, l.relation, l.confidence) for l in backward] == [
            (TermRef(SQ, "ar"), "exact", 1.0)
        ]

    def test_unknown_endpoint(self):
        store = self.build_store()
        with pytest.raises(UnknownTerm):
            add_alignment(
                store, AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "fr"), "exact", 1.0)
            )

    def test_same_language(self):
        store = self.build_store()
        with pytest.raises(SameLanguage):
            add_alignment(
                store, AlignmentLink(TermRef(SQ, "ar"), TermRef(OP, "ar"), "exact", 1.0)
            )

    def test_upsert_replaces_confidence(self):
        store = self.build_store()
        ref_ar, ref_en = TermRef(SQ, "ar"), TermRef(SQ, "en")
        store = add_alignment(store, AlignmentLink(ref_ar, ref_en, "exact", 1.0))
        store = add_alignment(store, AlignmentLink(ref_en, ref_ar, "close", 0.5))
        assert len(iter_links(store)) == 1
        (link,) = links_from(store, ref_ar)
        assert (link.relation, link.confidence) == ("close", 0.5)

    def test_batch_equals_sequential_adds(self):
        store = self.build_store()
        sq_ar, sq_en = TermRef(SQ, "ar"), TermRef(SQ, "en")
        links = [
            AlignmentLink(sq_ar, sq_en, "exact", 1.0),
            AlignmentLink(TermRef(OP, "en"), TermRef(OP, "ar"), "close", 0.8),
            AlignmentLink(sq_en, sq_ar, "close", 0.5),  # upserts the first pair
        ]
        sequential = store
        for link in links:
            sequential = add_alignment(sequential, link)
        batch = add_alignment(store, *links)
        assert batch == sequential
        assert list(batch.alignments) == list(sequential.alignments)
        assert iter_links(batch) == iter_links(sequential)

    def test_batch_with_one_bad_link_raises(self):
        store = self.build_store()
        good = AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "en"), "exact", 1.0)
        unknown = AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "fr"), "exact", 1.0)
        with pytest.raises(SameLanguage):
            AlignmentLink(TermRef(SQ, "ar"), TermRef(OP, "ar"), "exact", 1.0)
        with pytest.raises(UnknownTerm):
            add_alignment(store, good, unknown)
        assert iter_links(store) == []

    def test_replacing_portion_prunes_dead_links(self):
        store = self.build_store()
        store = add_alignment(
            store, AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "en"), "exact", 1.0)
        )
        shrunk = add_term(create_portion("math", "ar"), Term(OP, "عملية"))
        store = set_portion(store, shrunk)
        assert links_from(store, TermRef(SQ, "en")) == ()
        assert iter_links(store) == []

    def test_confidence_range_checked(self):
        with pytest.raises(InvariantViolation):
            AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "en"), "exact", 0.0)
        with pytest.raises(InvariantViolation):
            AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "en"), "almost", 1.0)

    def test_link_constructor_rejects_same_language(self):
        with pytest.raises(SameLanguage):
            AlignmentLink(TermRef(SQ, "en"), TermRef(OP, "en"), "exact", 1.0)

    def test_same_language_entry_is_schema_violation(self):
        doc = {"links": [{
            "source": {"term": "math#square_root", "lang": "en"},
            "target": {"term": "math#operation", "lang": "en"},
            "relation": "exact",
            "confidence": 1.0,
        }]}
        with pytest.raises(SchemaViolation) as err:
            load_alignments(json.dumps(doc).encode())
        assert err.value.path == "$.links[0]"

    def test_each_link_stored_once_in_canonical_orientation(self):
        store = self.build_store()
        ref_ar, ref_en = TermRef(SQ, "ar"), TermRef(SQ, "en")
        store = add_alignment(store, AlignmentLink(ref_en, ref_ar, "close", 0.5))
        assert store.alignments == {
            (ref_ar, ref_en): AlignmentLink(ref_ar, ref_en, "close", 0.5)
        }
        assert links_from(store, ref_en) is links_from(store, ref_en)

    def test_replace_that_prunes_nothing_keeps_links_and_adjacency(self):
        store = add_alignment(
            self.build_store(), AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "en"), "exact", 1.0)
        )
        (link,) = links_from(store, TermRef(SQ, "en"))
        replaced = set_portion(store, add_label(small_portion("en"), SQ, "radical"))
        assert replaced.alignments is store.alignments
        assert links_from(replaced, TermRef(SQ, "en"))[0] is link

    def test_adjacency_reverses_links_without_checking_them_again(self, monkeypatch):
        store = load_fixture_ontology()
        checks = []
        post_init = AlignmentLink.__post_init__
        monkeypatch.setattr(
            AlignmentLink, "__post_init__", lambda link: checks.append(link) or post_init(link)
        )
        adjacency = store.adjacency
        assert checks == []
        monkeypatch.undo()
        assert sum(map(len, adjacency.values())) == 2 * len(store.alignments) == 30
        for link in store.alignments.values():
            assert link in adjacency[link.source]
            back = AlignmentLink(link.target, link.source, link.relation, link.confidence)
            assert back in adjacency[link.target]

    def test_alignment_file_round_trip(self):
        links = load_alignments(ALIGNMENT_FILE.read_bytes())
        assert len(links) == 15
        assert load_alignments(save_alignments(links)) == links

    def test_alignment_bad_confidence(self):
        doc = {
            "links": [
                {
                    "source": {"term": "math#square_root", "lang": "ar"},
                    "target": {"term": "math#square_root", "lang": "en"},
                    "relation": "exact",
                    "confidence": 1.5,
                }
            ]
        }
        with pytest.raises(SchemaViolation):
            load_alignments(json.dumps(doc).encode())

    def test_fixture_store_links_resolve(self):
        store = load_fixture_ontology()
        for link in iter_links(store):
            assert link.confidence == 1.0
            assert link.relation == "exact"
        assert len(iter_links(store)) == 15
