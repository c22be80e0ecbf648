import math

import pytest

from polyfind import langdetect, ontology, registry, textutil
from polyfind.errors import EmptyQuery, UnknownTerm
from polyfind.mapping import expand_terms, match_keywords, path_to_dict, translate
from polyfind.ontology import (
    AlignmentLink,
    Relation,
    Term,
    TermId,
    TermRef,
    add_alignment,
    add_terms,
    create_portion,
    empty_store,
    load_portion,
    set_portion,
)

from conftest import PORTION_FILES, load_fixture_ontology, oracle_translate, prefix_store

SQ = TermId("math#square_root")
RF = TermId("math#root_finding")
OP = TermId("math#operation")
NEG = TermId("math#negative_number")
NUM = TermId("math#number")


@pytest.fixture(scope="module")
def en_portion():
    return load_portion(PORTION_FILES[1].read_bytes())


class TestMatchKeywords:
    def test_bigram_preferred_label(self, en_portion):
        matches, unmatched = match_keywords(["square", "root"], en_portion)
        assert [(m.term, m.match_kind, m.keyword) for m in matches] == [
            (SQ, "preferred", "square root")
        ]
        assert unmatched == []

    def test_alt_label_single_word(self, en_portion):
        matches, unmatched = match_keywords(["fast", "sqrt"], en_portion)
        assert [(m.term, m.match_kind) for m in matches] == [(SQ, "alt")]
        assert unmatched == ["fast"]

    def test_no_match_keeps_keyword(self, en_portion):
        matches, unmatched = match_keywords(["banana"], en_portion)
        assert matches == []
        assert unmatched == ["banana"]

    def test_empty_input(self, en_portion):
        with pytest.raises(EmptyQuery):
            match_keywords([], en_portion)

    def test_bigram_shadows_unigram(self):
        portion = add_terms(
            create_portion("d", "en"),
            [Term(TermId("d#a"), "square root"), Term(TermId("d#b"), "square")],
        )
        matches, unmatched = match_keywords(["square", "root"], portion)
        assert [m.term for m in matches] == [TermId("d#a")]
        assert unmatched == []

    def test_case_and_diacritics_normalized(self, en_portion):
        matches, _ = match_keywords(["SQUARE", "Root"], en_portion)
        assert [m.term for m in matches] == [SQ]

    def test_conservation(self, en_portion):
        keywords = ["square", "root", "of", "number", "sqrt", "banana"]
        matches, unmatched = match_keywords(keywords, en_portion)
        consumed = sum(len(m.keyword.split()) for m in matches)
        assert consumed + len(unmatched) == len(keywords)

    def test_language_tag_carried(self, en_portion):
        matches, _ = match_keywords(["sqrt"], en_portion)
        assert matches[0].language == "en"


class TestLookupCost:
    KEYWORDS = ["fast", "w3", "w7", "w1", "banana", "w12", "w13"]

    @staticmethod
    def wide_portion(n):
        terms = [Term(TermId(f"dom#t{i}"), f"w{i}", (f"w{i} w{i + 1}",)) for i in range(n)]
        return add_terms(create_portion("dom", "en"), terms)

    def normalize_calls(self, monkeypatch, portion):
        match_keywords(self.KEYWORDS, portion)  # builds the label index
        calls = [0]
        original = textutil.normalize_text

        def counted(text):
            calls[0] += 1
            return original(text)

        # The source, and every module that imports the name.
        with monkeypatch.context() as patched:
            for module in (textutil, ontology, registry, langdetect):
                patched.setattr(module, "normalize_text", counted)
            result = match_keywords(self.KEYWORDS, portion)
        return calls[0], result

    def test_calls_do_not_grow_with_the_portion(self, monkeypatch):
        small_calls, small = self.normalize_calls(monkeypatch, self.wide_portion(20))
        wide_calls, wide = self.normalize_calls(monkeypatch, self.wide_portion(2000))
        assert small == wide
        assert 0 < wide_calls == small_calls


class TestTranslate:
    def test_direct_exact_link(self, fixture_ontology):
        paths = translate(TermRef(SQ, "ar"), "en", fixture_ontology)
        assert len(paths) == 1
        path = paths[0]
        assert path.target == TermRef(SQ, "en")
        assert path.confidence == 1.0
        assert len(path.hops) == 1
        assert path.all_exact

    def test_pivot_two_hop_confidence(self):
        store = load_fixture_ontology(
            confidence_by_pair={
                frozenset({"ar", "en"}): 0.9,
                frozenset({"en", "fr"}): 0.8,
            },
            skip_pairs=frozenset({frozenset({"ar", "fr"})}),
        )
        paths = [p for p in translate(TermRef(SQ, "ar"), "fr", store) if p.target.term == SQ]
        assert len(paths) == 1
        path = paths[0]
        assert len(path.hops) == 2
        assert path.hops[0].target == TermRef(SQ, "en")
        assert path.confidence == 0.9 * 0.8
        assert math.isclose(path.confidence, 0.72, rel_tol=1e-9)

    def test_direct_level_shadows_pivots(self, fixture_ontology):
        # All direct links exist, so every returned path has one hop.
        for path in translate(TermRef(SQ, "ar"), "fr", fixture_ontology):
            assert len(path.hops) == 1

    def test_no_alignment_returns_empty(self):
        store = empty_store()
        store = set_portion(store, add_terms(create_portion("math", "en"), [Term(SQ, "square root")]))
        assert translate(TermRef(SQ, "en"), "fr", store) == []

    def test_unknown_term(self, fixture_ontology):
        with pytest.raises(UnknownTerm):
            translate(TermRef(TermId("math#nope"), "ar"), "en", fixture_ontology)

    def test_symmetry(self, fixture_ontology):
        forward = translate(TermRef(SQ, "ar"), "fr", fixture_ontology)
        backward = translate(TermRef(SQ, "fr"), "ar", fixture_ontology)
        target_conf = {(p.target, p.confidence) for p in forward if p.target.term == SQ}
        reverse_conf = {(p.source, p.confidence) for p in backward if p.target.term == SQ}
        assert {(TermRef(SQ, "fr"), 1.0)} <= target_conf
        assert {(TermRef(SQ, "fr"), 1.0)} <= reverse_conf

    def test_all_exact_outranks_close_at_same_length(self):
        store = empty_store()
        tid = TermId("g#t")
        for lang in ("aa", "bb", "cc", "dd"):
            store = set_portion(store, add_terms(create_portion("g", lang), [Term(tid, f"t-{lang}")]))
        def ref(lang):
            return TermRef(tid, lang)
        store = add_alignment(store, AlignmentLink(ref("aa"), ref("bb"), "exact", 0.5))
        store = add_alignment(store, AlignmentLink(ref("bb"), ref("cc"), "exact", 0.5))
        store = add_alignment(store, AlignmentLink(ref("aa"), ref("dd"), "close", 0.9))
        store = add_alignment(store, AlignmentLink(ref("dd"), ref("cc"), "exact", 0.9))
        paths = translate(ref("aa"), "cc", store)
        assert [tuple(h.target.lang for h in p.hops) for p in paths] == [("bb", "cc"), ("dd", "cc")]
        assert paths[0].all_exact and not paths[1].all_exact
        assert paths[0].confidence < paths[1].confidence
        assert paths == oracle_translate(store, ref("aa"), "cc")

    def test_matches_exhaustive_oracle_on_fixture(self, fixture_ontology):
        for lang in ("ar", "en", "fr"):
            for target in ("ar", "en", "fr"):
                if lang == target:
                    continue
                for tid in (SQ, OP, NUM):
                    ref = TermRef(tid, lang)
                    assert translate(ref, target, fixture_ontology) == oracle_translate(
                        fixture_ontology, ref, target
                    )

    def test_pivot_paths_order_hops_by_text(self):
        # Equal confidence and target term: the hop ends decide, as
        # "domain#local@lang" text, so the pivot x#a1@fr comes before x#a@fr.
        store = prefix_store([
            ("x#a@en", "x#a@fr", "exact", 1.0),
            ("x#a@en", "x#a1@fr", "exact", 1.0),
            ("x#a@fr", "x#a@de", "exact", 1.0),
            ("x#a1@fr", "x#a@de", "exact", 1.0),
            ("x#a1@fr", "x#a-b@de", "exact", 1.0),
            ("x#a@fr", "x#a_@de", "exact", 1.0),
            ("x#a@fr", "x#aB@de", "exact", 1.0),
        ])
        (a,) = (tid for tid in store.portions[("x", "en")].terms if tid.local == "a")
        paths = translate(TermRef(a, "en"), "de", store)
        assert [tuple(str(hop.target) for hop in path.hops) for path in paths] == [
            ("x#a1@fr", "x#a@de"),
            ("x#a@fr", "x#a@de"),
            ("x#a1@fr", "x#a-b@de"),
            ("x#a@fr", "x#aB@de"),
            ("x#a@fr", "x#a_@de"),
        ]
        assert paths == oracle_translate(store, TermRef(a, "en"), "de")

    def test_path_to_dict_shape(self, fixture_ontology):
        (path,) = translate(TermRef(NUM, "ar"), "en", fixture_ontology)
        doc = path_to_dict(path)
        assert doc["source"] == {"term": "math#number", "lang": "ar"}
        assert doc["target"] == {"term": "math#number", "lang": "en"}
        assert doc["confidence"] == 1.0
        assert len(doc["hops"]) == 1


class TestExpandTerms:
    def test_single_related_edge(self):
        portion = add_terms(
            create_portion("math", "en"),
            [
                Term(RF, "root finding"),
                Term(SQ, "square root", relations=(Relation("related", RF),)),
            ],
        )
        assert expand_terms([SQ], portion) == [RF]

    def test_fixture_depth_one(self, en_portion):
        assert expand_terms([SQ], en_portion) == [OP, RF]

    def test_narrower_edges_excluded(self, en_portion):
        # operation's only edges are materialized narrower back-edges.
        assert expand_terms([OP], en_portion) == []

    def test_unknown_term(self, en_portion):
        with pytest.raises(UnknownTerm):
            expand_terms([TermId("math#nope")], en_portion)

    def test_no_relations(self, en_portion):
        assert expand_terms([NUM], en_portion) == []

    def test_depth_two_chain(self):
        a, b, c = (TermId(f"d#{x}") for x in "abc")
        portion = add_terms(
            create_portion("d", "en"),
            [
                Term(c, "c"),
                Term(b, "b", relations=(Relation("related", c),)),
                Term(a, "a", relations=(Relation("related", b),)),
            ],
        )
        assert expand_terms([a], portion) == [b]

    def test_inputs_never_returned(self, en_portion):
        out = expand_terms([SQ, OP, RF], en_portion)
        assert not ({SQ, OP, RF} & set(out))
        assert set(out) <= set(en_portion.terms)
