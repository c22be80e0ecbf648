import math
import random
import sys
import threading
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfind import langdetect, mapping, ontology, registry, textutil
from polyfind.errors import UnknownTerm
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

from conftest import (
    PORTION_FILES,
    load_fixture_ontology,
    oracle_translate,
    prefix_store,
    random_alignment_store,
)

SQ = TermId("math#square_root")
RF = TermId("math#root_finding")
OP = TermId("math#operation")
NEG = TermId("math#negative_number")
NUM = TermId("math#number")


@pytest.fixture(scope="module")
def en_portion():
    return load_portion(PORTION_FILES[1].read_bytes())


_EN_WORDS = ["square", "root", "finding", "negative", "number", "sqrt", "of", "banana"]


class TestMatchKeywords:
    def test_bigram_preferred_label(self, en_portion):
        assert match_keywords(["square", "root"], en_portion) == ([SQ], [])

    def test_alt_label_single_word(self, en_portion):
        assert match_keywords(["fast", "sqrt"], en_portion) == ([SQ], ["fast"])

    def test_no_match_keeps_keyword(self, en_portion):
        assert match_keywords(["banana"], en_portion) == ([], ["banana"])

    def test_bigram_shadows_unigram(self):
        portion = add_terms(
            create_portion("d", "en"),
            [Term(TermId("d#a"), "square root"), Term(TermId("d#b"), "square")],
        )
        assert match_keywords(["square", "root"], portion) == ([TermId("d#a")], [])

    def test_case_and_diacritics_normalized(self, en_portion):
        terms, _ = match_keywords(["SQUARE", "Root"], en_portion)
        assert terms == [SQ]

    def test_each_term_once_in_first_match_order(self, en_portion):
        keywords = ["number", "sqrt", "square", "root", "number"]
        assert match_keywords(keywords, en_portion) == ([NUM, SQ], [])

    @given(st.lists(st.sampled_from(_EN_WORDS), max_size=8))
    def test_conservation(self, en_portion, keywords):
        terms, unmatched = match_keywords(keywords, en_portion)
        lookup = partial(ontology.lookup_label_kinds, en_portion)
        # No unmatched keyword is a label, and they come back in query order.
        assert not any(lookup(word) for word in unmatched)
        rest = iter(keywords)
        assert all(word in rest for word in unmatched)
        # Every id is a hit of a word or of two adjacent words, listed once.
        phrases = [*keywords, *map(" ".join, zip(keywords, keywords[1:]))]
        assert set(terms) <= {tid for phrase in phrases for tid in lookup(phrase)}
        assert len(terms) == len(set(terms))
        # No label word is lost: its own hit, or that of a phrase with a
        # neighbour, is in the result.
        for i, word in enumerate(keywords):
            pairs = [" ".join(keywords[j:j + 2]) for j in (i - 1, i) if 0 <= j < len(keywords) - 1]
            hits = [set(lookup(phrase)) for phrase in (word, *pairs) if lookup(phrase)]
            assert not lookup(word) or any(ids <= set(terms) for ids in hits)


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


class TestTranslationMemo:
    """translate keeps every ref's paths in the store's memo: a second call
    walks no link, and the memo lives exactly as long as the links do."""

    @staticmethod
    def count_links_from(monkeypatch):
        calls = []
        original = mapping.links_from
        monkeypatch.setattr(
            mapping, "links_from", lambda store, ref: calls.append(ref) or original(store, ref)
        )
        return calls

    def test_every_ref_and_language_twice(self, monkeypatch):
        rng = random.Random(2908)
        calls = self.count_links_from(monkeypatch)
        for _ in range(60):
            store, langs, refs = random_alignment_store(rng)
            absent = next(lang for lang in ("ar", "en", "fr", "de", "es") if lang not in langs)
            for run in range(2):
                calls.clear()
                for ref in refs:
                    for target in (*langs, absent):
                        assert translate(ref, target, store) == oracle_translate(
                            store, ref, target
                        )
                if run == 1:
                    assert calls == []

    def test_readers_filling_it_at_once_agree_with_the_oracle(self):
        store, langs, refs = random_alignment_store(random.Random(29))
        pairs = [(ref, lang) for ref in refs for lang in langs]
        expected = {pair: oracle_translate(store, *pair) for pair in pairs}
        wrong = []

        def reader(order):
            for ref, lang in order:
                if translate(ref, lang, store) != expected[ref, lang]:
                    wrong.append((ref, lang))

        orders = [random.Random(i).sample(pairs, len(pairs)) for i in range(8)]
        threads = [threading.Thread(target=reader, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert set(store.translations) == set(refs)

    def test_each_call_returns_a_fresh_list(self, fixture_ontology):
        ref = TermRef(SQ, "ar")
        first = translate(ref, "en", fixture_ontology)
        first.clear()
        assert len(translate(ref, "en", fixture_ontology)) == 1

    @staticmethod
    def translated(store):
        translate(TermRef(SQ, "ar"), "en", store)
        assert store.translations
        return store

    def test_kept_by_a_put_that_prunes_nothing(self):
        store = self.translated(load_fixture_ontology())
        portion = store.portions[("math", "en")]
        new = set_portion(store, add_terms(portion, [Term(TermId("math#zero"), "zero")]))
        assert new.alignments is store.alignments
        assert new.translations is store.translations

    def test_emptied_by_a_put_that_prunes_a_link(self):
        store = self.translated(load_fixture_ontology())
        portion = store.portions[("math", "en")]
        kept = {tid: term for tid, term in portion.terms.items() if tid != SQ}
        for tid, term in kept.items():  # drop the relations into SQ with it
            kept[tid] = Term(
                tid, term.preferred_label, term.alt_labels, term.definition,
                tuple(r for r in term.relations if r.target != SQ),
            )
        new = set_portion(store, ontology.OntologyPortion("math", "en", 9, kept))
        assert len(new.alignments) < len(store.alignments)
        assert new.translations == {}
        assert translate(TermRef(SQ, "ar"), "en", new) == []

    def test_emptied_by_add_alignment(self):
        no_ar_en = frozenset({frozenset({"ar", "en"})})
        store = self.translated(load_fixture_ontology(skip_pairs=no_ar_en))
        assert [len(p.hops) for p in translate(TermRef(SQ, "ar"), "en", store)] == [2]
        link = AlignmentLink(TermRef(SQ, "ar"), TermRef(SQ, "en"), "exact", 1.0)
        new = add_alignment(store, link)
        assert new.translations == {}
        assert [len(p.hops) for p in translate(TermRef(SQ, "ar"), "en", new)] == [1]


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
