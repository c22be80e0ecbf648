import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfind.descriptor import OperationSig, ServiceDescriptor
from polyfind.discovery import (
    Query,
    discover,
    response_to_dict,
)
from polyfind.errors import (
    DetectionFailed,
    EmptyQuery,
    PortionUnavailable,
)
from polyfind.importer import ImportReport
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
    set_portion,
)
from polyfind.registry import RegistryStore, publish

from conftest import build_fixture_registry, load_fixture_ontology, oracle_discover

SQ = TermId("math#square_root")

AR_QUERY = "الجذر التربيعي"
EN_QUERY = "square root"
FR_QUERY = "racine carrée"


@pytest.fixture(scope="module")
def registry():
    return build_fixture_registry()


def run(text, ontology, registry_store, profiles=(), **kwargs):
    query_kwargs = {
        k: kwargs.pop(k) for k in ("declared_language", "requester_id", "domain")
        if k in kwargs
    }
    query = Query(
        text=text,
        domain=query_kwargs.get("domain", "math"),
        requester_id=query_kwargs.get("requester_id", "tester"),
        declared_language=query_kwargs.get("declared_language"),
    )
    return discover(query, ontology, registry_store, profiles, **kwargs)


class TestCaseStudy:
    def test_arabic_query_returns_all_three_services(self, fixture_ontology, registry, profiles):
        store, ids = registry
        response = run(AR_QUERY, fixture_ontology, store, profiles)
        assert response.detected.language == "ar"
        assert response.detected.method == "script"
        assert [e.service_id for e in response.results] == [ids[1], ids[0], ids[2]]
        assert response.used_expansion is False
        assert response.imports_triggered == ()

    def test_language_indifference(self, fixture_ontology, registry, profiles):
        store, ids = registry
        by_lang = {
            text: run(text, fixture_ontology, store, profiles)
            for text in (AR_QUERY, EN_QUERY, FR_QUERY)
        }
        sets = [{e.service_id for e in r.results} for r in by_lang.values()]
        assert sets[0] == sets[1] == sets[2] == set(ids)

    def test_results_sorted_and_provenance_non_empty(self, fixture_ontology, registry, profiles):
        store, _ = registry
        response = run(AR_QUERY, fixture_ontology, store, profiles)
        scores = [e.score for e in response.results]
        assert scores == sorted(scores, reverse=True)
        for entry in response.results:
            assert entry.provenance
            assert entry.score > 0

    def test_requester_language_labels(self, fixture_ontology, registry, profiles):
        store, _ = registry
        response = run(AR_QUERY, fixture_ontology, store, profiles)
        for entry in response.results:
            assert AR_QUERY in entry.requester_language_labels

    def test_determinism(self, fixture_ontology, registry, profiles):
        store, _ = registry
        first = run(AR_QUERY, fixture_ontology, store, profiles)
        assert all(
            run(AR_QUERY, fixture_ontology, store, profiles) == first for _ in range(3)
        )


class TestPivot:
    def pivot_store(self):
        return load_fixture_ontology(
            confidence_by_pair={
                frozenset({"ar", "en"}): 0.9,
                frozenset({"en", "fr"}): 0.8,
            },
            skip_pairs=frozenset({frozenset({"ar", "fr"})}),
        )

    def test_french_service_still_found_and_scaled(self, fixture_ontology, registry, profiles):
        store, ids = registry
        fr_id = ids[2]
        direct = run(AR_QUERY, fixture_ontology, store, profiles)
        pivoted = run(AR_QUERY, self.pivot_store(), store, profiles)
        assert fr_id in {e.service_id for e in pivoted.results}
        direct_score = next(e.score for e in direct.results if e.service_id == fr_id)
        pivot_score = next(e.score for e in pivoted.results if e.service_id == fr_id)
        assert math.isclose(pivot_score, direct_score * 0.72, rel_tol=1e-9)

    def test_pivot_provenance_shows_two_hops(self, registry, profiles):
        store, ids = registry
        response = run(AR_QUERY, self.pivot_store(), store, profiles)
        fr_entry = next(e for e in response.results if e.service_id == ids[2])
        paths = [p.path for p in fr_entry.provenance if p.path is not None]
        assert paths and all(len(p.hops) == 2 for p in paths)
        assert all(p.hops[0].target.lang == "en" for p in paths)
        doc = response_to_dict(response)
        fr_doc = next(r for r in doc["results"] if r["service_id"] == ids[2])
        hop_docs = [p["path"] for p in fr_doc["provenance"] if p["path"]]
        assert all(len(h["hops"]) == 2 for h in hop_docs)


class TestPipelineEdges:
    def test_declared_language_bypasses_detector(self, fixture_ontology, registry):
        store, _ = registry
        response = run(EN_QUERY, fixture_ontology, store, declared_language="en")
        assert response.detected.method == "declared"
        assert response.detected.confidence == 1.0

    def test_no_term_no_raw_match_is_empty(self, fixture_ontology, registry, profiles):
        store, _ = registry
        response = run("banana kiwi", fixture_ontology, store, profiles)
        assert response.results == ()
        assert response.used_expansion is False

    def test_raw_keywords_degrade_to_plain_search(self, fixture_ontology, registry, profiles):
        store, ids = registry
        response = run("service", fixture_ontology, store, profiles)
        got = {e.service_id for e in response.results}
        assert got == {ids[1], ids[2]}
        for entry in response.results:
            assert all(p.path is None for p in entry.provenance)
            assert entry.requester_language_labels == ()

    def test_no_alignments_degrades_to_own_language(self, registry, profiles):
        store, ids = registry
        bare = load_fixture_ontology(skip_pairs=frozenset({
            frozenset({"ar", "en"}), frozenset({"ar", "fr"}), frozenset({"en", "fr"}),
        }))
        response = run(AR_QUERY, bare, store, profiles)
        assert {e.service_id for e in response.results} == {ids[0]}

    def test_empty_query_text(self, fixture_ontology, registry):
        store, _ = registry
        with pytest.raises(EmptyQuery):
            run("...", fixture_ontology, store, declared_language="en")

    def test_bad_domain(self, fixture_ontology, registry):
        store, _ = registry
        with pytest.raises(Exception):
            run(EN_QUERY, fixture_ontology, store, domain="no/slash", declared_language="en")

    def test_detection_failure_without_profiles(self, fixture_ontology, registry):
        store, _ = registry
        with pytest.raises(DetectionFailed):
            run("plain latin words", fixture_ontology, store, profiles=())

    def test_portion_unavailable(self, fixture_ontology, registry):
        store, _ = registry
        with pytest.raises(PortionUnavailable):
            run("wort", fixture_ontology, store, declared_language="de")


class TestExpansion:
    def widened_ontology(self):
        ontology = load_fixture_ontology()
        en = ontology.portions[("math", "en")]
        extra = Term(
            TermId("math#quadrature"),
            "quadrature",
            relations=(Relation("related", SQ),),
        )
        return set_portion(ontology, add_terms(en, [extra]))

    def test_expansion_fires_only_on_empty_first_pass(self, registry, profiles):
        store, ids = registry
        response = run(
            "quadrature", self.widened_ontology(), store, profiles, declared_language="en"
        )
        assert response.used_expansion is True
        assert {e.service_id for e in response.results} == set(ids)

    def test_no_expansion_when_first_pass_hits(self, fixture_ontology, registry, profiles):
        store, _ = registry
        response = run(EN_QUERY, fixture_ontology, store, profiles)
        assert response.used_expansion is False

    def test_no_expansion_without_term_matches(self, fixture_ontology, registry, profiles):
        store, _ = registry
        response = run("banana", fixture_ontology, store, profiles)
        assert response.used_expansion is False
        assert response.results == ()


class TestImportHook:
    def test_hook_fills_missing_portion(self, registry, profiles):
        store, ids = registry
        partial = load_fixture_ontology(languages=("ar", "en"))
        report = ImportReport("fixture", "math", "fr", "imported", None, 2, "")
        calls = []

        def hook(domain, language):
            calls.append((domain, language))
            return load_fixture_ontology(), (report,)

        response = run(FR_QUERY, partial, store, profiles, import_missing=hook)
        assert calls == [("math", "fr")]
        assert response.imports_triggered == (report,)
        assert {e.service_id for e in response.results} == set(ids)

    def test_hook_that_cannot_help(self, registry, profiles):
        store, _ = registry
        partial = load_fixture_ontology(languages=("ar", "en"))

        def hook(domain, language):
            return partial, ()

        with pytest.raises(PortionUnavailable):
            run(FR_QUERY, partial, store, profiles, import_missing=hook)

    def test_hook_not_called_when_portion_present(self, fixture_ontology, registry, profiles):
        store, _ = registry

        def hook(domain, language):  # pragma: no cover - must not run
            raise AssertionError("import hook must not be called")

        response = run(EN_QUERY, fixture_ontology, store, profiles, import_missing=hook)
        assert response.imports_triggered == ()


class TestResponseSerialization:
    def test_shape(self, fixture_ontology, registry, profiles):
        store, _ = registry
        doc = response_to_dict(run(AR_QUERY, fixture_ontology, store, profiles))
        assert doc["detected"] == {"language": "ar", "confidence": 1.0, "method": "script"}
        assert doc["used_expansion"] is False
        assert doc["imports_triggered"] == []
        for entry in doc["results"]:
            assert set(entry) == {
                "service_id", "name", "language", "score", "provenance",
                "requester_language_labels",
            }


# --- the whole pipeline against its oracle ---

# Each language's words, so that a service in another language is reached
# only through a translation; "de" has services but no portion.
_VOCABULARY = {
    "ar": ("jathr", "murabba", "majmu", "awwali", "bahth", "sari"),
    "en": ("root", "square", "sum", "prime", "search", "fast"),
    "fr": ("racine", "carre", "somme", "premier", "recherche", "rapide"),
    "de": ("wurzel", "summe", "suche"),
}
_PORTION_LANGS = ("ar", "en", "fr")
_NOISE = ("banana", "kiwi")


def _query(language):
    """One to four words of `language` and noise words."""
    pool = _VOCABULARY[language] + _NOISE
    return st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(" ".join)


@st.composite
def _portion(draw, language):
    """At most 8 terms of domain d; each label is one or two plain words.
    A broader edge points at a lower id, so no cycle forms."""
    size = draw(st.integers(1, 8))
    label = st.lists(st.sampled_from(_VOCABULARY[language]), min_size=1, max_size=2).map(" ".join)
    terms = []
    for i in range(size):
        relations = []
        for j in sorted(draw(st.sets(st.integers(0, size - 1), max_size=2)) - {i}):
            kind = draw(st.sampled_from(["related", "broader"])) if j < i else "related"
            relations.append(Relation(kind, TermId(f"d#t{j}")))
        alts = tuple(draw(st.lists(label, max_size=2)))
        terms.append(Term(TermId(f"d#t{i}"), draw(label), alts, relations=tuple(relations)))
    return add_terms(create_portion("d", language), terms)


@st.composite
def _ontologies(draw):
    """Three portions and random exact or close links; one language pair
    may have none, so its terms are reached only through a pivot."""
    store = empty_store()
    for language in _PORTION_LANGS:
        store = set_portion(store, draw(_portion(language)))
    unlinked = draw(st.sampled_from([None, ("ar", "fr"), ("ar", "en"), ("en", "fr")]))
    refs = [
        TermRef(tid, language) for language in _PORTION_LANGS
        for tid in store.portions[("d", language)].terms
    ]
    links = []
    for _ in range(draw(st.integers(0, 24))):
        a, b = draw(st.sampled_from(refs)), draw(st.sampled_from(refs))
        if a.lang == b.lang or tuple(sorted((a.lang, b.lang))) == unlinked:
            continue
        relation = draw(st.sampled_from(["exact", "close"]))
        confidence = draw(st.sampled_from([1.0, 0.9, 0.75, 0.5, 0.3]))
        links.append(AlignmentLink(a, b, relation, confidence))
    return add_alignment(store, *links)


@st.composite
def _services(draw):
    """At most 12 descriptors. Each language's services use some of its
    words, so a term may reach no service and leave expansion to find one."""
    used = {
        language: sorted(draw(st.sets(st.sampled_from(words), min_size=1))) + [*_NOISE]
        for language, words in _VOCABULARY.items()
    }
    services = []
    for _ in range(draw(st.integers(1, 12))):
        language = draw(st.sampled_from([*_VOCABULARY]))
        words = st.sampled_from(used[language])
        text = st.lists(words, max_size=4).map(" ".join)
        operations = [OperationSig(draw(words), draw(text)) for _ in range(draw(st.integers(1, 2)))]
        services.append(ServiceDescriptor(
            name="".join(w.capitalize() for w in draw(st.lists(words, min_size=1, max_size=2))),
            documentation=draw(text),
            language=language,
            endpoint="https://example.org/s",
            provider="prov",
            operations=tuple(operations),
        ))
    return services


class TestAgainstTheOracle:
    @given(
        _ontologies(),
        _services(),
        st.sampled_from(_PORTION_LANGS).flatmap(
            lambda language: st.tuples(st.just(language), _query(language))
        ),
    )
    def test_response_equals_the_oracle(self, ontology, services, query):
        language, text = query
        registry_store = RegistryStore()
        for descriptor in services:
            registry_store, _ = publish(registry_store, descriptor)
        got = response_to_dict(
            run(text, ontology, registry_store, domain="d", declared_language=language)
        )
        want = oracle_discover(ontology, registry_store.descriptors, text, "d", language)
        got_scores = [entry.pop("score") for entry in got["results"]]
        want_scores = [entry.pop("score") for entry in want["results"]]
        assert got == want
        assert all(
            math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got_scores, want_scores)
        )
