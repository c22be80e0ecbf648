import math

import pytest

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
from polyfind.ontology import Relation, Term, TermId, add_terms, set_portion

from conftest import build_fixture_registry, load_fixture_ontology

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
