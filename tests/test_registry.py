import math
import random
from dataclasses import replace

import pytest

from polyfind.descriptor import OperationSig, ServiceDescriptor
from polyfind.errors import EmptyQuery, EmptyRequester, InvariantViolation, UnknownService
from polyfind.registry import (
    DEFAULT_FIELD_WEIGHTS,
    bind,
    empty_registry,
    find,
    get,
    languages,
    publish,
    registry_from_descriptors,
    remove,
)

from conftest import (
    build_fixture_registry,
    load_fixture_descriptors,
    oracle_find,
    random_descriptor,
    random_query,
)


def simple(name="SquareRootService", language="en", doc="", op="compute"):
    return ServiceDescriptor(
        name=name,
        documentation=doc,
        language=language,
        endpoint="https://e/x",
        provider="acme",
        operations=(OperationSig(op, "", (), "string"),),
    )


class TestPublish:
    def test_first_id(self):
        store, sid = publish(empty_registry(), simple())
        assert sid == "s-000001"

    def test_two_publishes_distinct_and_retrievable(self):
        store, first = publish(empty_registry(), simple())
        store, second = publish(store, simple(name="Another"))
        assert first != second
        assert get(store, first).name == "SquareRootService"
        assert get(store, second).name == "Another"

    def test_get_returns_equal_descriptor(self):
        descriptor = simple()
        store, sid = publish(empty_registry(), descriptor)
        assert get(store, sid) == replace(descriptor, service_id=sid)

    def test_published_descriptor_with_id_rejected(self):
        descriptor = replace(simple(), service_id="s-000009")
        with pytest.raises(InvariantViolation):
            publish(empty_registry(), descriptor)

    def test_publish_does_not_mutate_input_store(self):
        store = empty_registry()
        publish(store, simple())
        assert store.descriptors == {}
        assert store.last_seq == 0


class TestFind:
    def test_hand_computed_single_doc_score(self):
        store, sid = publish(empty_registry(), simple())
        (result,) = find(store, ["square"])
        assert result.service_id == sid
        assert result.score == 3.0 * 1 * math.log(1 + 1 / 1)
        assert result.matched_tokens == (("square", "name"),)

    def test_unknown_token_empty(self):
        store, _ = publish(empty_registry(), simple())
        assert find(store, ["banana"]) == []

    def test_empty_query(self):
        store, _ = publish(empty_registry(), simple())
        with pytest.raises(EmptyQuery):
            find(store, ["   ", ""])

    def test_tie_broken_by_id(self):
        store, a = publish(empty_registry(), simple())
        store, b = publish(store, simple())
        results = find(store, ["root"])
        assert [r.service_id for r in results] == sorted([a, b])
        assert results[0].score == results[1].score

    def test_language_filter(self):
        store, _ = build_fixture_registry()
        results = find(store, ["square", "root"], language="en")
        assert {r.language for r in results} == {"en"}

    def test_score_positive_implies_matches(self):
        store, _ = build_fixture_registry()
        for result in find(store, ["square", "root", "racine"]):
            assert result.score > 0
            assert result.matched_tokens

    def test_query_normalized_and_deduplicated(self):
        store, _ = publish(empty_registry(), simple())
        assert find(store, ["Square", "SQUARE  "]) == find(store, ["square"])

    def test_deterministic(self):
        store, _ = build_fixture_registry()
        first = find(store, ["square", "root"])
        assert all(find(store, ["square", "root"]) == first for _ in range(5))

    def test_adding_token_disjoint_descriptor_keeps_match_set(self):
        store, _ = publish(empty_registry(), simple())
        before = {r.service_id for r in find(store, ["square"])}
        store, _ = publish(store, simple(name="VectorGraph", op="integrate"))
        after = {r.service_id for r in find(store, ["square"])}
        assert before == after

    def test_custom_weights(self):
        store, sid = publish(empty_registry(), simple())
        (result,) = find(store, ["square"], weights={"name": 10.0, "operation": 2.0, "documentation": 1.0})
        assert result.score == 10.0 * math.log(2.0)


class TestRemove:
    def test_get_after_remove(self):
        store, sid = publish(empty_registry(), simple())
        store = remove(store, sid)
        with pytest.raises(UnknownService):
            get(store, sid)

    def test_tokens_unmatched_after_remove(self):
        store, sid = publish(empty_registry(), simple())
        store = remove(store, sid)
        assert find(store, ["square"]) == []

    def test_remove_unknown(self):
        with pytest.raises(UnknownService):
            remove(empty_registry(), "s-000001")

    def test_language_counts_shrink(self):
        store, sid = publish(empty_registry(), simple(language="fr"))
        assert languages(store) == ["fr"]
        assert languages(remove(store, sid)) == []


class TestRebuild:
    def test_rebuild_matches_incremental(self):
        rng = random.Random(7)
        store = empty_registry()
        for _ in range(8):
            store, _ = publish(store, random_descriptor(rng))
        rebuilt = registry_from_descriptors(store.descriptors.values())
        for _ in range(20):
            query = random_query(rng)
            assert find(rebuilt, query) == find(store, query)
        assert rebuilt.last_seq == store.last_seq

    def test_seq_recovered_from_id_tails(self):
        store, _ = publish(empty_registry(), simple())
        store, sid = publish(store, simple(name="B"))
        rebuilt = registry_from_descriptors([get(store, sid)])
        assert rebuilt.last_seq == 2
        after, new_sid = publish(rebuilt, simple(name="C"))
        assert new_sid == "s-000003"

    def test_unpublished_descriptor_rejected(self):
        with pytest.raises(InvariantViolation):
            registry_from_descriptors([simple()])


class TestOracleEquivalence:
    def test_small_random_registries(self):
        rng = random.Random(123)
        for _ in range(25):
            store = empty_registry()
            for _ in range(rng.randint(1, 8)):
                store, _ = publish(store, random_descriptor(rng))
            language = rng.choice([None, "en", "fr", "ar", "de"])
            query = random_query(rng)
            try:
                got = [(r.service_id, r.score) for r in find(store, query, language=language)]
            except EmptyQuery:
                continue
            assert got == oracle_find(store.descriptors, query, language=language)


class TestBind:
    def test_ticket_carries_endpoint(self):
        store, sid = publish(empty_registry(), simple())
        ticket = bind(store, sid, "alice")
        assert ticket.service_id == sid
        assert ticket.endpoint == "https://e/x"
        assert ticket.requester_id == "alice"
        assert ticket.ticket_id.startswith("t-")
        assert ticket.issued_at.endswith("+00:00")

    def test_unknown_service(self):
        with pytest.raises(UnknownService):
            bind(empty_registry(), "s-000001", "alice")

    def test_empty_requester(self):
        store, sid = publish(empty_registry(), simple())
        with pytest.raises(EmptyRequester):
            bind(store, sid, "  ")

    def test_two_binds_distinct_tickets(self):
        store, sid = publish(empty_registry(), simple())
        assert bind(store, sid, "a").ticket_id != bind(store, sid, "a").ticket_id

    def test_injectable_ticket_fields(self):
        store, sid = publish(empty_registry(), simple())
        ticket = bind(store, sid, "a", ticket_id="t-x", issued_at="2026-01-01T00:00:00+00:00")
        assert (ticket.ticket_id, ticket.issued_at) == ("t-x", "2026-01-01T00:00:00+00:00")


class TestFixtureRegistry:
    def test_three_languages(self):
        store, ids = build_fixture_registry()
        assert ids == ["s-000001", "s-000002", "s-000003"]
        assert languages(store) == ["ar", "en", "fr"]

    def test_weights_default(self):
        assert DEFAULT_FIELD_WEIGHTS == {"name": 3.0, "operation": 2.0, "documentation": 1.0}

    def test_fixture_descriptors_have_expected_languages(self):
        assert [d.language for d in load_fixture_descriptors()] == ["ar", "en", "fr"]
