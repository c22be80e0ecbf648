import copy
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfind.descriptor import OperationSig, ServiceDescriptor
from polyfind.errors import EmptyQuery, EmptyRequester, InvariantViolation, UnknownService
from polyfind.registry import (
    FIELD_RANK,
    FIELD_WEIGHTS,
    RegistryStore,
    bind,
    find,
    get,
    languages,
    publish,
    registry_from_descriptors,
    remove,
)

from conftest import (
    build_fixture_registry,
    field_tokens,
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
        store, sid = publish(RegistryStore(), simple())
        assert sid == "s-000001"

    def test_two_publishes_distinct_and_retrievable(self):
        store, first = publish(RegistryStore(), simple())
        store, second = publish(store, simple(name="Another"))
        assert first != second
        assert get(store, first).name == "SquareRootService"
        assert get(store, second).name == "Another"

    def test_get_returns_equal_descriptor(self):
        descriptor = simple()
        store, sid = publish(RegistryStore(), descriptor)
        assert get(store, sid) == replace(descriptor, service_id=sid)

    def test_published_descriptor_with_id_rejected(self):
        descriptor = replace(simple(), service_id="s-000009")
        with pytest.raises(InvariantViolation):
            publish(RegistryStore(), descriptor)

    def test_publish_does_not_mutate_input_store(self):
        store = RegistryStore()
        publish(store, simple())
        assert store.descriptors == {}
        assert store.last_seq == 0


class TestFind:
    def test_hand_computed_single_doc_score(self):
        store, sid = publish(RegistryStore(), simple())
        (result,) = find(store, ["square"])
        assert result.service_id == sid
        assert result.score == 3.0 * 1 * math.log(1 + 1 / 1)
        assert result.matched_tokens == (("square", "name"),)

    def test_unknown_token_empty(self):
        store, _ = publish(RegistryStore(), simple())
        assert find(store, ["banana"]) == []

    def test_empty_query(self):
        store, _ = publish(RegistryStore(), simple())
        with pytest.raises(EmptyQuery):
            find(store, ["   ", ""])

    def test_tie_broken_by_id(self):
        store, a = publish(RegistryStore(), simple())
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
        store, _ = publish(RegistryStore(), simple())
        assert find(store, ["Square", "SQUARE  "]) == find(store, ["square"])

    def test_deterministic(self):
        store, _ = build_fixture_registry()
        first = find(store, ["square", "root"])
        assert all(find(store, ["square", "root"]) == first for _ in range(5))

    def test_adding_token_disjoint_descriptor_keeps_match_set(self):
        store, _ = publish(RegistryStore(), simple())
        before = {r.service_id for r in find(store, ["square"])}
        store, _ = publish(store, simple(name="VectorGraph", op="integrate"))
        after = {r.service_id for r in find(store, ["square"])}
        assert before == after

    def test_each_token_postings_read_once(self):
        class CountingPostings(dict):
            gets = 0

            def get(self, *args):
                self.gets += 1
                return super().get(*args)

        store, _ = build_fixture_registry()
        postings = CountingPostings(store.postings)
        assert find(replace(store, postings=postings), ["square", "root", "xyz"])
        assert postings.gets == 3

    def test_matched_tokens_in_token_then_field_order(self):
        store, _ = build_fixture_registry()
        results = find(store, ["square", "root"])
        assert any(len({t for t, _ in r.matched_tokens}) == 2 for r in results)
        for result in results:
            assert list(result.matched_tokens) == sorted(
                result.matched_tokens, key=lambda m: (m[0], FIELD_RANK[m[1]])
            )


class TestRemove:
    def test_get_after_remove(self):
        store, sid = publish(RegistryStore(), simple())
        store = remove(store, sid)
        with pytest.raises(UnknownService):
            get(store, sid)

    def test_tokens_unmatched_after_remove(self):
        store, sid = publish(RegistryStore(), simple())
        store = remove(store, sid)
        assert find(store, ["square"]) == []

    def test_remove_unknown(self):
        with pytest.raises(UnknownService):
            remove(RegistryStore(), "s-000001")

    def test_language_counts_shrink(self):
        store, sid = publish(RegistryStore(), simple(language="fr"))
        assert languages(store) == ["fr"]
        assert languages(remove(store, sid)) == []


def check_write(old, new, descriptor):
    """new must index exactly its descriptors, share every postings entry of
    a token the descriptor does not hold, and hold no token with no service."""
    rebuilt = registry_from_descriptors(new.descriptors.values())
    assert new.postings == rebuilt.postings
    assert new.doc_count_by_lang == rebuilt.doc_count_by_lang
    touched = {token for _, token in field_tokens(descriptor)}
    for token, by_sid in old.postings.items():
        if token not in touched:
            assert new.postings[token] is by_sid
        elif set(by_sid) == {descriptor.service_id}:
            assert token not in new.postings  # removed its only holder


class TestCopyOnWrite:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2**32)), min_size=1, max_size=16))
    def test_publish_remove_sequences(self, steps):
        store = RegistryStore()
        for do_remove, seed in steps:
            before = copy.deepcopy(store)
            if do_remove and store.descriptors:
                ids = sorted(store.descriptors)
                descriptor = store.descriptors[ids[seed % len(ids)]]
                new = remove(store, descriptor.service_id)
            else:
                new, sid = publish(store, random_descriptor(random.Random(seed)))
                descriptor = new.descriptors[sid]
            assert store == before  # the input snapshot is never mutated
            check_write(store, new, descriptor)
            store = new

    def test_remove_drops_a_token_only_its_service_held(self):
        store, a = publish(RegistryStore(), simple(name="Alpha", op="shared"))
        store, b = publish(store, simple(name="Beta", op="shared"))
        after = remove(store, a)
        assert "alpha" not in after.postings
        assert after.postings["beta"] is store.postings["beta"]
        assert after.postings["shared"] == {b: {"operation": 1}}
        assert store.postings["shared"].keys() == {a, b}


class TestRebuild:
    def test_rebuild_matches_incremental(self):
        rng = random.Random(7)
        store = RegistryStore()
        for _ in range(8):
            store, _ = publish(store, random_descriptor(rng))
        rebuilt = registry_from_descriptors(store.descriptors.values())
        for _ in range(20):
            query = random_query(rng)
            assert find(rebuilt, query) == find(store, query)
        assert rebuilt.last_seq == store.last_seq

    def test_seq_recovered_from_id_tails(self):
        store, _ = publish(RegistryStore(), simple())
        store, sid = publish(store, simple(name="B"))
        rebuilt = registry_from_descriptors([get(store, sid)])
        assert rebuilt.last_seq == 2
        after, new_sid = publish(rebuilt, simple(name="C"))
        assert new_sid == "s-000003"

    @pytest.mark.parametrize("service_id, last_seq", [
        ("s-²", 1), ("s-٣", 1), ("s-000042", 42), ("s-42", 1), ("x-000042", 1),
    ], ids=["superscript", "arabic-indic", "ascii", "unpadded", "other-prefix"])
    def test_only_ascii_digit_tails_raise_seq(self, service_id, last_seq):
        published = replace(simple(), service_id=service_id)
        assert registry_from_descriptors([published], last_seq=1).last_seq == last_seq

    def test_unpublished_descriptor_rejected(self):
        with pytest.raises(InvariantViolation):
            registry_from_descriptors([simple()])


class TestOracleEquivalence:
    def test_small_random_registries(self):
        rng = random.Random(123)
        for _ in range(25):
            store = RegistryStore()
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
        store, sid = publish(RegistryStore(), simple())
        ticket = bind(store, sid, "alice")
        assert ticket.service_id == sid
        assert ticket.endpoint == "https://e/x"
        assert ticket.requester_id == "alice"
        assert ticket.ticket_id.startswith("t-")
        assert ticket.issued_at.endswith("+00:00")

    def test_unknown_service(self):
        with pytest.raises(UnknownService):
            bind(RegistryStore(), "s-000001", "alice")

    def test_empty_requester(self):
        store, sid = publish(RegistryStore(), simple())
        with pytest.raises(EmptyRequester):
            bind(store, sid, "  ")

    def test_two_binds_distinct_tickets(self):
        store, sid = publish(RegistryStore(), simple())
        assert bind(store, sid, "a").ticket_id != bind(store, sid, "a").ticket_id

    def test_injectable_ticket_fields(self):
        store, sid = publish(RegistryStore(), simple())
        ticket = bind(store, sid, "a", ticket_id="t-x", issued_at="2026-01-01T00:00:00+00:00")
        assert (ticket.ticket_id, ticket.issued_at) == ("t-x", "2026-01-01T00:00:00+00:00")


class TestFixtureRegistry:
    def test_three_languages(self):
        store, ids = build_fixture_registry()
        assert ids == ["s-000001", "s-000002", "s-000003"]
        assert languages(store) == ["ar", "en", "fr"]

    def test_weights_default(self):
        assert FIELD_WEIGHTS == {"name": 3.0, "operation": 2.0, "documentation": 1.0}

    def test_fixture_descriptors_have_expected_languages(self):
        assert [d.language for d in load_fixture_descriptors()] == ["ar", "en", "fr"]
