import json
import unicodedata
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfind import langdetect
from polyfind.errors import (
    CorpusTooSmall,
    EmptyInput,
    InvalidLanguageTag,
    NoProfiles,
    SchemaViolation,
)
from polyfind.langdetect import (
    ABSENT_PENALTY,
    PROFILE_SIZE,
    SCRIPT_EXCLUSIVE,
    TrigramProfile,
    build_profile,
    build_profiles_from_corpora,
    detect,
    load_profiles,
    out_of_place_distance,
    packaged_corpora_dir,
    profile_from_json,
    rank_trigrams,
    trigram_counts,
)
from polyfind.textutil import normalize_text

from conftest import HELDOUT_DIR


def profile_document(profile: TrigramProfile) -> bytes:
    """A <lang>.json profile document, as load_profiles reads it."""
    return json.dumps(
        {"language": profile.language, "ranked_trigrams": list(profile.ranked_trigrams)}
    ).encode()


class TestTrigramCounts:
    def test_word_padding(self):
        counts = trigram_counts("ab")
        assert counts == Counter({" ab": 1, "ab ": 1})

    def test_words_counted_independently(self):
        counts = trigram_counts("ab ab")
        assert counts == Counter({" ab": 2, "ab ": 2})

    def test_normalization_applied(self):
        assert trigram_counts("AB") == trigram_counts("ab")


def reference_script_majority(normalized: str) -> str | None:
    """The script vote as a loop over Unicode categories and ranges."""
    letters = [ch for ch in normalized if unicodedata.category(ch).startswith("L")]
    if not letters:
        return None
    for lang in sorted(SCRIPT_EXCLUSIVE):
        ranges = SCRIPT_EXCLUSIVE[lang]
        hits = sum(1 for ch in letters if any(lo <= ord(ch) <= hi for lo, hi in ranges))
        if hits * 2 > len(letters):
            return lang
    return None


def reference_trigram_counts(text: str) -> Counter:
    """Trigram counting as a loop over each padded word."""
    counts: Counter = Counter()
    for word in normalize_text(text).split(" "):
        if not word:
            continue
        padded = f" {word} "
        for i in range(len(padded) - 2):
            counts[padded[i : i + 3]] += 1
    return counts


# Text drawn mostly from the Arabic blocks, letters, marks and digits alike,
# mixed with any other characters.
ARABIC_HEAVY_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x0600, max_codepoint=0x077F) | st.characters()
)


class TestMatchesTheReferenceLoops:
    @given(st.text() | ARABIC_HEAVY_TEXT)
    def test_script_majority(self, text):
        assert langdetect._script_majority(text) == reference_script_majority(text)

    @given(st.text() | ARABIC_HEAVY_TEXT)
    def test_trigram_counts(self, text):
        counts = trigram_counts(text)
        assert counts == reference_trigram_counts(text)
        assert list(counts) == list(reference_trigram_counts(text))


class TestRankTrigrams:
    def test_frequency_then_lexicographic(self):
        ranked = rank_trigrams(Counter({"bbb": 2, "aaa": 1, "abc": 1}))
        assert ranked == ["bbb", "aaa", "abc"]

    def test_pure_tie_is_lexicographic(self):
        assert rank_trigrams(Counter({"b": 1, "a": 1})) == ["a", "b"]


class TestBuildProfile:
    def test_single_symbol_corpus(self):
        profile = build_profile("aaaa " * 25, "en")
        assert profile.ranked_trigrams[0] == "aaa"

    def test_too_small(self):
        with pytest.raises(CorpusTooSmall):
            build_profile("x" * 50, "en")

    def test_truncated_to_profile_size(self):
        corpus = " ".join(f"w{i}xyz" for i in range(500))
        profile = build_profile(corpus, "en")
        assert len(profile.ranked_trigrams) <= PROFILE_SIZE

    def test_bad_language(self):
        with pytest.raises(InvalidLanguageTag):
            build_profile("x" * 200, "english")


class TestOutOfPlaceDistance:
    def test_identical_order_is_zero(self):
        profile = TrigramProfile("en", ("aaa", "bbb"))
        assert out_of_place_distance(["aaa", "bbb"], profile) == 0

    def test_swapped_ranks(self):
        profile = TrigramProfile("en", ("aaa", "bbb"))
        assert out_of_place_distance(["bbb", "aaa"], profile) == 2

    def test_absent_penalty(self):
        profile = TrigramProfile("en", ("aaa",))
        assert out_of_place_distance(["zzz"], profile) == ABSENT_PENALTY


class TestDetect:
    def test_declared_short_circuits(self):
        result = detect("whatever text", profiles=(), declared="fr")
        assert (result.language, result.confidence, result.method) == ("fr", 1.0, "declared")

    def test_declared_invalid_tag(self):
        with pytest.raises(InvalidLanguageTag):
            detect("text", declared="French")

    def test_arabic_script_rule(self):
        result = detect("الجذر التربيعي")
        assert (result.language, result.confidence, result.method) == ("ar", 1.0, "script")

    def test_script_rule_beats_missing_profiles(self):
        # Script-exclusive input needs no trigram profiles at all.
        assert detect("العدد السالب", profiles=()).language == "ar"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            detect("   ")

    def test_no_profiles(self):
        with pytest.raises(NoProfiles):
            detect("plain latin text", profiles=())

    def test_english_beats_french_on_english_text(self, profiles):
        result = detect("the quick brown fox jumps", profiles)
        assert result.language == "en"
        assert result.method == "trigram"
        # The winner must agree with directly computed distances.
        ranked = rank_trigrams(trigram_counts("the quick brown fox jumps"))
        candidates = [p for p in profiles if p.language != "ar"]
        distances = sorted(
            (out_of_place_distance(ranked, p), p.language) for p in candidates
        )
        assert result.language == distances[0][1]

    def test_french_text(self, profiles):
        assert detect("la racine carrée d'un nombre", profiles).language == "fr"

    def test_single_candidate_confidence(self, profiles):
        only_en = [p for p in profiles if p.language == "en"]
        assert detect("hello there world", only_en).confidence == 0.5

    def test_confidence_bounds(self, profiles):
        result = detect("une phrase en français avec des accents", profiles)
        assert 0.0 <= result.confidence <= 1.0

    @given(st.text(alphabet="اأبتثجحخدذرزسشصضطظعغفقكلمنهوي ", min_size=1).filter(str.strip))
    def test_arabic_letters_always_script(self, text):
        result = detect(text)
        assert (result.language, result.confidence, result.method) == ("ar", 1.0, "script")

    @given(text=st.sampled_from([
        "the cat sat on the mat",
        "le chat dort sur le tapis",
        "service discovery across languages",
    ]))
    def test_idempotent_under_normalization(self, profiles, text):
        assert detect(text, profiles) == detect(normalize_text(text), profiles)

    def test_deterministic(self, profiles):
        first = detect("square root of a number", profiles)
        assert all(
            detect("square root of a number", profiles) == first for _ in range(5)
        )


class TestSelfIdentification:
    @pytest.mark.parametrize("language", ["ar", "en", "fr"])
    def test_long_held_out_sample(self, language, profiles):
        lines = (HELDOUT_DIR / f"{language}.txt").read_text("utf-8").splitlines()
        sample = " ".join(lines[:3])
        assert len(sample) >= 100
        assert detect(sample, profiles).language == language


class TestProfilePersistence:
    def test_round_trip(self, profiles):
        for profile in profiles:
            assert profile_from_json(profile_document(profile)) == profile

    def test_duplicate_trigram_rejected(self):
        doc = {"language": "en", "ranked_trigrams": ["aaa", "aaa"]}
        with pytest.raises(SchemaViolation):
            profile_from_json(json.dumps(doc).encode())

    def test_oversized_rejected(self):
        doc = {"language": "en", "ranked_trigrams": [f"t{i:03d}" for i in range(PROFILE_SIZE + 1)]}
        with pytest.raises(SchemaViolation):
            profile_from_json(json.dumps(doc).encode())

    def test_unknown_field_rejected(self):
        doc = {"language": "en", "ranked_trigrams": [], "extra": 1}
        with pytest.raises(SchemaViolation):
            profile_from_json(json.dumps(doc).encode())


class TestCorpusLoading:
    def test_packaged_corpora(self):
        profiles = build_profiles_from_corpora(packaged_corpora_dir())
        assert [p.language for p in profiles] == ["ar", "en", "fr"]
        for profile in profiles:
            assert 0 < len(profile.ranked_trigrams) <= PROFILE_SIZE
            assert len(set(profile.ranked_trigrams)) == len(profile.ranked_trigrams)

    def test_mixed_txt_and_json(self, tmp_path):
        (tmp_path / "en.txt").write_text("the cat sat on the mat and slept " * 5, "utf-8")
        profile = build_profile("le chien dort dans la cuisine " * 5, "fr")
        (tmp_path / "fr.json").write_bytes(profile_document(profile))
        loaded = load_profiles(tmp_path)
        assert sorted(p.language for p in loaded) == ["en", "fr"]

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(NoProfiles, match="does not exist"):
            load_profiles(tmp_path / "absent")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(NoProfiles, match="no profile"):
            load_profiles(tmp_path)

    def test_script_exclusive_profiles_alone_rejected(self, tmp_path):
        # The script rule decides Arabic, so detection would have no
        # profile for any other text.
        (tmp_path / "ar.txt").write_text("الجذر التربيعي لعدد سالب " * 10, "utf-8")
        with pytest.raises(NoProfiles, match="no profile"):
            load_profiles(tmp_path)

    def test_duplicate_language_rejected(self, tmp_path):
        (tmp_path / "en.txt").write_text("the cat sat on the mat and slept " * 5, "utf-8")
        profile = build_profile("the dog sat on the log and slept " * 5, "en")
        (tmp_path / "en.json").write_bytes(profile_document(profile))
        with pytest.raises(SchemaViolation):
            load_profiles(tmp_path)
