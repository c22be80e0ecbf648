import json
import string
import unicodedata

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyfind import textutil
from polyfind.descriptor import parse_descriptor
from polyfind.errors import (
    InvalidIdentifier,
    InvalidLanguageTag,
    MalformedDocument,
    PolyfindError,
)
from polyfind.langdetect import profile_from_json
from polyfind.ontology import (
    AlignmentLink,
    TermId,
    TermRef,
    create_portion,
    load_alignments,
    load_portion,
)
from polyfind.textutil import (
    check_identifier,
    check_language,
    load_json,
    normalize_text,
    split_words,
)


# ASCII text, weighted toward the whitespace that str.split() breaks at.
ASCII_TEXT = st.text(
    alphabet=st.sampled_from("\x1c\x1d\x1e\x1f\t\v\f\r\n ") | st.characters(max_codepoint=0x7F)
)


def full_normalize(text: str) -> str:
    """normalize_text without its ASCII shortcut."""
    text = unicodedata.normalize("NFC", text).translate(textutil._STRIP)
    return " ".join(unicodedata.normalize("NFC", text.casefold()).split())


class TestNormalizeText:
    def test_fold_and_collapse(self):
        assert normalize_text("  Square   ROOT ") == "square root"

    def test_strips_arabic_vowel_marks(self):
        assert normalize_text("رَقْم") == "رقم"

    def test_strips_tatweel(self):
        assert normalize_text("جـذر") == "جذر"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_whitespace_only(self):
        assert normalize_text(" \t\n ") == ""

    def test_keeps_latin_diacritics(self):
        assert normalize_text("Racine Carrée") == "racine carrée"

    def test_nfc_composes_combining_accent(self):
        assert normalize_text("carrée") == "carrée"

    @given(st.text())
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.text())
    def test_no_leading_trailing_or_double_space(self, text):
        out = normalize_text(text)
        assert out == out.strip()
        assert "  " not in out

    @given(ASCII_TEXT)
    def test_ascii_text_takes_the_full_path_result(self, text):
        assert normalize_text(text) == full_normalize(text)


class TestSplitWords:
    def test_camel_case(self):
        assert split_words("SquareRootService") == ["square", "root", "service"]

    def test_acronym_run(self):
        assert split_words("HTTPServer") == ["http", "server"]

    def test_snake_case(self):
        assert split_words("square_root") == ["square", "root"]

    def test_punctuation_boundaries(self):
        assert split_words("finds the square root.") == ["finds", "the", "square", "root"]

    def test_digits_stay_attached(self):
        assert split_words("base64 value") == ["base64", "value"]

    def test_arabic_text(self):
        assert split_words("الجذر التربيعي") == ["الجذر", "التربيعي"]

    def test_empty(self):
        assert split_words("") == []
        assert split_words("...!!") == []

    @given(st.text())
    def test_tokens_are_normalized_words(self, text):
        for token in split_words(text):
            assert token
            assert " " not in token
            assert normalize_text(token) == token


def reference_split_words(text: str) -> list[str]:
    """split_words as it was first written, testing each character in
    Python: the oracle for the table-driven one."""
    text = unicodedata.normalize("NFC", text)
    pieces: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch.isspace() or unicodedata.category(ch)[0] in "PS":
            if current:
                pieces.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        pieces.append("".join(current))
    tokens: list[str] = []
    for piece in pieces:
        for part in textutil._camel_parts(piece):
            norm = normalize_text(part)
            if norm:
                tokens.append(norm)
    return tokens


# Characters where the table, the ASCII path or the camelCase split could
# part from the reference: both ASCII cases, digits and separators; accented
# Latin-1 letters and combining marks (NFC); Arabic with tashkeel and
# tatweel; whitespace that is not ASCII space; a title-case letter, letters
# whose case mapping changes length and an astral capital; an astral symbol
# and a zero-width joiner; and any code point, surrogates included.
MIXED_TEXT = st.text(st.one_of(
    st.sampled_from(string.ascii_letters + string.digits + "_-"),
    st.sampled_from("àáâãäåçèéêëìíîïñòóôõöøùúûüýÿÀÉÑÖ\u0300\u0301\u0308\u0327"),
    st.sampled_from("جذرتربيع\u064b\u064e\u0650\u0651\u0652\u0640"),
    st.sampled_from(" \x1c\x1d\x1e\x1f\u3000\u2028"),
    st.sampled_from("ǅİẞ\U0001d400"),
    st.sampled_from("\U0001f600\u200d"),
    st.integers(0, 0x10FFFF).map(chr),
))


class TestSplitWordsMatchesReference:
    @given(MIXED_TEXT)
    @example("getURLForID2")
    @example("a\x00B")
    @example("ǅemal İstanbul STRAẞE")
    @example("رَقْـم_Root Ab\u0301c")
    @example("x\u200dy\U0001f600z \U0001d400\U0001d401x")
    @example("\ud800Ab")
    def test_equals_the_reference(self, text):
        assert split_words(text) == reference_split_words(text)


class TestSeparatorTable:
    def test_astral_text_adds_no_entry(self):
        before = len(textutil._SEPARATORS)
        # NFC maps some astral code points, such as CJK compatibility
        # ideographs, into the BMP; leave those out.
        astral = "".join(
            ch for ch in map(chr, range(0x10000, 0x110000, 97))
            if unicodedata.is_normalized("NFC", ch)
        )
        assert min(unicodedata.normalize("NFC", astral)) >= "\U00010000"
        assert split_words(astral) == reference_split_words(astral)
        assert len(textutil._SEPARATORS) == before

    def test_every_code_point_stays_within_the_bound(self):
        table = textutil._Separators()
        every = "".join(map(chr, range(0x110000)))
        expected = "".join(
            " " if ch.isspace() or unicodedata.category(ch)[0] in "PS" else ch for ch in every
        )
        for _ in range(2):
            assert every.translate(table) == expected
            assert len(table) == 0x10000


class TestCheckers:
    def test_identifier_ok(self):
        assert check_identifier("math") == "math"
        assert check_identifier("a-b_3") == "a-b_3"

    @pytest.mark.parametrize("bad", ["", "a b", "m@th", "jeu/x", None])
    def test_identifier_bad(self, bad):
        with pytest.raises(InvalidIdentifier):
            check_identifier(bad)

    def test_language_ok(self):
        assert check_language("ar") == "ar"
        assert check_language("fra") == "fra"

    @pytest.mark.parametrize("bad", ["", "a", "arabic", "EN", "e1", None])
    def test_language_bad(self, bad):
        with pytest.raises(InvalidLanguageTag):
            check_language(bad)


# Surrogate-free text rich in backslashes and in text that reads as a
# surrogate escape once a backslash precedes it.
BACKSLASHED_TEXT = st.text() | st.lists(
    st.sampled_from(["\\", "u", "ud800", "uDFff", "\\ud800", "x"]) | st.text(max_size=2)
).map("".join)


class TestLoadJson:
    @given(st.text())
    def test_escaped_text_loads_back(self, text):
        # ensure_ascii escapes a non-BMP character as a surrogate pair.
        doc = [text, {text: text}]
        assert load_json(json.dumps(doc).encode()) == doc
        assert load_json(json.dumps(doc, ensure_ascii=False).encode()) == doc

    @given(st.text(), st.integers(0xD800, 0xDFFF), st.text(), st.booleans())
    def test_a_lone_surrogate_escape_is_refused(self, before, code, after, as_key):
        text = before + chr(code) + after
        doc = {"k": [1, {text: None} if as_key else text]}
        with pytest.raises(MalformedDocument, match="lone surrogate"):
            load_json(json.dumps(doc).encode())

    def test_only_a_surrogate_escape_starts_the_walk(self, monkeypatch):
        walks = []
        walk = textutil._holds_surrogate
        monkeypatch.setattr(textutil, "_holds_surrogate", lambda doc: walks.append(1) or walk(doc))
        assert load_json(b'["\\u00e9", "\\ucafe", "\xf0\x9f\x98\x80"]') == [
            "é", "\ucafe", "\U0001f600"]
        assert walks == []
        # An escaped backslash before "ud800": text, not an escape.
        assert load_json(b'["\\\\ud800", "\\\\\\\\ud800"]') == ["\\ud800", "\\\\ud800"]
        assert walks == []
        # A paired escape: a walk that finds no lone surrogate.
        assert load_json(b'["\\ud83d\\ude00"]') == ["\U0001f600"]
        assert walks == [1]

    @given(BACKSLASHED_TEXT)
    @example("back\\ud800slash")
    def test_surrogate_free_text_shows_no_surrogate_escape(self, text):
        assert not textutil.SURROGATE_ESCAPE_RE.search(json.dumps(text, ensure_ascii=False))

    @given(BACKSLASHED_TEXT, st.integers(0xD800, 0xDFFF), BACKSLASHED_TEXT)
    def test_a_surrogate_always_shows_its_escape(self, before, code, after):
        assert textutil.SURROGATE_ESCAPE_RE.search(json.dumps(before + chr(code) + after))


def _descriptor(xml_lang="en", category_lang="en") -> bytes:
    return (
        f'<service xml:lang="{xml_lang}" name="S" provider="P" endpoint="https://x.example/s">'
        "<documentation>d</documentation>"
        f'<category term="math#root" lang="{category_lang}"/>'
        '<operation name="op"><documentation>d</documentation><output type="string"/></operation>'
        "</service>"
    ).encode("utf-8")


def _json(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


# Every place a language tag arrives from outside, fed one tag.
LANGUAGE_TAG_ENTRY_POINTS = {
    "check_language": check_language,
    "descriptor xml:lang": lambda tag: parse_descriptor(_descriptor(xml_lang=tag)),
    "descriptor category lang": lambda tag: parse_descriptor(_descriptor(category_lang=tag)),
    "create_portion": lambda tag: create_portion("math", tag),
    "portion $.language": lambda tag: load_portion(
        _json({"domain": "math", "language": tag, "version": 1, "terms": []})
    ),
    "alignment ref lang": lambda tag: load_alignments(_json({"links": [{
        "source": {"term": "math#root", "lang": tag},
        "target": {"term": "math#root", "lang": "zz"},
        "relation": "exact",
        "confidence": 1.0,
    }]})),
    "AlignmentLink": lambda tag: AlignmentLink(
        TermRef(TermId("math#root"), tag), TermRef(TermId("math#root"), "zz"), "exact", 1.0
    ),
    "profile_from_json": lambda tag: profile_from_json(
        _json({"language": tag, "ranked_trigrams": []})
    ),
}


@pytest.mark.parametrize("tag, valid", [
    ("en", True), ("ara", True),
    ("EN", False), ("e", False), ("engl", False), ("en-US", False), ("é", False),
])
def test_every_entry_point_applies_one_language_tag_rule(tag, valid):
    accepted = {}
    for name, entry in LANGUAGE_TAG_ENTRY_POINTS.items():
        try:
            entry(tag)
        except PolyfindError:
            accepted[name] = False
        else:
            accepted[name] = True
    assert accepted == dict.fromkeys(LANGUAGE_TAG_ENTRY_POINTS, valid)
