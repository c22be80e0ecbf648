"""Unicode text normalization, word splitting, and the input-format rules.

Everything that compares text anywhere in the package (labels, queries,
index tokens, detector input) goes through normalize_text, so equality is
always up to NFC, case folding, and Arabic vocalization.

This module also owns every rule that outside input is checked against:
the identifier and language-tag formats (IDENTIFIER_RE, LANGUAGE_RE), JSON
decoding (load_json) and the shape of JSON objects (check_fields). Portions,
alignments, descriptors, profiles, configuration and HTTP bodies are all
checked through them, so one rule cannot drift between inputs.
"""

from __future__ import annotations

import json
import re
import unicodedata
from typing import Mapping

from .errors import InvalidIdentifier, InvalidLanguageTag, MalformedDocument, SchemaViolation

# Arabic tashkeel (U+064B..U+0652) and tatweel (U+0640): optional marks that
# must not distinguish otherwise-equal words.
_STRIP = {cp: None for cp in [0x0640, *range(0x064B, 0x0653)]}

# Match whole strings with fullmatch; other patterns embed .pattern.
IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_-]+")
LANGUAGE_RE = re.compile(r"[a-z]{2,3}")
# ASCII only: str.isdigit and \d also accept digits such as "²" or "٩".
DIGITS_RE = re.compile(r"[0-9]+")

# Only a \uD800-\uDFFF escape can put a surrogate in a decoded string: the
# UTF-8 decoder refuses encoded ones, and json joins each escaped pair. An
# escape is a backslash run of odd length then "u": the run's first
# backslash (no backslash before it), escaped backslash pairs, the escape's
# own. After an even run, "ud800" is text. Led by the backslash rather than
# the look-behind, re skips from backslash to backslash: led by the
# look-behind, it searched a 1 MB portion body about 90 times slower.
SURROGATE_ESCAPE_RE = re.compile(r"\\(?<!\\\\)(?:\\\\)*u[dD][89a-fA-F]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

# The kinds check_fields accepts, each an isinstance() argument, and their
# names in errors.
_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    (int, float): "a number",
    list: "an array",
    dict: "a JSON object",
    (str, type(None)): "a string or null",
}


def normalize_text(text: str) -> str:
    """NFC, strip tashkeel/tatweel, casefold, collapse whitespace runs.

    Idempotent: normalize_text(normalize_text(x)) == normalize_text(x).
    """
    if text.isascii():
        # NFC and the strip table change no ASCII text; casefold is lower.
        return " ".join(text.lower().split())
    text = unicodedata.normalize("NFC", text)
    text = text.translate(_STRIP)
    text = unicodedata.normalize("NFC", text.casefold())
    return " ".join(text.split())


def _camel_parts(word: str) -> list[str]:
    # Split before an uppercase letter that follows a lowercase letter or a
    # digit, and before the last uppercase letter of an acronym run
    # ("HTTPServer" -> "HTTP", "Server").
    parts: list[str] = []
    start = 0
    for i in range(1, len(word)):
        prev, cur = word[i - 1], word[i]
        if not cur.isupper():
            continue
        nxt = word[i + 1] if i + 1 < len(word) else ""
        if prev.islower() or prev.isdigit() or (prev.isupper() and nxt.islower()):
            parts.append(word[start:i])
            start = i
    parts.append(word[start:])
    return parts


class _Separators(dict):
    """The str.translate table of split_words: a space for each whitespace,
    P* or S* code point, the code point itself for any other.

    Entries are made on first use, and only below U+10000, so the table
    never holds more than 65,536; an astral code point is decided again on
    each call.
    """

    def __missing__(self, cp: int) -> int | str:
        ch = chr(cp)
        out = " " if ch.isspace() or unicodedata.category(ch)[0] in "PS" else cp
        if cp < 0x10000:
            self[cp] = out
        return out


_SEPARATORS = _Separators()


def split_words(text: str) -> list[str]:
    """Split text into normalized word tokens.

    Boundaries are whitespace, punctuation and symbol characters (Unicode
    categories P* and S*, which covers snake_case underscores), and
    camelCase transitions. Digits stay attached to their word. Pieces that
    normalize to nothing are dropped.
    """
    tokens: list[str] = []
    # The table turns every separator into a space, and str.split() breaks
    # at runs of them.
    for piece in unicodedata.normalize("NFC", text).translate(_SEPARATORS).split():
        # An ASCII piece with no uppercase letter has no camelCase boundary
        # and is its own normalized form.
        if piece.isascii() and piece.lower() == piece:
            tokens.append(piece)
            continue
        # Only an uppercase character starts a camelCase part. lower() is no
        # test for one: U+1D400 is uppercase and has no lowercase mapping.
        parts = _camel_parts(piece) if any(map(str.isupper, piece)) else (piece,)
        for part in parts:
            norm = normalize_text(part)
            if norm:
                tokens.append(norm)
    return tokens


def check_identifier(value: str, what: str = "identifier") -> str:
    """Validate a domain or local-name identifier (IDENTIFIER_RE)."""
    if not isinstance(value, str) or not IDENTIFIER_RE.fullmatch(value):
        raise InvalidIdentifier(f"{what} {value!r} must match {IDENTIFIER_RE.pattern}")
    return value


def check_language(tag: str) -> str:
    """Validate a lowercase two- or three-letter language tag (LANGUAGE_RE)."""
    if not isinstance(tag, str) or not LANGUAGE_RE.fullmatch(tag):
        raise InvalidLanguageTag(f"language tag {tag!r} must match {LANGUAGE_RE.pattern}")
    return tag


def load_json(data: bytes) -> object:
    """Decode a UTF-8 JSON document; MalformedDocument when it is neither,
    when it is nested deeper than the decoder's recursion can follow, or
    when a string in it holds a lone surrogate, which no UTF-8 text can."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedDocument("not valid JSON: nested too deeply") from None
    if SURROGATE_ESCAPE_RE.search(text) and _holds_surrogate(doc):
        raise MalformedDocument("not valid JSON: a string holds a lone surrogate escape")
    return doc


def _holds_surrogate(doc: object) -> bool:
    """Whether a key or string anywhere in a decoded document holds a
    surrogate; iterative, since json.loads accepts deeper nesting than a
    recursive walk could follow."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            if _SURROGATE_RE.search(value):
                return True
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return False


def check_fields(doc: object, path: str, required: Mapping, optional: Mapping) -> dict:
    """Check that `doc` is a JSON object with the given keys; return it.

    `required` and `optional` map each allowed key to its kind: str, int,
    (int, float) for any number, list, dict, or (str, type(None)) for a
    string or null. JSON true/false is none of these, although Python's bool
    is an int. The first problem raises SchemaViolation at its path, in this
    order: not an object, an unknown key, a missing required key, a value of
    the wrong kind (in the document's key order).
    """
    if not isinstance(doc, dict):
        raise SchemaViolation(path, f"expected {_KIND_NAMES[dict]}")
    # Most documents hold exactly the required keys; the set arithmetic
    # below would double the cost of checking each of a portion's terms.
    if doc.keys() != required.keys():
        unknown = doc.keys() - required.keys() - optional.keys()
        if unknown:
            raise SchemaViolation(f"{path}.{min(unknown)}", "unknown field")
        missing = required.keys() - doc.keys()
        if missing:
            raise SchemaViolation(f"{path}.{min(missing)}", "missing field")
    for key, value in doc.items():
        kind = required[key] if key in required else optional[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SchemaViolation(f"{path}.{key}", f"expected {_KIND_NAMES[kind]}")
    return doc
