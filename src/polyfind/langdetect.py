"""Language identification: script ranges first, trigram rank profiles second.

A profile is the K most frequent character trigrams of a training corpus,
in rank order. Classification compares the rank order of the input's
trigrams against each profile (out-of-place distance); script-exclusive
languages such as Arabic are decided by a codepoint-range majority vote
before any profile runs.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import CorpusTooSmall, EmptyInput, NoProfiles, SchemaViolation
from .textutil import check_fields, check_language, load_json, normalize_text

PROFILE_SIZE = 300
ABSENT_PENALTY = 301
MIN_CORPUS_CHARS = 100

# Languages whose script no other configured language uses; inclusive
# codepoint ranges. A text whose letters fall mostly in such ranges skips
# trigram scoring entirely.
SCRIPT_EXCLUSIVE: dict[str, tuple[tuple[int, int], ...]] = {
    "ar": ((0x0600, 0x06FF), (0x0750, 0x077F)),
}
# Each language's ranges as one character class.
_SCRIPT_RE = {
    lang: re.compile("[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges) + "]")
    for lang, ranges in SCRIPT_EXCLUSIVE.items()
}


@dataclass(frozen=True)
class TrigramProfile:
    language: str
    ranked_trigrams: tuple[str, ...]

    @cached_property
    def ranks(self) -> dict[str, int]:
        """Each trigram's 1-based rank; built on first use."""
        return {t: i + 1 for i, t in enumerate(self.ranked_trigrams)}


@dataclass(frozen=True)
class DetectionResult:
    language: str
    confidence: float
    method: str  # declared | script | trigram


def trigram_counts(text: str) -> Counter:
    """Trigram frequencies of normalized text; words padded with one space."""
    padded = [f" {word} " for word in normalize_text(text).split()]
    return Counter([word[i : i + 3] for word in padded for i in range(len(word) - 2)])


def rank_trigrams(counts: Counter) -> list[str]:
    """Most frequent first; ties broken by codepoint order of the trigram."""
    return sorted(counts, key=lambda t: (-counts[t], t))


def build_profile(corpus: str, language: str) -> TrigramProfile:
    check_language(language)
    normalized = normalize_text(corpus)
    if len(normalized) < MIN_CORPUS_CHARS:
        raise CorpusTooSmall(
            f"corpus for {language!r} has {len(normalized)} chars after "
            f"normalization, need >= {MIN_CORPUS_CHARS}"
        )
    ranked = rank_trigrams(trigram_counts(normalized))[:PROFILE_SIZE]
    return TrigramProfile(language, tuple(ranked))


def out_of_place_distance(text_ranked: list[str], profile: TrigramProfile) -> int:
    """Sum over the text's trigrams of rank displacement against the profile.

    Ranks are 1-based; a trigram absent from the profile costs ABSENT_PENALTY.
    """
    total = 0
    for i, tri in enumerate(text_ranked):
        rank = profile.ranks.get(tri)
        total += ABSENT_PENALTY if rank is None else abs((i + 1) - rank)
    return total


def _script_majority(normalized: str) -> str | None:
    # str.isalpha is exactly Unicode category L*.
    letters = "".join(filter(str.isalpha, normalized))
    if not letters:
        return None
    for lang in sorted(SCRIPT_EXCLUSIVE):
        if len(_SCRIPT_RE[lang].findall(letters)) * 2 > len(letters):
            return lang
    return None


def detect(
    text: str,
    profiles: list[TrigramProfile] | tuple[TrigramProfile, ...] = (),
    declared: str | None = None,
) -> DetectionResult:
    """Identify the language of `text`.

    A declared tag wins outright. Otherwise the script rule runs, then the
    trigram profiles (script-exclusive languages excluded from that pool).
    Confidence is 1 - best/worst distance over the candidate pool, 0.5 when
    only one candidate exists.
    """
    if declared is not None:
        return DetectionResult(check_language(declared), 1.0, "declared")
    normalized = normalize_text(text)
    if not normalized:
        raise EmptyInput("nothing left to classify after normalization")
    script_lang = _script_majority(normalized)
    if script_lang is not None:
        return DetectionResult(script_lang, 1.0, "script")
    candidates = [p for p in profiles if p.language not in SCRIPT_EXCLUSIVE]
    if not candidates:
        raise NoProfiles("no trigram profiles configured for non-script languages")
    text_ranked = rank_trigrams(trigram_counts(normalized))
    distances = sorted(
        (out_of_place_distance(text_ranked, p), p.language) for p in candidates
    )
    best_distance, best_lang = distances[0]
    worst_distance = distances[-1][0]
    if len(distances) == 1:
        confidence = 0.5
    elif worst_distance == 0:
        confidence = 0.0
    else:
        confidence = 1.0 - best_distance / worst_distance
    return DetectionResult(best_lang, confidence, "trigram")


# --- profile persistence and corpus loading ---

_PROFILE_FIELDS = {"language": str, "ranked_trigrams": list}


def profile_from_json(data: bytes) -> TrigramProfile:
    doc = check_fields(load_json(data), "$", _PROFILE_FIELDS, {})
    language = doc["language"]
    trigrams = doc["ranked_trigrams"]
    if not all(isinstance(t, str) for t in trigrams):
        raise SchemaViolation("$.ranked_trigrams", "expected an array of strings")
    if len(trigrams) > PROFILE_SIZE:
        raise SchemaViolation("$.ranked_trigrams", f"more than {PROFILE_SIZE} entries")
    if len(set(trigrams)) != len(trigrams):
        raise SchemaViolation("$.ranked_trigrams", "duplicate trigram")
    check_language(language)
    return TrigramProfile(language, tuple(trigrams))


def packaged_corpora_dir() -> Path:
    return Path(__file__).parent / "corpora"


def build_profiles_from_corpora(directory: Path) -> list[TrigramProfile]:
    """One profile per <lang>.txt file under `directory`, sorted by language."""
    profiles = []
    for path in sorted(Path(directory).glob("*.txt")):
        language = check_language(path.stem)
        profiles.append(build_profile(path.read_text("utf-8"), language))
    return profiles


def load_profiles(directory: Path) -> list[TrigramProfile]:
    """Profiles from a directory holding <lang>.txt corpora and/or
    prebuilt <lang>.json profile documents. One language, one profile, and
    at least one for a language that the script rule does not decide."""
    if not Path(directory).is_dir():
        raise NoProfiles(f"profile directory {directory} does not exist")
    profiles = build_profiles_from_corpora(directory)
    for path in sorted(Path(directory).glob("*.json")):
        profiles.append(profile_from_json(path.read_bytes()))
    seen: set[str] = set()
    for profile in profiles:
        if profile.language in seen:
            raise SchemaViolation("$", f"more than one profile for {profile.language!r}")
        seen.add(profile.language)
    if all(language in SCRIPT_EXCLUSIVE for language in seen):
        raise NoProfiles(
            f"{directory} holds no profile for a language outside {sorted(SCRIPT_EXCLUSIVE)}"
        )
    return profiles
