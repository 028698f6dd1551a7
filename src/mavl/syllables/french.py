"""French syllable heuristics.

Vowel groups (including digraphs like eau, ou, ai) count once. A
diaeresis or a group following é opens a hiatus (noël, créer, poésie).
The word-final mute e (chante, portes) is always dropped, so sung-style
schwas are not counted.
"""

from __future__ import annotations

from .common import vowel_runs, without_final_e

_PLAIN_VOWELS = set("aâàeéèêiîoôuûùy")
_DIAERESIS = set("ëïöü")
_LIGATURES = set("œæ")
_ALL = _PLAIN_VOWELS | _DIAERESIS | _LIGATURES
_SIMPLE_VOWELS = set("aeiouy")
_ACUTE_GRAVE = set("éèê")

CLUSTERS = frozenset({
    "bl", "br", "ch", "cl", "cr", "dr", "fl", "fr", "gl", "gn", "gr", "ph",
    "pl", "pr", "qu", "th", "tr", "vr",
})


def _is_vowel_char(word: str, i: int) -> bool:
    ch = word[i]
    prev = word[i - 1] if i > 0 else ""
    nxt = word[i + 1] if i + 1 < len(word) else ""
    if ch == "u":
        if prev == "q":
            return False
        if prev == "g" and nxt in "eéèêi":
            return False
        return True
    if ch == "y":
        if i == 0 and nxt in _SIMPLE_VOWELS:
            return False
        if prev in _SIMPLE_VOWELS and nxt in _SIMPLE_VOWELS:
            return False
        return True
    return ch in _ALL


def _hiatus(last: str, ch: str) -> bool:
    if ch in _DIAERESIS:
        return True
    if last == "é":
        return True
    # poème, océan: accent after a non-glide vowel starts a new nucleus
    if ch in _ACUTE_GRAVE and last in "aâeéèêoô":
        return True
    return False


def nuclei(word: str) -> list[tuple[int, int]]:
    return without_final_e(word, vowel_runs(word, _is_vowel_char, _hiatus), _mute)


def _mute(word: str, s: int) -> bool:
    return word[s + 1:] in ("", "s")
