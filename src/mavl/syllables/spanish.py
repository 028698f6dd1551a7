"""Spanish syllable heuristics.

Spanish spelling is close to phonemic, so vowel grouping plus the
diphthong/hiatus rules gets almost everything: strong vowels (a, e, o)
break apart, weak ones (i, u) glide, and an accented weak vowel forces
hiatus (frío, país, oído).
"""

from __future__ import annotations

from .common import vowel_runs

_STRONG = set("aeoáéó")
_WEAK = set("iuü")
_ACCENTED_WEAK = set("íú")
_ALL = _STRONG | _WEAK | _ACCENTED_WEAK

CLUSTERS = frozenset({
    "bl", "br", "ch", "cl", "cr", "dr", "fl", "fr", "gl", "gr", "ll", "pl",
    "pr", "qu", "rr", "tr",
})


def _is_vowel_char(word: str, i: int) -> bool:
    ch = word[i]
    prev = word[i - 1] if i > 0 else ""
    nxt = word[i + 1] if i + 1 < len(word) else ""
    if ch == "u":
        if prev == "q":
            return False
        if prev == "g" and nxt in "eéií":
            return False
        return True
    if ch == "y":
        # vocalic only at word end (hoy, muy) or standing alone
        return i == len(word) - 1
    return ch in _ALL


def _hiatus(last: str, ch: str) -> bool:
    # an accented weak vowel stands alone (frío, país); two strong ones part (leer)
    if ch in _ACCENTED_WEAK or last in _ACCENTED_WEAK:
        return True
    return ch in _STRONG and last in _STRONG


def nuclei(word: str) -> list[tuple[int, int]]:
    return vowel_runs(word, _is_vowel_char, _hiatus)
