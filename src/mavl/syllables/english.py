"""English syllable heuristics.

Vowel-group counting with the usual adjustments: silent final e (and
-es / -ed endings), consonant+le endings, y as a conditional vowel, and
contraction suffixes stripped before analysis. Irregular words belong in
the exceptions lexicon, not here.
"""

from __future__ import annotations

from . import common

_VOWELS = "aeiou"

CLUSTERS = frozenset({
    "bl", "br", "ch", "cl", "cr", "dr", "fl", "fr", "gl", "gr", "ph", "pl",
    "pr", "qu", "sh", "th", "tr", "tw", "wh",
    "chr", "phr", "shr", "thr",
})

_CONTRACTION_SUFFIXES = ("'ll", "'re", "'ve", "'s", "'d", "'m", "'t")

# consonants before -es that force the e to sound (boxes, places, watches)
_SIBILANT_FINAL = set("sxzcg")
_SIBILANT_DIGRAPHS = {"ch", "sh"}


def _is_nucleus(word: str, i: int) -> bool:
    ch = word[i]
    prev = word[i - 1] if i > 0 else ""
    nxt = word[i + 1] if i + 1 < len(word) else ""
    if ch == "u" and prev == "q":
        return False
    if ch in _VOWELS:
        return True
    if ch == "y":
        if i == 0 and nxt in _VOWELS:
            return False
        if prev in _VOWELS and nxt in _VOWELS:
            return False
        return True
    return False


def nuclei(word: str) -> list[tuple[int, int]]:
    """Nucleus spans for a lowercased word, silent-e adjusted."""
    return common.without_final_e(word, common.vowel_runs(word, _is_nucleus), _final_e_silent)


def _final_e_silent(word: str, s: int) -> bool:
    tail = word[s + 1:]
    prev = word[s - 1] if s > 0 else ""
    if tail not in ("", "s", "d"):
        return False
    if tail == "d":
        # -ed sounds after t/d (wanted, needed) and is silent otherwise
        return prev not in ("t", "d")
    # consonant+le keeps its syllable: table, little, tables
    if prev == "l" and s >= 2 and word[s - 2] not in _VOWELS + "l":
        return False
    if tail == "s":
        if prev in _SIBILANT_FINAL or word[s - 2:s] in _SIBILANT_DIGRAPHS:
            return False
    return True


def segment_word(core: str) -> list[str]:
    """Syllable units of one word core; a contraction suffix joins the last."""
    lowered = common.lower(core)
    for suffix in _CONTRACTION_SUFFIXES:
        if lowered.endswith(suffix) and len(core) > len(suffix):
            units = common.segment_word(core[:-len(suffix)], nuclei, CLUSTERS)
            units[-1] += core[-len(suffix):]
            return units
    return common.segment_word(core, nuclei, CLUSTERS)
