"""Per-language syllable counting and segmentation.

EN, ES and FR run rule-based vowel-nucleus analysis with the shipped
exceptions lexicon on top. KO counts precomposed Hangul blocks. JA counts
morae. All entry points normalize first (numbers to words, punctuation off,
whitespace collapsed) so raw lyric lines can be fed in directly. A count
depends on the language and the text alone.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from ..errors import NumberRangeError
from ..languages import Language
from . import common, english, french, japanese, korean, spanish
from .lexicon import parse_lexicon, shipped_lexicon
from .numbers import MAX_SUPPORTED, expand_number

__all__ = [
    "SyllableSegmentation", "normalize", "count_syllables", "segment",
    "expand_number", "MAX_SUPPORTED", "parse_lexicon", "shipped_lexicon",
]


class SyllableSegmentation(NamedTuple):
    units: tuple[str, ...]
    language: Language

    @property
    def count(self) -> int:
        return len(self.units)


_DIGITS = re.compile(r"\d+")
_STRIP_CHARS = ".,;:!?¡¿()[]{}«»\"“”„…·‹›"
_CJK_STRIP = "、。・「」『』！？．，；：（）…〜～"
_HYPHENS = "-–—"
# a hyphen splits words, except in JA, which drops it along with apostrophes
_STRIP_TABLE = {ord(ch): None for ch in _STRIP_CHARS + _CJK_STRIP} | {
    ord(ch): " " for ch in _HYPHENS}
_STRIP_TABLE_JA = {ord(ch): None
                   for ch in _STRIP_CHARS + _CJK_STRIP + _HYPHENS + "'[]"}


def normalize(lang: Language, text: str) -> str:
    glue = "" if lang in (Language.KO, Language.JA) else " "
    out = _DIGITS.sub(lambda m: f"{glue}{_spell_digits(lang, m.group())}{glue}",
                      text.replace("’", "'"))
    if lang is Language.JA:
        out = japanese.apply_annotations(out).translate(_STRIP_TABLE_JA)
    else:
        out = out.translate(_STRIP_TABLE)
    return " ".join(out.split())


def _spell_digits(lang: Language, digits: str) -> str:
    """Cardinal words for a digit run; raises NumberRangeError past the range.

    A run too long to be in range is refused before ``int()``, which cannot
    parse runs past the interpreter's digit limit; leading zeros don't count.
    """
    significant = digits.lstrip("0")
    if len(significant) > len(str(MAX_SUPPORTED)):
        raise NumberRangeError(
            f"{len(significant)}-digit number exceeds supported range {MAX_SUPPORTED}")
    return expand_number(lang, int(significant or "0"))


def count_syllables(lang: Language, text: str) -> int:
    return len(_units(lang, text))


def segment(lang: Language, text: str) -> SyllableSegmentation:
    return SyllableSegmentation(tuple(_units(lang, text)), lang)


def _units(lang: Language, text: str) -> list[str]:
    prepared = normalize(lang, text)
    if lang is Language.KO:
        return korean.segment(prepared)
    if lang is Language.JA:
        return japanese.segment(prepared)
    units: list[str] = []
    for token in prepared.split():
        core = common.word_core(token)
        if core:
            units.extend(_latin_word_units(lang, core))
    return units


# A lyric corpus reuses a small vocabulary, so the units of the last
# _WORD_MEMO distinct (language, word) pairs are remembered.  KO and JA are
# not split per word: JA small kana attach across spaces.
_WORD_MEMO = 4096


@lru_cache(maxsize=_WORD_MEMO)
def _latin_word_units(lang: Language, core: str) -> tuple[str, ...]:
    explicit = shipped_lexicon(lang).get(common.lower(core))
    if explicit is not None:
        return explicit
    if lang is Language.EN:
        return tuple(english.segment_word(core))
    rules = spanish if lang is Language.ES else french
    return tuple(common.segment_word(core, rules.nuclei, rules.CLUSTERS))
