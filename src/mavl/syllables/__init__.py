"""Per-language syllable counting and segmentation.

EN, ES and FR run rule-based vowel-nucleus analysis with an exceptions
lexicon on top. KO counts precomposed Hangul blocks. JA counts morae.
All entry points normalize first (numbers to words, punctuation off,
whitespace collapsed) so raw lyric lines can be fed in directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from ..errors import NumberRangeError
from ..languages import Language
from . import common, english, french, japanese, korean, spanish
from .lexicon import Lexicon, load_lexicon, parse_lexicon, shipped_lexicon
from .numbers import MAX_SUPPORTED, expand_number

__all__ = [
    "NormalizationPolicy", "SyllableSegmentation", "normalize",
    "count_syllables", "segment", "expand_number", "MAX_SUPPORTED",
    "Lexicon", "load_lexicon", "parse_lexicon", "shipped_lexicon",
]


@dataclass(frozen=True)
class NormalizationPolicy:
    expand_numbers: bool = True
    strip_punctuation_for_counting: bool = True
    french_final_e_mode: str = "mute"  # "mute" or "sounded"


DEFAULT_POLICY = NormalizationPolicy()


@dataclass(frozen=True)
class SyllableSegmentation:
    units: tuple[str, ...]
    count: int
    language: Language

    def __post_init__(self):
        if self.count != len(self.units):
            raise ValueError("count must equal len(units)")


_DIGITS = re.compile(r"\d+")
_STRIP_CHARS = ".,;:!?¡¿()[]{}«»\"“”„…·‹›"
_CJK_STRIP = "、。・「」『』！？．，；：（）…〜～"
_HYPHENS = "-–—"


def normalize(lang: Language, text: str,
              policy: NormalizationPolicy = DEFAULT_POLICY) -> str:
    out = text.replace("’", "'")
    if policy.expand_numbers:
        glue = "" if lang in (Language.KO, Language.JA) else " "
        out = _DIGITS.sub(
            lambda m: f"{glue}{_spell_digits(lang, m.group())}{glue}", out)
    if lang is Language.JA:
        out = japanese.apply_annotations(out)
    if policy.strip_punctuation_for_counting:
        table = {ord(ch): None for ch in _STRIP_CHARS + _CJK_STRIP}
        if lang is Language.JA:
            for ch in _HYPHENS + "'[]":
                table[ord(ch)] = None
        else:
            for ch in _HYPHENS:
                table[ord(ch)] = " "
        out = out.translate(table)
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


def count_syllables(lang: Language, text: str,
                    policy: NormalizationPolicy = DEFAULT_POLICY,
                    *, lexicon: Lexicon | None = None,
                    readings: japanese.ReadingProvider | None = None) -> int:
    return segment(lang, text, policy, lexicon=lexicon,
                   readings=readings).count


def segment(lang: Language, text: str,
            policy: NormalizationPolicy = DEFAULT_POLICY,
            *, lexicon: Lexicon | None = None,
            readings: japanese.ReadingProvider | None = None
            ) -> SyllableSegmentation:
    prepared = normalize(lang, text, policy)
    if lang is Language.KO:
        units = korean.segment(prepared)
    elif lang is Language.JA:
        units = japanese.segment(prepared, readings)
    else:
        if lexicon is None:
            lexicon = _default_lexicon(lang)
        units = []
        for token in prepared.split():
            core = common.word_core(token)
            if not core:
                continue
            units.extend(_latin_word_units(lang, core, policy, lexicon))
    return SyllableSegmentation(tuple(units), len(units), lang)


def _latin_word_units(lang: Language, core: str,
                      policy: NormalizationPolicy,
                      lexicon: Lexicon) -> list[str]:
    hit = lexicon.lookup(core)
    if hit is not None:
        count, explicit = hit
        if explicit is not None:
            return list(explicit)
        return _reconcile(_heuristic_units(lang, core, policy), count)
    return _heuristic_units(lang, core, policy)


def _heuristic_units(lang: Language, core: str,
                     policy: NormalizationPolicy) -> list[str]:
    if lang is Language.EN:
        return english.segment_word(core)
    if lang is Language.ES:
        return spanish.segment_word(core)
    mute = policy.french_final_e_mode != "sounded"
    return french.segment_word(core, mute_final_e=mute)


def _reconcile(units: list[str], count: int) -> list[str]:
    """Force a unit list to a lexicon-mandated count, keeping coverage."""
    units = list(units)
    while len(units) > count and len(units) > 1:
        tail = units.pop()
        units[-1] += tail
    while len(units) < count:
        tail = units.pop()
        if len(tail) < 2:
            units.append(tail)
            break
        units.extend([tail[:1], tail[1:]])
    return units


@lru_cache(maxsize=None)
def _default_lexicon(lang: Language) -> Lexicon:
    return shipped_lexicon(lang)
