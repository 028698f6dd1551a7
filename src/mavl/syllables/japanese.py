"""Japanese mora counting.

Works on kana. Small kana (ゃ ゅ ょ ぁ ...) attach to the preceding unit;
the sokuon っ, the long-vowel mark ー, and ん are each a full mora, so
ちょっと is three morae and トーキョー is four.

Kanji need readings, given inline as ``漢字[かんじ]`` annotations. An
unannotated kanji stands as one opaque unit. That floor undercounts
multi-mora readings, which is why dataset text for JA should carry
annotations.
"""

from __future__ import annotations

import re
from functools import cache

from ..languages import KANJI_CLASS, is_kana, is_kanji

_SMALL_KANA = set("ぁぃぅぇぉゃゅょゎァィゥェォャュョヮ")


@cache
def _annotation() -> re.Pattern:
    """The pattern of one annotation, compiled on first use: its kanji class
    builds a 64K-entry charmap, which a text with no ``[`` never needs."""
    # the surface is the kanji run right before the brackets, no more
    return re.compile(KANJI_CLASS + r"+\[([ぁ-ゖァ-ヺー]+)\]")


def apply_annotations(text: str) -> str:
    """Replace ``漢字[かんじ]`` spans with their kana reading."""
    if "[" not in text:
        return text
    return _annotation().sub(r"\1", text)


def segment(text: str) -> list[str]:
    """Mora units of normalized ``text``, whose annotations ``normalize`` has
    already replaced by their readings."""
    units: list[str] = []
    # whether units[-1] is kana, which a small kana attaches to
    after_kana = False
    for ch in text:
        if is_kana(ch):
            if after_kana and ch in _SMALL_KANA:
                units[-1] += ch
            else:
                units.append(ch)
            after_kana = True
        elif is_kanji(ch):
            units.append(ch)
            after_kana = False
    return units
