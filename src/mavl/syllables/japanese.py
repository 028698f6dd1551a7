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

from ..languages import is_kana, is_kanji

_SMALL_KANA = set("ぁぃぅぇぉゃゅょゎァィゥェォャュョヮ")

# the code points of languages.is_kanji
_KANJI = "[\u3400-\u4dbf\u4e00-\u9fff々]"
# the surface is the kanji run right before the brackets, no more
_ANNOTATION = re.compile(_KANJI + r"+\[([ぁ-ゖァ-ヺー]+)\]")


def apply_annotations(text: str) -> str:
    """Replace ``漢字[かんじ]`` spans with their kana reading."""
    return _ANNOTATION.sub(r"\1", text)


def segment(text: str) -> list[str]:
    """Mora units of normalized ``text``, whose annotations ``normalize`` has
    already replaced by their readings."""
    units: list[str] = []
    for ch in text:
        if is_kana(ch):
            if ch in _SMALL_KANA and units and is_kana(units[-1][-1]):
                units[-1] += ch
            else:
                units.append(ch)
        elif is_kanji(ch):
            units.append(ch)
    return units
