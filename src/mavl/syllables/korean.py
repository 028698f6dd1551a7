"""Korean syllable counting.

Hangul is syllabic by construction: one precomposed block, one syllable.
Everything outside U+AC00..U+D7A3 is ignored.
"""

from __future__ import annotations


def segment(text: str) -> list[str]:
    # languages.is_hangul_syllable, inline: one-character strings compare
    # by code point
    return [ch for ch in text if "\uac00" <= ch <= "\ud7a3"]
