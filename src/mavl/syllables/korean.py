"""Korean syllable counting.

Hangul is syllabic by construction: one precomposed block, one syllable.
Everything outside U+AC00..U+D7A3 is ignored.
"""

from __future__ import annotations

from ..languages import is_hangul_syllable


def segment(text: str) -> list[str]:
    return list(filter(is_hangul_syllable, text))
