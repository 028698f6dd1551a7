"""Japanese mora counting.

Works on kana. Small kana (ゃ ゅ ょ ぁ ...) attach to the preceding unit;
the sokuon っ, the long-vowel mark ー, and ん are each a full mora, so
ちょっと is three morae and トーキョー is four.

Kanji need readings. Three sources, in order: inline ``漢字[かんじ]``
annotations, a pluggable :class:`ReadingProvider`, and as a last resort
each unresolved kanji stands as one opaque unit. That floor undercounts
multi-mora readings, which is why dataset text for JA should carry
annotations or a lexicon should be supplied.
"""

from __future__ import annotations

import re
from typing import Mapping, Protocol

from ..languages import is_kana, is_kanji

_SMALL_KANA = set("ぁぃぅぇぉゃゅょゎァィゥェォャュョヮ")

_ANNOTATION = re.compile(r"([^\s\[\]]+?)\[([ぁ-ゖァ-ヺー]+)\]")


class ReadingProvider(Protocol):
    """Supplies a kana reading for a surface string, or None if unknown."""

    def reading(self, surface: str) -> str | None: ...


class LexiconReadings:
    """Reading provider backed by a plain surface -> kana mapping."""

    def __init__(self, entries: Mapping[str, str]):
        self._entries = dict(entries)
        self._max_len = max((len(k) for k in self._entries), default=0)

    @classmethod
    def from_tsv(cls, path) -> "LexiconReadings":
        entries: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                surface, _, reading = line.partition("\t")
                if surface and reading:
                    entries[surface] = reading.strip()
        return cls(entries)

    def reading(self, surface: str) -> str | None:
        return self._entries.get(surface)

    @property
    def max_surface_len(self) -> int:
        return self._max_len


def apply_annotations(text: str) -> str:
    """Replace ``surface[reading]`` spans with their kana reading."""
    return _ANNOTATION.sub(lambda m: m.group(2), text)


def split_kana_morae(kana: str) -> list[str]:
    units: list[str] = []
    for ch in kana:
        if not is_kana(ch):
            continue
        if ch in _SMALL_KANA and units:
            units[-1] += ch
        else:
            units.append(ch)
    return units


def _resolve_kanji_run(run: str, readings: ReadingProvider | None) -> list[str]:
    units: list[str] = []
    i = 0
    while i < len(run):
        matched = False
        if readings is not None:
            # greedy longest-match against the provider
            limit = getattr(readings, "max_surface_len", 8) or 8
            for end in range(min(len(run), i + limit), i, -1):
                kana = readings.reading(run[i:end])
                if kana:
                    units.extend(split_kana_morae(kana))
                    i = end
                    matched = True
                    break
        if not matched:
            units.append(run[i])
            i += 1
    return units


def segment(text: str, readings: ReadingProvider | None = None) -> list[str]:
    """Mora units of ``text``; annotations are applied first."""
    text = apply_annotations(text)
    units: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if is_kana(ch):
            if ch in _SMALL_KANA and units and is_kana(units[-1][-1]):
                units[-1] += ch
            else:
                units.append(ch)
            i += 1
        elif is_kanji(ch):
            j = i
            while j < n and is_kanji(text[j]):
                j += 1
            units.extend(_resolve_kanji_run(text[i:j], readings))
            i = j
        else:
            i += 1
    return units
