"""The syllable walk shared by the Latin-script counters (EN, ES, FR).

A language module supplies a vowel test, a hiatus rule and its onset
clusters. ``vowel_runs`` groups adjacent vowels into nucleus spans, split
where the hiatus rule parts two vowels; ``without_final_e`` drops a silent
final e; ``split_on_nuclei`` turns the spans into syllable units by
splitting the consonant runs between them. The split is onset-maximal
only for known clusters: a lone consonant starts the next syllable, a run
keeps everything except its final cluster (or final consonant) in the
coda. Words come from ``normalize``, which leaves ``'`` as the only
punctuation a token can hold.
"""

from __future__ import annotations

from typing import Callable

Spans = list[tuple[int, int]]


def word_core(token: str) -> str:
    """Token without the apostrophes around it; one inside (don't) stays. May be empty."""
    return token.strip("'")


def lower(word: str) -> str:
    """``word.lower()`` with one code point per character, so that spans
    found in it cut ``word`` at the same letters: ``İ`` (U+0130), the one
    character whose lowercase is two code points, lowers to ``i``."""
    return word.replace("İ", "I").lower()


def segment_word(core: str, nuclei: Callable[[str], Spans],
                 clusters: frozenset[str]) -> list[str]:
    """Syllable units of one word core; ``nuclei`` finds the nucleus spans
    in its ``lower`` form. Always at least one unit."""
    return split_on_nuclei(core, nuclei(lower(core)), clusters) or [core]


def vowel_runs(word: str, is_vowel: Callable[[str, int], bool],
               hiatus: Callable[[str, str], bool] | None = None) -> Spans:
    """(start, end) spans of the runs of letters that ``is_vowel(word, i)``
    accepts; a run splits before a vowel ``ch`` where ``hiatus(last, ch)``
    holds for the vowel before it."""
    spans: Spans = []
    i = 0
    while i < len(word):
        if not is_vowel(word, i):
            i += 1
            continue
        start = i
        i += 1
        while (i < len(word) and is_vowel(word, i)
               and not (hiatus and hiatus(word[i - 1], word[i]))):
            i += 1
        spans.append((start, i))
    return spans


def without_final_e(word: str, spans: Spans, silent: Callable[[str, int], bool]) -> Spans:
    """``spans`` less a last nucleus that is a lone ``e`` at ``s`` which
    ``silent(word, s)`` calls silent. A word's only nucleus stays."""
    if len(spans) > 1:
        s, e = spans[-1]
        if e - s == 1 and word[s] == "e" and silent(word, s):
            spans.pop()
    return spans


def split_on_nuclei(word: str, nuclei: Spans, clusters: frozenset[str]) -> list[str]:
    """Cut ``word`` into len(nuclei) units, one nucleus per unit.

    ``nuclei`` are (start, end) spans in order. ``clusters`` holds onset
    groups (2 or 3 letters) that stay together at a syllable start.
    """
    if not nuclei:
        return [word] if word else []
    cuts: list[int] = []
    for (_, prev_end), (next_start, _) in zip(nuclei, nuclei[1:]):
        run = word[prev_end:next_start]
        cuts.append(prev_end + _onset_offset(run, clusters))
    units = []
    begin = 0
    for cut in cuts:
        units.append(word[begin:cut])
        begin = cut
    units.append(word[begin:])
    return [u for u in units if u]


def _onset_offset(run: str, clusters: frozenset[str]) -> int:
    """Where, within a consonant run, the next syllable begins."""
    if len(run) <= 1:
        return 0
    for width in (3, 2):
        if len(run) >= width and run[-width:] in clusters:
            return len(run) - width
    return len(run) - 1
