"""Grapheme-to-IPA transcription and phonetic edit distance.

Transcription is table-driven: ordered rules of the form
``grapheme<TAB>ipa[<TAB>left/right]`` where the ipa field holds
space-separated symbols (``∅`` marks a silent letter) and the optional
third field constrains the neighborhood, ``#`` meaning a word boundary.
Longest grapheme wins; ties fall back to file order.

Korean text is decomposed to jamo before matching, Japanese katakana is
folded to hiragana. The shipped tables are broad-phonemic on purpose:
they make distances comparable, not dictionary-grade transcriptions.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .errors import MissingRuleTableError
from .languages import (
    HANGUL_BLOCK_START,
    Language,
    is_hangul_syllable,
    katakana_to_hiragana,
)


class IpaString:
    """IPA symbols; ``dropped`` counts the graphemes no rule matched, and
    equality and hashing leave it out."""

    __slots__ = ("symbols", "dropped")

    def __init__(self, symbols: tuple[str, ...], dropped: int = 0):
        if not all(symbols) or any(map(str.isspace, symbols)):
            bad = next(sym for sym in symbols if not sym or sym.isspace())
            raise ValueError(f"bad IPA symbol {bad!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "dropped", dropped)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to IpaString.{name}")

    def __eq__(self, other) -> bool:
        return isinstance(other, IpaString) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __repr__(self) -> str:
        return f"IpaString(symbols={self.symbols!r}, dropped={self.dropped!r})"


class G2PRule(NamedTuple):
    grapheme: str
    output: tuple[str, ...]
    left: str = ""
    right: str = ""


class G2PRuleSet:
    def __init__(self, rules: list[G2PRule]):
        # Rules bucketed by first character; within a bucket, longest grapheme
        # first, and the stable sort keeps file order within a length.
        self._by_first: dict[str, list[G2PRule]] = {}
        for rule in sorted(rules, key=lambda r: -len(r.grapheme)):
            self._by_first.setdefault(rule.grapheme[0], []).append(rule)

    def match(self, text: str, i: int) -> G2PRule | None:
        for rule in self._by_first.get(text[i], ()):
            end = i + len(rule.grapheme)
            if (text.startswith(rule.grapheme, i)
                    and _left_ok(rule.left, text, i)
                    and _right_ok(rule.right, text, end)):
                return rule
        return None


def _left_ok(pattern: str, text: str, i: int) -> bool:
    """Does ``text[:i]`` end with ``pattern`` (``#``: a word boundary)?"""
    if pattern == "#":
        return i == 0 or text[i - 1].isspace()
    return text.endswith(pattern, 0, i)


def _right_ok(pattern: str, text: str, end: int) -> bool:
    """Does ``text[end:]`` start with ``pattern`` (``#``: a word boundary)?"""
    if pattern == "#":
        return end == len(text) or text[end].isspace()
    return text.startswith(pattern, end)


def parse_rules(lines, source: str = "<rules>") -> G2PRuleSet:
    rules: list[G2PRule] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise MissingRuleTableError(
                f"{source}:{lineno}: expected grapheme<TAB>ipa[<TAB>ctx]")
        grapheme = parts[0]
        if not grapheme:
            # an empty grapheme would match everywhere without advancing
            raise MissingRuleTableError(f"{source}:{lineno}: empty grapheme")
        output = () if parts[1] == "∅" else tuple(parts[1].split())
        left = right = ""
        if len(parts) == 3 and parts[2]:
            left, _, right = parts[2].partition("/")
        if any(ch.isspace() for ch in grapheme + left + right):
            # transcribe walks one word at a time, so no rule may span words
            raise MissingRuleTableError(
                f"{source}:{lineno}: whitespace in grapheme or context")
        rules.append(G2PRule(grapheme, output, left, right))
    return G2PRuleSet(rules)


@lru_cache(maxsize=None)
def shipped_rules(language: Language) -> G2PRuleSet:
    name = f"{language.value.lower()}.tsv"
    candidate = resources.files("mavl").joinpath("data", "g2p", name)
    if not candidate.is_file():
        raise MissingRuleTableError(f"no shipped rule table for {language}")
    with candidate.open("r", encoding="utf-8") as fh:
        return parse_rules(fh, source=name)


def _decompose_hangul(text: str) -> str:
    out: list[str] = []
    for ch in text:
        if not is_hangul_syllable(ch):
            out.append(ch)
            continue
        offset = ord(ch) - HANGUL_BLOCK_START
        lead, rest = divmod(offset, 588)
        vowel, tail = divmod(rest, 28)
        out.append(chr(0x1100 + lead))
        out.append(chr(0x1161 + vowel))
        if tail:
            out.append(chr(0x11A7 + tail))
    return "".join(out)


# A lyric corpus reuses a small vocabulary, so the transcriptions of the
# last _WORD_MEMO distinct (language, word) pairs are remembered.
_WORD_MEMO = 4096


def transcribe(lang: Language, text: str) -> IpaString:
    """IPA symbols of ``text``, with ``dropped`` counting unmatched graphemes.

    Korean is decomposed to jamo, Japanese katakana folded to hiragana and
    other text lowercased, then each whitespace-separated word is
    transcribed on its own.  That equals one walk over the whole text,
    because no rule has whitespace in its grapheme or context and ``#``
    tests the same whitespace that ``str.split`` cuts at.
    """
    if lang is Language.KO:
        text = _decompose_hangul(text)
    elif lang is Language.JA:
        text = katakana_to_hiragana(text)
    else:
        text = text.lower()
    symbols: list[str] = []
    dropped = 0
    for word in text.split():
        word_symbols, word_dropped = _transcribe_word(lang, word)
        symbols += word_symbols
        dropped += word_dropped
    return IpaString(tuple(symbols), dropped=dropped)


@lru_cache(maxsize=_WORD_MEMO)
def _transcribe_word(lang: Language, word: str) -> tuple[tuple[str, ...], int]:
    """(symbols, dropped) of one folded word that holds no whitespace."""
    rules = shipped_rules(lang)
    symbols: list[str] = []
    dropped = 0
    i = 0
    while i < len(word):
        rule = rules.match(word, i)
        if rule is None:
            dropped += 1
            i += 1
            continue
        symbols.extend(rule.output)
        i += len(rule.grapheme)
    return tuple(symbols), dropped


def edit_distance(a: IpaString, b: IpaString) -> int:
    """Symbol-level Levenshtein distance, unit costs.

    Bit-parallel (Myers 1999, in Hyyrö's form for a global distance): bit i
    of each vector is row i of one DP column over the longer string, so the
    loop runs once per symbol of the shorter one.  Python ints are as wide as
    the string needs.
    """
    xs, ys = a.symbols, b.symbols
    if len(xs) < len(ys):
        xs, ys = ys, xs
    if not ys:
        return len(xs)
    peq: dict[str, int] = {}
    get = peq.get
    bit = 1
    for x in xs:
        peq[x] = get(x, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    # vertical deltas +1 (pv) and -1 (mv) down the column; dist is its last cell
    pv, mv, dist = mask, 0, len(xs)
    for y in ys:
        eq = get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # row 0 of each column is one more than in the column before
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def phonetic_distance(lang_gt: Language, gt: str,
                      lang_pred: Language, pred: str) -> int:
    return edit_distance(transcribe(lang_gt, gt), transcribe(lang_pred, pred))
