"""Grapheme-to-IPA transcription and phonetic edit distance.

Transcription is table-driven: ordered rules of the form
``grapheme<TAB>ipa[<TAB>left/right]`` where the ipa field holds
space-separated symbols (``∅`` marks a silent letter) and the optional
third field constrains the neighborhood, ``#`` meaning a word boundary.
Longest grapheme wins; ties fall back to file order.

Korean text is decomposed to jamo before matching, and Japanese katakana
is folded to hiragana. The shipped tables are broad-phonemic on purpose:
they make distances comparable, not dictionary-grade transcriptions.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import Iterable, NamedTuple

from .errors import MetricDomainError, MissingRuleTableError
from .languages import (
    HANGUL_BLOCK_START,
    Language,
    is_hangul_syllable,
    katakana_to_hiragana,
)


class IpaString:
    """IPA symbols, kept as a tuple of whatever sequence is given, none
    empty or whitespace; ``dropped`` counts the graphemes no rule matched,
    and equality and hashing leave it out.  No field can be assigned or
    deleted."""

    __slots__ = ("symbols", "dropped")

    def __init__(self, symbols: Iterable[str], dropped: int = 0):
        symbols = tuple(symbols)
        if not all(symbols) or any(map(str.isspace, symbols)):
            bad = next(sym for sym in symbols if not sym or sym.isspace())
            raise ValueError(f"bad IPA symbol {bad!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "dropped", dropped)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to IpaString.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete IpaString.{name}")

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
    """Rules looked up by grapheme.

    ``match`` picks the longest grapheme that occurs at the position, then
    the first rule of that grapheme in file order whose context holds.  It
    slices the text at each grapheme length, longest first, and looks the
    slice up, so a position costs one dict lookup per length rather than a
    scan of every rule that starts with its character.
    """

    def __init__(self, rules: list[G2PRule]):
        # each grapheme's rules in file order
        self._by_grapheme: dict[str, list[G2PRule]] = {}
        for rule in rules:
            self._by_grapheme.setdefault(rule.grapheme, []).append(rule)
        self._lengths = sorted({len(g) for g in self._by_grapheme}, reverse=True)

    def match(self, text: str, i: int) -> G2PRule | None:
        get = self._by_grapheme.get
        room = len(text) - i
        for length in self._lengths:
            # a slice past the end would be shorter than ``length``, and
            # ``end`` would then point beyond the text
            if length > room:
                continue
            end = i + length
            for rule in get(text[i:end], ()):
                # most rules have no context, which always holds
                left, right = rule.left, rule.right
                if ((not left or _left_ok(left, text, i))
                        and (not right or _right_ok(right, text, end))):
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
    """``text`` with each precomposed Hangul syllable replaced by its two or
    three conjoining jamo (lead U+1100.., vowel U+1161.., tail U+11A8..) and
    every other character kept."""
    out: list[str] = []
    for ch in text:
        if not is_hangul_syllable(ch):
            out.append(ch)
            continue
        lead, rest = divmod(ord(ch) - HANGUL_BLOCK_START, 588)
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
    return IpaString(symbols, dropped)


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


# The most IPA symbols ``edit_distance`` takes on each side.  The distance
# costs time quadratic in the lengths, so one pasted transcript must not stall
# a run; a sung line holds far fewer symbols.
MAX_DISTANCE_SYMBOLS = 2048


def edit_distance(a: IpaString, b: IpaString) -> int:
    """Symbol-level Levenshtein distance, unit costs.

    A side over ``MAX_DISTANCE_SYMBOLS`` symbols raises
    ``MetricDomainError``, whatever the two sides hold.

    A common prefix and suffix of the two strings add nothing to a unit-cost
    distance (Ukkonen 1985), so both are cut off first.  The suffix is sought
    only in what the prefix leaves, so the two never overlap.

    What remains is bit-parallel (Myers 1999, in Hyyrö's form for a global
    distance): bit i of each vector is row i of one DP column over the longer
    string, so the loop runs once per symbol of the shorter one.  Python ints
    are as wide as the string needs.
    """
    xs, ys = a.symbols, b.symbols
    if max(len(xs), len(ys)) > MAX_DISTANCE_SYMBOLS:
        raise MetricDomainError(
            f"edit distance takes at most {MAX_DISTANCE_SYMBOLS} IPA symbols per side")
    if len(xs) < len(ys):
        xs, ys = ys, xs
    start = 0
    for x, y in zip(xs, ys):
        if x != y:
            break
        start += 1
    if start:
        xs, ys = xs[start:], ys[start:]
    cut = 0
    for x, y in zip(reversed(xs), reversed(ys)):
        if x != y:
            break
        cut += 1
    if cut:
        xs, ys = xs[:-cut], ys[:-cut]
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
