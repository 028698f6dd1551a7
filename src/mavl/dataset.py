"""Dataset schema, compact line codec, parse and serialize.

Lyrics are distributed as fingerprints rather than text: per line we
keep the first letter of every word plus the first and last word. A
candidate line fetched from the recorded URL can be checked against its
fingerprint (``match_line``) without the dataset ever shipping it.

File format (UTF-8 JSON)::

    { "<song-id>": { "<lang>": {
        "title": ..., "source_url": ..., "media_url": null,
        "sections": [ { "index": 0, "lines": [
            { "index": 0, "rep": ["RmtIhtsg", "Remember", "goodbye"],
              "time_span": [12000, 15500], "syllable_count": 10 } ] } ] } } }

A resolved line may additionally carry its recovered "text". Every song
needs an "en" entry: EN is the source of every translation. Unknown
fields are kept and re-emitted. ``parse_dataset`` checks each field as
it reads it, so a document is walked once and the first fault in
document order is the one raised.
"""

from __future__ import annotations

import json
import unicodedata
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .errors import DatasetParseError, DatasetValidationError, EmptyLineError
from .languages import (
    BOM,
    Language,
    is_hiragana,
    is_kanji,
    is_katakana,
    surrogate_problem,
)

_LINE_KEYS = {"index", "rep", "time_span", "syllable_count", "text"}
_SECTION_KEYS = {"index", "lines"}
_ENTRY_KEYS = {"title", "source_url", "media_url", "sections"}


# the one default of every record's extras, so it is a mapping no one can add to
_NO_EXTRAS: Mapping = MappingProxyType({})


class CompactLineRep(NamedTuple):
    signature: str
    first_token: str
    last_token: str


class LyricLine(NamedTuple):
    index: int
    rep: CompactLineRep
    resolved_text: str | None = None
    time_span: tuple[int, int] | None = None
    syllable_count: int | None = None
    extras: Mapping = _NO_EXTRAS


class Section(NamedTuple):
    index: int
    lines: list[LyricLine]
    extras: Mapping = _NO_EXTRAS


class SongEntry(NamedTuple):
    title: str
    source_url: str
    media_url: str | None
    language: Language
    sections: list[Section]
    extras: Mapping = _NO_EXTRAS

    def lines(self):
        for section in self.sections:
            for line in section.lines:
                yield section, line


class Dataset(NamedTuple):
    songs: dict[str, dict[Language, SongEntry]]


class LineKey(NamedTuple):
    """Which lyric line: every per-line output is keyed, named and ordered
    by it."""

    song_id: str
    language: Language
    section: int
    line: int

    def location(self) -> str:
        """The line's name in every error, as ``parse_dataset`` raises it."""
        return (f"{self.song_id}/{self.language.value.lower()}"
                f"/section[{self.section}]/line[{self.line}]")

    def order(self) -> tuple[str, str, int, int]:
        """The sort key of every per-line output file."""
        return (self.song_id, self.language.value, self.section, self.line)


# ---------------------------------------------------------------- codec

def tokenize(lang: Language, text: str) -> list[str]:
    """The words of a line.

    Space-delimited languages split on whitespace. Japanese has no
    spaces, so a token is a run of one script class (kanji, hiragana,
    katakana, other), which approximates morpheme boundaries; punctuation
    joins the token before it so it never stands alone.
    """
    if lang.space_delimited:
        return text.split()
    tokens: list[str] = []
    prev = None
    for ch in text:
        cls = _char_class(ch)
        if cls == "space":
            prev = None
            continue
        if tokens and (cls == prev or cls == "punct"):
            tokens[-1] += ch
        else:
            tokens.append(ch)
        prev = cls
    return tokens


def _char_class(ch: str) -> str:
    if ch.isspace():
        return "space"
    if is_kanji(ch):
        return "kanji"
    if is_hiragana(ch):
        return "hiragana"
    if is_katakana(ch) or ch == "ー":
        return "katakana"
    if unicodedata.category(ch).startswith(("P", "S")):
        return "punct"
    return "other"


def encode_line(lang: Language, text: str) -> CompactLineRep:
    """Fingerprint one lyric line.

    Tokens keep their punctuation; the signature is the first character
    of each token. Japanese tokens are first combined in consecutive
    pairs (an odd trailing token stands alone) so the signature stays
    short despite fine-grained tokenization.
    """
    tokens = tokenize(lang, text)
    if not tokens:
        raise EmptyLineError("cannot encode an empty line")
    if lang is Language.JA:
        tokens = [a + b for a, b in zip(tokens[::2], tokens[1::2] + [""])]
    signature = "".join(tok[0] for tok in tokens)
    return CompactLineRep(signature, tokens[0], tokens[-1])


def match_line(rep: CompactLineRep, candidate: str, lang: Language) -> bool:
    try:
        return encode_line(lang, candidate) == rep
    except EmptyLineError:
        return False


# ----------------------------------------------------------- parse side

def parse_dataset(data: bytes | str) -> Dataset:
    """Read a dataset document.  Each input is let go once the next form
    holds its content: the bytes once decoded, the text once parsed, and each
    song's JSON tree once its records are built.  So a load holds at most two
    forms at a time, unless the caller keeps ``data``."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"not UTF-8 at byte {exc.start}: {exc.reason}",
                                byte_offset=exc.start) from None
    del data
    body = text.removeprefix(BOM)
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        offset = len(text[:len(text) - len(body) + exc.pos].encode("utf-8"))
        raise DatasetParseError(str(exc), byte_offset=offset) from None
    except (ValueError, RecursionError) as exc:
        # an integer past int's digit limit, or arrays nested past the stack
        raise DatasetParseError(f"not a JSON document: {exc}") from None
    del text, body
    if not isinstance(doc, dict):
        raise DatasetParseError("top level must be a JSON object")
    songs: dict[str, dict[Language, SongEntry]] = {}
    for song_id in list(doc):
        by_lang = doc.pop(song_id)
        problem = surrogate_problem(song_id)
        if problem:
            # the id keys every output record
            raise DatasetValidationError(f"song id {problem}", location=song_id)
        if not isinstance(by_lang, dict):
            raise DatasetValidationError("song value must be an object",
                                         location=song_id)
        entries: dict[Language, SongEntry] = {}
        for code, raw in by_lang.items():
            try:
                lang = Language.parse(code)
            except ValueError as exc:
                raise DatasetValidationError(str(exc),
                                             location=song_id) from None
            if lang in entries:
                raise DatasetValidationError(
                    f"key {code!r} repeats language {lang.value}",
                    location=song_id)
            entries[lang] = _parse_entry(raw, song_id, lang)
        if Language.EN not in entries:
            raise DatasetValidationError("no EN entry", location=song_id)
        songs[song_id] = entries
    return Dataset(songs)


def _index(raw: dict, expected: int, what: str, where: Callable[[], str]) -> int:
    """``raw["index"]``, checked; ``where()`` names the location of a fault."""
    if "index" not in raw:
        raise DatasetValidationError("missing field 'index'", location=where())
    # type() rather than isinstance(), since Python's bool is an int
    index = raw["index"]
    if type(index) is not int:
        raise DatasetValidationError("index must be an integer", location=where())
    if index != expected:
        raise DatasetValidationError(
            f"{what} index {index}, expected {expected}", location=where())
    return index


def _parse_entry(raw, song_id: str, lang: Language) -> SongEntry:
    loc = f"{song_id}/{lang.value.lower()}"
    if not isinstance(raw, dict):
        raise DatasetValidationError("entry must be an object", location=loc)
    try:
        title = raw["title"]
        source_url = raw["source_url"]
        sections_raw = raw["sections"]
    except KeyError as exc:
        raise DatasetValidationError(f"missing field {exc.args[0]!r}",
                                     location=loc) from None
    if not (isinstance(title, str) and isinstance(source_url, str)):
        raise DatasetValidationError("title and source_url must be strings",
                                     location=loc)
    if not source_url:
        raise DatasetValidationError("source_url is empty", location=loc)
    media_url = raw.get("media_url")
    if media_url is not None and not isinstance(media_url, str):
        raise DatasetValidationError("media_url must be a string or null",
                                     location=loc)
    if not isinstance(sections_raw, list):
        raise DatasetValidationError("sections must be an array", location=loc)
    sections = [
        _parse_section(s, song_id, lang, i, f"{loc}/section[{i}]")
        for i, s in enumerate(sections_raw)
    ]
    extras = {k: v for k, v in raw.items() if k not in _ENTRY_KEYS}
    return SongEntry(title, source_url, media_url, lang, sections, extras)


def _parse_section(raw, song_id: str, lang: Language, i: int, loc: str) -> Section:
    if not isinstance(raw, dict):
        raise DatasetValidationError("section must be an object", location=loc)
    index = _index(raw, i, "section", lambda: loc)
    lines_raw = raw.get("lines", [])
    if not isinstance(lines_raw, list):
        raise DatasetValidationError("lines must be an array", location=loc)
    lines = [
        _parse_line(l, LineKey(song_id, lang, i, j))
        for j, l in enumerate(lines_raw)
    ]
    extras = {k: v for k, v in raw.items() if k not in _SECTION_KEYS}
    return Section(index=index, lines=lines, extras=extras)


def _parse_line(raw, key: LineKey) -> LyricLine:
    # the location is formatted only when a check fails
    lang = key.language
    if not isinstance(raw, dict):
        raise DatasetValidationError("line must be an object",
                                     location=key.location())
    index = _index(raw, key.line, "line", key.location)
    rep_raw = raw.get("rep")
    if (not isinstance(rep_raw, list) or len(rep_raw) != 3
            or not all(isinstance(x, str) for x in rep_raw)):
        raise DatasetValidationError(
            "rep must be [signature, first, last]", location=key.location())
    rep = CompactLineRep(*rep_raw)
    if not rep.signature:
        raise DatasetValidationError("empty signature", location=key.location())
    if rep.first_token and rep.signature[0] != rep.first_token[0]:
        raise DatasetValidationError(
            "signature does not start with first token's letter",
            location=key.location())
    span = raw.get("time_span")
    if span is not None:
        if (not isinstance(span, list) or len(span) != 2
                or not all(type(x) is int for x in span)):
            raise DatasetValidationError("time_span must be [start_ms, end_ms]",
                                         location=key.location())
        if not span[0] < span[1]:
            raise DatasetValidationError("time_span start must precede end",
                                         location=key.location())
        span = (span[0], span[1])
    count = raw.get("syllable_count")
    if count is not None:
        if type(count) is not int:
            raise DatasetValidationError("syllable_count must be an integer",
                                         location=key.location())
        if count < 0:
            raise DatasetValidationError("negative syllable_count",
                                         location=key.location())
    text = raw.get("text")
    if text is not None:
        if not isinstance(text, str):
            raise DatasetValidationError("text must be a string",
                                         location=key.location())
        problem = surrogate_problem(text)
        if problem:
            raise DatasetValidationError(f"text {problem}",
                                         location=key.location())
        if lang.space_delimited and not match_line(rep, text, lang):
            raise DatasetValidationError("text does not match its rep",
                                         location=key.location())
    extras = (_NO_EXTRAS if raw.keys() <= _LINE_KEYS
              else {k: v for k, v in raw.items() if k not in _LINE_KEYS})
    return LyricLine(index, rep, text, span, count, extras)


# ------------------------------------------------------- serialize side

def serialize_dataset(dataset: Dataset) -> bytes:
    doc = {
        song_id: {
            lang.value.lower(): _entry_to_json(entry)
            for lang, entry in sorted(entries.items(), key=lambda kv: kv[0].value)
        }
        for song_id, entries in sorted(dataset.songs.items())
    }
    return (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def _entry_to_json(entry: SongEntry) -> dict:
    out: dict = {"title": entry.title, "source_url": entry.source_url}
    if entry.media_url is not None:
        out["media_url"] = entry.media_url
    out["sections"] = [
        {
            "index": section.index,
            "lines": [_line_to_json(line) for line in section.lines],
            **section.extras,
        }
        for section in entry.sections
    ]
    out.update(entry.extras)
    return out


def _line_to_json(line: LyricLine) -> dict:
    out: dict = {
        "index": line.index,
        "rep": [line.rep.signature, line.rep.first_token, line.rep.last_token],
    }
    if line.time_span is not None:
        out["time_span"] = list(line.time_span)
    if line.syllable_count is not None:
        out["syllable_count"] = line.syllable_count
    if line.resolved_text is not None:
        out["text"] = line.resolved_text
    out.update(line.extras)
    return out


# ------------------------------------------------------------ statistics

class LanguageStats(NamedTuple):
    songs: int = 0
    sections: int = 0
    lines: int = 0


class StatsReport(NamedTuple):
    per_language: dict[Language, LanguageStats]


def dataset_stats(dataset: Dataset) -> StatsReport:
    per: dict[Language, LanguageStats] = {}
    for entries in dataset.songs.values():
        for lang, entry in entries.items():
            prev = per.get(lang, LanguageStats())
            per[lang] = LanguageStats(
                songs=prev.songs + 1,
                sections=prev.sections + len(entry.sections),
                lines=prev.lines + sum(len(s.lines) for s in entry.sections),
            )
    return StatsReport(per)
