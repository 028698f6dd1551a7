"""Exception lexicons for words the heuristics get wrong.

TSV, one entry per line::

    word<TAB>syl|la|bles

Lookups are case-insensitive. A unit split must concatenate back to the
word; entries that do not are rejected at load time.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from ..errors import ConfigError
from ..languages import Language

# lowercased word -> its syllable units, as written in the entry
Lexicon = dict[str, tuple[str, ...]]


def parse_lexicon(lines, source: str = "<lexicon>") -> Lexicon:
    entries: Lexicon = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, _, value = line.partition("\t")
        word = word.strip()
        units = tuple(part for part in value.strip().split("|") if part)
        if not word or not units:
            raise ConfigError(f"{source}:{lineno}: need word<TAB>units")
        if "".join(units).lower() != word.lower():
            raise ConfigError(
                f"{source}:{lineno}: units {units!r} do not spell {word!r}")
        entries[word.lower()] = units
    return entries


@lru_cache(maxsize=None)
def shipped_lexicon(lang: Language) -> Lexicon:
    """Bundled exceptions for ``lang``; empty if none are shipped."""
    name = f"{lang.value.lower()}.tsv"
    candidate = resources.files("mavl").joinpath("data", "lexicons", name)
    if not candidate.is_file():
        return {}
    with candidate.open("r", encoding="utf-8") as fh:
        return parse_lexicon(fh, source=name)
