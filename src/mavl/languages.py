"""The five supported languages and small shared text helpers."""

from __future__ import annotations

import enum


class Language(enum.Enum):
    EN = "EN"
    ES = "ES"
    FR = "FR"
    KO = "KO"
    JA = "JA"

    # members are singletons compared by identity; Enum.__hash__ is Python
    # code, and these are dict keys on every hot path
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, value: str) -> "Language":
        try:
            return cls[value.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unsupported language {value!r}; expected one of "
                f"{', '.join(m.name for m in cls)}"
            ) from None

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]

    @property
    def space_delimited(self) -> bool:
        """Whether whitespace reliably separates words (everything but Japanese)."""
        return self is not Language.JA


_DISPLAY_NAMES = {
    Language.EN: "English",
    Language.ES: "Spanish",
    Language.FR: "French",
    Language.KO: "Korean",
    Language.JA: "Japanese",
}


def surrogate_problem(text: str) -> str | None:
    """Why ``text`` cannot be written as UTF-8, or None if it can.

    Only a surrogate code point fails to encode, and JSON's ``"\\ud800"``
    escape decodes to one when it is not half of a pair.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(text[exc.start])
        return f"holds the lone surrogate U+{code:04X}, which UTF-8 cannot encode"
    return None


BOM = "\ufeff"  # every reader skips one at the start of a file


# The script ranges of the KO and JA counters, the G2P and the codec.  Each
# predicate takes one character: one-character strings compare by code point.
HANGUL_BLOCK_START = 0xAC00


def is_hangul_syllable(ch: str) -> bool:
    return "\uac00" <= ch <= "\ud7a3"


def is_hiragana(ch: str) -> bool:
    # U+309D..E are ゝゞ
    return "\u3041" <= ch <= "\u3096" or "\u309d" <= ch <= "\u309e"


def is_katakana(ch: str) -> bool:
    # U+30FD..E are ヽヾ
    return "\u30a1" <= ch <= "\u30fa" or "\u30fd" <= ch <= "\u30fe"


def is_kana(ch: str) -> bool:
    """Hiragana, katakana or the long-vowel mark ー (U+30FC)."""
    return ("\u3041" <= ch <= "\u3096" or "\u309d" <= ch <= "\u309e"
            or "\u30a1" <= ch <= "\u30fa" or "\u30fc" <= ch <= "\u30fe")


# the code points of is_kanji, as a regular-expression class
KANJI_CLASS = "[\u3400-\u4dbf\u4e00-\u9fff々]"


def is_kanji(ch: str) -> bool:
    return "\u4e00" <= ch <= "\u9fff" or "\u3400" <= ch <= "\u4dbf" or ch == "々"


# katakana ァ..ヶ (U+30A1..U+30F6) to the hiragana 0x60 below each
_KATAKANA_TO_HIRAGANA = {cp: cp - 0x60 for cp in range(0x30A1, 0x30F7)}


def katakana_to_hiragana(text: str) -> str:
    return text.translate(_KATAKANA_TO_HIRAGANA)
