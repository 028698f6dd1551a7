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


HANGUL_BLOCK_START = 0xAC00
HANGUL_BLOCK_END = 0xD7A3


def is_hangul_syllable(ch: str) -> bool:
    return HANGUL_BLOCK_START <= ord(ch) <= HANGUL_BLOCK_END


def is_hiragana(ch: str) -> bool:
    return 0x3041 <= ord(ch) <= 0x3096 or ch in "ゝゞ"


def is_katakana(ch: str) -> bool:
    return 0x30A1 <= ord(ch) <= 0x30FA or ch in "ヽヾ"


def is_kana(ch: str) -> bool:
    return is_hiragana(ch) or is_katakana(ch) or ch == "ー"


def is_kanji(ch: str) -> bool:
    cp = ord(ch)
    return 0x4E00 <= cp <= 0x9FFF or 0x3400 <= cp <= 0x4DBF or ch == "々"


# katakana ァ..ヶ (U+30A1..U+30F6) to the hiragana 0x60 below each
_KATAKANA_TO_HIRAGANA = {cp: cp - 0x60 for cp in range(0x30A1, 0x30F7)}


def katakana_to_hiragana(text: str) -> str:
    return text.translate(_KATAKANA_TO_HIRAGANA)
