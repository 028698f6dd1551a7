import random
import string
import tracemalloc
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from mavl import phonetics
from mavl.errors import MetricDomainError, MissingRuleTableError
from mavl.languages import Language, is_hangul_syllable, katakana_to_hiragana
from mavl.phonetics import (
    G2PRuleSet,
    IpaString,
    edit_distance,
    parse_rules,
    phonetic_distance,
    shipped_rules,
    transcribe,
)
from mavl.syllables import korean


def dp_oracle(xs, ys):
    """Full-matrix Levenshtein, kept deliberately naive."""
    n, m = len(xs), len(ys)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (xs[i - 1] != ys[j - 1]),
            )
    return table[n][m]


def symbol_lists(alphabet, max_size=150):
    """Lists whose length is drawn first, so long ones are as likely as short."""
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))


class TestIpaString:
    def test_any_sequence_is_stored_as_a_tuple(self):
        a = IpaString(["a", "b"], dropped=1)
        assert type(a.symbols) is tuple
        assert a == IpaString(("a", "b")) and hash(a) == hash(IpaString(("a", "b")))
        assert IpaString(iter(["a"])).symbols == ("a",)

    def test_no_field_can_be_deleted(self):
        a = IpaString(("a",), dropped=1)
        for name in ("symbols", "dropped"):
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert (a.symbols, a.dropped) == (("a",), 1)


class TestEditDistance:
    def test_identical(self):
        a = IpaString(("k", "a", "s", "a"))
        assert edit_distance(a, a) == 0

    def test_empty_vs_n(self):
        a = IpaString(())
        b = IpaString(("a", "b", "c"))
        assert edit_distance(a, b) == 3
        assert edit_distance(b, a) == 3

    def test_kitten_sitting(self):
        a = IpaString(("k", "ɪ", "t", "ə", "n"))
        b = IpaString(("s", "ɪ", "t", "ɪ", "ŋ"))
        assert edit_distance(a, b) == 3

    # lengths either side of one 64-bit word; each side has symbols the
    # other lacks, which match no bit of the longer side's masks
    @given(symbol_lists("abcd"), symbol_lists("cdef"))
    @example(xs=list("abcd" * 16), ys=list("cdef" * 16) + ["c"])
    @example(xs=list("abcd" * 16) + ["a"], ys=list("cdef" * 16))
    @example(xs=[], ys=list("cdef" * 25))
    @example(xs=list("abcd" * 25), ys=[])
    def test_matches_full_matrix(self, xs, ys):
        a = IpaString(tuple(xs))
        b = IpaString(tuple(ys))
        assert edit_distance(a, b) == dp_oracle(xs, ys)

    # the shared prefix and suffix are cut before the bit-parallel pass; where
    # a string is all prefix and suffix the two could overlap
    @pytest.mark.parametrize("xs, ys", [
        ("", ""), ("", "ab"), ("kasa", "kasa"), ("a" * 70, "a" * 70),
        ("bc", "abcd"), ("abcd", "bc"), ("ab", "abab"), ("ba", "abab"),
        ("aba", "aa"), ("aa", "aba"), ("aaa", "aa"), ("aa", "aaa"),
        ("a", "aaaa"), ("abba", "aba"), ("xaay", "xay"),
    ])
    def test_shared_affixes(self, xs, ys):
        a, b = IpaString(tuple(xs)), IpaString(tuple(ys))
        assert edit_distance(a, b) == edit_distance(b, a) == dp_oracle(xs, ys)

    # two strings that share a drawn prefix and suffix; a small alphabet
    # makes the middles often start or end like the affixes around them
    @given(symbol_lists("ab", 40), symbol_lists("abc", 20),
           symbol_lists("abc", 20), symbol_lists("ab", 40))
    @example(p=["a"], m1=[], m2=["a"], s=["a"])
    @example(p=list("ab"), m1=list("ab"), m2=[], s=list("ab"))
    @example(p=list("ab" * 40), m1=["c"], m2=[], s=list("ba" * 40))
    def test_shared_affixes_match_full_matrix(self, p, m1, m2, s):
        xs, ys = p + m1 + s, p + m2 + s
        a, b = IpaString(tuple(xs)), IpaString(tuple(ys))
        assert edit_distance(a, b) == edit_distance(b, a) == dp_oracle(xs, ys)

    def test_capped_per_side_whatever_the_symbols(self):
        cap = phonetics.MAX_DISTANCE_SYMBOLS
        a, b = IpaString(("a",) * cap), IpaString(("b",) * cap)
        assert edit_distance(a, b) == cap
        over = IpaString(("a",) * (cap + 1))
        for x, y in ((over, a), (b, over), (over, over), (IpaString(()), over)):
            with pytest.raises(MetricDomainError, match=f"at most {cap} IPA symbols"):
                edit_distance(x, y)

    @given(st.lists(st.sampled_from("abc"), max_size=10),
           st.lists(st.sampled_from("abc"), max_size=10),
           st.lists(st.sampled_from("abc"), max_size=10))
    def test_metric_axioms(self, xs, ys, zs):
        a, b, c = (IpaString(tuple(v)) for v in (xs, ys, zs))
        assert edit_distance(a, b) == edit_distance(b, a)
        assert (edit_distance(a, b) == 0) == (xs == ys)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
        assert edit_distance(a, b) <= max(len(a), len(b))


class TestTranscribe:
    def test_empty(self):
        assert transcribe(Language.EN, "") == IpaString(())

    def test_spanish_casa(self):
        assert transcribe(Language.ES, "casa").symbols == ("k", "a", "s", "a")

    def test_korean_jamo(self):
        assert transcribe(Language.KO, "나").symbols == ("n", "a")

    def test_korean_final_consonant(self):
        assert transcribe(Language.KO, "밤").symbols == ("p", "a", "m")

    def test_english_go_no(self):
        assert transcribe(Language.EN, "go").symbols == ("ɡ", "oʊ")
        assert transcribe(Language.EN, "no").symbols == ("n", "oʊ")

    def test_english_context_y(self):
        assert transcribe(Language.EN, "cry").symbols[-1] == "aɪ"
        assert transcribe(Language.EN, "you").symbols[0] == "j"

    def test_japanese_digraph(self):
        assert transcribe(Language.JA, "ちょ").symbols == ("tɕ", "o")

    def test_japanese_katakana_folded(self):
        assert transcribe(Language.JA, "トー").symbols == ("t", "o", "ː")

    def test_unknown_characters_counted(self):
        out = transcribe(Language.EN, "ab9")
        assert out.dropped == 1
        assert out.symbols == ("æ", "b")

    def test_whitespace_is_not_a_warning(self):
        out = transcribe(Language.ES, "la casa")
        assert out.dropped == 0

    def test_rule_file_syntax_error(self):
        with pytest.raises(MissingRuleTableError):
            parse_rules(["just-one-field"])

    def test_empty_grapheme_rejected_with_its_location(self):
        # a rule with no grapheme matches everywhere without advancing
        with pytest.raises(MissingRuleTableError, match=r"t\.tsv:3: empty grapheme"):
            parse_rules(["a\tx", "# note", "\ty"], source="t.tsv")

    @pytest.mark.parametrize("line", [
        "a b\tx", "a\tx\t /#", "a\tx\t#/\xa0", "a\u3000\tx", "a\tx\tb\x1c/",
    ])
    def test_whitespace_in_grapheme_or_context_rejected_with_its_location(self, line):
        # transcribe walks one word at a time, so no rule may span words
        with pytest.raises(MissingRuleTableError, match=r"t\.tsv:2: whitespace"):
            parse_rules(["a\tx", line], source="t.tsv")

    def test_longest_grapheme_then_file_order_then_context(self):
        rules = parse_rules(["a\tx", "ab\ty", "a\tz", "b\tp\t#/", "b\tb"])
        assert rules.match("abc", 0).output == ("y",)
        assert rules.match("ac", 0).output == ("x",)
        assert rules.match("b", 0).output == ("p",)
        assert rules.match("ab", 1).output == ("b",)
        assert rules.match("a b", 2).output == ("p",)
        assert rules.match("c", 0) is None

    def test_deterministic(self):
        a = transcribe(Language.FR, "lumière")
        b = transcribe(Language.FR, "lumière")
        assert a == b


class TestPhoneticDistance:
    def test_identity(self):
        assert phonetic_distance(Language.EN, "hello", Language.EN,
                                 "hello") == 0

    def test_go_no(self):
        assert phonetic_distance(Language.EN, "go", Language.EN, "no") == 1

    def test_cross_language(self):
        d = phonetic_distance(Language.EN, "go", Language.KO, "나")
        assert d == edit_distance(transcribe(Language.EN, "go"),
                                  transcribe(Language.KO, "나"))

    @given(st.text(alphabet="aeiou bcdfg", max_size=20),
           st.text(alphabet="aeiou bcdfg", max_size=20))
    def test_equals_oracle_on_transcriptions(self, a, b):
        got = phonetic_distance(Language.EN, a, Language.EN, b)
        want = dp_oracle(list(transcribe(Language.EN, a).symbols),
                         list(transcribe(Language.EN, b).symbols))
        assert got == want


def whole_text_walk(lang, text):
    """``transcribe`` as one walk over the whole folded text, kept as the oracle
    for the word-at-a-time walk: (symbols, dropped)."""
    rules = shipped_rules(lang)
    if lang is Language.KO:
        text = phonetics._decompose_hangul(text)
    elif lang is Language.JA:
        text = katakana_to_hiragana(text)
    else:
        text = text.lower()
    symbols, dropped, i = [], 0, 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        rule = rules.match(text, i)
        if rule is None:
            dropped += 1
            i += 1
            continue
        symbols.extend(rule.output)
        i += len(rule.grapheme)
    return tuple(symbols), dropped


# the separators str.split() and the "#" context both treat as whitespace
WHITESPACE = [" ", "\t", "\n", "\xa0", "\u3000", "\x1c"]


def _rule_chars(lang):
    """Every character of the shipped table's graphemes and contexts."""
    name = f"{lang.value.lower()}.tsv"
    table = resources.files("mavl").joinpath("data", "g2p", name).read_text("utf-8")
    return sorted({ch for line in table.splitlines() if not line.startswith("#")
                   for field in line.split("\t")[::2] for ch in field})


# text the table covers, plus what it folds to that (Hangul blocks,
# katakana, a capital whose lowercase is longer) and what it lacks
def _texts(lang):
    extra = {
        Language.KO: st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        Language.JA: st.characters(min_codepoint=0x30A1, max_codepoint=0x30FA),
    }.get(lang, st.sampled_from("İGONY"))
    return st.text(st.one_of(st.sampled_from(_rule_chars(lang)),
                             st.sampled_from(WHITESPACE), extra,
                             st.sampled_from("9!x")), max_size=40)


languages_and_texts = st.sampled_from(Language).flatmap(
    lambda lang: st.tuples(st.just(lang), _texts(lang)))


class TestWordAtATime:
    @given(languages_and_texts)
    @example((Language.EN, "go go"))
    @example((Language.EN, "go\tno\ncry\xa0you\u3000by\x1cgo"))
    @example((Language.EN, "İgo go"))
    @example((Language.FR, "İ eau  beau"))
    @example((Language.ES, "  casa\tllama\n"))
    @example((Language.KO, "나비가 날아와\t밤"))
    @example((Language.JA, "きょう は\u3000ちょ トー"))
    def test_equals_whole_text_walk(self, lang_text):
        lang, text = lang_text
        got = transcribe(lang, text)
        assert (got.symbols, got.dropped) == whole_text_walk(lang, text)

    def test_memo_of_20000_distinct_words_stays_under_3_mib(self):
        # ~1.9 MiB at the peak with the memo's bound, ~5.8 MiB without one
        rng = random.Random(13)
        words = ["".join(rng.choices(string.ascii_lowercase, k=8)) for _ in range(20000)]
        phonetics._transcribe_word.cache_clear()
        tracemalloc.start()
        try:
            for word in words:
                transcribe(Language.EN, word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            phonetics._transcribe_word.cache_clear()
        assert peak < 3 * 2**20


def rule_list(lines):
    """The rules ``parse_rules`` reads from ``lines``, in file order."""
    with mock.patch.object(phonetics, "G2PRuleSet", list):
        return parse_rules(lines)


def table_rules(lang):
    name = f"{lang.value.lower()}.tsv"
    return rule_list(resources.files("mavl").joinpath("data", "g2p", name)
                     .read_text("utf-8").splitlines())


class TestUncheckedBuild:
    """``transcribe`` builds its ``IpaString`` through the checked
    constructor, so no shipped rule may output a symbol it refuses."""

    def test_every_shipped_output_passes_the_check(self):
        for lang in Language:
            for rule in table_rules(lang):
                assert IpaString(rule.output).symbols == rule.output


class FirstCharScan:
    """``G2PRuleSet`` as one scan of the rules that start with the character
    at the position, longest grapheme first and file order within a length,
    each tried with ``startswith``: kept as the oracle for the lookup by
    grapheme."""

    def __init__(self, rules):
        self._by_first = {}
        for rule in sorted(rules, key=lambda r: -len(r.grapheme)):
            self._by_first.setdefault(rule.grapheme[0], []).append(rule)

    def match(self, text, i):
        for rule in self._by_first.get(text[i], ()):
            end = i + len(rule.grapheme)
            if (text.startswith(rule.grapheme, i)
                    and phonetics._left_ok(rule.left, text, i)
                    and phonetics._right_ok(rule.right, text, end)):
                return rule
        return None


def fold(lang, text):
    """The text ``transcribe`` walks."""
    if lang is Language.KO:
        return phonetics._decompose_hangul(text)
    if lang is Language.JA:
        return katakana_to_hiragana(text)
    return text.lower()


# graphemes tied at each length, with and without contexts, in an order
# that puts a context-free rule before and after a context rule
SYNTHETIC_RULES = rule_list([
    "a\tx", "ab\ty", "a\tz\t#/", "ab\tw\t/#", "b\tp\t#/", "b\tq",
    "ab\tv", "ba\tr\ta/", "b\ts\t/a", "aba\tu\t/b", "aba\tt", "b\to\t#/#",
])
SYNTHETIC = G2PRuleSet(SYNTHETIC_RULES)


class TestMatchByGrapheme:
    @given(languages_and_texts)
    @example((Language.EN, "cry by go"))
    @example((Language.ES, "llama queso"))
    @example((Language.JA, "きょう トー"))
    def test_equals_first_char_scan_on_every_shipped_table(self, lang_text):
        lang, text = lang_text
        rules = table_rules(lang)
        new, old = G2PRuleSet(rules), FirstCharScan(rules)
        text = fold(lang, text)
        for i in range(len(text)):
            assert new.match(text, i) is old.match(text, i)

    @given(st.text(st.sampled_from("ab c"), max_size=12))
    @example("a")
    @example("ab")
    @example("abab")
    @example("b ab a")
    @example("bab")
    def test_equals_first_char_scan_on_tied_graphemes(self, text):
        new, old = G2PRuleSet(SYNTHETIC_RULES), FirstCharScan(SYNTHETIC_RULES)
        for i in range(len(text)):
            assert new.match(text, i) is old.match(text, i)

    def test_synthetic_table_reads_in_file_order(self):
        assert SYNTHETIC.match("a", 0).output == ("x",)
        assert SYNTHETIC.match("ab", 0).output == ("y",)
        assert SYNTHETIC.match("aba", 0).output == ("t",)
        assert SYNTHETIC.match("abab", 0).output == ("u",)


def jamo_loop(text):
    """``_decompose_hangul`` as a loop over characters, kept as the oracle."""
    out = []
    for ch in text:
        if not is_hangul_syllable(ch):
            out.append(ch)
            continue
        lead, rest = divmod(ord(ch) - 0xAC00, 588)
        vowel, tail = divmod(rest, 28)
        out.append(chr(0x1100 + lead))
        out.append(chr(0x1161 + vowel))
        if tail:
            out.append(chr(0x11A7 + tail))
    return "".join(out)


def kana_loop(text):
    """``katakana_to_hiragana`` as a loop over characters, kept as the oracle."""
    return "".join(chr(ord(ch) - 0x60) if 0x30A1 <= ord(ch) <= 0x30F6 else ch
                   for ch in text)


# Hangul, ASCII, compatibility and conjoining jamo, kana, combining marks,
# characters beyond the BMP, and both edges of the Hangul and katakana ranges
mixed_text = st.text(st.one_of(
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x3131, max_codepoint=0x318E),
    st.characters(min_codepoint=0x1100, max_codepoint=0x11FF),
    st.characters(min_codepoint=0x3041, max_codepoint=0x30FF),
    st.characters(min_codepoint=0x0300, max_codepoint=0x036F),
    st.characters(min_codepoint=0x10000),
    st.sampled_from("\uabff\uac00\ud7a3\ud7a4\u30a0\u30a1\u30f6\u30f7"),
), max_size=40)


class TestTextFolds:
    @given(mixed_text)
    @example("나비가 날아와, ㄱㄴ 밤!")
    @example("\u1100\u1161 가\u0301 \U0001F600 값")
    # 161 characters of compatibility jamo and 140 of CJK punctuation
    @example("ㅋㅋㅋ ㅎㅎ " * 23)
    @example("、。「」『』【】〈〉" * 14)
    def test_jamo_fold_equals_loop(self, text):
        assert phonetics._decompose_hangul(text) == jamo_loop(text)

    @given(mixed_text)
    @example("トーキョー ゔ ヴヵヶヷ ちょっと")
    def test_kana_fold_equals_loop(self, text):
        assert katakana_to_hiragana(text) == kana_loop(text)

    @given(mixed_text)
    @example("나비가 ㄱ 가\u0301 \U0001F600")
    def test_korean_segment_equals_loop(self, text):
        assert korean.segment(text) == [ch for ch in text if is_hangul_syllable(ch)]
