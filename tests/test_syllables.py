import random
import re
import string
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from mavl import syllables
from mavl.errors import NumberRangeError
from mavl.languages import KANJI_CLASS, Language, is_hangul_syllable, is_kana, is_kanji
from mavl.syllables import (
    common, count_syllables, english, french, japanese, normalize, segment, spanish)

EN = Language.EN
ES = Language.ES
FR = Language.FR
KO = Language.KO
JA = Language.JA


class TestQuotedLines:
    """Line counts the rest of the toolkit is calibrated against."""

    @pytest.mark.parametrize("lang,text,want", [
        (EN, "And there's a butterfly", 6),
        (EN, "Remember me, don't let it make you cry", 10),
        (EN, "Three months of winter coolness", 7),
        (KO, "나비가 날아와", 6),
        (KO, "날 잊지 마 슬퍼하지는 마", 10),
        (JA, "ちょっと", 3),
    ])
    def test_counts(self, lang, text, want):
        assert count_syllables(lang, text) == want

    def test_butterfly_units(self):
        s = segment(EN, "And there's a butterfly")
        assert list(s.units) == ["And", "there's", "a", "but", "ter", "fly"]

    def test_winter_units(self):
        s = segment(EN, "Three months of winter coolness")
        assert list(s.units) == ["Three", "months", "of", "win", "ter",
                                 "cool", "ness"]


class TestSegmentation:
    def test_coolness(self):
        assert list(segment(EN, "coolness").units) == ["cool", "ness"]

    def test_hangul_blocks(self):
        assert list(segment(KO, "나비").units) == ["나", "비"]

    def test_spanish_diphthong(self):
        assert list(segment(ES, "tierra").units) == ["tie", "rra"]

    def test_count_matches_units(self):
        s = segment(EN, "Remember me though I have to say goodbye")
        assert s.count == len(s.units)

    @pytest.mark.parametrize("lang,text", [
        (EN, "whisper of the morning light"),
        (ES, "bajo el cielo de la ciudad"),
        (FR, "toutes les étoiles du soir"),
        (KO, "우리 함께 놀자"),
        (JA, "きょうは いい てんき"),
    ])
    def test_units_cover_letters(self, lang, text):
        s = segment(lang, text)
        joined = "".join(s.units).replace(" ", "")
        flat = normalize(lang, text).replace(" ", "")
        assert joined == flat


class TestNormalize:
    def test_english_numbers(self):
        assert normalize(EN, "2 cats") == "two cats"

    def test_spanish_numbers(self):
        assert normalize(ES, "3 meses") == "tres meses"

    def test_korean_identity(self):
        assert normalize(KO, "텍스트") == "텍스트"

    def test_punctuation_stripped(self):
        assert normalize(EN, "Hello, world!") == "Hello world"

    def test_out_of_range_number(self):
        # the second run is past the digit limit of int()
        for text in ("1000000 lights", "1" * 5000 + " lights"):
            with pytest.raises(NumberRangeError):
                normalize(EN, text)

    def test_leading_zeros_do_not_count(self):
        assert normalize(EN, "0" * 5000 + "7 lights") == "seven lights"

    def test_hyphen_splits_words(self):
        assert count_syllables(EN, "twenty-one") == 3


class TestEnglishRules:
    @pytest.mark.parametrize("word,want", [
        ("love", 1), ("makes", 1), ("loved", 1), ("walked", 1),
        ("wanted", 2), ("boxes", 2), ("watches", 2), ("places", 2),
        ("table", 2), ("little", 2), ("purple", 2), ("belle", 1),
        ("goodbye", 2), ("crazy", 2), ("beautiful", 3), ("remember", 3),
        ("yesterday", 3), ("happiness", 3), ("heaven", 2), ("though", 1),
        ("through", 1), ("enough", 2), ("away", 2), ("believe", 2),
    ])
    def test_heuristic_words(self, word, want):
        assert count_syllables(EN, word) == want

    @pytest.mark.parametrize("word,want", [
        ("don't", 1), ("won't", 1), ("isn't", 2), ("wouldn't", 2),
        ("there's", 1), ("ev'ry", 2), ("I'll", 1), ("you're", 1),
    ])
    def test_contractions(self, word, want):
        assert count_syllables(EN, word) == want

    @pytest.mark.parametrize("word,want", [
        ("every", 2), ("something", 2), ("lovely", 2), ("quiet", 2),
        ("being", 2), ("science", 2), ("idea", 3), ("everything", 3),
    ])
    def test_lexicon_overrides(self, word, want):
        assert count_syllables(EN, word) == want


class TestSpanishRules:
    @pytest.mark.parametrize("word,want", [
        ("tierra", 2), ("frío", 2), ("día", 2), ("país", 2), ("oído", 3),
        ("leer", 2), ("cielo", 2), ("fuego", 2), ("agua", 2), ("ciudad", 2),
        ("guitarra", 3), ("quiero", 2), ("corazón", 3), ("canción", 2),
        ("siempre", 2), ("estrella", 3), ("también", 2), ("veinte", 2),
    ])
    def test_words(self, word, want):
        assert count_syllables(ES, word) == want

    def test_guitarra_units(self):
        assert list(segment(ES, "guitarra").units) == ["gui", "ta", "rra"]


class TestFrenchRules:
    @pytest.mark.parametrize("word,want", [
        ("amour", 2), ("chanson", 2), ("belle", 1), ("monde", 1),
        ("lumière", 2), ("cœur", 1), ("soleil", 2), ("liberté", 3),
        ("étoile", 2), ("créer", 2), ("noël", 2), ("vie", 1),
        ("toutes", 1), ("petite", 2), ("encore", 2), ("jamais", 2),
    ])
    def test_words_mute(self, word, want):
        assert count_syllables(FR, word) == want


def en_nuclei_loop(word):
    """``english.nuclei`` as its own loop, kept as the oracle."""
    spans = []
    i = 0
    while i < len(word):
        if english._is_nucleus(word, i):
            j = i
            while j < len(word) and english._is_nucleus(word, j):
                j += 1
            spans.append((i, j))
            i = j
        else:
            i += 1
    if len(spans) > 1:
        s, e = spans[-1]
        if e - s == 1 and word[s] == "e" and english._final_e_silent(word, s):
            spans.pop()
    return spans


def es_nuclei_loop(word):
    """``spanish.nuclei`` as its own loop, kept as the oracle."""
    spans = []
    i = 0
    while i < len(word):
        if not spanish._is_vowel_char(word, i):
            i += 1
            continue
        start = i
        last = word[i]
        i += 1
        while i < len(word) and spanish._is_vowel_char(word, i):
            ch = word[i]
            if ch in spanish._ACCENTED_WEAK or last in spanish._ACCENTED_WEAK:
                break
            if ch in spanish._STRONG and last in spanish._STRONG:
                break
            last = ch
            i += 1
        spans.append((start, i))
    return spans


def fr_nuclei_loop(word):
    """``french.nuclei`` as its own loop, kept as the oracle."""
    spans = []
    i = 0
    while i < len(word):
        if not french._is_vowel_char(word, i):
            i += 1
            continue
        start = i
        last = word[i]
        i += 1
        while i < len(word) and french._is_vowel_char(word, i):
            ch = word[i]
            if french._hiatus(last, ch):
                break
            last = ch
            i += 1
        spans.append((start, i))
    if len(spans) > 1:
        s, e = spans[-1]
        if e - s == 1 and word[s] == "e" and word[e:] in ("", "s"):
            spans.pop()
    return spans


# every letter the rules test, a few they don't, and the apostrophe
LATIN_LETTERS = string.ascii_lowercase + "áéíóúüñàâçèêëîïôûùÿœæ'"
latin_word = st.text(st.sampled_from(LATIN_LETTERS + "aeiouy" * 3), max_size=12)
# words in both cases with İ (U+0130), the one letter whose lowercase is two
# code points, and plain I
dotted_word = st.text(st.sampled_from(LATIN_LETTERS + LATIN_LETTERS.upper() + "İI" * 4),
                      max_size=12)
# the punctuation the Latin counters stripped from a token before ``normalize``
# was their only filter
OLD_STRIP = "\"'’.,;:!?¡¿()[]{}«»“”„…·-–—"


class TestVowelRuns:
    @given(latin_word)
    @example("the")  # a lone silent e is the only nucleus, so it stays
    @example("queue")
    @example("yesterday")
    @example("tables")
    def test_english_equals_loop(self, word):
        assert english.nuclei(word) == en_nuclei_loop(word)

    @given(latin_word)
    @example("guerra")
    @example("oído")
    @example("leer")
    def test_spanish_equals_loop(self, word):
        assert spanish.nuclei(word) == es_nuclei_loop(word)

    @given(latin_word)
    @example("je")
    @example("noël")
    @example("poésie")
    @example("portes")
    def test_french_equals_loop(self, word):
        assert french.nuclei(word) == fr_nuclei_loop(word)

    @pytest.mark.parametrize("lang,word,units", [
        (EN, "queue", ("queue",)), (EN, "table", ("ta", "ble")),
        (EN, "wanted", ("wan", "ted")), (EN, "boxes", ("bo", "xes")),
        (EN, "yes", ("yes",)), (EN, "WANTED", ("WAN", "TED")),
        (ES, "guerra", ("gue", "rra")), (ES, "pingüino", ("pin", "güi", "no")),
        (ES, "frío", ("frí", "o")), (ES, "país", ("pa", "ís")), (ES, "PAÍS", ("PA", "ÍS")),
        (ES, "hoy", ("hoy",)),
        (FR, "noël", ("no", "ël")), (FR, "poème", ("po", "ème")),
        (FR, "créer", ("cré", "er")), (FR, "table", ("table",)),
        # İ lowers to two code points; the cuts must not shift after it
        (ES, "İTALİA", ("İ", "TA", "LİA")), (FR, "İTALİE", ("İ", "TA", "LİE")),
        (EN, "İİa", ("İİa",)),
    ])
    def test_units(self, lang, word, units):
        assert segment(lang, word).units == units

    @given(st.sampled_from(list(Language)), dotted_word)
    @example(ES, "İTALİA")
    @example(FR, "İTALİE")
    @example(EN, "İİa")
    @example(EN, "İSN'T")
    def test_dotted_capital_i_cuts_as_plain_i(self, lang, word):
        plain = word.replace("İ", "I")
        assert ([len(u) for u in segment(lang, word).units]
                == [len(u) for u in segment(lang, plain).units])

    @pytest.mark.parametrize("lang,word", [
        (EN, "don't"), (EN, "isn't"), (EN, "I'll"), (EN, "ev'ry"), (EN, "rock'n'roll"),
        (ES, "pa'lante"), (FR, "l'amour"), (FR, "aujourd'hui"), (FR, "qu'il"),
    ])
    def test_apostrophes_and_surrounding_punctuation(self, lang, word):
        units = segment(lang, word).units
        assert segment(lang, word.replace("'", "’")).units == units
        for ch in OLD_STRIP:
            assert segment(lang, f"{ch}{word}{ch}").units == units, ch


# the first and last code point of each script range, and their neighbours
SCRIPT_EDGES = [
    (0xABFF, None), (0xAC00, "hangul"), (0xD7A3, "hangul"), (0xD7A4, None),
    (0x3040, None), (0x3041, "kana"), (0x3096, "kana"), (0x3097, None),
    (0x309C, None), (0x309D, "kana"), (0x309E, "kana"), (0x309F, None),  # ゝゞ
    (0x30A0, None), (0x30A1, "kana"), (0x30FA, "kana"), (0x30FB, None),  # ・
    (0x30FC, "kana"), (0x30FD, "kana"), (0x30FE, "kana"), (0x30FF, None),  # ーヽヾ
    (0x3004, None), (0x3005, "kanji"), (0x3006, None),  # 々
    (0x33FF, None), (0x3400, "kanji"), (0x4DBF, "kanji"), (0x4DC0, None),
    (0x4DFF, None), (0x4E00, "kanji"), (0x9FFF, "kanji"), (0xA000, None),
]


@pytest.mark.parametrize("cp, script", SCRIPT_EDGES,
                         ids=[f"U+{cp:04X}" for cp, _ in SCRIPT_EDGES])
def test_script_ranges_at_their_edges(cp, script):
    ch = chr(cp)
    assert is_hangul_syllable(ch) == (script == "hangul")
    assert is_kana(ch) == (script == "kana")
    assert is_kanji(ch) == (script == "kanji")
    assert bool(re.fullmatch(KANJI_CLASS, ch)) == (script == "kanji")


# the kana blocks and the CJK punctuation before them, both edges of both
# kanji ranges, small kana, ASCII and Hangul
ja_text = st.text(st.one_of(
    st.characters(min_codepoint=0x3000, max_codepoint=0x30FF),
    st.characters(min_codepoint=0x33F0, max_codepoint=0x3410),
    st.characters(min_codepoint=0x4DB0, max_codepoint=0x4E10),
    st.characters(min_codepoint=0x9FF0, max_codepoint=0xA010),
    st.sampled_from("ぁぃぅぇぉゃゅょゎァィゥェォャュョヮ"),
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
), max_size=40)

# kanji, hiragana, katakana with ・ and ー, brackets and ASCII, loose and as
# bracket pieces whose surface or reading may be empty and whose "]" may lack
_annotation_char = st.one_of(
    st.sampled_from("夢空見飛人々㐀䶿一鿿"),
    st.characters(min_codepoint=0x3041, max_codepoint=0x3096),
    st.characters(min_codepoint=0x30A1, max_codepoint=0x30FC),
    st.sampled_from("[]"),
    st.characters(max_codepoint=0x7F),
)
_bracket_piece = st.tuples(
    st.text(st.sampled_from("夢空見飛人々㐀䶿一鿿"), max_size=3),
    st.just("["),
    st.text(st.one_of(st.characters(min_codepoint=0x3041, max_codepoint=0x3096),
                      st.characters(min_codepoint=0x30A1, max_codepoint=0x30FC)),
            max_size=4),
    st.sampled_from(["]", ""]),
).map("".join)
annotated_text = st.lists(st.one_of(_annotation_char, _bracket_piece),
                          max_size=12).map("".join)

# the pattern ``apply_annotations`` compiled at import, kept as the oracle
ANNOTATION_ORACLE = KANJI_CLASS + r"+\[([ぁ-ゖァ-ヺー]+)\]"


class TestJapaneseMorae:
    def test_small_kana_merges(self):
        assert count_syllables(JA, "きゃ") == 1
        assert count_syllables(JA, "きや") == 2

    def test_sokuon_adds_one(self):
        assert count_syllables(JA, "まって") == count_syllables(JA, "まて") + 1

    def test_long_mark_adds_one(self):
        assert count_syllables(JA, "カー") == count_syllables(JA, "カ") + 1

    def test_moraic_n(self):
        assert count_syllables(JA, "こんにちは") == 5

    def test_katakana(self):
        assert count_syllables(JA, "トーキョー") == 4

    def test_reading_annotation(self):
        assert count_syllables(JA, "蝶[ちょう]") == 2

    @pytest.mark.parametrize("text, reading, count", [
        ("きみの夢[ゆめ]", "きみのゆめ", 5),
        ("夢[ゆめ]を見[み]る", "ゆめをみる", 5),
        ("ぼくは空[そら]を飛[と]ぶ", "ぼくはそらをとぶ", 8),
    ], ids=["kana-before", "two-annotations", "okurigana"])
    def test_annotation_replaces_only_its_kanji(self, text, reading, count):
        assert normalize(JA, text) == reading
        assert count_syllables(JA, text) == count

    @given(annotated_text)
    @example("ぼくは空を飛ぶ")  # no bracket
    @example("空[そら")  # an unclosed bracket
    @example("東京[トーキョー]")  # a katakana reading
    @example("夢[ゆめ]を見[み]る")  # two annotations in one line
    @example("きみ[きみ]")  # brackets with no kanji before them
    @example("空[そら]")  # one annotation and nothing else
    def test_apply_annotations_equals_eager_sub(self, text):
        assert japanese.apply_annotations(text) == re.sub(ANNOTATION_ORACLE, r"\1", text)

    def test_annotation_surface_is_is_kanji(self):
        surface = re.compile(KANJI_CLASS)
        for cp in range(0x10000):
            ch = chr(cp)
            assert bool(surface.fullmatch(ch)) == is_kanji(ch), hex(cp)

    def test_no_countable_units(self):
        assert count_syllables(JA, "abc !") == 0

    @given(ja_text)
    @example("ゃあ")  # a small kana that starts the text stands alone
    @example("夢ゃ")  # and one after a kanji
    @example("き、ゃ a ャ")  # one after a skipped character joins the kana before it
    @example("ゝゞヽヾーっー")
    @example("人々㐀䶿一鿿")
    def test_segment_equals_loop(self, text):
        assert japanese.segment(text) == ja_segment_loop(text)


def ja_segment_loop(text):
    """``japanese.segment`` as calls to ``is_kana`` and ``is_kanji`` for each
    character, kept as the oracle."""
    units = []
    for ch in text:
        if is_kana(ch):
            if ch in japanese._SMALL_KANA and units and is_kana(units[-1][-1]):
                units[-1] += ch
            else:
                units.append(ch)
        elif is_kanji(ch):
            units.append(ch)
    return units


class TestLexiconPrecedence:
    def test_units_entry(self):
        s = segment(EN, "quiet")
        assert list(s.units) == ["qui", "et"]
        assert s.count == 2

    def test_default_heuristic_without_lexicon(self):
        assert count_syllables(EN, "fire") == 1


hangul = st.text(st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
                 min_size=0, max_size=20)
kana = st.text(st.sampled_from([chr(cp) for cp in range(0x3041, 0x3100) if is_kana(chr(cp))]),
               max_size=20)
en_words = st.lists(
    st.text(st.sampled_from("abcdefghijklmnopqrstuvwxy"), min_size=1,
            max_size=10),
    min_size=1, max_size=6)


class TestProperties:
    @given(hangul)
    def test_korean_is_block_scan(self, text):
        want = sum(1 for ch in text if is_hangul_syllable(ch))
        assert count_syllables(KO, text) == want

    @given(kana)
    def test_annotation_adds_its_reading(self, text):
        assert count_syllables(JA, text + "夢[ゆめ]") == count_syllables(JA, text) + 2

    @given(en_words)
    def test_english_word_floor(self, words):
        text = " ".join(words)
        assert count_syllables(EN, text) >= len(words)

    @given(en_words, en_words)
    def test_concatenation_is_additive(self, a, b):
        left = " ".join(a)
        right = " ".join(b)
        total = count_syllables(EN, left + " " + right)
        assert total == count_syllables(EN, left) + count_syllables(EN, right)

    @given(st.sampled_from(list(Language)), st.text(max_size=40))
    def test_count_equals_segment_count(self, lang, text):
        try:
            seg = segment(lang, text)
        except NumberRangeError:
            return
        assert count_syllables(lang, text) == seg.count == len(seg.units)


def uncached_units(lang, text):
    """EN/ES/FR units of ``text``, each word through the uncached word rules."""
    units = []
    for token in normalize(lang, text).split():
        core = common.word_core(token)
        if core:
            units.extend(syllables._latin_word_units.__wrapped__(lang, core))
    return tuple(units)


# words in several cases (the memo must not fold case: units keep the
# word's letters), lexicon entries, and the whitespace str.split() cuts at
CASED_WORDS = ["Love", "love", "LOVE", "lOvE", "quiet", "Quiet", "QUIET",
               "Día", "día", "Cœur", "cœur", "fire", "Fire", "toi", "TOI"]
WHITESPACE = [" ", "\t", "\n", "\xa0", "\u3000", "\x1c"]
latin_texts = st.lists(
    st.one_of(st.sampled_from(CASED_WORDS), st.sampled_from(WHITESPACE),
              st.text(st.sampled_from(string.ascii_letters + "éèñü'-!"), max_size=8)),
    max_size=12).map("".join)


class TestWordMemo:
    @given(st.sampled_from([EN, ES, FR]), latin_texts)
    @example(EN, "Love love")
    @example(EN, "love Love LOVE")
    @example(EN, "Quiet\tquiet\nQUIET")
    @example(ES, "Día\xa0día\u3000DÍA")
    @example(FR, "Cœur\x1ccœur")
    def test_equals_uncached_word_rules(self, lang, text):
        seg = segment(lang, text)
        assert seg.units == uncached_units(lang, text)
        assert count_syllables(lang, text) == seg.count

    def test_memo_of_20000_distinct_words_stays_under_3_mib(self):
        # ~1.7 MiB at the peak with the memo's bound, ~4.7 MiB without one
        rng = random.Random(13)
        words = ["".join(rng.choices(string.ascii_lowercase, k=8)) for _ in range(20000)]
        syllables._latin_word_units.cache_clear()
        tracemalloc.start()
        try:
            for word in words:
                count_syllables(EN, word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            syllables._latin_word_units.cache_clear()
        assert peak < 3 * 2**20
