import json

import pytest
from hypothesis import given, strategies as st

from mavl.dataset import (
    CompactLineRep,
    Dataset,
    LyricLine,
    Section,
    SongEntry,
    dataset_stats,
    encode_line,
    match_line,
    parse_dataset,
    serialize_dataset,
)
from mavl.errors import (
    DatasetParseError,
    DatasetValidationError,
    EmptyLineError,
)
from mavl.languages import Language


def entry_from_lines(lang, section_lines, *, resolved=False,
                     title="Song", url="https://example.test/lyrics"):
    sections = []
    for s, texts in enumerate(section_lines):
        lines = []
        for i, text in enumerate(texts):
            lines.append(LyricLine(
                index=i,
                rep=encode_line(lang, text),
                resolved_text=text if resolved else None,
            ))
        sections.append(Section(index=s, lines=lines))
    return SongEntry(title=title, source_url=url, media_url=None,
                     language=lang, sections=sections)


ONE_SONG_DOC = {
    "song-1": {
        "en": {
            "title": "One",
            "source_url": "https://example.test/one",
            "media_url": None,
            "sections": [
                {"index": 0, "lines": [
                    {"index": 0, "rep": ["RmtIhtsg", "Remember", "goodbye"],
                     "time_span": [12000, 15500], "syllable_count": 10},
                ]},
            ],
        },
    },
}


class TestParse:
    def test_one_song_document(self):
        ds = parse_dataset(json.dumps(ONE_SONG_DOC))
        assert len(ds.songs) == 1
        entry = ds.songs["song-1"][Language.EN]
        assert len(entry.sections) == 1
        assert len(entry.sections[0].lines) == 1
        line = entry.sections[0].lines[0]
        assert line.rep == CompactLineRep("RmtIhtsg", "Remember", "goodbye")
        assert line.time_span == (12000, 15500)
        assert line.syllable_count == 10

    def test_empty_document(self):
        assert parse_dataset(b"{}") == Dataset({})

    def test_leading_byte_order_mark_is_skipped(self):
        """A BOM is skipped, and a fault's byte offset still counts it."""
        data = json.dumps(ONE_SONG_DOC).encode("utf-8")
        assert parse_dataset(b"\xef\xbb\xbf" + data) == parse_dataset(data)
        assert parse_dataset("\ufeff{}") == Dataset({})
        with pytest.raises(DatasetParseError) as err:
            parse_dataset(b"\xef\xbb\xbf{,}")
        assert err.value.byte_offset == 4
        with pytest.raises(DatasetParseError) as err:
            parse_dataset(b"\xef\xbb\xbf{\xff}")
        assert err.value.byte_offset == 4

    def test_missing_en_sibling(self):
        doc = {"song-1": {"ko": ONE_SONG_DOC["song-1"]["en"]}}
        with pytest.raises(DatasetValidationError) as err:
            parse_dataset(json.dumps(doc))
        assert "song-1" in str(err.value)

    def test_malformed_json_reports_offset(self):
        with pytest.raises(DatasetParseError) as err:
            parse_dataset(b'{"song": ')
        assert isinstance(err.value.byte_offset, int)

    def test_unknown_language_code(self):
        doc = {"song-1": {"xx": ONE_SONG_DOC["song-1"]["en"]}}
        with pytest.raises(DatasetValidationError):
            parse_dataset(json.dumps(doc))

    def test_lenient_preserves_unknown_fields(self):
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        doc["song-1"]["en"]["genre"] = "pop"
        doc["song-1"]["en"]["sections"][0]["mood"] = "calm"
        doc["song-1"]["en"]["sections"][0]["lines"][0]["singer"] = "Ernesto"
        ds = parse_dataset(json.dumps(doc))
        again = parse_dataset(serialize_dataset(ds))
        entry = again.songs["song-1"][Language.EN]
        assert entry.extras == {"genre": "pop"}
        assert entry.sections[0].extras == {"mood": "calm"}
        assert entry.sections[0].lines[0].extras == {"singer": "Ernesto"}

    @pytest.mark.parametrize("where, key, value", [
        ("section", "index", False),
        ("section", "index", 0.0),
        ("line", "index", False),
        ("line", "index", 0.0),
        ("line", "time_span", [False, True]),
        ("line", "time_span", [0, 1.5]),
        ("line", "syllable_count", True),
        ("entry", "title", 5),
        ("entry", "title", None),
        ("entry", "source_url", 7),
        ("entry", "media_url", True),
        ("entry", "media_url", ["clip.mp4"]),
    ])
    def test_field_of_the_wrong_json_type(self, where, key, value):
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        entry = doc["song-1"]["en"]
        owner = {"entry": entry, "section": entry["sections"][0],
                 "line": entry["sections"][0]["lines"][0]}[where]
        owner[key] = value
        with pytest.raises(DatasetValidationError, match=key) as err:
            parse_dataset(json.dumps(doc))
        assert "song-1/en" in str(err.value)

    def test_non_contiguous_section_index(self):
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        doc["song-1"]["en"]["sections"][0]["index"] = 2
        with pytest.raises(DatasetValidationError) as err:
            parse_dataset(json.dumps(doc))
        assert "section" in str(err.value)

    def test_bad_time_span(self):
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        doc["song-1"]["en"]["sections"][0]["lines"][0]["time_span"] = [9, 9]
        with pytest.raises(DatasetValidationError):
            parse_dataset(json.dumps(doc))

    def test_text_must_match_rep(self):
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        doc["song-1"]["en"]["sections"][0]["lines"][0]["text"] = "Wrong words"
        with pytest.raises(DatasetValidationError):
            parse_dataset(json.dumps(doc))

    def test_lone_surrogate_in_text_names_its_line(self):
        # JSON's "\ud800" escape decodes to a code point UTF-8 cannot encode;
        # inside a word it still matches the rep
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        line = doc["song-1"]["en"]["sections"][0]["lines"][0]
        line["text"] = "Remember me though I h\ud800ave to say goodbye"
        with pytest.raises(DatasetValidationError, match="U\\+D800") as err:
            parse_dataset(json.dumps(doc).encode("ascii"))
        assert err.value.location == "song-1/en/section[0]/line[0]"

    def test_lone_surrogate_in_song_id_rejected(self):
        doc = {"song-\ud800": ONE_SONG_DOC["song-1"]}
        with pytest.raises(DatasetValidationError, match="song id holds .*U\\+D800"):
            parse_dataset(json.dumps(doc).encode("ascii"))

    def test_two_keys_for_one_language_rejected(self):
        # "en" and "EN" both parse to EN; keeping one would drop the other's lines
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        doc["song-1"]["EN"] = doc["song-1"]["en"]
        with pytest.raises(DatasetValidationError,
                           match="'EN' repeats language EN") as err:
            parse_dataset(json.dumps(doc))
        assert err.value.location == "song-1"

    @pytest.mark.parametrize("where, key, value, message, location", [
        ("entry", "source_url", "", "source_url is empty", "song-1/en"),
        ("line", "rep", ["", "Remember", "goodbye"], "empty signature",
         "song-1/en/section[0]/line[0]"),
        ("line", "rep", ["XmtIhtsg", "Remember", "goodbye"],
         "signature does not start with first token's letter",
         "song-1/en/section[0]/line[0]"),
        ("line", "time_span", [9, 9], "time_span start must precede end",
         "song-1/en/section[0]/line[0]"),
        ("line", "syllable_count", -1, "negative syllable_count",
         "song-1/en/section[0]/line[0]"),
        ("section", "index", 2, "section index 2, expected 0",
         "song-1/en/section[0]"),
        ("line", "index", 1, "line index 1, expected 0",
         "song-1/en/section[0]/line[0]"),
        ("line", "index", None, "missing field 'index'",
         "song-1/en/section[0]/line[0]"),
        ("section", "index", None, "missing field 'index'",
         "song-1/en/section[0]"),
        ("line", "text", "Wrong words", "text does not match its rep",
         "song-1/en/section[0]/line[0]"),
        ("song", "en", None, "no EN entry", "song-1"),
    ], ids=["empty-source-url", "empty-signature", "first-letter",
            "empty-time-span", "negative-count", "section-index", "line-index",
            "line-index-missing", "section-index-missing", "text-not-rep",
            "no-en"])
    def test_invariant_names_its_fault_and_location(self, where, key, value,
                                                    message, location):
        # value None deletes the key
        doc = json.loads(json.dumps(ONE_SONG_DOC))
        entry = doc["song-1"]["en"]
        owner = {"song": doc["song-1"], "entry": entry,
                 "section": entry["sections"][0],
                 "line": entry["sections"][0]["lines"][0]}[where]
        if value is None:
            del owner[key]
        else:
            owner[key] = value
        with pytest.raises(DatasetValidationError) as err:
            parse_dataset(json.dumps(doc))
        assert str(err.value) == f"{location}: {message}"
        assert err.value.location == location

    def test_japanese_text_is_not_checked_against_its_rep(self):
        doc = {"song-1": {"en": ONE_SONG_DOC["song-1"]["en"],
                          "ja": json.loads(json.dumps(ONE_SONG_DOC["song-1"]["en"]))}}
        line = doc["song-1"]["ja"]["sections"][0]["lines"][0]
        line["text"] = "さよならを言わなきゃ"
        assert not match_line(CompactLineRep(*line["rep"]), line["text"],
                              Language.JA)
        ds = parse_dataset(json.dumps(doc))
        parsed = ds.songs["song-1"][Language.JA].sections[0].lines[0]
        assert parsed.resolved_text == "さよならを言わなきゃ"

    def test_first_fault_in_document_order_is_raised(self):
        # a type fault in a later song no longer outranks an invariant fault
        doc = {"song-1": json.loads(json.dumps(ONE_SONG_DOC["song-1"])),
               "song-2": json.loads(json.dumps(ONE_SONG_DOC["song-1"]))}
        doc["song-1"]["en"]["sections"][0]["lines"][0]["syllable_count"] = -1
        doc["song-2"]["en"]["title"] = 5
        with pytest.raises(DatasetValidationError) as err:
            parse_dataset(json.dumps(doc))
        assert err.value.location == "song-1/en/section[0]/line[0]"


class TestSerialize:
    def test_empty_round_trip(self):
        assert parse_dataset(serialize_dataset(Dataset({}))) == Dataset({})

    def test_fixture_round_trip(self):
        ds = parse_dataset(json.dumps(ONE_SONG_DOC))
        assert parse_dataset(serialize_dataset(ds)) == ds

    def test_optional_fields_omitted(self):
        entry = entry_from_lines(Language.EN, [["Go"]])
        ds = Dataset({"s": {Language.EN: entry}})
        doc = json.loads(serialize_dataset(ds).decode("utf-8"))
        line = doc["s"]["en"]["sections"][0]["lines"][0]
        assert "time_span" not in line
        assert "syllable_count" not in line
        assert "media_url" not in doc["s"]["en"]


class TestEncode:
    def test_quoted_example(self):
        rep = encode_line(Language.EN,
                          "Remember me though I have to say goodbye")
        assert rep == CompactLineRep("RmtIhtsg", "Remember", "goodbye")

    def test_single_token(self):
        rep = encode_line(Language.EN, "Go")
        assert rep == CompactLineRep("G", "Go", "Go")
        assert rep.first_token == rep.last_token

    def test_punctuation_kept(self):
        rep = encode_line(Language.EN, "Remember me, don't cry")
        assert rep.signature == "Rmdc"
        assert rep.last_token == "cry"

    def test_japanese_pairs(self):
        # tokens 夜 / に / 駆 / ける pair up as 夜に / 駆ける
        rep = encode_line(Language.JA, "夜に駆ける")
        assert rep.signature == "夜駆"
        assert rep.first_token == "夜に"
        assert rep.last_token == "駆ける"

    def test_japanese_odd_trailing_token(self):
        # tokens 夜 / に / 駆: the third has no partner and stands alone
        rep = encode_line(Language.JA, "夜に駆")
        assert rep.signature == "夜駆"
        assert rep.last_token == "駆"

    def test_empty_line_rejected(self):
        with pytest.raises(EmptyLineError):
            encode_line(Language.EN, "   ")


class TestMatch:
    def test_exact_sentence(self):
        rep = CompactLineRep("RmtIhtsg", "Remember", "goodbye")
        assert match_line(rep, "Remember me though I have to say goodbye",
                          Language.EN)

    def test_prefix_rejected(self):
        rep = CompactLineRep("RmtIhtsg", "Remember", "goodbye")
        assert not match_line(rep, "Remember me", Language.EN)

    def test_single_token(self):
        assert match_line(CompactLineRep("G", "Go", "Go"), "Go", Language.EN)

    def test_empty_candidate(self):
        assert not match_line(CompactLineRep("G", "Go", "Go"), "",
                              Language.EN)

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5),
                    min_size=1, max_size=8))
    def test_match_agrees_with_encoder(self, words):
        text = " ".join(words)
        rep = encode_line(Language.EN, text)
        assert match_line(rep, text, Language.EN)
        assert match_line(rep, text + " extra", Language.EN) == (
            encode_line(Language.EN, text + " extra") == rep)


class TestStats:
    def build(self):
        song_a_en = entry_from_lines(Language.EN,
                                     [["one line", "two lines"],
                                      ["three here"]])
        song_a_es = entry_from_lines(Language.ES, [["una línea"]])
        song_b_en = entry_from_lines(Language.EN,
                                     [["a b c", "d e"], ["f g", "h i"]])
        return Dataset({
            "a": {Language.EN: song_a_en, Language.ES: song_a_es},
            "b": {Language.EN: song_b_en},
        })

    def test_empty(self):
        report = dataset_stats(Dataset({}))
        assert report.per_language == {}

    def test_counts(self):
        report = dataset_stats(self.build())
        en = report.per_language[Language.EN]
        assert (en.songs, en.sections, en.lines) == (2, 4, 7)
        assert report.per_language[Language.ES].songs == 1


words = st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=6),
                 min_size=1, max_size=6)


@st.composite
def datasets(draw):
    songs = {}
    for sid in range(draw(st.integers(0, 3))):
        langs = {Language.EN} | set(draw(st.lists(
            st.sampled_from(list(Language)), max_size=2)))
        entries = {}
        for lang in langs:
            n_sections = draw(st.integers(1, 2))
            section_lines = []
            for _ in range(n_sections):
                texts = [" ".join(draw(words))
                         for _ in range(draw(st.integers(1, 3)))]
                section_lines.append(texts)
            entries[lang] = entry_from_lines(lang, section_lines,
                                             resolved=draw(st.booleans()))
        songs[f"song-{sid}"] = entries
    return Dataset(songs)


@given(datasets())
def test_round_trip_property(ds):
    assert parse_dataset(serialize_dataset(ds)) == ds
