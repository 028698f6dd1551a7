"""Seeded inputs for the benchmark workloads.

Every corpus, hypothesis file and mock script is built here from small word
pools and the benchmark's seed, so one seed always gives the same bytes and
nothing is downloaded.  Each builder also returns what the program must do
with its inputs (the reply each translation task ends on, with its count and
attempt number) and the input properties a later performance claim can cite:
rows, languages, repeat share of (language, text), the reply mix and the mean
line length.

Target-language replies are built from plain Hangul blocks and plain hiragana
only, so their syllable and mora counts are unambiguous: one block or one kana
is one unit, whatever counter reads them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from mavl.dataset import (
    Dataset,
    LyricLine,
    Section,
    SongEntry,
    encode_line,
    serialize_dataset,
)
from mavl.languages import Language
from mavl.pipeline import PipelineVariant, PromptStyle, TranslationTask, build_prompt
from mavl.syllables import count_syllables

EN_WORDS = (
    "love heart night light dream fly sky sea wind rain fire star home road "
    "song dance sing hold hand time life world away again forever tonight "
    "remember never always morning river mountain golden silver shadow "
    "whisper wonder open window garden summer winter ocean flower thunder "
    "you me we they my your our the a and but so if when where still only "
    "just now here there come go run fall rise shine burn call find lose "
    "know feel see hear take give keep let wait stay leave follow carry "
    "beautiful together tomorrow yesterday somebody everything nothing "
    "little wild free lonely brave gentle endless hidden broken bright"
).split()

ES_WORDS = (
    "amor corazón noche luz sueño cielo mar viento lluvia fuego estrella "
    "casa camino canción bailar cantar mano tiempo vida mundo siempre nunca "
    "mañana río montaña sombra flor verano invierno océano tú yo nosotros "
    "mi tu el la y pero si cuando donde aquí allí ven vamos brillar volar "
    "recuerda juntos libre solo valiente dulce eterno"
).split()

FR_WORDS = (
    "amour cœur nuit lumière rêve ciel mer vent pluie feu étoile maison "
    "chemin chanson danser chanter main temps vie monde toujours jamais "
    "matin rivière montagne ombre fleur été hiver océan toi moi nous mon "
    "ton le la et mais si quand où ici viens allons briller voler souviens "
    "ensemble libre seul doux éternel"
).split()

# plain Hangul blocks only: one block is one syllable
KO_WORDS = (
    "나비 하늘 바람 사랑 노래 꿈 별 빛 마음 너 나 우리 함께 영원히 기억해 "
    "눈물 미소 세상 시간 오늘 내일 밤 아침 길 노을 바다 구름 날개 햇살 약속 "
    "다시 언제나 여기 멀리 가까이 춤을 불러 날아 흘러 빛나 잊지마 안녕 "
    "고마워 기다려 지금 처음 마지막 소리 그대 꽃 봄 눈 손 불 비"
).split()

# plain hiragana only (no small kana, no sokuon, no long mark): one kana is
# one mora
JA_KANA_WORDS = (
    "ゆめ そら かぜ あい うた ほし ひかり こころ きみ ぼく いつも まもる "
    "なみだ えがお せかい とき あした よる あさ みち うみ くも つばさ はな "
    "ここ とおく いま はじめて さいご おと あなた ね よ の に を まで "
    "ふたり はるか かがやく とびら あめ ゆき まち こえ"
).split()

# kanji the shipped G2P table does not cover, so dubbed JA lines also
# exercise the dropped-grapheme path
JA_KANJI_WORDS = "夢 空 心 愛 星 光 風 花 海 君".split()

LATIN_POOLS = {Language.EN: EN_WORDS, Language.ES: ES_WORDS, Language.FR: FR_WORDS}

# a phrase only benchmark replies contain: the fake endpoint counts it in a
# prompt to tell a first attempt from a reprompt
REPLY_MARK = "Checked syllable count:"

DUBBED_LANGS = (Language.ES, Language.FR, Language.KO, Language.JA)

# share of lines holding a numeral; all stay in the range the counters spell
NUMERAL_SHARE = 0.08

# corpus sizes: eval-corpus scores 50 x 20 x 4 rows, translate-mock translates
# 100 x 20 lines, roundtrip-remote translates 15 x 10 lines into two languages
EVAL_SONGS, EVAL_LINES_PER_SONG = 50, 20
MOCK_SONGS, MOCK_LINES_PER_SONG = 100, 20
REMOTE_SONGS, REMOTE_LINES_PER_SONG = 15, 10
# share of translate-mock lines replying with no payload, and again with a brace
ODD_SHARE = 0.02


def _pick_units(rng: random.Random, pool: list[str], n: int) -> list[str]:
    """Words from ``pool`` whose character counts add up to exactly ``n``."""
    words: list[str] = []
    left = n
    while left:
        fitting = [w for w in pool if len(w) <= left]
        word = rng.choice(fitting)
        words.append(word)
        left -= len(word)
    return words


def target_line(lang: Language, rng: random.Random, n: int) -> str:
    """A KO or JA line of exactly ``n`` syllables or morae."""
    if lang is Language.KO:
        return " ".join(_pick_units(rng, KO_WORDS, n))
    if lang is Language.JA:
        return "".join(_pick_units(rng, JA_KANA_WORDS, n))
    raise ValueError(f"no reply pool for {lang}")


def unit_count(text: str) -> int:
    """Syllables of a line made by :func:`target_line` (blocks or kana)."""
    return sum(1 for ch in text if not ch.isspace() and ch not in "{}")


def format_reply(source_text: str, translation: str) -> str:
    """A staged-style model reply: both syllable lists, then the payload."""
    source_units = json.dumps(source_text.split(), ensure_ascii=False)
    target_units = json.dumps(
        [ch for ch in translation if not ch.isspace() and ch not in "{}"],
        ensure_ascii=False,
    )
    payload = json.dumps({"translation": translation}, ensure_ascii=False)
    return (
        f"Source syllables: {source_units}\n"
        f"Target syllables: {target_units}\n"
        f"{REPLY_MARK} {unit_count(translation)}\n"
        f"{payload}"
    )


def _digest_int(*parts: str) -> int:
    blob = "\x1f".join(parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def remote_misses_first(source_text: str, lang: Language) -> bool:
    """Whether the fake endpoint's first reply for a task misses by one."""
    return _digest_int("miss", lang.value, source_text) % 3 == 0


def remote_translation(source_text: str, lang: Language, required: int,
                       attempt: int) -> str:
    """The translation the fake endpoint sends on a given attempt."""
    rng = random.Random(_digest_int("reply", lang.value, str(attempt), source_text))
    n = required
    if attempt == 1 and remote_misses_first(source_text, lang):
        n = required + 1 if required == 1 or rng.random() < 0.5 else required - 1
    return target_line(lang, rng, n)


# ---------------------------------------------------------------------------
# corpus building


@dataclass
class Built:
    """Files to write, what the program must produce, and input properties."""

    files: dict[str, bytes] = field(default_factory=dict)
    expected: dict[str, dict] = field(default_factory=dict)
    properties: dict = field(default_factory=dict)


def task_key(song_id: str, lang: Language, section: int, line: int) -> str:
    return f"{song_id}/{lang.value}/{section}/{line}"


def _numeral(rng: random.Random) -> str:
    return str(rng.choice([rng.randint(1, 12), rng.randint(13, 100), rng.randint(1950, 2030)]))


def _latin_line(rng: random.Random, lang: Language) -> str:
    words = rng.sample(LATIN_POOLS[lang], rng.randint(3, 8))
    if rng.random() < NUMERAL_SHARE:
        words[rng.randrange(len(words))] = _numeral(rng)
    words[0] = words[0].capitalize()
    return " ".join(words)


def _dubbed_words(rng: random.Random, lang: Language) -> list[str]:
    if lang is Language.KO:
        words = [rng.choice(KO_WORDS) for _ in range(rng.randint(3, 6))]
    elif lang is Language.JA:
        words = [
            rng.choice(JA_KANJI_WORDS) if rng.random() < 0.2 else rng.choice(JA_KANA_WORDS)
            for _ in range(rng.randint(3, 7))
        ]
    else:
        words = rng.sample(LATIN_POOLS[lang], rng.randint(3, 8))
    if rng.random() < NUMERAL_SHARE:
        words[rng.randrange(len(words))] = _numeral(rng)
    return words


def _join(lang: Language, words: list[str]) -> str:
    return ("" if lang is Language.JA else " ").join(words)


def _perturbed(rng: random.Random, lang: Language, words: list[str]) -> str:
    """A hypothesis near the dubbed line: one word swapped, dropped or added."""
    pool = {Language.KO: KO_WORDS, Language.JA: JA_KANA_WORDS}.get(lang) or LATIN_POOLS[lang]
    words = list(words)
    roll = rng.random()
    if roll < 0.5:
        words[rng.randrange(len(words))] = rng.choice(pool)
    elif roll < 0.75 and len(words) > 2:
        del words[rng.randrange(len(words))]
    else:
        words.insert(rng.randrange(len(words) + 1), rng.choice(pool))
    return _join(lang, words)


def _entry(song_id: str, lang: Language, sections: list[list[str]]) -> SongEntry:
    return SongEntry(
        title=f"{song_id} ({lang.value})",
        source_url=f"https://example.test/{song_id}/{lang.value.lower()}",
        media_url=None,
        language=lang,
        sections=[
            Section(
                index=s,
                lines=[
                    LyricLine(index=i, rep=encode_line(lang, text), resolved_text=text)
                    for i, text in enumerate(texts)
                ],
            )
            for s, texts in enumerate(sections)
        ],
    )


def _song_layout(chorus: bool, lines: int) -> list[int]:
    """Section sizes; with choruses the last section repeats the middle one."""
    if not chorus:
        return [lines // 2, lines - lines // 2]
    repeat = round(lines * 0.35)
    return [lines - 2 * repeat, repeat, repeat]


def _repeat_share(pairs: list[tuple[str, str]]) -> float:
    return 1.0 - len(set(pairs)) / len(pairs) if pairs else 0.0


def _properties(*, rows: int, languages: list[str], repeat_share: float,
                reprompt_share: float, odd_reply_share: float,
                mean_line_chars: float, **extra) -> dict:
    """The input properties every workload records, plus its own extras.

    ``rows`` counts scored rows or translation tasks; ``repeat_share`` is the
    share of (language, text) inputs that repeat an earlier one.
    """
    common = {
        "rows": rows,
        "languages": languages,
        "repeat_share": repeat_share,
        "reprompt_share": reprompt_share,
        "odd_reply_share": odd_reply_share,
        "mean_line_chars": mean_line_chars,
    }
    return {k: round(v, 4) if isinstance(v, float) else v
            for k, v in {**common, **extra}.items()}


def _hypotheses_jsonl(provenance: str, entries: dict[tuple, str]) -> bytes:
    lines = [json.dumps({"provenance": provenance}, ensure_ascii=False)]
    for (song_id, lang, section, line), text in sorted(
        entries.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2], kv[0][3])
    ):
        lines.append(json.dumps(
            {"song_id": song_id, "language": lang.value, "section": section,
             "line": line, "text": text},
            ensure_ascii=False,
        ))
    return ("\n".join(lines) + "\n").encode("utf-8")


def build_eval_corpus(seed: int) -> Built:
    """EN originals plus ES/FR/KO/JA dubbed lines and one hypothesis per row.

    About a third of each song is a chorus that repeats verbatim in every
    language, hypotheses included, so (language, text) pairs recur.
    """
    rng = random.Random(seed)
    songs_out: dict[str, dict[Language, SongEntry]] = {}
    hyps: dict[tuple, str] = {}
    counted: list[tuple[str, str]] = []
    hyp_rows: list[tuple[str, str]] = []
    lengths: list[int] = []
    layout = _song_layout(True, EVAL_LINES_PER_SONG)
    for s in range(EVAL_SONGS):
        song_id = f"song-{s:04d}"
        verse = [_latin_line(rng, Language.EN) for _ in range(layout[0])]
        chorus = [_latin_line(rng, Language.EN) for _ in range(layout[1])]
        en_sections = [verse, chorus, chorus]
        entries = {Language.EN: _entry(song_id, Language.EN, en_sections)}
        for lang in DUBBED_LANGS:
            verse_w = [_dubbed_words(rng, lang) for _ in verse]
            chorus_w = [_dubbed_words(rng, lang) for _ in chorus]
            hyp_verse = [_perturbed(rng, lang, w) for w in verse_w]
            hyp_chorus = [_perturbed(rng, lang, w) for w in chorus_w]
            sections = [
                [_join(lang, w) for w in verse_w],
                [_join(lang, w) for w in chorus_w],
                [_join(lang, w) for w in chorus_w],
            ]
            entries[lang] = _entry(song_id, lang, sections)
            for sec, (refs, hyp_texts) in enumerate(
                zip(sections, [hyp_verse, hyp_chorus, hyp_chorus])
            ):
                for i, (ref, hyp) in enumerate(zip(refs, hyp_texts)):
                    hyps[(song_id, lang, sec, i)] = hyp
                    original = en_sections[sec][i]
                    counted += [("EN", original), (lang.value, hyp),
                                (lang.value, ref), (lang.value, hyp)]
                    hyp_rows.append((lang.value, hyp))
                    lengths.append(len(hyp))
        songs_out[song_id] = entries
    built = Built()
    built.files["corpus.json"] = serialize_dataset(Dataset(songs_out))
    built.files["hypotheses.jsonl"] = _hypotheses_jsonl("bench:perturbed-dubbed", hyps)
    built.properties = _properties(
        rows=len(hyps),
        languages=["EN"] + [lang.value for lang in DUBBED_LANGS],
        repeat_share=_repeat_share(hyp_rows),
        reprompt_share=0.0,
        odd_reply_share=0.0,
        mean_line_chars=sum(lengths) / len(lengths),
        line_scores=2 * len(hyps),
        count_input_repeat_share=_repeat_share(counted),
    )
    return built


def _nonce(rng: random.Random, used: set[str]) -> str:
    """A made-up name; it makes each keyed source line unique."""
    while True:
        word = "".join(
            rng.choice("bdfgklmnprstvz") + rng.choice("aeiou") for _ in range(3)
        ).capitalize() + rng.choice("nrsl")
        if word not in used:
            used.add(word)
            return word


def _staged_prompt_text() -> str:
    """Template text of both prompt styles, for the key collision check."""
    probe = "\x00"
    task = TranslationTask(probe, Language.EN, Language.KO, 3)
    return "\n".join(
        build_prompt(task, PipelineVariant(style=style)) for style in PromptStyle
    )


NO_PAYLOAD_REPLY = (
    "I tried several phrasings for this line but none of them felt singable "
    "yet, so I will keep working on it."
)


def build_translate_mock(seed: int) -> Built:
    """EN lines, each with a unique made-up name, and a keyed mock script.

    Exactly a third of the ordinary lines miss the count by one on the first
    reply and hit it on the second; the rest hit on the first reply.  An
    ``ODD_SHARE`` of lines reply with prose and no payload on every attempt,
    and another ``ODD_SHARE`` put a brace inside the translation.
    """
    rng = random.Random(seed)
    used: set[str] = set()
    songs_out: dict[str, dict[Language, SongEntry]] = {}
    sources: list[tuple[str, str]] = []
    layout = _song_layout(False, MOCK_LINES_PER_SONG)
    for s in range(MOCK_SONGS):
        song_id = f"song-{s:04d}"
        sections = []
        for sec, size in enumerate(layout):
            texts = []
            for i in range(size):
                words = _latin_line(rng, Language.EN).split()
                words.insert(rng.randrange(1, len(words) + 1), _nonce(rng, used))
                text = " ".join(words)
                texts.append(text)
                sources.append((task_key(song_id, Language.KO, sec, i), text))
            sections.append(texts)
        songs_out[song_id] = {Language.EN: _entry(song_id, Language.EN, sections)}

    order = list(range(len(sources)))
    rng.shuffle(order)
    n_odd = round(ODD_SHARE * len(sources))
    no_payload = set(order[:n_odd])
    brace = set(order[n_odd:2 * n_odd])
    ordinary = order[2 * n_odd:]
    misses = set(ordinary[: len(ordinary) // 3])

    built = Built()
    keyed: dict[str, list[str]] = {}
    for idx, (key, text) in enumerate(sources):
        required = count_syllables(Language.EN, text)
        if idx in no_payload:
            turns = [NO_PAYLOAD_REPLY] * 3
            built.expected[key] = {"kind": "fail"}
        elif idx in brace:
            words = target_line(Language.KO, rng, required).split()
            k = rng.randrange(len(words))
            words[k] = "{" + words[k] + "}"
            translation = " ".join(words)
            turns = [format_reply(text, translation)] * 3
            built.expected[key] = {"kind": "brace", "text": translation, "count": required}
        elif idx in misses:
            off = required + 1 if required == 1 or rng.random() < 0.5 else required - 1
            final = target_line(Language.KO, rng, required)
            turns = [format_reply(text, target_line(Language.KO, rng, off)),
                     format_reply(text, final)]
            built.expected[key] = {"kind": "ok", "text": final, "count": required,
                                   "attempts": 2}
        else:
            final = target_line(Language.KO, rng, required)
            turns = [format_reply(text, final)]
            built.expected[key] = {"kind": "ok", "text": final, "count": required,
                                   "attempts": 1}
        keyed[text] = turns

    # a key must occur in its own prompt only: its made-up name appears in no
    # other line, in no template and in no reply that is not about that line
    haystack = "\n".join(
        [_staged_prompt_text(), NO_PAYLOAD_REPLY] + [t for _, t in sources]
    )
    for name in used:
        if haystack.count(name) != 1:
            raise RuntimeError(f"mock key name {name!r} is not unique")

    script_order = list(keyed)
    rng.shuffle(script_order)
    script = {"keyed": {k: keyed[k] for k in script_order}}
    built.files["corpus.json"] = serialize_dataset(Dataset(songs_out))
    built.files["script.json"] = (
        json.dumps(script, ensure_ascii=False, indent=1) + "\n"
    ).encode("utf-8")
    built.properties = _properties(
        rows=len(sources),
        languages=["EN", "KO"],
        repeat_share=_repeat_share([("EN", t) for _, t in sources]),
        reprompt_share=len(misses) / len(sources),
        odd_reply_share=(len(no_payload) + len(brace)) / len(sources),
        mean_line_chars=sum(len(t) for _, t in sources) / len(sources),
        no_payload_share=len(no_payload) / len(sources),
        brace_share=len(brace) / len(sources),
        script_keys=len(keyed),
        script_turns=sum(len(turns) for turns in keyed.values()),
    )
    return built


def build_roundtrip(seed: int) -> Built:
    """EN lines with KO and JA dubbed references, for the remote round trip.

    The replies come from the fake endpoint; ``expected`` holds what it is
    built to have accepted for each task.
    """
    rng = random.Random(seed)
    targets = (Language.KO, Language.JA)
    songs_out: dict[str, dict[Language, SongEntry]] = {}
    built = Built()
    layout = _song_layout(False, REMOTE_LINES_PER_SONG)
    n_tasks = REMOTE_SONGS * REMOTE_LINES_PER_SONG * len(targets)
    # the endpoint decides misses by a hash of the line; lines are drawn until
    # their pattern matches this plan, so exactly a third of tasks miss
    plan = [i < n_tasks // 3 for i in range(n_tasks)]
    rng.shuffle(plan)
    wanted = iter(zip(plan[::2], plan[1::2]))

    def planned_line() -> str:
        want = next(wanted)
        while True:
            text = _latin_line(rng, Language.EN)
            if tuple(remote_misses_first(text, lang) for lang in targets) == want:
                return text

    sources: list[str] = []
    missed = 0
    for s in range(REMOTE_SONGS):
        song_id = f"song-{s:04d}"
        en_sections = [[planned_line() for _ in range(size)] for size in layout]
        entries = {Language.EN: _entry(song_id, Language.EN, en_sections)}
        for lang in targets:
            sections = [[_join(lang, _dubbed_words(rng, lang)) for _ in texts]
                        for texts in en_sections]
            entries[lang] = _entry(song_id, lang, sections)
        songs_out[song_id] = entries
        for sec, texts in enumerate(en_sections):
            for i, text in enumerate(texts):
                sources.append(text)
                required = count_syllables(Language.EN, text)
                for lang in targets:
                    miss = remote_misses_first(text, lang)
                    missed += miss
                    built.expected[task_key(song_id, lang, sec, i)] = {
                        "kind": "ok",
                        "text": remote_translation(text, lang, required, 1 + miss),
                        "count": required,
                        "attempts": 1 + miss,
                    }
    built.files["corpus.json"] = serialize_dataset(Dataset(songs_out))
    built.properties = _properties(
        rows=len(built.expected),
        languages=["EN"] + [lang.value for lang in targets],
        repeat_share=_repeat_share([("EN", t) for t in sources]),
        reprompt_share=missed / len(built.expected),
        odd_reply_share=0.0,
        mean_line_chars=sum(len(t) for t in sources) / len(sources),
    )
    return built


# ---------------------------------------------------------------------------
# odd-input probe


@dataclass(frozen=True)
class ProbeCase:
    name: str
    command: str  # "translate" or "evaluate"
    text: str  # the model reply (translate) or the hypothesis (evaluate)


def _payload(translation: str) -> str:
    return json.dumps({"translation": translation}, ensure_ascii=False)


PROBE_CASES = (
    ProbeCase("translate-numeral-1000000", "translate", _payload("나비 1000000")),
    ProbeCase("translate-brace", "translate", _payload("나비 {날아} 와")),
    ProbeCase("translate-prose", "translate", NO_PAYLOAD_REPLY),
    ProbeCase("translate-empty", "translate", _payload("")),
    ProbeCase("evaluate-numeral-1000000", "evaluate", "나비 1000000"),
    ProbeCase("evaluate-empty", "evaluate", ""),
    ProbeCase("evaluate-punctuation", "evaluate", "!!!"),
)

PROBE_SOURCE = "And there's a butterfly over the garden"


def build_probe_case(case: ProbeCase) -> Built:
    """A one-line corpus and the script or hypothesis file for one case."""
    song_id = "probe"
    songs = {song_id: {
        Language.EN: _entry(song_id, Language.EN, [[PROBE_SOURCE]]),
        Language.KO: _entry(song_id, Language.KO, [["나비가 정원 위로 날아와"]]),
    }}
    built = Built()
    built.files["corpus.json"] = serialize_dataset(Dataset(songs))
    if case.command == "translate":
        script = {"keyed": {PROBE_SOURCE: [case.text] * 3}}
        built.files["script.json"] = json.dumps(script, ensure_ascii=False).encode("utf-8")
    else:
        built.files["hypotheses.jsonl"] = _hypotheses_jsonl(
            "bench:probe", {(song_id, Language.KO, 0, 0): case.text}
        )
    return built
