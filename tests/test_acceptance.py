"""Top-level acceptance checks.

Each test here guards one headline guarantee of the package and prints a
single PASS line when it holds (visible with ``pytest -s`` or ``-v``).  The
checks are all offline: scripted providers and the hash embedding stand in
for real models.
"""

from __future__ import annotations

import csv
import json
import random
import time

import pytest

from mavl.dataset import (
    Dataset,
    LyricLine,
    Section,
    SongEntry,
    encode_line,
    match_line,
    serialize_dataset,
    tokenize,
)
from mavl.harness import HypothesisSet, RunConfig, cmd_evaluate, cmd_translate, _load_dataset
from mavl.languages import Language
from mavl.metrics import (
    ReferenceKind,
    SyllableErrorParams,
    cosine_similarity,
    syllable_count_distance,
    syllable_error,
)
from mavl.phonetics import IpaString, edit_distance
from mavl.pipeline import (
    PipelineVariant,
    TranslationTask,
    build_prompt,
    translate_line,
)
from mavl.providers import ScriptedProvider
from mavl.syllables import count_syllables


def ok(name: str) -> None:
    print(f"PASS  {name}")


# ---------------------------------------------------------------------------
# metric formulas


def test_syllable_metric_formulas_match_brute_force_oracle():
    def se_oracle(c_ref, c_pred, beta):
        if c_pred <= c_ref:
            return float(c_ref - c_pred)
        return beta * float(c_pred - c_ref)

    def scd_oracle(c_ref, c_pred):
        gap = float(abs(c_ref - c_pred))
        return (gap / c_ref + gap / c_pred) / 2.0

    started = time.perf_counter()
    for beta in (1.0, 1.5, 2.0):
        params = SyllableErrorParams(beta=beta)
        for c_ref in range(1, 41):
            for c_pred in range(1, 41):
                assert syllable_error(c_ref, c_pred, params) == se_oracle(
                    c_ref, c_pred, beta
                )
                assert syllable_count_distance(c_ref, c_pred) == scd_oracle(
                    c_ref, c_pred
                )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"
    ok("syllable error and count distance match brute-force formulas on [1,40]^2")


# ---------------------------------------------------------------------------
# quoted syllable counts


def test_quoted_syllable_counts_reproduce():
    cases = [
        (Language.EN, "And there's a butterfly", 6),
        (Language.EN, "Remember me, don't let it make you cry", 10),
        (Language.EN, "Three months of winter coolness", 7),
        (Language.KO, "나비가 날아와", 6),
        (Language.KO, "날 잊지 마 슬퍼하지는 마", 10),
    ]
    for lang, text, expected in cases:
        assert count_syllables(lang, text) == expected, (lang, text)
    ok("all five quoted syllable counts reproduce exactly")


# ---------------------------------------------------------------------------
# edit distance


def _dp_oracle(a, b):
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


def test_edit_distance_against_dp_oracle_and_axioms():
    rng = random.Random(20240817)
    alphabet = list("abcdefgɡʃʒθðŋɾaeiouɛɔə")

    def sample():
        syms = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        return IpaString(syms)

    started = time.perf_counter()
    for _ in range(1000):
        a, b = sample(), sample()
        assert edit_distance(a, b) == _dp_oracle(a.symbols, b.symbols)
    for _ in range(300):
        a, b, c = sample(), sample(), sample()
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"edit distance sweep took {elapsed:.2f}s"
    ok("edit distance matches the DP oracle on 1,000 pairs and satisfies metric axioms")


# ---------------------------------------------------------------------------
# codec round trip


def _random_line(lang: Language, rng: random.Random) -> str:
    if lang is Language.KO:
        words = []
        for _ in range(rng.randint(1, 5)):
            words.append(
                "".join(
                    chr(rng.randint(0xAC00, 0xD7A3))
                    for _ in range(rng.randint(1, 4))
                )
            )
        return " ".join(words)
    if lang is Language.JA:
        runs = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                runs.append(
                    "".join(
                        chr(rng.randint(0x3042, 0x3093))
                        for _ in range(rng.randint(1, 4))
                    )
                )
            else:
                runs.append(
                    "".join(
                        chr(rng.randint(0x30A2, 0x30F3))
                        for _ in range(rng.randint(1, 4))
                    )
                )
        return "".join(runs)
    words = []
    for _ in range(rng.randint(1, 6)):
        words.append(
            "".join(rng.choice("abcdefghijklmnopqrstuvwxyzáéíóúàèùêâöü")
                    for _ in range(rng.randint(1, 8)))
        )
    return " ".join(words)


def _drop_token(lang: Language, text: str) -> str:
    tokens = tokenize(lang, text)
    sep = "" if lang is Language.JA else " "
    return sep.join(tokens[1:])


def _add_token(lang: Language, text: str) -> str:
    if lang is Language.JA:
        return text + "猫"
    return text + " extra"


def test_codec_round_trip_and_perturbation_rejection():
    rng = random.Random(7011)
    for lang in Language:
        matched = 0
        false_hits = 0
        total = 1000
        for _ in range(total):
            text = _random_line(lang, rng)
            rep = encode_line(lang, text)
            if match_line(rep, text, lang):
                matched += 1
            dropped = _drop_token(lang, text)
            if dropped and match_line(rep, dropped, lang):
                false_hits += 1
            if match_line(rep, _add_token(lang, text), lang):
                false_hits += 1
        assert matched == total, f"{lang}: round trip {matched}/{total}"
        assert false_hits == 0, f"{lang}: perturbed lines matched {false_hits} times"
    ok("codec round trip holds on 1,000 lines per language; perturbed lines never match")


# ---------------------------------------------------------------------------
# pipeline loop semantics

NINE_LIST = ("날", "기", "억", "해", "줘", "울", "지", "는", "마")

FIRST_REPLY = """\
1. Identify the Core Lyric and Perform Syllable Segmentation
`["Re", "mem", "ber", "me,", "don't", "let", "it", "make", "you", "cry"]`
This gives a total of 10 syllables.

2. Generate the Target Language Translation Syllable List
`["날", "기", "억", "해", "줘", "울", "지", "는", "마"]`

```json
{"translation": "날 기억해 줘 울지는 마"}
```
"""

SECOND_REPLY = """\
3. Iterate and Refine the Translation
The list contains 9 syllables, not 10 as originally noted.
Second attempt:
`["날", "잊", "지", "마", "슬", "퍼", "하", "지", "는", "마"]`

```json
{"translation": "날 잊지 마 슬퍼하지는 마"}
```
"""

SINGLE_REPLY = """\
1. Identify the Core Lyric and Perform Syllable Segmentation
Syllable segmentation: `["And", "there's", "a", "but", "ter", "fly"]`

2. Generate the Target Language Translation Syllable List
Syllable list: `["나", "비", "가", "날", "아", "와"]`

4. Generate the Final Translation
```json
{"translation": "나비가 날아와"}
```
"""


class PromptRecordingProvider(ScriptedProvider):
    def __init__(self, script):
        super().__init__(script)
        self.prompts: list[str] = []

    def complete(self, request):
        self.prompts.append(request.prompt_text)
        return super().complete(request)


def test_refinement_loop_semantics():
    task = TranslationTask(
        source_text="Remember me, don't let it make you cry",
        source_lang=Language.EN,
        target_lang=Language.KO,
        required_count=10,
    )
    provider = PromptRecordingProvider([FIRST_REPLY, SECOND_REPLY])
    result = translate_line(task, PipelineVariant(), provider)
    assert result.constraint_met is True
    assert result.attempts == 2
    assert result.translation == "날 잊지 마 슬퍼하지는 마"
    # the refinement happens in context: the 9-syllable first reply, list and
    # all, is carried verbatim into the second prompt
    second_prompt = provider.prompts[1]
    assert FIRST_REPLY in second_prompt
    assert json.dumps(list(NINE_LIST), ensure_ascii=False) in second_prompt

    task = TranslationTask(
        source_text="And there's a butterfly",
        source_lang=Language.EN,
        target_lang=Language.KO,
        required_count=6,
    )
    provider = ScriptedProvider([SINGLE_REPLY])
    result = translate_line(task, PipelineVariant(), provider)
    assert result.attempts == 1
    assert result.translation == "나비가 날아와"
    assert result.constraint_met is True
    ok("refinement loop: miss-then-hit takes 2 attempts, direct hit takes 1")


# ---------------------------------------------------------------------------
# prompt fidelity across the stage grid


def test_stage_grid_prompt_fidelity():
    task = TranslationTask(
        source_text="And there's a butterfly",
        source_lang=Language.EN,
        target_lang=Language.KO,
        required_count=6,
    )
    refine_marker = "Iterate and Refine the Translation"
    list_markers = ("Perform Syllable Segmentation", "syllable list")
    for use_list in (False, True):
        for use_refine in (False, True):
            variant = PipelineVariant(
                use_syllable_list=use_list, use_refine=use_refine
            )
            prompt = build_prompt(task, variant)
            assert (refine_marker in prompt) is use_refine, (use_list, use_refine)
            for marker in list_markers:
                assert (marker.lower() in prompt.lower()) is use_list, (
                    marker, use_list, use_refine,
                )
            assert "Real Syllable Count: 6" in prompt
    ok("prompt step headers track the syllable-list and refine flags in all 4 variants")


# ---------------------------------------------------------------------------
# end-to-end determinism on a synthetic corpus

# Note: none of these lines may appear inside the prompt templates, or the
# keyed mock script would match every prompt through the template's own
# worked example.
EN_LINES = [
    "And there's a butterfly",
    "Remember me, don't let it make you cry",
    "The winter wind is blowing cold",
    "The sun will rise again tomorrow",
    "Hold my hand and never let it go",
    "Every little star is shining bright",
    "A quiet river runs behind the hill",
    "Sing the melody we used to know",
    "Paper boats are drifting out to sea",
    "Morning bells are ringing in the town",
]

KO_LINES = [
    "나비가 날아와",
    "날 잊지 마 슬퍼하지는 마",
    "겨울 바람이 차게 불어와",
    "내일 다시 해가 떠오를 거야",
    "내 손을 잡고 놓지 말아 줘",
    "작은 별들이 모두 빛나고 있어",
    "언덕 뒤로 조용한 강이 흘러",
    "우리 알던 그 노래를 불러",
    "종이배가 바다로 흘러가네",
    "아침 종이 마을에 울려 퍼져",
]


def _synthetic_corpus(tmp_path):
    def entry(lang, texts):
        lines = [
            LyricLine(index=i, rep=encode_line(lang, t), resolved_text=t)
            for i, t in enumerate(texts)
        ]
        return SongEntry(
            title="synthetic",
            source_url="https://example.test/lyrics",
            media_url=None,
            language=lang,
            sections=[Section(index=0, lines=lines)],
        )

    ds = Dataset(
        {
            "syn-1": {
                Language.EN: entry(Language.EN, EN_LINES[:5]),
                Language.KO: entry(Language.KO, KO_LINES[:5]),
            },
            "syn-2": {
                Language.EN: entry(Language.EN, EN_LINES[5:]),
                Language.KO: entry(Language.KO, KO_LINES[5:]),
            },
        }
    )
    path = tmp_path / "synthetic.json"
    path.write_bytes(serialize_dataset(ds))
    return path


def _synthetic_script(tmp_path):
    # Three copies per key: one for the initial call plus one per allowed
    # reprompt, so lines whose mock translation misses the count still finish.
    keyed = {
        en: [json.dumps({"translation": ko}, ensure_ascii=False)] * 3
        for en, ko in zip(EN_LINES, KO_LINES)
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"keyed": keyed}, ensure_ascii=False), encoding="utf-8")
    return path


def test_three_runs_produce_byte_identical_outputs(tmp_path):
    corpus = _synthetic_corpus(tmp_path)
    script = _synthetic_script(tmp_path)
    csvs = []
    hyps = []
    for _ in range(3):
        config = RunConfig(
            dataset_path=str(corpus),
            target_langs=(Language.KO,),
            mock_script=str(script),
            out_dir=str(tmp_path / "runs"),
        )
        translated = cmd_translate(config)
        evaluated = cmd_evaluate(config, translated.hypotheses)
        csvs.append((evaluated.run_dir / "scores.csv").read_bytes())
        hyps.append((translated.run_dir / "hypotheses.jsonl").read_bytes())
    assert len(translated.hypotheses.entries) == 10
    assert csvs[0] == csvs[1] == csvs[2]
    assert hyps[0] == hyps[1] == hyps[2]
    ok("translate + evaluate over 10 synthetic lines is byte-identical across 3 runs")


# ---------------------------------------------------------------------------
# dual-reference self-evaluation


def test_self_evaluation_is_all_zeros(tmp_path):
    corpus = _synthetic_corpus(tmp_path)
    config = RunConfig(
        dataset_path=str(corpus),
        target_langs=(Language.KO,),
        mock_script=None,
        out_dir=str(tmp_path / "runs"),
    )
    hyp = HypothesisSet.from_dubbed(_load_dataset(str(corpus)), [Language.KO])
    outcome = cmd_evaluate(config, hyp)
    assert outcome.skipped == 0
    with open(outcome.run_dir / "scores.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        assert row["status"] == "scored"
        assert row["dubbed_se"] == "0.000000"
        assert row["dubbed_scd"] == "0.000000"
        assert row["dubbed_phonetic"] == "0"
        assert row["dubbed_semantic"] == "1.000000"
    stats = outcome.report.groups[(Language.KO, ReferenceKind.DUBBED)]
    assert stats.error_rate == 0.0
    # SE and SCD are never negative, so a mean of 0 is 0 on every row
    assert stats.mean_se == 0.0 and stats.mean_scd == 0.0
    # a cosine is at most 1, so a mean this close keeps each row within 1e-12
    assert stats.mean_semantic == pytest.approx(1.0, abs=1e-12 / len(rows))
    ok("dubbed self-evaluation yields SE=0, SCD=0, phonetic=0, semantic=1.0")


# ---------------------------------------------------------------------------
# cosine properties


def test_cosine_clamp_and_scale_invariance():
    rng = random.Random(90210)
    checked = 0
    while checked < 10_000:
        dim = rng.randint(2, 16)
        a = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        b = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        norm_a = sum(x * x for x in a) ** 0.5
        norm_b = sum(x * x for x in b) ** 0.5
        if norm_a < 1e-6 or norm_b < 1e-6:
            continue
        base = cosine_similarity(a, b)
        assert -1.0 <= base <= 1.0
        for scale in (0.1, 10.0):
            scaled = cosine_similarity([x * scale for x in a], b)
            assert abs(scaled - base) <= 1e-9
        checked += 1
    ok("cosine stays in [-1, 1] and is scale-invariant to 1e-9 over 10,000 pairs")
