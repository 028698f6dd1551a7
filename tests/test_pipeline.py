from __future__ import annotations

import hashlib
import itertools
import json
import re

import pytest
from hypothesis import example, given, strategies as st

from mavl import pipeline
from mavl.errors import ConfigError, PipelineError, ProviderError
from mavl.languages import Language
from mavl.pipeline import (
    PipelineVariant,
    PromptStyle,
    TranslationTask,
    build_prompt,
    translate_line,
)
from mavl.providers import (
    GenerationRequest,
    MediaAttachment,
    MediaKind,
    TraceStore,
    request_digest,
)
from mavl.syllables import count_syllables

# the media switches of each modality set; text is always read
TEXT = {}
TAV = {"use_audio": True, "use_video": True}
TV = {"use_video": True}
TA = {"use_audio": True}

STEP1_FULL = "Identify the Core Lyric and Perform Syllable Segmentation"
STEP2_FULL = "Generate the Target Language Translation Syllable List"
STEP3 = "Iterate and Refine the Translation"
STEP4 = "Generate the Final Translation"


def butterfly_task(**overrides):
    fields = dict(
        source_text="And there's a butterfly",
        source_lang=Language.EN,
        target_lang=Language.KO,
        required_count=6,
    )
    fields.update(overrides)
    return TranslationTask(**fields)


def remember_task(**overrides):
    fields = dict(
        source_text="Remember me, don't let it make you cry",
        source_lang=Language.EN,
        target_lang=Language.KO,
        required_count=10,
    )
    fields.update(overrides)
    return TranslationTask(**fields)


# Reasoning text a model produces for the butterfly line: segmentation, a
# first candidate list, a refined list, then the payload.
BUTTERFLY_TRACE = """\
1. Identify the Core Lyric and Perform Syllable Segmentation
   - The core lyric is: "And there's a butterfly".
   - Audio analysis indicates a natural flow with emphasis on "butterfly".
   - The original syllable count is 6.
   - Syllable segmentation: `["And", "there's", "a", "but", "ter", "fly"]`

2. Generate the Target Language Translation Syllable List Utilizing the Video Information
   - Video context: The scene shows a colorful, cheerful environment with a pink
     Troll, running happily. A butterfly flits around. The mood is light and joyful.
   - Translation considerations: We need a Korean translation that fits this happy,
     whimsical context and maintains the 6-syllable count. We can use a common
     Korean word for butterfly, "나비" (nabi).
   - Initial translation: "나비 가 있 어 요" (Na-bi ga it-eo-yo) - This translates
     to "There's a butterfly."
   - Syllable list: `["나", "비", "가", "있", "어", "요"]`

3. Iterate and Refine the Translation
   - The initial translation "나비 가 있어요" is grammatically correct and fits the
     context. The syllable count is also correct at 6.
   - We can consider other options to see if we can get a more singable result, but
     this is already quite good.
   - Let's try "나비 가 날 아 와" (Na-bi ga nal a wa) - "A butterfly comes flying"
   - Syllable list: `["나", "비", "가", "날", "아", "와"]`
   - This also has 6 syllables and fits the scene well. It emphasizes the movement
     of the butterfly, which is visually present.

4. Generate the Final Translation
   - I think "나비 가 날 아 와" is slightly better because it has a sense of movement.
   - Final Syllable List: `["나", "비", "가", "날", "아", "와"]`
   - Final Translation: 나비가 날아와

```json
{"translation": "나비가 날아와"}
```
"""

# Two-turn variant of the same line: the first reply commits to the 9-count
# translation; the corrective re-prompt produces the 10-count one.
REMEMBER_TURN_1 = """\
1. Identify the Core Lyric and Perform Syllable Segmentation
`["Re", "mem", "ber", "me,", "don't", "let", "it", "make", "you", "cry"]`
This gives a total of 10 syllables.

2. Generate the Target Language Translation Syllable List
My translation is:
`["날", "기", "억", "해", "줘", "울", "지", "는", "마"]`

4. Generate the Final Translation
```json
{"translation": "날 기억해 줘 울지는 마"}
```
"""

REMEMBER_TURN_2 = """\
3. Iterate and Refine the Translation
The list contains 9 syllables, not 10 as originally noted.
Second attempt (adjusting for syllable count and naturalness):
`["날", "잊", "지", "마", "슬", "퍼", "하", "지", "는", "마"]`

4. Generate the Final Translation
```json
{"translation": "날 잊지 마 슬퍼하지는 마"}
```
"""


class RecordingProvider:
    """Replays fixed responses and keeps every request for inspection."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests: list[GenerationRequest] = []

    def complete(self, request):
        self.requests.append(request)
        if not self.responses:
            raise AssertionError("provider called more times than scripted")
        return self.responses.pop(0)


class TestVariants:
    def test_labels(self):
        assert PipelineVariant(**TAV).label() == "T+A+V list+refine"
        assert (
            PipelineVariant(use_syllable_list=False, **TEXT).label()
            == "T nolist+refine"
        )
        assert (
            PipelineVariant(style=PromptStyle.DIRECT, **TEXT).label()
            == "T direct"
        )

    def test_task_validation(self):
        with pytest.raises(ConfigError):
            butterfly_task(source_text="   ")
        with pytest.raises(ConfigError):
            butterfly_task(target_lang=Language.EN)
        with pytest.raises(ConfigError):
            butterfly_task(required_count=0)


STAGED, DIRECT = PromptStyle.STAGED, PromptStyle.DIRECT

# every variant: (style, use_syllable_list, use_refine, use_audio, use_video),
# its label and the SHA-256 of its prompt for butterfly_task()
VARIANT_PROMPTS = [
    ((STAGED, False, False, False, False), "T nolist+norefine",
     "35272fcb7a2749c9508bb0a01d2b7a26959200146341c13c625683b3c189a084"),
    ((STAGED, False, False, False, True), "T+V nolist+norefine",
     "f8bed94fbbe11215a50182b511d1da9347af120748e426a092bc0afbba4faa2b"),
    ((STAGED, False, False, True, False), "T+A nolist+norefine",
     "cf468da8902efb24ebab37ec8ee1e52185356d7a75713aeb191cfceffff26b50"),
    ((STAGED, False, False, True, True), "T+A+V nolist+norefine",
     "609b39adb160ef5613adf829715cd2ad7d6ab788fd2afbc1c6b18de91a15ecc2"),
    ((STAGED, False, True, False, False), "T nolist+refine",
     "d71e00ebbc9f3e07ff15af63c8ce5d7a9ed73ab31d12d37cd6f4c543a14a5da2"),
    ((STAGED, False, True, False, True), "T+V nolist+refine",
     "1c78a5a66b34e42d6db0320619423c3addd9e343bdd36de87f31ff792d1be72d"),
    ((STAGED, False, True, True, False), "T+A nolist+refine",
     "953650f075580b0be49d232cffe3392f8f1bc270078530434bfad99b2f4399be"),
    ((STAGED, False, True, True, True), "T+A+V nolist+refine",
     "de44f42c169440a6b0be9d1b5bcb7110e15c0f60c53da703738e97e8da6484fd"),
    ((STAGED, True, False, False, False), "T list+norefine",
     "e191c9c20973533a4807b58e6c9dca1cb5782a4bb7990bfbb49796b38c36b721"),
    ((STAGED, True, False, False, True), "T+V list+norefine",
     "10470d601fb4ddca17a2363b4136c120e9ee534db4ec824cd09a5469c02dd75d"),
    ((STAGED, True, False, True, False), "T+A list+norefine",
     "7a88abc94865a1c915a2f1b5d65db471d4500d99deb7d5f448992c1e97256090"),
    ((STAGED, True, False, True, True), "T+A+V list+norefine",
     "f4ef0c0066e4e30c89960ee9692fc5115d3fc5fefd77fdfbbeabd28ca539687c"),
    ((STAGED, True, True, False, False), "T list+refine",
     "6cc95a9c0636e94644952eb903e8d6d8d4dea2d2a543b613354e08ecdba16772"),
    ((STAGED, True, True, False, True), "T+V list+refine",
     "19efc40c36a9390f881ccd7a08a52043b13ad684f75b1e295b6841eab59fe873"),
    ((STAGED, True, True, True, False), "T+A list+refine",
     "dd2373a07f1f38b0109cfc5913b5b0d21c0b0dbfe3c121f0e932e33949451be5"),
    ((STAGED, True, True, True, True), "T+A+V list+refine",
     "9616de396ce968e1ef642a913ec71328eb711b1c4fd844dca885ce08620127fe"),
    ((DIRECT, False, False, False, False), "T direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, False, False, False, True), "T+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, False, False, True, False), "T+A direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, False, False, True, True), "T+A+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, False, True, False, False), "T direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, False, True, False, True), "T+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, False, True, True, False), "T+A direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, False, True, True, True), "T+A+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, False, False, False), "T direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, False, False, True), "T+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, False, True, False), "T+A direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, False, True, True), "T+A+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, True, False, False), "T direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, True, False, True), "T+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, True, True, False), "T+A direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
    ((DIRECT, True, True, True, True), "T+A+V direct",
     "c4dcbf8e3e3eb21dffd7f799342747727989b50663cd5b1642474214cf22f8c6"),
]


def substitute(text, task):
    """The reference rendering: each placeholder of ``text`` replaced in
    one pass, so a replacement is never read for placeholders."""
    values = {
        "source_lang": task.source_lang.display_name,
        "target_lang": task.target_lang.display_name,
        "syllable_count": str(task.required_count),
        "source_text": task.source_text,
    }
    return pipeline._PLACEHOLDER.sub(lambda m: values[m.group(1)], text)


class TestBuildPrompt:
    def test_full_variant_has_all_step_headers(self):
        prompt = build_prompt(butterfly_task(), PipelineVariant(**TAV))
        assert f"1. {STEP1_FULL}" in prompt
        assert f"2. {STEP2_FULL} Utilizing the Video Information" in prompt
        assert f"3. {STEP3}" in prompt
        assert f"4. {STEP4}" in prompt
        assert "Real Syllable Count: 6" in prompt
        assert "And there's a butterfly" in prompt
        assert "English" in prompt and "Korean" in prompt

    def test_example_payload_braces_survive_substitution(self):
        prompt = build_prompt(butterfly_task(), PipelineVariant(**TAV))
        assert '{"translation": "final translation text"}' in prompt
        assert "{source_text}" not in prompt
        assert "{syllable_count}" not in prompt

    def test_no_refine_drops_step_three_and_renumbers(self):
        prompt = build_prompt(
            butterfly_task(), PipelineVariant(use_refine=False, **TAV)
        )
        assert STEP3 not in prompt
        assert f"3. {STEP4}" in prompt
        assert f"4. {STEP4}" not in prompt

    def test_no_syllable_list_drops_segmentation_machinery(self):
        prompt = build_prompt(
            butterfly_task(), PipelineVariant(use_syllable_list=False, **TAV)
        )
        assert STEP1_FULL not in prompt
        assert "1. Identify the Core Lyric" in prompt
        assert "Syllable List" not in prompt
        assert "syllable list" not in prompt
        assert "Real Syllable Count: 6" in prompt

    def test_minimal_variant(self):
        prompt = build_prompt(
            butterfly_task(),
            PipelineVariant(use_syllable_list=False, use_refine=False, **TEXT),
        )
        assert STEP1_FULL not in prompt
        assert STEP3 not in prompt
        assert "1. Identify the Core Lyric" in prompt
        assert f"3. {STEP4}" in prompt
        assert "4. " not in prompt
        assert "Real Syllable Count: 6" in prompt

    def test_text_only_drops_media_sentences(self):
        prompt = build_prompt(butterfly_task(), PipelineVariant(**TEXT))
        assert "audio" not in prompt.lower()
        assert "video" not in prompt.lower()
        assert "Read carefully to the provided lyrics" in prompt
        assert f"2. {STEP2_FULL}\n" in prompt

    def test_audio_only_keeps_audio_sentences(self):
        prompt = build_prompt(butterfly_task(), PipelineVariant(**TA))
        assert "Listen carefully to the provided audio" in prompt
        assert "video" not in prompt.lower()
        assert "in context with the audio" in prompt

    def test_video_only_keeps_video_sentences(self):
        prompt = build_prompt(butterfly_task(), PipelineVariant(**TV))
        assert "Utilizing the Video Information" in prompt
        assert "audio" not in prompt.lower()
        assert "in context with the video" in prompt

    def test_direct_style_has_no_steps(self):
        prompt = build_prompt(
            butterfly_task(), PipelineVariant(style=PromptStyle.DIRECT)
        )
        assert STEP1_FULL not in prompt
        assert STEP3 not in prompt
        assert "Match the syllable count of the original lyric" in prompt
        assert "Real Syllable Count: 6" in prompt

    def test_deterministic(self):
        variant = PipelineVariant(**TAV)
        assert build_prompt(butterfly_task(), variant) == build_prompt(
            butterfly_task(), variant
        )

    def test_cached_variant_text_equals_a_fresh_render(self):
        # a value that spells a placeholder is filled in, never filled again
        placeholder_task = butterfly_task(
            source_text="sing {source_text} in {target_lang}", target_lang=Language.JA
        )
        for style, use_list, use_refine, audio, video in itertools.product(
            PromptStyle, (True, False), (True, False), (False, True), (False, True)
        ):
            variant = PipelineVariant(use_list, use_refine, audio, video, style)
            flags = {
                "audio": audio,
                "video": video,
                "syllable_list": use_list,
                "refine": use_refine,
            }
            rendered = pipeline._render(pipeline._template_text(style), flags)
            rendered = re.sub(r"\n{3,}", "\n\n", rendered).strip("\n") + "\n"
            for task in (butterfly_task(), remember_task(), butterfly_task(), placeholder_task):
                assert build_prompt(task, variant) == substitute(rendered, task)

    def test_every_variant_prompt_and_label_is_pinned(self):
        assert len({switches for switches, _, _ in VARIANT_PROMPTS}) == 32
        for (style, *switches), label, digest in VARIANT_PROMPTS:
            variant = PipelineVariant(*switches, style=style)
            prompt = build_prompt(butterfly_task(), variant)
            assert variant.label() == label
            assert hashlib.sha256(prompt.encode("utf-8")).hexdigest() == digest, label

    def test_unknown_template_flag_raises_on_every_call(self, monkeypatch):
        monkeypatch.setattr(
            pipeline, "_template_text", lambda style: "%if bogus\nline\n%endif\n"
        )
        pipeline._variant_prompt.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(ConfigError, match="unknown flag 'bogus'"):
                    build_prompt(butterfly_task(), PipelineVariant())
        finally:
            pipeline._variant_prompt.cache_clear()


class TestParseTrace:
    """translate_line reads a reply for its last {"translation": ...} payload only."""

    @staticmethod
    def read(reply, **task_overrides):
        return translate_line(
            butterfly_task(**task_overrides), PipelineVariant(**TEXT),
            RecordingProvider([reply]), max_reprompts=0,
        )

    def test_last_payload_wins(self):
        # the earlier draft meets the count, but only the last payload is read
        raw = '{"translation": "나비가 날아와"}\nwait, better:\n{"translation": "나비"}'
        result = self.read(raw)
        assert result.translation == "나비"
        assert result.constraint_met is False

    def test_instruction_example_payload_is_skipped_in_favor_of_answer(self):
        raw = (
            'Format: {"translation": "final translation text"}\n'
            'Answer: {"translation": "나비가 날아와"}'
        )
        assert self.read(raw).translation == "나비가 날아와"

    def test_missing_payload_raises(self):
        with pytest.raises(PipelineError, match="no parsable final answer in 1"):
            self.read("no payload here, just prose")

    def test_payload_with_extra_keys_not_a_final_answer(self):
        with pytest.raises(PipelineError, match="no parsable final answer in 1"):
            self.read('{"translation": "x", "note": "y"}')

    def test_braces_inside_the_translation(self):
        raw = 'Draft: {"translation": "나비"}\nFinal: {"translation": "나비 {날아} 와"}'
        assert self.read(raw, required_count=5).translation == "나비 {날아} 와"

    def test_an_undecodable_last_payload_falls_back_to_the_one_before(self):
        raw = '{"translation": "first"} then {"translation": "bad \\x"}'
        assert pipeline._final_payload(raw) == "first"


class TestTranslateLine:
    def test_single_attempt_success(self):
        provider = RecordingProvider([BUTTERFLY_TRACE])
        result = translate_line(
            butterfly_task(), PipelineVariant(**TAV), provider
        )
        assert result.translation == "나비가 날아와"
        assert result.achieved_count == 6
        assert result.constraint_met is True
        assert result.attempts == 1

    @pytest.mark.parametrize("translation, task, counted", [
        ("나비가 날아와", butterfly_task(), (6, True)),
        ("", butterfly_task(), (0, False)),
        ("날 잊지 마", remember_task(), (4, False)),
        ("나비가\n날아와", butterfly_task(), (6, True)),
    ], ids=["exact", "empty", "short", "multiline"])
    def test_the_answer_is_counted_as_count_syllables_does(self, translation, task, counted):
        provider = RecordingProvider([json.dumps({"translation": translation})])
        result = translate_line(task, PipelineVariant(**TEXT), provider,
                                max_reprompts=0)
        assert (result.achieved_count, result.constraint_met) == counted

    def test_miss_then_hit_takes_two_attempts(self):
        provider = RecordingProvider([REMEMBER_TURN_1, REMEMBER_TURN_2])
        result = translate_line(
            remember_task(), PipelineVariant(**TV), provider
        )
        assert result.attempts == 2
        assert result.constraint_met is True
        assert result.translation == "날 잊지 마 슬퍼하지는 마"
        assert result.achieved_count == 10

    def test_corrective_turn_states_counts_and_keeps_context(self):
        provider = RecordingProvider([REMEMBER_TURN_1, REMEMBER_TURN_2])
        translate_line(remember_task(), PipelineVariant(**TV), provider)
        second_prompt = provider.requests[1].prompt_text
        assert "has 9 syllables" in second_prompt
        assert "required syllable count is 10" in second_prompt
        assert REMEMBER_TURN_1.strip() in second_prompt
        assert second_prompt.startswith(provider.requests[0].prompt_text)

    def test_all_attempts_malformed_raises_with_trace(self):
        provider = RecordingProvider(["no json 1", "no json 2", "no json 3"])
        with pytest.raises(PipelineError) as excinfo:
            translate_line(
                remember_task(), PipelineVariant(**TEXT), provider,
                max_reprompts=2,
            )
        assert len(provider.requests) == 3
        assert "no parsable final answer in 3" in str(excinfo.value)

    def test_malformed_reprompt_mentions_format(self):
        provider = RecordingProvider(["not json", '{"translation": "나비가 날아와"}'])
        result = translate_line(
            butterfly_task(), PipelineVariant(**TEXT), provider
        )
        assert result.attempts == 2
        assert result.constraint_met is True
        assert "single JSON" in provider.requests[1].prompt_text

    def test_lone_surrogate_reply_is_a_provider_error_not_a_reprompt(self):
        # a reprompt would carry the reply, which request_digest cannot encode
        provider = RecordingProvider(["no payload \ud800", '{"translation": "나비가 날아와"}'])
        with pytest.raises(ProviderError, match="U\\+D800"):
            translate_line(butterfly_task(), PipelineVariant(**TEXT), provider)
        assert len(provider.requests) == 1

    def test_lone_surrogate_payload_gets_the_format_feedback(self):
        # plain ASCII on the wire, so the reply passes the surrogate check;
        # quoted into the next prompt, the decoded text could not be hashed
        provider = RecordingProvider(
            ['{"translation": "\\ud800 나"}', '{"translation": "나비가 날아와"}'])
        result = translate_line(butterfly_task(), PipelineVariant(**TEXT), provider)
        assert (result.translation, result.attempts, result.constraint_met) == (
            "나비가 날아와", 2, True)
        assert provider.requests[1].prompt_text.endswith(pipeline._FORMAT_FEEDBACK)

    def test_lone_surrogate_payload_never_meets_the_count(self):
        # "\ud800나비가날아와요" counts 7, the count of this line
        task = butterfly_task(source_text="Butterfly come to me now", required_count=7)
        provider = RecordingProvider(['{"translation": "\\ud800나비가날아와요"}'] * 3)
        with pytest.raises(PipelineError, match="no parsable final answer in 3"):
            translate_line(task, PipelineVariant(**TEXT), provider)

    def test_best_attempt_when_nothing_hits(self):
        provider = RecordingProvider(
            [
                '{"translation": "날"}',          # 1 syllable, off by 5
                '{"translation": "나비가 날아"}',  # 5 syllables, off by 1
                '{"translation": "나"}',          # 1 syllable again
            ]
        )
        result = translate_line(
            butterfly_task(), PipelineVariant(**TEXT), provider,
            max_reprompts=2,
        )
        assert result.attempts == 3
        assert result.constraint_met is False
        assert result.translation == "나비가 날아"
        assert result.achieved_count == 5
        gaps = [abs(5 - 6), abs(1 - 6)]
        assert abs(result.achieved_count - 6) <= min(gaps)

    def test_ties_prefer_earliest_attempt(self):
        provider = RecordingProvider(
            ['{"translation": "나비가 날아"}', '{"translation": "날아와 나비"}',
             '{"translation": "한"}']
        )
        result = translate_line(
            butterfly_task(), PipelineVariant(**TEXT), provider,
            max_reprompts=2,
        )
        assert result.translation == "나비가 날아"

    def test_achieved_count_ignores_model_claims(self):
        # reply asserts 6 syllables but the text has 4; we recount locally
        raw = 'I count 6 syllables. {"translation": "날 잊지 마"}'
        provider = RecordingProvider([raw, raw, raw])
        result = translate_line(
            remember_task(), PipelineVariant(**TEXT), provider,
            max_reprompts=2,
        )
        assert result.achieved_count == 4
        assert result.constraint_met is False

    def test_media_filtered_by_variant_and_widened(self):
        audio = MediaAttachment(MediaKind.AUDIO, "a.wav", time_span=(10.0, 14.0))
        video = MediaAttachment(MediaKind.VIDEO, "v.mp4", time_span=(10.0, 14.0))
        task = butterfly_task(media=(audio, video))
        provider = RecordingProvider([BUTTERFLY_TRACE])
        translate_line(task, PipelineVariant(**TA), provider)
        sent = provider.requests[0].media
        assert len(sent) == 1
        assert sent[0].kind is MediaKind.AUDIO
        assert sent[0].time_span == (8.0, 16.0)

    def test_media_resend_flag(self):
        audio = MediaAttachment(MediaKind.AUDIO, "a.wav", time_span=(1.0, 2.0))
        task = butterfly_task(media=(audio,))
        responses = ["not json", BUTTERFLY_TRACE]
        provider = RecordingProvider(list(responses))
        translate_line(task, PipelineVariant(**TA), provider)
        assert provider.requests[0].media and provider.requests[1].media

    def test_brace_in_translation_accepted_on_first_attempt(self):
        provider = RecordingProvider(['{"translation": "나비 {날아} 와"}'])
        result = translate_line(
            butterfly_task(required_count=5), PipelineVariant(**TEXT),
            provider,
        )
        assert result.translation == "나비 {날아} 와"
        assert result.attempts == 1
        assert result.constraint_met is True

    def test_uncountable_answer_is_reprompted_with_the_error(self):
        provider = RecordingProvider(
            ['{"translation": "나비 1000000"}', '{"translation": "나비가 날아와"}']
        )
        result = translate_line(
            butterfly_task(), PipelineVariant(**TEXT), provider
        )
        assert result.translation == "나비가 날아와"
        assert result.attempts == 2
        second_prompt = provider.requests[1].prompt_text
        assert "could not be counted" in second_prompt
        assert "1000000" in second_prompt

    def test_only_uncountable_answers_is_pipeline_error(self):
        provider = RecordingProvider(['{"translation": "나비 1000000"}'] * 3)
        with pytest.raises(PipelineError, match="no countable final answer in 3"):
            translate_line(
                butterfly_task(), PipelineVariant(**TEXT), provider,
                max_reprompts=2,
            )

    def test_deeply_nested_reply_is_pipeline_error(self):
        provider = RecordingProvider(['{"a":' * 5000] * 2)
        with pytest.raises(PipelineError, match="no parsable final answer in 2"):
            translate_line(
                butterfly_task(), PipelineVariant(**TEXT), provider,
                max_reprompts=1,
            )

    def test_payload_after_deep_nesting_is_found(self):
        reply = '{"a":' * 5000 + '\n{"translation": "나비가 날아와"}'
        result = translate_line(
            butterfly_task(), PipelineVariant(**TEXT),
            RecordingProvider([reply]),
        )
        assert result.translation == "나비가 날아와"
        assert result.attempts == 1

    @given(
        st.one_of(
            st.text(),
            st.integers(1, 5000).map(lambda n: '{"a":' * n),
            st.integers(1, 5000).map(lambda n: '{"translation":' * n),
            st.text().map(lambda t: json.dumps({"translation": t}, ensure_ascii=False)),
            # ASCII JSON whose escapes decode to lone surrogates
            st.text(st.characters() | st.sampled_from("\ud800\udfff")).map(
                lambda t: json.dumps({"translation": t})),
            st.integers(0, 10**12).map(
                lambda n: json.dumps({"translation": f"나비 {n}"}, ensure_ascii=False)
            ),
        )
    )
    @example("1" * 5000)
    @example("나비 " + "1" * 5000)
    @example(json.dumps({"translation": "1" * 5000}))
    @example('{"translation": "\\ud800 나"}')
    @example(json.dumps({"translation": "나비 " + "1" * 5000}, ensure_ascii=False))
    def test_any_reply_returns_or_raises_pipeline_error(self, reply):
        provider = RecordingProvider([reply] * 3)
        try:
            result = translate_line(
                butterfly_task(), PipelineVariant(**TEXT), provider,
                max_reprompts=2,
            )
        except PipelineError:
            return
        assert result.achieved_count == count_syllables(Language.KO, result.translation)

    def test_mock_determinism(self):
        def run():
            provider = RecordingProvider([REMEMBER_TURN_1, REMEMBER_TURN_2])
            return translate_line(
                remember_task(), PipelineVariant(**TV), provider
            )

        assert run() == run()


class TestRequestDigests:
    """The digests a translate traces, each byte of a conversation hashed
    once, are those of the requests the provider received."""

    @pytest.mark.parametrize("media", [
        (),
        (MediaAttachment(MediaKind.AUDIO, "clip.wav", (1.0, 2.5)),
         MediaAttachment(MediaKind.VIDEO, "clip.mp4")),
    ], ids=["text", "audio-and-video"])
    def test_two_reprompts(self, tmp_path, media):
        # a count miss, then no payload, then the answer
        provider = RecordingProvider(
            ['{"translation": "날"}', "no payload", '{"translation": "날 잊지 마 슬퍼하지는 마"}'])
        store = TraceStore(str(tmp_path / "trace.jsonl"))
        result = translate_line(remember_task(media=media), PipelineVariant(**TAV),
                                provider, trace_store=store)
        store.close()
        assert result.attempts == 3
        assert all(len(r.media) == len(media) for r in provider.requests)
        with open(store.path, encoding="utf-8") as fh:
            traced = [json.loads(line)["request_digest"] for line in fh]
        assert traced == [request_digest(r) for r in provider.requests]
        assert len(set(traced)) == 3
