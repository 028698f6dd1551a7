"""Syllable-constrained translation loop.

A line is translated by prompting a model through a staged recipe: segment
the source line into syllables, draft a target-language syllable list of the
same length, refine it, then emit a single JSON payload with the final text.
Only that final payload is read from a reply; the working before it (the
syllable lists) reaches the trace file verbatim and is never parsed.  The
model's claimed counts are never trusted; we recount every candidate with
the syllable module and re-prompt (up to a bound) whenever the count misses,
the text cannot be counted, or the payload is missing.

Prompts are assembled from text templates shipped with the package.  The
templates carry a tiny conditional syntax so one file covers every variant:

    %if NAME ... %else ... %endif   include lines when flag NAME is set
    %step                           the next step number (renumbers when
                                    earlier steps are switched off)

Flag names available to templates: audio, video, syllable_list, refine.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .errors import ConfigError, NumberRangeError, PipelineError
from .languages import Language, surrogate_problem
from .providers import (
    GenerationProvider,
    GenerationRequest,
    MediaAttachment,
    MediaKind,
    PromptDigest,
    TraceStore,
    generate,
)
from .records import Checked
from .syllables import count_syllables

__all__ = [
    "PromptStyle",
    "PipelineVariant",
    "TranslationTask",
    "TranslationResult",
    "build_prompt",
    "translate_line",
]


class PromptStyle(Enum):
    """STAGED walks the model through numbered steps; DIRECT asks in one go."""

    STAGED = "staged"
    DIRECT = "direct"


class PipelineVariant(NamedTuple):
    """The recipe's four switches and its prompt style.  Text is always read;
    ``use_audio`` and ``use_video`` add the line's media of that kind."""

    use_syllable_list: bool = True
    use_refine: bool = True
    use_audio: bool = False
    use_video: bool = False
    style: PromptStyle = PromptStyle.STAGED

    def label(self) -> str:
        """Short tag for report rows, e.g. 'T+A+V list+refine'."""
        mods = "T" + "+A" * self.use_audio + "+V" * self.use_video
        if self.style is PromptStyle.DIRECT:
            return f"{mods} direct"
        stages = ("list" if self.use_syllable_list else "nolist") + "+" + (
            "refine" if self.use_refine else "norefine"
        )
        return f"{mods} {stages}"


class _TranslationTask(NamedTuple):
    source_text: str
    source_lang: Language
    target_lang: Language
    required_count: int
    media: tuple[MediaAttachment, ...] = ()
    task_id: str = ""


class TranslationTask(Checked, _TranslationTask):
    __slots__ = ()

    def _validated(self):
        if not self.source_text.strip():
            raise ConfigError("task needs non-empty source text")
        if self.source_lang is self.target_lang:
            raise ConfigError("source and target language must differ")
        if self.required_count < 1:
            raise ConfigError("required_count must be positive")
        return self


class TranslationResult(NamedTuple):
    task: TranslationTask
    translation: str
    achieved_count: int
    constraint_met: bool
    attempts: int


# ---------------------------------------------------------------------------
# Prompt assembly


_PLACEHOLDER = re.compile(r"\{(source_lang|target_lang|syllable_count|source_text)\}")
_DIRECTIVE = re.compile(r"^%(if|else|endif)\b\s*(\S*)\s*$")


@lru_cache(maxsize=None)
def _template_text(style: PromptStyle) -> str:
    name = f"{style.value}.txt"
    return (resources.files("mavl") / "templates" / name).read_text(encoding="utf-8")


def _render(template: str, flags: dict[str, bool]) -> str:
    out: list[str] = []
    # each stack frame: (parent_emitting, branch_taken, in_else)
    stack: list[list[bool]] = []
    emitting = True
    for line in template.splitlines():
        m = _DIRECTIVE.match(line)
        if m is None:
            if emitting:
                out.append(line)
            continue
        kind, arg = m.group(1), m.group(2)
        if kind == "if":
            if arg not in flags:
                raise ConfigError(f"template references unknown flag {arg!r}")
            stack.append([emitting, flags[arg], False])
            emitting = emitting and flags[arg]
        elif kind == "else":
            if not stack or stack[-1][2]:
                raise ConfigError("%else without matching %if")
            stack[-1][2] = True
            emitting = stack[-1][0] and not stack[-1][1]
        else:  # endif
            if not stack:
                raise ConfigError("%endif without matching %if")
            parent, _, _ = stack.pop()
            emitting = parent
    if stack:
        raise ConfigError("unterminated %if in template")

    # number the surviving steps in order
    text = "\n".join(out)
    counter = iter(range(1, text.count("%step") + 1))
    return re.sub(r"%step", lambda _m: str(next(counter)), text)


def build_prompt(task: TranslationTask, variant: PipelineVariant) -> str:
    parts = list(_variant_prompt(variant, task.source_lang, task.target_lang))
    values = {
        "source_lang": task.source_lang.display_name,
        "target_lang": task.target_lang.display_name,
        "syllable_count": str(task.required_count),
        "source_text": task.source_text,
    }
    parts[1::2] = [values[name] for name in parts[1::2]]
    return "".join(parts)


# the placeholders whose values differ between tasks of one language pair
_TASK_SLOTS = ("syllable_count", "source_text")


@lru_cache(maxsize=None)
def _variant_prompt(
    variant: PipelineVariant, source_lang: Language, target_lang: Language
) -> tuple[str, ...]:
    """A variant's prompt for one language pair, split at its placeholders:
    text and placeholder names alternate, text first and last.  The first
    text is the head, which every prompt of the pair starts with: all the
    text before the first task slot, with the languages filled in.  It
    depends on nothing else, and a value filled into a name slot is never
    read for placeholders."""
    flags = {
        "audio": variant.use_audio,
        "video": variant.use_video,
        "syllable_list": variant.use_syllable_list,
        "refine": variant.use_refine,
    }
    rendered = _render(_template_text(variant.style), flags)
    # collapse the blank-line runs left behind by removed blocks
    rendered = re.sub(r"\n{3,}", "\n\n", rendered).strip("\n") + "\n"
    parts = _PLACEHOLDER.split(rendered)
    names = parts[1::2]
    first = next((i for i, name in enumerate(names) if name in _TASK_SLOTS), len(names))
    languages = {"source_lang": source_lang.display_name,
                 "target_lang": target_lang.display_name}
    parts[1:2 * first:2] = [languages[name] for name in names[:first]]
    return ("".join(parts[: 2 * first + 1]), *parts[2 * first + 1 :])


# ---------------------------------------------------------------------------
# Reading a reply


# A payload is {"translation": <string>} with JSON whitespace around the parts.
_PAYLOAD_OPEN = re.compile(r'\{[ \t\n\r]*"translation"[ \t\n\r]*:[ \t\n\r]*(?=")')
_PAYLOAD_CLOSE = re.compile(r"[ \t\n\r]*\}")
_DECODER = json.JSONDecoder()


def _final_payload(raw: str) -> str | None:
    """The LAST well-formed {"translation": ...} object, or None.

    Last, not first: staged prompts contain an example payload inside the
    instructions, and models frequently restate before the real answer.
    Only the string value is JSON-decoded, so braces inside it do not hide
    the payload, and no reply costs more than one pass over its strings.
    A value that decodes to a lone surrogate (``"\\ud800"``) is not
    well-formed: UTF-8 cannot carry it into the next prompt or the outputs.
    """
    for opening in reversed(list(_PAYLOAD_OPEN.finditer(raw))):
        try:
            value, end = _DECODER.raw_decode(raw, opening.end())
        except json.JSONDecodeError:
            continue
        if _PAYLOAD_CLOSE.match(raw, end) and not surrogate_problem(value):
            return value
    return None


# ---------------------------------------------------------------------------
# The refinement loop


def _count_feedback(task: TranslationTask, count: int, text: str) -> str:
    return (
        f'Your final translation "{text}" has {count} syllables, '
        f"but the required syllable count is {task.required_count}. Please revise "
        f"the translation so that it contains exactly {task.required_count} "
        "syllables, and output the final result as a single JSON in the same format."
    )


def _uncountable_feedback(text: str, exc: NumberRangeError) -> str:
    return (
        f'The syllables of your final translation "{text}" could not be counted: '
        f"{exc}. Please write every number out in words, and output the final "
        "result as a single JSON in the same format."
    )


# Seconds of context added on each side of a line's media span.
MEDIA_MARGIN_S = 2.0

_FORMAT_FEEDBACK = (
    "Your previous response did not contain the final result as a single JSON "
    'object. Please output the final result in the format '
    '{"translation": "final translation text"}.'
)


def translate_line(
    task: TranslationTask,
    variant: PipelineVariant,
    provider: GenerationProvider,
    *,
    max_reprompts: int = 2,
    trace_store: TraceStore | None = None,
) -> TranslationResult:
    """Translate one line, re-prompting until the syllable count lands.

    The loop issues at most ``1 + max_reprompts`` model calls.  A miss (wrong
    count, an answer that cannot be counted, or no parsable payload) appends
    the model's reply and a corrective instruction to the running prompt, so
    refinement happens in context, and every call carries the line's media.
    The returned answer is the best one seen: the smallest count gap,
    earliest attempt on ties; one that meets the constraint ends the loop.
    """
    if max_reprompts < 0:
        raise ConfigError("max_reprompts must be >= 0")

    media = tuple(
        m.widened(MEDIA_MARGIN_S)
        for m in task.media
        if (m.kind is MediaKind.AUDIO and variant.use_audio)
        or (m.kind is MediaKind.VIDEO and variant.use_video)
    )

    conversation = build_prompt(task, variant)
    head = _variant_prompt(variant, task.source_lang, task.target_lang)[0]
    digests = PromptDigest(media, head)
    added = conversation[len(head) :]  # what the digests have not hashed
    best: tuple[int, str, int] | None = None  # gap, text, count
    uncountable = False

    for attempt in range(1, max_reprompts + 2):
        request = GenerationRequest(prompt_text=conversation, media=media)
        raw = generate(
            request,
            provider,
            trace=trace_store,
            task_id=task.task_id or task.source_text,
            digest=digests.extend(added),
        )
        final = _final_payload(raw)
        if final is None:
            feedback = _FORMAT_FEEDBACK
        else:
            stripped = final.strip()
            try:
                count = count_syllables(task.target_lang, stripped)
            except NumberRangeError as exc:
                # an answer that cannot be counted cannot meet the constraint
                uncountable = True
                feedback = _uncountable_feedback(stripped, exc)
            else:
                gap = abs(count - task.required_count)
                if best is None or gap < best[0]:
                    best = (gap, stripped, count)
                if not gap:
                    break
                feedback = _count_feedback(task, count, stripped)
        added = f"\n\n{raw}\n\n{feedback}"
        conversation += added

    if best is None:
        problem = "countable" if uncountable else "parsable"
        raise PipelineError(f"no {problem} final answer in {attempt} attempt(s)")
    gap, text, count = best
    return TranslationResult(
        task=task,
        translation=text,
        achieved_count=count,
        constraint_met=not gap,
        attempts=attempt,
    )
