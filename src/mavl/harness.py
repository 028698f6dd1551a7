"""Run orchestration: translate, evaluate, ablate, and stats workflows.

This module owns everything between the command line and the library calls:
loading datasets, constructing providers, fanning out line-level work,
collecting failures without aborting the run, and writing results to disk.

Output layout.  Each command's run gets its own directory under the configured
output root, named ``<op>-<digest>`` where the digest is a content hash of the
run settings it reads, which its ``config.json`` holds from the start;
rerunning with the same ones appends ``-2``, ``-3``, so evidence from earlier
runs is never clobbered.  An ablate writes each case in a ``<label>/`` folder of
its own directory.  Files are written to a temporary name and renamed into
place, and none of them embed timestamps, which keeps repeated runs
byte-comparable.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

from . import syllables
from .dataset import (
    Dataset,
    LineKey,
    LyricLine,
    SongEntry,
    StatsReport,
    dataset_stats,
    parse_dataset,
)
from .errors import (
    ConfigError,
    DatasetValidationError,
    MavlError,
    NumberRangeError,
    PipelineError,
    ProviderAuthError,
    ProviderError,
)
from .languages import BOM, Language, surrogate_problem
from .metrics import (
    CorpusReport,
    LinePair,
    LineScorer,
    ReferenceKind,
    ReportFold,
    SyllableErrorParams,
    aggregate,
)
from .pipeline import (
    PipelineVariant,
    PromptStyle,
    TranslationTask,
    translate_line,
)
from .providers import (
    EmbeddingRequest,
    HashEmbeddingProvider,
    MediaAttachment,
    MediaKind,
    RemoteProvider,
    ScriptedProvider,
    TraceStore,
    embed,
    map_bounded,
    sha256,
)
from .records import Checked
from .reports import (
    EvaluationRow,
    dump_json,
    render_report_table,
    render_stats_table,
    report_payload,
    report_to_json,
    rows_to_csv,
)

__all__ = [
    "RunConfig",
    "HypothesisSet",
    "ThresholdExceededError",
    "TranslateOutcome",
    "EvaluateOutcome",
    "AblateOutcome",
    "cmd_translate",
    "cmd_evaluate",
    "cmd_ablate",
    "cmd_stats",
    "load_mock_script",
    "atomic_write",
]


class ThresholdExceededError(MavlError):
    """More lines failed than the configured tolerance allows."""


class _RunConfig(NamedTuple):
    dataset_path: str
    target_langs: tuple[Language, ...] = ()
    variant: PipelineVariant = PipelineVariant()
    provider: str = "mock"
    mock_script: str | None = None
    endpoint: str | None = None
    model_id: str | None = None
    api_key_env: str = "MAVL_API_KEY"
    beta: float = 2.0
    out_dir: str = "runs"
    parallelism: int = 1
    max_reprompts: int = 2
    failure_threshold: float = 0.5


class RunConfig(Checked, _RunConfig):
    __slots__ = ()

    def _validated(self):
        if not (math.isfinite(self.beta) and self.beta >= 1):
            raise ConfigError(f"beta must be finite and >= 1, got {self.beta}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.max_reprompts < 0:
            raise ConfigError("max_reprompts must be >= 0")
        if not 0.0 <= self.failure_threshold <= 1.0:
            raise ConfigError("failure_threshold must be within [0, 1]")
        if self.provider not in {"mock", "remote"}:
            raise ConfigError(f"unknown provider kind {self.provider!r}")
        if self.provider == "remote":
            if not (self.endpoint and self.model_id):
                raise ConfigError("remote provider needs an endpoint and a model id")
        if Language.EN in self.target_langs:
            raise ConfigError("EN is the source language and cannot be a target")
        if len(set(self.target_langs)) != len(self.target_langs):
            raise ConfigError("a target language is given more than once")
        return self


# the settings each command leaves out of its config.json and its run digest:
# the key and the output root, which change no output, and those it does not read
_UNREAD = {
    "translate": {"api_key_env", "out_dir", "beta"},
    "evaluate": {"api_key_env", "out_dir", "variant", "mock_script", "parallelism",
                 "max_reprompts", "failure_threshold"},
    "ablate": {"api_key_env", "out_dir", "failure_threshold"},
}


def _config_payload(config: RunConfig, op: str, **inputs: str) -> dict:
    """Every setting ``op`` reads, as JSON values, with ``inputs``, what it
    reads that ``RunConfig`` does not hold; both writers sort the keys."""
    variant = config.variant
    payload = {
        **config._asdict(),
        "dataset_path": os.path.abspath(config.dataset_path),
        "target_langs": [lang.value for lang in config.target_langs],
        "variant": {**variant._asdict(), "style": variant.style.value},
    }
    return {key: value for key, value in payload.items() if key not in _UNREAD[op]} | inputs


def config_digest(config: RunConfig, op: str, **inputs: str) -> str:
    blob = json.dumps(_config_payload(config, op, **inputs), sort_keys=True)
    return sha256(blob.encode("utf-8")).hexdigest()[:10]


def make_run_dir(config: RunConfig, op: str, **inputs: str) -> Path:
    """A new directory for a run of ``op``, its ``config.json`` written first."""
    base = Path(config.out_dir)
    stem = f"{op}-{config_digest(config, op, **inputs)}"
    candidate = base / stem
    suffix = 1
    try:
        base.mkdir(parents=True, exist_ok=True)
        # claimed by mkdir alone: a directory that another run makes first
        # moves this one on to the next suffix
        while True:
            try:
                candidate.mkdir()
                break
            except FileExistsError:
                suffix += 1
                candidate = base / f"{stem}-{suffix}"
    except OSError as exc:
        raise ConfigError(f"cannot make a run directory in {base}: {exc}") from None
    payload = _config_payload(config, op, **inputs)
    atomic_write(candidate / "config.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return candidate


@contextmanager
def _atomic_file(path: Path) -> Iterator[TextIO]:
    """A sibling temp file to write, renamed over ``path`` once the block
    completes, so readers never see halves.  It is made as ``open`` makes
    any file, so its mode follows the umask."""
    path = Path(path)
    tmp_name = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_name, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` via a sibling temp file and rename."""
    with _atomic_file(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Hypothesis sets

class HypothesisSet:
    """Translated texts keyed by the line they translate.

    ``provenance`` names where the texts came from: a model identifier for
    pipeline output, or "human" when the dubbed references themselves are
    loaded for the human-baseline rows.
    """

    def __init__(self, provenance: str, entries: dict[LineKey, str] | None = None):
        self.provenance = provenance
        self.entries = {} if entries is None else entries

    def __eq__(self, other) -> bool:
        return isinstance(other, HypothesisSet) and vars(self) == vars(other)

    def jsonl_lines(self) -> Iterator[str]:
        """The lines of ``hypotheses.jsonl``: the provenance, then one record
        per line in line order."""
        yield _jsonl_line({"provenance": self.provenance})
        for key in sorted(self.entries, key=LineKey.order):
            yield _jsonl_line(_key_fields(key, text=self.entries[key]))

    @classmethod
    def from_jsonl(cls, text: str) -> "HypothesisSet":
        """Read ``hypotheses.jsonl``.  Each record is checked as it is read,
        so the first fault in file order is the one raised."""
        out = None
        # not splitlines(): a text may hold "\u2028", which json.dumps writes raw
        for lineno, raw in enumerate(text.removeprefix(BOM).split("\n"), start=1):
            if not raw.strip():
                continue
            where = f"line {lineno}"
            row = _json_record(raw, where)
            if out is None:
                out = cls(_provenance(row, where))
                continue
            key, hyp_text = _hypothesis_record(row, where)
            if key in out.entries:
                raise DatasetValidationError("duplicate hypothesis key", location=where)
            out.entries[key] = hyp_text
        if out is None:
            raise DatasetValidationError(_NO_PROVENANCE, location="line 1")
        return out

    def validate_against(self, dataset: Dataset) -> None:
        for key in self.entries:
            if key.language is Language.EN:
                raise DatasetValidationError(
                    "EN is the source language, so an EN line is never scored",
                    location=key.location(),
                )
            entry = dataset.songs.get(key.song_id, {}).get(key.language)
            if entry is None:
                raise DatasetValidationError(
                    "hypothesis key does not resolve to a dataset entry",
                    location=key.location(),
                )
            if _find_line(entry, key.section, key.line) is None:
                raise DatasetValidationError(
                    "hypothesis key does not resolve to a dataset line",
                    location=key.location(),
                )

    @classmethod
    def from_dubbed(cls, dataset: Dataset, languages: list[Language]) -> "HypothesisSet":
        """The dubbed reference lines themselves, as a human-made hypothesis set."""
        out = cls(provenance="human")
        for song_id in sorted(dataset.songs):
            for lang in languages:
                entry = dataset.songs[song_id].get(lang)
                if entry is None:
                    continue
                for section, line in entry.lines():
                    if line.resolved_text:
                        key = LineKey(song_id, lang, section.index, line.index)
                        out.entries[key] = line.resolved_text
        return out


_NO_PROVENANCE = "hypothesis file must start with a provenance record"


def _provenance(row: dict, where: str) -> str:
    """The provenance a hypothesis file's first record names, checked."""
    if "provenance" not in row:
        raise DatasetValidationError(_NO_PROVENANCE, location=where)
    provenance = row["provenance"]
    if not isinstance(provenance, str):
        raise DatasetValidationError("provenance must be a string", location=where)
    problem = surrogate_problem(provenance)
    if problem:
        # report.json names the provenance
        raise DatasetValidationError(f"provenance {problem}", location=where)
    return provenance


def _hypothesis_record(row: dict, where: str) -> tuple[LineKey, str]:
    """The line a hypothesis record keys and its text, checked."""
    try:
        song_id, section, line, text = (
            row[name] for name in ("song_id", "section", "line", "text"))
        lang = Language.parse(str(row["language"]))
    except (KeyError, ValueError) as exc:
        raise DatasetValidationError(
            f"bad hypothesis record: {exc!r}", location=where
        ) from None
    if not isinstance(song_id, str):
        raise DatasetValidationError("song_id must be a string", location=where)
    # JSON integers only: int() would key 0.9, true or "0" to a real line
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (section, line)):
        raise DatasetValidationError(
            "section and line must be integers", location=where)
    if not isinstance(text, str):
        raise DatasetValidationError("text must be a string", location=where)
    problem = surrogate_problem(text)
    if problem:
        raise DatasetValidationError(f"text {problem}", location=where)
    # interned: the decoder makes a new str of the song id for each record
    return LineKey(sys.intern(song_id), lang, section, line), text


def _jsonl_line(record: dict) -> str:
    """One record of a ``.jsonl`` output file, with its newline."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def _json_record(line: str, where: str) -> dict:
    try:
        row = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DatasetValidationError(
            f"not a JSON record: {exc}", location=where) from None
    if not isinstance(row, dict):
        raise DatasetValidationError("record must be an object", location=where)
    return row


def _find_line(entry: SongEntry, section_index: int, line_index: int) -> LyricLine | None:
    # parse_dataset guarantees sections[i].index == i and lines[j].index == j;
    # the bounds check keeps a negative key from counting from the end
    if 0 <= section_index < len(entry.sections):
        lines = entry.sections[section_index].lines
        if 0 <= line_index < len(lines):
            return lines[line_index]
    return None


def _key_fields(key: LineKey, **fields) -> dict:
    """A per-line output record: the line key's four fields, then ``fields``."""
    return {"song_id": key.song_id, "language": key.language.value,
            "section": key.section, "line": key.line, **fields}


def _in_order(records: dict[LineKey, dict]) -> list[dict]:
    return [records[key] for key in sorted(records, key=LineKey.order)]


# ---------------------------------------------------------------------------
# Provider construction


def load_mock_script(path: str) -> dict[str | None, list[str]]:
    """Read and check a mock script: the queues a ``ScriptedProvider``
    replays, the shared one keyed ``None``.

    Accepted shapes: a plain array (one shared response queue), or an object
    with optional "sequence" (shared queue) and "keyed" (map from a prompt
    substring to that task's own queue) members.  Every turn is a string.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.loads(fh.read().removeprefix(BOM))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read mock script {path}: {exc}") from None
    script: dict[str | None, list[str]] = {}
    if isinstance(raw, list):
        script[None] = _script_turns(raw, "array")
    elif isinstance(raw, dict):
        unknown = sorted(raw.keys() - {"keyed", "sequence"})
        if unknown:
            names = ", ".join(json.dumps(name, ensure_ascii=False) for name in unknown)
            raise ConfigError(
                f'mock script member {names} unknown; the members are "keyed" and "sequence"'
            )
        keyed = raw.get("keyed", {})
        if not isinstance(keyed, dict):
            raise ConfigError('mock script "keyed" member must be an object')
        for key, turns in keyed.items():
            script[key] = _script_turns(turns, '"keyed" queue', key)
        if "sequence" in raw:
            script[None] = _script_turns(raw["sequence"], '"sequence"')
    else:
        raise ConfigError("mock script must be a JSON array or object")
    if not script:
        raise ConfigError("mock script defines no responses")
    return script


def _script_turns(turns: object, where: str, key: str | None = None) -> list[str]:
    """A mock-script queue, checked: an array of strings.  A keyed queue's
    ``key`` is formatted into ``where`` only for an error."""
    if isinstance(turns, list) and all(isinstance(turn, str) for turn in turns):
        return turns
    if key is not None:
        where = f"{where} {json.dumps(key, ensure_ascii=False)}"
    if not isinstance(turns, list):
        raise ConfigError(f"mock script {where} must be an array")
    n, turn = next((n, turn) for n, turn in enumerate(turns) if not isinstance(turn, str))
    shown = json.dumps(turn, ensure_ascii=False)
    raise ConfigError(f"mock script {where}, turn {n}: expected a string, got {shown}")


@contextmanager
def _run_providers(config: RunConfig, *, translates: bool) -> Iterator[tuple]:
    """What a command's run talks to, built once before its run directory, so
    a bad endpoint, key or mock script exits first: the remote provider,
    closed when the command returns or raises, or the checked mock script of
    a run that translates something."""
    if config.provider == "remote":
        with closing(RemoteProvider(config.endpoint, config.model_id,
                                    api_key_env=config.api_key_env)) as remote:
            yield remote, None
    elif not (translates and config.target_langs):
        yield None, None
    elif config.mock_script is None:
        raise ConfigError("mock provider needs --mock-script")
    else:
        yield None, load_mock_script(config.mock_script)


# ---------------------------------------------------------------------------
# translate


class TranslateOutcome(NamedTuple):
    run_dir: Path
    hypotheses: HypothesisSet
    failures: list[dict]
    line_results: list[dict]
    warnings: list[str]


def _load_dataset(path: str) -> Dataset:
    try:
        with open(path, "rb") as fh:
            return parse_dataset(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc


def _line_media(entry: SongEntry, line: LyricLine) -> tuple[MediaAttachment, ...]:
    if not entry.media_url:
        return ()
    span = None
    if line.time_span is not None:
        # dataset spans are integer milliseconds; attachments speak seconds
        span = (line.time_span[0] / 1000.0, line.time_span[1] / 1000.0)
    return tuple(MediaAttachment(kind, entry.media_url, span) for kind in MediaKind)


def _source_line(
    entry: SongEntry, line: LyricLine
) -> tuple[str | None, int, tuple[MediaAttachment, ...]]:
    """Why an EN line cannot be a task, else None, its count and its media."""
    if not line.resolved_text:
        return "source line has no text", 0, ()
    required = line.syllable_count
    if required is None:
        try:
            required = syllables.count_syllables(Language.EN, line.resolved_text)
        except NumberRangeError as exc:
            return f"source line: {exc}", 0, ()
    if required < 1:
        return "source line has no countable syllables", 0, ()
    try:
        media = _line_media(entry, line)
    except (OverflowError, ConfigError) as exc:
        return f"time span: {exc}", 0, ()
    return None, required, media


def _translation_tasks(
    config: RunConfig, dataset: Dataset
) -> tuple[list[tuple[LineKey, TranslationTask]], dict[LineKey, dict]]:
    """One task per (EN line, target); a line that cannot be a task is a
    ``data`` failure for each target, so it never aborts the run."""
    tasks: list[tuple[LineKey, TranslationTask]] = []
    failed: dict[LineKey, dict] = {}
    for song_id in sorted(dataset.songs):
        # parse_dataset guarantees every song an EN entry
        entry = dataset.songs[song_id][Language.EN]
        for section, line in entry.lines():
            # each line is read once, whatever the number of targets
            reason, required, media = _source_line(entry, line)
            for target in config.target_langs:
                key = LineKey(song_id, target, section.index, line.index)
                if reason is not None:
                    failed[key] = _failure(key, "data", reason)
                    continue
                task = TranslationTask(line.resolved_text, Language.EN, target, required,
                                       media, key.location())
                tasks.append((key, task))
    return tasks, failed


def cmd_translate(config: RunConfig) -> TranslateOutcome:
    dataset = _load_dataset(config.dataset_path)
    with _run_providers(config, translates=True) as (remote, script):
        outcome = _translate(config, dataset, remote, script,
                             make_run_dir(config, "translate"))
    # each line has a result or a failure; a data failure is a line with no task
    failed, total = len(outcome.failures), len(outcome.failures) + len(outcome.line_results)
    if total and failed / total > config.failure_threshold:
        raise ThresholdExceededError(
            f"{failed} of {total} lines failed, above the "
            f"{config.failure_threshold:.0%} threshold; outputs in {outcome.run_dir}"
        )
    return outcome


def _translate(config: RunConfig, dataset: Dataset, remote: RemoteProvider | None,
               script: dict | None, run_dir: Path) -> TranslateOutcome:
    warnings: list[str] = []
    tasks, failed = [], {}
    if config.target_langs:
        tasks, failed = _translation_tasks(config, dataset)
    else:
        warnings.append("no target languages selected; nothing to translate")
    # a fresh replay of the script, so each ablate case starts from full queues
    provider = ScriptedProvider(script) if script else remote
    hyp = HypothesisSet(provenance=f"{config.provider}:{config.variant.label()}")
    trace = TraceStore(str(run_dir / "trace.jsonl"))

    def job(item: tuple[LineKey, TranslationTask]):
        key, task = item
        try:
            result = translate_line(
                task,
                config.variant,
                provider,
                max_reprompts=config.max_reprompts,
                trace_store=trace,
            )
            return ("ok", key, result)
        except PipelineError as exc:
            return ("pipeline", key, str(exc))
        except ProviderAuthError:
            raise
        except ProviderError as exc:
            return ("provider", key, str(exc))

    try:
        outcomes = map_bounded(job, tasks, config.parallelism)
    finally:
        trace.close()

    results: dict[LineKey, dict] = {}
    provider_failures = 0
    for status, key, payload in outcomes:
        if status == "ok":
            hyp.entries[key] = payload.translation
            results[key] = _key_fields(
                key,
                translation=payload.translation,
                required_count=payload.task.required_count,
                achieved_count=payload.achieved_count,
                constraint_met=payload.constraint_met,
                attempts=payload.attempts,
            )
        else:
            if status == "provider":
                provider_failures += 1
            failed[key] = _failure(key, status, payload)
    failures, line_results = _in_order(failed), _in_order(results)

    with _atomic_file(run_dir / "hypotheses.jsonl") as fh:
        fh.writelines(hyp.jsonl_lines())
    atomic_write(
        run_dir / "failures.json",
        json.dumps(failures, ensure_ascii=False, indent=2) + "\n",
    )
    with _atomic_file(run_dir / "results.jsonl") as fh:
        fh.writelines(map(_jsonl_line, line_results))

    if tasks and provider_failures == len(tasks):
        raise ProviderError(
            f"provider failed for every line ({provider_failures} of {len(tasks)}); "
            f"see {run_dir / 'failures.json'}"
        )
    return TranslateOutcome(run_dir, hyp, failures, line_results, warnings)


def _failure(key: LineKey, category: str, reason: str) -> dict:
    return _key_fields(key, category=category, reason=reason)


# ---------------------------------------------------------------------------
# evaluate


class EvaluateOutcome(NamedTuple):
    """The rows themselves are in ``run_dir / "scores.csv"``."""

    run_dir: Path
    scored: int
    skipped: int
    report: CorpusReport | None


def _eval_languages(config: RunConfig, dataset: Dataset) -> list[Language]:
    if config.target_langs:
        return list(config.target_langs)
    present = {
        lang
        for entries in dataset.songs.values()
        for lang in entries
        if lang is not Language.EN
    }
    return [lang for lang in Language if lang in present]


def _score_songs(
    dataset: Dataset, languages: list[Language], hyp: HypothesisSet, scorer: LineScorer
) -> Iterator[list[EvaluationRow]]:
    """Each song's rows, one per line of each language, in song order."""
    # a song's lines share texts (chorus repeats, the EN line that each dubbed
    # language is scored against) and songs seldom do, so each song is scored
    # in a call of its own
    for song_id in sorted(dataset.songs):
        entries = dataset.songs[song_id]
        entry_en = entries[Language.EN]
        # per line: its key, hypothesis, skip reason and both reference texts
        lines: list[tuple] = []
        pairs: list[LinePair] = []
        for lang in languages:
            entry = entries.get(lang)
            if entry is None:
                continue
            for section, line in entry.lines():
                en_line = _find_line(entry_en, section.index, line.index)
                original_text = en_line and en_line.resolved_text
                key = LineKey(song_id, lang, section.index, line.index)
                hyp_text = hyp.entries.get(key)
                skip_reason = None
                if hyp_text is None:
                    skip_reason = "no hypothesis for this line"
                elif original_text is None and line.resolved_text is None:
                    skip_reason = "no reference text for this line"
                else:
                    for ref_text, ref_lang, kind in (
                        (original_text, Language.EN, ReferenceKind.ORIGINAL_EN),
                        (line.resolved_text, lang, ReferenceKind.DUBBED),
                    ):
                        if ref_text is not None:
                            pairs.append((ref_text, hyp_text, ref_lang, lang, kind))
                lines.append((key, hyp_text, skip_reason, original_text, line.resolved_text))
        # in pair order: one score per reference text of each line not skipped
        scored = iter(scorer.score_pairs(pairs))
        yield [EvaluationRow(key, hyp_text, skip_reason, *references, *(
            next(scored) if skip_reason is None and text is not None else None
            for text in references)) for key, hyp_text, skip_reason, *references in lines]


def cmd_evaluate(config: RunConfig, hyp: HypothesisSet | None = None) -> EvaluateOutcome:
    """Score ``hyp`` against the dataset; without one, score the dubbed lines
    themselves (the human baseline)."""
    dataset = _load_dataset(config.dataset_path)
    if hyp is None:
        hyp = HypothesisSet.from_dubbed(dataset, _eval_languages(config, dataset))
    else:
        hyp.validate_against(dataset)
    with _run_providers(config, translates=False) as (remote, _):
        run_dir = make_run_dir(config, "evaluate", provenance=hyp.provenance)
        return _evaluate(config, dataset, hyp, remote, run_dir)


def _evaluate(config: RunConfig, dataset: Dataset, hyp: HypothesisSet,
              remote: RemoteProvider | None, run_dir: Path) -> EvaluateOutcome:
    """Each dataset line looks its hypothesis up, so one that keys no line
    is never read."""
    languages = _eval_languages(config, dataset)
    embedder_provider = remote or HashEmbeddingProvider()

    def embedder(texts):
        return embed(EmbeddingRequest(tuple(texts)), embedder_provider)

    scorer = LineScorer(
        params=SyllableErrorParams(beta=config.beta),
        embedder=embedder,
    )
    # each song is scored, folded into the report and written before the
    # next: no list of every row or score
    fold = ReportFold()
    statuses: Counter[str] = Counter()
    with _atomic_file(run_dir / "scores.csv") as fh:
        rows_to_csv([], fh)  # the header
        for song in _score_songs(dataset, languages, hyp, scorer):
            aggregate([score for row in song
                       for score in (row.original_score, row.dubbed_score)
                       if score is not None], into=fold)
            statuses.update(row.status for row in song)
            rows_to_csv(song, fh, header=False)
    report = fold.report(hyp.provenance)
    if report is not None:
        atomic_write(run_dir / "report.json", report_to_json(report))
        atomic_write(run_dir / "report.txt", render_report_table(report))
    return EvaluateOutcome(run_dir, statuses["scored"], statuses["skipped"], report)


# ---------------------------------------------------------------------------
# ablate


# the two variant switches each grid turns through its four cases
GRID_SWITCHES = {
    "stages": ("use_syllable_list", "use_refine"),
    "modalities": ("use_audio", "use_video"),
}


class AblateOutcome(NamedTuple):
    """``summaries`` maps each variant label to what comparison.json holds."""

    run_dir: Path
    summaries: dict[str, dict]
    table: str


def _dataset_has_media(dataset: Dataset) -> bool:
    return any(
        entry.media_url
        for entries in dataset.songs.values()
        for entry in entries.values()
    )


def cmd_ablate(config: RunConfig, grid: str = "stages") -> AblateOutcome:
    """Translate and evaluate every variant of a grid, keyed by its label.

    Each case's summary is its evaluate report, so the two reference kinds
    and the languages stay apart exactly as in ``report.json``.
    """
    if grid not in GRID_SWITCHES:
        raise ConfigError(f"unknown ablation grid {grid!r}")
    if grid == "stages" and config.variant.style is PromptStyle.DIRECT:
        # a direct prompt has no stages: all four cases would share one label
        raise ConfigError("the stage grid needs a staged variant, not a direct one")
    if not config.target_langs:
        raise ConfigError("ablate needs a --target-lang to translate into")
    dataset = _load_dataset(config.dataset_path)
    has_media = _dataset_has_media(dataset)

    summaries: dict[str, dict] = {}
    blocks: list[str] = []
    # the cases share one remote provider and its connections, or one script
    with _run_providers(config, translates=True) as (remote, script):
        run_dir = make_run_dir(config, "ablate", grid=grid)
        try:
            for setting in ((False, False), (False, True), (True, False), (True, True)):
                switches = dict(zip(GRID_SWITCHES[grid], setting))
                variant = config.variant._replace(**switches)
                label = variant.label()
                # only media the grid itself switches on makes a case skip
                if not has_media and (switches.get("use_audio") or switches.get("use_video")):
                    summaries[label] = {"skipped": "no media in dataset"}
                    blocks.append(f"{label}: skipped, no media in dataset\n")
                    continue
                # labels are unique in a grid and hold only letters, "+" and spaces
                case_dir = run_dir / label
                case_dir.mkdir()
                case = config._replace(variant=variant)
                translated = _translate(case, dataset, remote, script, case_dir)
                report = _evaluate(case, dataset, translated.hypotheses, remote, case_dir).report
                summaries[label] = {
                    "failures": len(translated.failures),
                    "report": None if report is None else report_payload(report),
                }
                blocks.append(f"{label}: no scored lines\n" if report is None
                              else render_report_table(report))
        except BaseException as exc:
            # what finished is written, the stopped case named, and the error goes on
            stop = f"{type(exc).__name__}: {exc}"
            summaries[label] = {"stopped": stop}
            blocks.append(f"{label}: stopped, {stop}\n")
            raise
        finally:
            table = "\n".join(blocks)
            atomic_write(run_dir / "comparison.txt", table)
            atomic_write(run_dir / "comparison.json", dump_json(summaries))
    return AblateOutcome(run_dir, summaries, table)


# ---------------------------------------------------------------------------
# stats


def cmd_stats(dataset_path: str) -> tuple[StatsReport, str]:
    stats = dataset_stats(_load_dataset(dataset_path))
    return stats, render_stats_table(stats)
