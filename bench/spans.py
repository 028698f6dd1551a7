"""Span tracing from outside the program, and the per-layer summary.

:class:`Tracer` wraps public functions of each layer at the name its caller
looks up (``mavl.harness`` imports ``parse_dataset``, ``translate_line`` and
``embed`` by name, so those are patched there; provider methods are patched
on their class) and restores them afterwards.  Nothing under ``src/`` changes.
Each call becomes a span: name, start, end, parent span, run id, plus a small
note (language and text for counts, cell count for edit distance, ...).
Spans stay in memory until the run ends.

A span's self time is its duration minus the union of its children's
intervals.  Worker threads start with an empty span stack, so their spans
hang off the run's root span.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time

LAYERS = ("dataset", "syllables", "phonetics", "metrics", "providers",
          "pipeline", "reports", "harness")
LANGS = ("EN", "ES", "FR", "KO", "JA")


def _note_count(args, kwargs, result):
    return [args[0].value, args[1]]


def _note_transcribe(args, kwargs, result):
    return [args[0].value, args[1], getattr(result, "dropped", 0)]


def _note_edit(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _note_embed(args, kwargs, result):
    return len(args[0].texts)


def _note_write(args, kwargs, result):
    return len(args[1].encode("utf-8"))


# (module, attribute path, span name, note)
HOOKS = (
    ("mavl.harness", "parse_dataset", "dataset.parse", None),
    ("mavl.dataset", "match_line", "dataset.match_line", None),
    ("mavl.syllables", "count_syllables", "syllables.count", _note_count),
    ("mavl.pipeline", "count_syllables", "syllables.count", _note_count),
    ("mavl.phonetics", "transcribe", "phonetics.transcribe", _note_transcribe),
    ("mavl.phonetics", "edit_distance", "phonetics.edit_distance", _note_edit),
    ("mavl.metrics", "LineScorer.score_line", "metrics.score_line", None),
    ("mavl.metrics", "cosine_similarity", "metrics.cosine", None),
    ("mavl.harness", "aggregate", "metrics.aggregate", None),
    ("mavl.pipeline", "generate", "providers.generate", None),
    ("mavl.providers", "ScriptedProvider.complete", "providers.complete", None),
    ("mavl.providers", "RemoteProvider.complete", "providers.complete", None),
    ("mavl.harness", "embed", "providers.embed", _note_embed),
    ("mavl.providers", "RetryPolicy.delay_for", "providers.retry_sleep", None),
    ("mavl.providers", "TraceStore.append", "providers.trace_append", None),
    ("mavl.pipeline", "build_prompt", "pipeline.build_prompt", None),
    ("mavl.harness", "translate_line", "pipeline.translate_line", None),
    ("mavl.harness", "rows_to_csv", "reports.render", None),
    ("mavl.harness", "report_to_json", "reports.render", None),
    ("mavl.harness", "render_report_table", "reports.render", None),
    ("mavl.cli", "render_report_table", "reports.render", None),
    ("mavl.harness", "atomic_write", "harness.write", _note_write),
)

ROOT = "harness.cmd"


class Tracer:
    """Collects spans for one process; install, run, uninstall, dump."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, note):
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            done, result = False, None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = note(args, kwargs, result) if note is not None and done else None
                spans.append((sid, name, start, end, parent, info))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, path, name, note in HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def root(self, fn, *args):
        """Run ``fn`` as the root span; spans of worker threads hang off it."""
        self._root = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append((self._root, ROOT, start, end, 0, None))
            self._root = 0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, ensure_ascii=False) + "\n")


def load(path: str) -> tuple[str, list[str], list[tuple]]:
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        return head["run"], head["missing"], [tuple(json.loads(line)) for line in fh]


def _self_times(spans: list[tuple]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(runs: list[tuple[str, list[tuple]]]) -> dict[str, float]:
    """Per-layer metrics over the spans of the processes of one repeat.

    ``runs`` pairs each process's run id, which starts with its command
    ("translate" or "evaluate"), with its spans.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    count_keys: list[tuple] = []
    count_s_lang = dict.fromkeys(LANGS, 0.0)
    transcribe_keys: list[tuple] = []
    dropped = cells = embed_texts = written = 0
    translate_wall = 0.0
    for run_id, spans in runs:
        selfs = _self_times(spans)
        for sid, name, start, end, parent, info in spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + selfs[sid]
            if name == "syllables.count" and info is not None:
                count_keys.append(tuple(info))
                count_s_lang[info[0]] += dur
            elif name == "phonetics.transcribe" and info is not None:
                transcribe_keys.append((info[0], info[1]))
                dropped += info[2]
            elif name == "phonetics.edit_distance" and info is not None:
                cells += info
            elif name == "providers.embed" and info is not None:
                embed_texts += info
            elif name == "harness.write" and info is not None:
                written += info
            elif name == ROOT and run_id.startswith("translate"):
                translate_wall += dur

    def share(keys):
        return 1.0 - len(set(keys)) / len(keys) if keys else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value
        layer_calls[name.split(".")[0]] += calls[name]
    busy = sum(layer_self.values())
    return {
        "dataset.parse_s": total.get("dataset.parse", 0.0),
        "dataset.match_line_calls": calls.get("dataset.match_line", 0),
        "syllables.count_calls": calls.get("syllables.count", 0),
        "syllables.count_s": total.get("syllables.count", 0.0),
        **{f"syllables.count_s.{lang}": count_s_lang[lang] for lang in LANGS},
        "syllables.repeat_share": share(count_keys),
        "phonetics.transcribe_calls": calls.get("phonetics.transcribe", 0),
        "phonetics.transcribe_s": total.get("phonetics.transcribe", 0.0),
        "phonetics.transcribe_repeat_share": share(transcribe_keys),
        "phonetics.edit_distance_calls": calls.get("phonetics.edit_distance", 0),
        "phonetics.edit_distance_s": total.get("phonetics.edit_distance", 0.0),
        "phonetics.edit_cells": cells,
        "phonetics.dropped_graphemes": dropped,
        "metrics.score_line_calls": calls.get("metrics.score_line", 0),
        "metrics.score_line_self_s": self_s.get("metrics.score_line", 0.0),
        "metrics.cosine_s": total.get("metrics.cosine", 0.0),
        "metrics.aggregate_s": total.get("metrics.aggregate", 0.0),
        "providers.complete_calls": calls.get("providers.complete", 0),
        "providers.complete_s": total.get("providers.complete", 0.0),
        "providers.inflight_mean": (
            total.get("providers.complete", 0.0) / translate_wall if translate_wall else 0.0
        ),
        "providers.embed_calls": calls.get("providers.embed", 0),
        "providers.embed_texts": embed_texts,
        "providers.texts_per_embed_call": (
            embed_texts / calls["providers.embed"] if calls.get("providers.embed") else 0.0
        ),
        "providers.embed_s": total.get("providers.embed", 0.0),
        "providers.retry_sleeps": calls.get("providers.retry_sleep", 0),
        "providers.trace_append_calls": calls.get("providers.trace_append", 0),
        "providers.trace_append_s": total.get("providers.trace_append", 0.0),
        "pipeline.build_prompt_calls": calls.get("pipeline.build_prompt", 0),
        "pipeline.build_prompt_s": total.get("pipeline.build_prompt", 0.0),
        "pipeline.translate_line_self_s": self_s.get("pipeline.translate_line", 0.0),
        "reports.render_s": total.get("reports.render", 0.0),
        "harness.self_s": self_s.get(ROOT, 0.0),
        "harness.write_s": total.get("harness.write", 0.0),
        "harness.bytes_written": written,
        **{f"layer_self_s.{layer}": layer_self[layer] for layer in LAYERS},
        **{f"layer_calls.{layer}": layer_calls[layer] for layer in LAYERS},
        **{f"layer_share.{layer}": (layer_self[layer] / busy if busy else 0.0)
           for layer in LAYERS},
        "trace.spans": sum(calls.values()),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}

