from __future__ import annotations

import csv
import importlib
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from loopback import Loopback, reply
from mavl.cli import build_parser, main
from mavl.dataset import (
    Dataset,
    LineKey,
    LyricLine,
    Section,
    SongEntry,
    encode_line,
    parse_dataset,
    serialize_dataset,
)
from mavl.errors import (
    ConfigError,
    DatasetParseError,
    DatasetValidationError,
    ProviderAuthError,
    ProviderError,
    TransientProviderError,
)
from mavl.harness import (
    MODALITY_GRID,
    STAGE_GRID,
    HypothesisSet,
    RunConfig,
    ThresholdExceededError,
    atomic_write,
    cmd_ablate,
    cmd_evaluate,
    cmd_stats,
    _config_payload,
    cmd_translate,
    config_digest,
    load_mock_script,
    make_run_dir,
)
from mavl.languages import Language
from mavl.metrics import EMBED_BATCH, LineScorer, ReferenceKind
from mavl.pipeline import Modality, PipelineVariant, PromptStyle
from mavl.providers import (
    EmbeddingRequest,
    GenerationRequest,
    HashEmbeddingProvider,
    RemoteProvider,
    RetryPolicy,
    ScriptedProvider,
    TraceStore,
    request_digest,
)


def write_corpus(tmp_path, structure, media_url=None, name="corpus.json"):
    """structure: {song_id: {Language: [[texts of section 0], [section 1]...]}}"""
    ds = Dataset({})
    for song_id, languages in structure.items():
        entries = {}
        for lang, section_lines in languages.items():
            sections = []
            for s, texts in enumerate(section_lines):
                lines = [
                    LyricLine(index=i, rep=encode_line(lang, t), resolved_text=t)
                    for i, t in enumerate(texts)
                ]
                sections.append(Section(index=s, lines=lines))
            entries[lang] = SongEntry(
                title=song_id,
                source_url="https://example.test/lyrics",
                media_url=media_url,
                language=lang,
                sections=sections,
            )
        ds.songs[song_id] = entries
    path = tmp_path / name
    path.write_bytes(serialize_dataset(ds))
    return path


def small_corpus(tmp_path, **kwargs):
    return write_corpus(
        tmp_path,
        {
            "alpha": {
                Language.EN: [
                    ["And there's a butterfly",
                     "Remember me, don't let it make you cry"],
                ],
                Language.KO: [
                    ["나비가 날아와", "날 잊지 마 슬퍼하지는 마"],
                ],
            },
        },
        **kwargs,
    )


# one reply that cannot be counted (1000000 is past the numeral expander)
NUMERAL_SCRIPT = {
    "keyed": {
        "And there's a butterfly": ['{"translation": "나비 1000000"}'] * 3,
        "Remember me": ['{"translation": "날 잊지 마 슬퍼하지는 마"}'],
    }
}

GOOD_SCRIPT = {
    "keyed": {
        "And there's a butterfly": ['{"translation": "나비가 날아와"}'],
        "Remember me": ['{"translation": "날 잊지 마 슬퍼하지는 마"}'],
        "Three months": ['{"translation": "세 달의 겨울 추위"}'],
    }
}


def read_scores(run_dir):
    """The rows of a run's ``scores.csv``, each a dict of its cells."""
    with open(Path(run_dir) / "scores.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_trace(path):
    """The records of a trace file, in the order they were appended."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_script(tmp_path, payload, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return path


def base_config(dataset_path, script_path, out_dir, **overrides):
    fields = dict(
        dataset_path=str(dataset_path),
        target_langs=(Language.KO,),
        mock_script=str(script_path),
        out_dir=str(out_dir),
    )
    fields.update(overrides)
    return RunConfig(**fields)


class TestRunConfig:
    def test_rejects_bad_values(self, tmp_path):
        for beta in (0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                RunConfig(dataset_path="x", beta=beta)
        with pytest.raises(ConfigError):
            RunConfig(dataset_path="x", parallelism=0)
        with pytest.raises(ConfigError):
            RunConfig(dataset_path="x", max_reprompts=-1)
        with pytest.raises(ConfigError):
            RunConfig(dataset_path="x", provider="carrier-pigeon")
        with pytest.raises(ConfigError):
            RunConfig(dataset_path="x", target_langs=(Language.EN,))
        with pytest.raises(ConfigError):
            RunConfig(dataset_path="x", target_langs=(Language.KO, Language.JA, Language.KO))

    def test_digest_covers_every_run_setting(self):
        # the key and the output root do not change a run's outputs; each
        # command hashes and echoes only the other settings it reads
        unhashed = {"api_key_env", "out_dir"}
        names = set(RunConfig._fields) - unhashed
        reads = {
            "translate": names - {"beta"},
            "evaluate": {"dataset_path", "target_langs", "provider", "endpoint",
                         "model_id", "beta"},
            "ablate": names - {"failure_threshold"},
        }
        config = RunConfig(dataset_path="x")
        for op, read in reads.items():
            assert set(_config_payload(config, op)) == read, op

    def test_digest_stable_and_sensitive(self, tmp_path):
        a = RunConfig(dataset_path="x", beta=2.0)
        b = RunConfig(dataset_path="x", beta=2.0)
        c = RunConfig(dataset_path="x", beta=1.5)
        assert config_digest(a, "evaluate") == config_digest(b, "evaluate")
        assert config_digest(a, "evaluate") != config_digest(c, "evaluate")
        # translate does not read beta, so it keeps one run name
        assert config_digest(a, "translate") == config_digest(c, "translate")

    @pytest.mark.parametrize("config", [
        RunConfig(dataset_path="x"),
        RunConfig(dataset_path="corpus.json", target_langs=(Language.KO, Language.JA),
                  beta=1.5, parallelism=3),
        RunConfig(dataset_path="코퍼스/歌詞 données.json", provider="remote",
                  endpoint="http://127.0.0.1:9", model_id="m"),
    ], ids=["defaults", "settings", "non-ascii-remote"])
    def test_digest_is_hashlib_sha256(self, config):
        """The interpreter's own SHA-256 names a run as ``hashlib``'s did."""
        import hashlib

        for op in ("translate", "evaluate", "ablate"):
            blob = json.dumps(_config_payload(config, op), sort_keys=True)
            want = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
            assert config_digest(config, op) == want, op

    def test_run_dirs_never_clobber(self, tmp_path):
        config = RunConfig(dataset_path="x", out_dir=str(tmp_path / "runs"))
        first = make_run_dir(config, "translate")
        second = make_run_dir(config, "translate")
        assert first != second
        assert first.exists() and second.exists()
        assert second.name == first.name + "-2"

    def test_a_dir_made_after_a_check_moves_the_run_on(self, tmp_path, monkeypatch):
        config = RunConfig(dataset_path="x", out_dir=str(tmp_path / "runs"))
        first = make_run_dir(config, "translate")
        # as if another run made ``first`` right after an exists() check
        exists = Path.exists
        monkeypatch.setattr(Path, "exists",
                            lambda self, *args, **kwargs:
                            self != first and exists(self, *args, **kwargs))
        second = make_run_dir(config, "translate")
        assert second.name == first.name + "-2" and second.is_dir()


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(target, "payload\n")
        assert target.read_text(encoding="utf-8") == "payload\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrites_whole_file(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(target, "long first version\n")
        atomic_write(target, "v2\n")
        assert target.read_text(encoding="utf-8") == "v2\n"

    def test_every_output_takes_its_mode_from_the_umask(self, tmp_path):
        config = base_config(small_corpus(tmp_path), write_script(tmp_path, GOOD_SCRIPT),
                             tmp_path / "runs")
        umask = os.umask(0o027)
        try:
            run_dirs = [cmd_translate(config).run_dir, cmd_evaluate(config).run_dir]
        finally:
            os.umask(umask)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode)
                 for run_dir in run_dirs for path in run_dir.iterdir()}
        assert set(modes) == {
            "hypotheses.jsonl", "results.jsonl", "failures.json", "config.json",
            "trace.jsonl", "scores.csv", "report.json", "report.txt"}
        assert modes == dict.fromkeys(modes, 0o666 & ~0o027)


class TestHypothesisSet:
    def test_jsonl_round_trip(self):
        hyp = HypothesisSet(provenance="mock:T list+refine")
        hyp.entries[LineKey("alpha", Language.KO, 0, 0)] = "나비가 날아와"
        hyp.entries[LineKey("alpha", Language.KO, 0, 1)] = "날 잊지 마"
        again = HypothesisSet.from_jsonl(hyp.to_jsonl())
        assert again == hyp

    def test_each_song_id_is_held_once(self):
        text = "".join(['{"provenance": "x"}\n'] + [
            f'{{"song_id": "{song}", "language": "KO", "section": 0, "line": {line}, '
            f'"text": "나비"}}\n' for song in ("alpha", "beta") for line in range(3)])
        keys = sorted(HypothesisSet.from_jsonl(text).entries, key=LineKey.order)
        assert [key.song_id for key in keys] == ["alpha"] * 3 + ["beta"] * 3
        assert len({id(key.song_id) for key in keys}) == 2

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"],
                             ids=["U+2028", "U+2029", "U+0085"])
    def test_text_holding_a_unicode_line_break_round_trips(self, sep):
        # json.dumps writes these raw; only "\n" ends a record
        hyp = HypothesisSet(provenance="x")
        hyp.entries[LineKey("alpha", Language.KO, 0, 0)] = f"나비가{sep}날아와"
        hyp.entries[LineKey("alpha", Language.KO, 0, 1)] = "날 잊지 마"
        text = hyp.to_jsonl()
        assert sep in text
        assert HypothesisSet.from_jsonl(text) == hyp
        with pytest.raises(DatasetValidationError, match="^line 4: not a JSON record"):
            HypothesisSet.from_jsonl(text + "{\n")

    def test_missing_provenance_header(self):
        with pytest.raises(DatasetValidationError):
            HypothesisSet.from_jsonl('{"song_id": "a"}\n')

    @pytest.mark.parametrize("text, fault", [
        # a bad record, then a line that is not JSON
        ('{"provenance": "x"}\n\n{"song_id": "a", "language": "KO"}\n{\n',
         "line 3: bad hypothesis record"),
        ('{"provenance": "x"}\n'
         '{"song_id": 7, "language": "KO", "section": 0, "line": 0, "text": "a"}\n[\n',
         "line 2: song_id must be a string"),
        # a bad provenance, then a line that is not JSON
        ('{"provenance": 7}\n{\n', "line 1: provenance must be a string"),
        ('{"song_id": "a"}\n{\n',
         "line 1: hypothesis file must start with a provenance record"),
        # the first fault is still raised when it is the JSON one
        ('{"provenance": "x"}\n{\n{"song_id": "a"}\n', "line 2: not a JSON record"),
        ("\n \n", "line 1: hypothesis file must start with a provenance record"),
    ], ids=["record-then-json", "song-id-then-json", "provenance-then-json",
            "no-provenance-then-json", "json-then-record", "empty"])
    def test_first_fault_in_file_order(self, text, fault):
        with pytest.raises(DatasetValidationError, match="^" + re.escape(fault)):
            HypothesisSet.from_jsonl(text)

    def test_validate_against_detects_bad_keys(self, tmp_path):
        path = small_corpus(tmp_path)
        from mavl.harness import _load_dataset

        dataset = _load_dataset(str(path))
        hyp = HypothesisSet(provenance="x")
        hyp.entries[LineKey("alpha", Language.KO, 0, 9)] = "text"
        with pytest.raises(DatasetValidationError):
            hyp.validate_against(dataset)
        hyp.entries.clear()
        hyp.entries[LineKey("missing-song", Language.KO, 0, 0)] = "text"
        with pytest.raises(DatasetValidationError):
            hyp.validate_against(dataset)

    def test_lone_surrogate_in_text_or_provenance_names_its_line(self):
        with pytest.raises(DatasetValidationError, match="line 3.*U\\+D800"):
            HypothesisSet.from_jsonl(
                '{"provenance": "x"}\n'
                '{"song_id": "a", "language": "KO", "section": 0, "line": 0, "text": "a"}\n'
                '{"song_id": "a", "language": "KO", "section": 0, "line": 1, "text": "\\ud800"}\n'
            )
        with pytest.raises(DatasetValidationError, match="line 1: provenance .*U\\+DC00"):
            HypothesisSet.from_jsonl('{"provenance": "x\\udc00"}\n')

    def test_from_dubbed_is_human_provenance(self, tmp_path):
        path = small_corpus(tmp_path)
        from mavl.harness import _load_dataset

        hyp = HypothesisSet.from_dubbed(_load_dataset(str(path)), [Language.KO])
        assert hyp.provenance == "human"
        assert hyp.entries[LineKey("alpha", Language.KO, 0, 0)] == "나비가 날아와"
        assert len(hyp.entries) == 2


class TestMockScript:
    def test_array_form(self, tmp_path):
        path = write_script(tmp_path, ["one", "two"])
        provider = load_mock_script(str(path))
        from mavl.providers import GenerationRequest

        assert provider.complete(GenerationRequest("anything")) == "one"

    def test_keyed_form(self, tmp_path):
        path = write_script(
            tmp_path, {"keyed": {"alpha": ["A"]}, "sequence": ["fallback"]}
        )
        provider = load_mock_script(str(path))
        from mavl.providers import GenerationRequest

        assert provider.complete(GenerationRequest("has alpha inside")) == "A"
        assert provider.complete(GenerationRequest("other")) == "fallback"

    @pytest.mark.parametrize("payload, where", [
        ("just a string", "JSON array or object"),
        ({"keyed": "nope"}, '"keyed" member'),
        ({"keyed": {"a": "nope"}}, '"keyed" queue "a" must'),
        ({}, "no responses"),
        # a reply must be the model's text, not the object it would encode
        ({"keyed": {"a": ["ok", {"translation": "나비"}]}},
         '"keyed" queue "a", turn 1: expected a string, got {"translation": "나비"}'),
        ({"sequence": ["ok", "ok", None]}, '"sequence", turn 2: expected a string, got null'),
        (["ok", 7], "array, turn 1: expected a string, got 7"),
        ({"keyd": {"a": ["ok"]}, "sequence": ["ok"]}, 'member "keyd" unknown'),
    ], ids=["just a string", "payload1", "payload2", "payload3", "object-turn",
            "null-turn", "number-turn", "unknown-member"])
    def test_bad_shapes_rejected(self, tmp_path, payload, where):
        path = write_script(tmp_path, payload)
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_mock_script(str(path))


def _read_dataset(tmp_path, monkeypatch, text):
    parse_dataset(text)


def _read_hypotheses(tmp_path, monkeypatch, text):
    HypothesisSet.from_jsonl('{"provenance": "x"}\n' + text + "\n")


def _read_mock_script(tmp_path, monkeypatch, text):
    path = tmp_path / "script.json"
    path.write_text(text, encoding="utf-8")
    load_mock_script(str(path))


def _read_reply(tmp_path, monkeypatch, text):
    monkeypatch.setenv("MAVL_API_KEY", "sekrit")
    monkeypatch.setattr("mavl.providers._http_post",
                        lambda *args: (200, {}, text.encode("utf-8")))
    RemoteProvider("http://127.0.0.1:9", "m").complete(GenerationRequest("hi"))


# each JSON reader, and the one error it raises on what it cannot read; a
# reply's is a plain ProviderError, not retried, since the same reply would come back
JSON_READERS = {
    "dataset": (DatasetParseError, _read_dataset),
    "hypotheses": (DatasetValidationError, _read_hypotheses),
    "mock-script": (ConfigError, _read_mock_script),
    "reply": (ProviderError, _read_reply),
}


class TestJsonReaders:
    @pytest.mark.parametrize("reader", sorted(JSON_READERS))
    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000],
                             ids=["deeply-nested", "past-the-int-digit-limit"])
    def test_unreadable_json_is_the_readers_own_error(
            self, tmp_path, monkeypatch, reader, text):
        """``json.loads`` raises RecursionError on deep nesting, and a plain
        ValueError on an integer past ``int``'s digit limit."""
        error, read = JSON_READERS[reader]
        with pytest.raises(error) as excinfo:
            read(tmp_path, monkeypatch, text)
        assert type(excinfo.value) is error


UTF8_BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """Each reader skips a leading UTF-8 byte-order mark and reads the rest
    as it would without one; a byte offset still counts from the first byte.
    ``parse_dataset``'s own test is in ``test_dataset.py``."""

    def test_hypotheses(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        hyp = tmp_path / "hyp.jsonl"
        dubbed = HypothesisSet.from_dubbed(parse_dataset(corpus.read_bytes()), [Language.KO])
        argv = ["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                "--hypotheses", str(hyp), "--out", str(tmp_path / "runs"), "--format", "json"]
        reports = []
        for prefix in (b"", UTF8_BOM):
            hyp.write_bytes(prefix + dubbed.to_jsonl().encode("utf-8"))
            assert main(argv) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert reports[1]["groups"]["KO/dubbed"]["line_count"] == 2
        hyp.write_bytes(UTF8_BOM + b'{"provenance": "x"}\n\xff\n')
        assert main(argv) == 3
        assert "not UTF-8 at byte 23" in capsys.readouterr().err

    def test_mock_script(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        script.write_bytes(UTF8_BOM + script.read_bytes())
        assert main(["translate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--mock-script", str(script), "--out", str(tmp_path / "runs")]) == 0
        assert "translated lines: 2" in capsys.readouterr().out

    def test_config_file(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        cfg = tmp_path / "run.cfg"
        argv = ["translate", "--dataset", str(corpus), "--config", str(cfg),
                "--out", str(tmp_path / "runs")]
        cfg.write_bytes(UTF8_BOM + f"provider=mock\ntarget-lang=KO\nmock-script={script}\n"
                        .encode("utf-8"))
        assert main(argv) == 0
        assert "translated lines: 2" in capsys.readouterr().out
        cfg.write_bytes(UTF8_BOM + b"provider=mock\n\xff\n")
        assert main(argv) == 2
        assert "in position 17" in capsys.readouterr().err


class TestTranslate:
    def test_three_line_fixture_three_trace_records(self, tmp_path):
        corpus = write_corpus(
            tmp_path,
            {
                "alpha": {
                    Language.EN: [
                        ["And there's a butterfly",
                         "Remember me, don't let it make you cry",
                         "Three months of winter coolness"],
                    ],
                },
            },
        )
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_translate(config)
        assert len(outcome.hypotheses.entries) == 3
        assert outcome.failures == []
        trace_lines = (
            (outcome.run_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        )
        assert len(trace_lines) == 3
        assert (outcome.run_dir / "hypotheses.jsonl").exists()
        results = [
            json.loads(line)
            for line in (outcome.run_dir / "results.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert all(r["constraint_met"] for r in results)
        assert all(r["attempts"] == 1 for r in results)

    def test_empty_target_selection_warns(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs", target_langs=())
        outcome = cmd_translate(config)
        assert outcome.hypotheses.entries == {}
        assert outcome.warnings
        assert (outcome.run_dir / "hypotheses.jsonl").exists()
        assert (outcome.run_dir / "failures.json").read_text(encoding="utf-8") == "[]\n"
        assert (outcome.run_dir / "results.jsonl").read_text(encoding="utf-8") == ""

    def test_no_target_language_leaves_no_trace_file(self, tmp_path, monkeypatch):
        # the benchmark's seed-3 translate corpus and script
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        monkeypatch.delitem(sys.modules, "corpus", raising=False)
        built = importlib.import_module("corpus").build_translate_mock(3)
        for name, data in built.files.items():
            (tmp_path / name).write_bytes(data)
        config = base_config(
            tmp_path / "corpus.json", tmp_path / "script.json", tmp_path / "runs",
            target_langs=(),
        )
        outcome = cmd_translate(config)
        assert outcome.warnings
        assert (outcome.run_dir / "hypotheses.jsonl").exists()
        assert not (outcome.run_dir / "trace.jsonl").exists()

    def test_trace_file_is_closed_when_a_run_aborts(self, tmp_path, monkeypatch):
        closed: list[str] = []

        class RecordingTrace(TraceStore):
            def close(self):
                closed.append(self.path)
                super().close()

        provider = ScriptedProvider({
            "And there's a butterfly": ['{"translation": "나비가 날아와"}'],
            "Remember me": [ProviderAuthError("key revoked")],
        })
        monkeypatch.setattr("mavl.harness.TraceStore", RecordingTrace)
        monkeypatch.setattr("mavl.harness._generation_provider", lambda config: provider)
        config = base_config(small_corpus(tmp_path), "unused.json", tmp_path / "runs")
        with pytest.raises(ProviderAuthError):
            cmd_translate(config)
        assert len(closed) == 1
        assert len(read_trace(closed[0])) == 1

    def test_mock_provider_requires_script(self, tmp_path):
        corpus = small_corpus(tmp_path)
        config = RunConfig(
            dataset_path=str(corpus),
            target_langs=(Language.KO,),
            out_dir=str(tmp_path / "runs"),
        )
        with pytest.raises(ConfigError):
            cmd_translate(config)

    def test_pipeline_failures_recorded_not_fatal(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(
            tmp_path,
            {
                "keyed": {
                    "And there's a butterfly": ['{"translation": "나비가 날아와"}'],
                    "Remember me": ["junk", "junk", "junk"],
                }
            },
        )
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_translate(config)
        assert len(outcome.hypotheses.entries) == 1
        assert len(outcome.failures) == 1
        assert outcome.failures[0]["category"] == "pipeline"

    def test_threshold_exceeded(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(
            tmp_path,
            {
                "keyed": {
                    "And there's a butterfly": ['{"translation": "나비가 날아와"}'],
                    "Remember me": ["junk", "junk", "junk"],
                }
            },
        )
        config = base_config(
            corpus, script, tmp_path / "runs", failure_threshold=0.4
        )
        with pytest.raises(ThresholdExceededError):
            cmd_translate(config)
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "failures.json").exists()
        assert (run_dir / "hypotheses.jsonl").exists()

    def test_auth_failure_propagates(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MAVL_API_KEY", raising=False)
        corpus = small_corpus(tmp_path)
        config = RunConfig(
            dataset_path=str(corpus),
            target_langs=(Language.KO,),
            provider="remote",
            endpoint="https://unreachable.example",
            model_id="m",
            out_dir=str(tmp_path / "runs"),
        )
        with pytest.raises(ProviderAuthError):
            cmd_translate(config)

    def test_parallel_run_writes_the_serial_outputs(self, tmp_path):
        corpus = write_corpus(
            tmp_path,
            {
                "alpha": {
                    Language.EN: [
                        ["And there's a butterfly",
                         "Remember me, don't let it make you cry",
                         "Three months of winter coolness",
                         "!!!"],
                    ],
                },
            },
        )
        script = write_script(tmp_path, {"keyed": {
            **GOOD_SCRIPT["keyed"],
            "And there's a butterfly": NUMERAL_SCRIPT["keyed"]["And there's a butterfly"],
        }})
        serial, parallel = (
            cmd_translate(base_config(corpus, script, tmp_path / f"p{n}", parallelism=n))
            for n in (1, 3)
        )
        # one pipeline failure and one data failure ride along with two hypotheses
        assert sorted(f["category"] for f in serial.failures) == ["data", "pipeline"]
        assert len(serial.hypotheses.entries) == 2
        for name in ("hypotheses.jsonl", "failures.json", "results.jsonl"):
            assert (serial.run_dir / name).read_bytes() == (parallel.run_dir / name).read_bytes()


    def test_parallel_keyed_run_with_reprompts_writes_the_serial_outputs(self, tmp_path):
        # every prompt starts with the one template, so both workers read
        # and replace the mock's key-free prefix while the other scans
        from mavl.syllables import count_syllables

        numbers = ["one", "two", "three", "four", "five", "six", "seven", "eight",
                   "nine", "ten", "eleven", "twelve", "thirteen", "fourteen"]
        texts = [f"Verse {a} of the {b} song" for a in numbers[:6] for b in numbers[6:]]
        corpus = write_corpus(tmp_path, {"alpha": {Language.EN: [texts]}})
        keyed = {}
        for n, text in enumerate(texts):
            good = '{"translation": "%s"}' % ("가" * count_syllables(Language.EN, text))
            miss = good.replace("가", "가가", 1)
            keyed[text] = [[good], [miss, good], ["no payload yet", miss, good]][n % 3]
        script = write_script(tmp_path, {"keyed": keyed})
        serial, parallel = (
            cmd_translate(base_config(corpus, script, tmp_path / f"p{n}", parallelism=n))
            for n in (1, 2)
        )
        assert serial.failures == []
        assert sorted(r["attempts"] for r in serial.line_results) == [1] * 16 + [2] * 16 + [3] * 16
        for name in ("hypotheses.jsonl", "failures.json", "results.jsonl"):
            assert (serial.run_dir / name).read_bytes() == (parallel.run_dir / name).read_bytes()

    def test_uncountable_reply_is_a_line_failure(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, NUMERAL_SCRIPT)
        outcome = cmd_translate(base_config(corpus, script, tmp_path / "runs"))
        assert outcome.failures == [
            {"song_id": "alpha", "language": "KO", "section": 0, "line": 0,
             "category": "pipeline",
             "reason": "no countable final answer in 3 attempt(s)"},
        ]
        assert [r["line"] for r in outcome.line_results] == [1]
        for name in ("hypotheses.jsonl", "failures.json", "results.jsonl"):
            assert (outcome.run_dir / name).exists()

    def test_lone_surrogate_reply_is_a_line_failure(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = tmp_path / "script.json"
        # ASCII JSON: the surrogate is the escape "\ud800" in the file
        script.write_text(json.dumps({"keyed": {
            "And there's a butterfly": ['{"translation": "나비\ud800"}'],
            "Remember me": ['{"translation": "날 잊지 마 슬퍼하지는 마"}'],
        }}), encoding="utf-8")
        outcome = cmd_translate(base_config(corpus, script, tmp_path / "runs"))
        assert outcome.failures == [
            {"song_id": "alpha", "language": "KO", "section": 0, "line": 0,
             "category": "provider",
             "reason": "reply holds the lone surrogate U+D800, which UTF-8 cannot encode"},
        ]
        assert [r["line"] for r in outcome.line_results] == [1]
        # the trace keeps the attempt, escaped, and stays UTF-8
        trace = outcome.run_dir / "trace.jsonl"
        trace.read_bytes().decode("utf-8")
        assert sorted(r["response_text"] for r in read_trace(trace)) == [
            '{"translation": "나비\ud800"}', '{"translation": "날 잊지 마 슬퍼하지는 마"}',
        ]
        for name in ("hypotheses.jsonl", "failures.json", "results.jsonl"):
            (outcome.run_dir / name).read_bytes().decode("utf-8")

    @pytest.mark.parametrize("english, payload", [
        # misses the count: the feedback would quote the decoded text
        ("And there's a butterfly", "\ud800 나"),
        # meets the count of this 7-syllable line
        ("Butterfly come to me now", "\ud800나비가날아와요"),
    ], ids=["miss", "meet"])
    def test_lone_surrogate_payload_is_a_line_failure(self, tmp_path, english, payload):
        """The payload is not well-formed: three attempts get the format
        feedback, and the run writes every output."""
        corpus = write_corpus(tmp_path, {"alpha": {Language.EN: [[
            english, "Remember me, don't let it make you cry"]]}})
        script = tmp_path / "script.json"
        # ASCII JSON all through: the payload holds the escape "\\ud800"
        script.write_text(json.dumps({"keyed": {
            english: [json.dumps({"translation": payload})] * 3,
            "Remember me": ['{"translation": "날 잊지 마 슬퍼하지는 마"}'],
        }}), encoding="utf-8")
        outcome = cmd_translate(base_config(corpus, script, tmp_path / "runs"))
        failures = json.loads((outcome.run_dir / "failures.json").read_text(encoding="utf-8"))
        assert [(f["line"], f["category"]) for f in failures] == [(0, "pipeline")]
        results = (outcome.run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["line"] for line in results] == [1]
        assert len(read_trace(outcome.run_dir / "trace.jsonl")) == 4
        (outcome.run_dir / "hypotheses.jsonl").read_bytes().decode("utf-8")

    def test_uncountable_source_line_is_a_data_failure(self, tmp_path):
        corpus = write_corpus(
            tmp_path,
            {"alpha": {Language.EN: [["And 1000000 butterflies",
                                      "Remember me, don't let it make you cry"]]}},
        )
        script = write_script(tmp_path, GOOD_SCRIPT)
        outcome = cmd_translate(base_config(corpus, script, tmp_path / "runs"))
        assert [(f["line"], f["category"]) for f in outcome.failures] == [(0, "data")]
        assert "exceeds supported range" in outcome.failures[0]["reason"]
        assert [r["line"] for r in outcome.line_results] == [1]

    def test_each_source_line_is_counted_once_for_two_targets(self, tmp_path, monkeypatch):
        import mavl.harness

        counted = []
        count = mavl.harness.syllables.count_syllables

        def spy(lang, text):
            if lang is Language.EN:
                counted.append(text)
            return count(lang, text)

        monkeypatch.setattr(mavl.harness.syllables, "count_syllables", spy)
        texts = ["And 1000000 butterflies", "Remember me, don't let it make you cry"]
        corpus = write_corpus(tmp_path, {"alpha": {Language.EN: [texts]}})
        script = write_script(tmp_path, {"sequence": ['{"translation": "나비가 날아와"}'] * 6})
        config = base_config(corpus, script, tmp_path / "runs",
                             target_langs=(Language.KO, Language.JA))
        outcome = cmd_translate(config)
        data = [f for f in outcome.failures if f["category"] == "data"]
        assert sorted((f["language"], f["line"]) for f in data) == [("JA", 0), ("KO", 0)]
        assert all(f["reason"].startswith("source line: ") for f in data)
        assert all("exceeds supported range" in f["reason"] for f in data)
        assert counted == texts

    @pytest.mark.parametrize("text, syllable_count", [
        ("!!!", None),
        ("Remember me, don't let it make you cry", 0),
    ])
    def test_source_line_without_syllables_is_a_data_failure(
        self, tmp_path, text, syllable_count
    ):
        corpus = write_corpus(
            tmp_path, {"alpha": {Language.EN: [["And there's a butterfly", text]]}}
        )
        if syllable_count is not None:
            doc = json.loads(corpus.read_text(encoding="utf-8"))
            doc["alpha"]["en"]["sections"][0]["lines"][1]["syllable_count"] = syllable_count
            corpus.write_text(json.dumps(doc), encoding="utf-8")
        script = write_script(tmp_path, GOOD_SCRIPT)
        code = main(["translate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--mock-script", str(script), "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = next((tmp_path / "runs").glob("translate-*"))
        failures = json.loads((run_dir / "failures.json").read_text(encoding="utf-8"))
        assert failures == [
            {"song_id": "alpha", "language": "KO", "section": 0, "line": 1,
             "category": "data", "reason": "source line has no countable syllables"},
        ]

    # a JSON int past any float overflows the conversion to seconds
    @pytest.mark.parametrize("span", [[0, 10**400], [-5, 10]], ids=["huge", "negative"])
    def test_odd_time_span_is_a_data_failure(self, tmp_path, span):
        corpus = small_corpus(tmp_path, media_url="https://example.test/video.mp4")
        doc = json.loads(corpus.read_text(encoding="utf-8"))
        doc["alpha"]["en"]["sections"][0]["lines"][0]["time_span"] = span
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        script = write_script(tmp_path, GOOD_SCRIPT)
        code = main(["translate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--mock-script", str(script), "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = next((tmp_path / "runs").glob("translate-*"))
        failures = json.loads((run_dir / "failures.json").read_text(encoding="utf-8"))
        assert [(f["line"], f["category"]) for f in failures] == [(0, "data")]
        assert failures[0]["reason"].startswith("time span: ")
        results = (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(r)["line"] for r in results] == [1]


# "Remember me" reprompts twice: a count miss, then no payload
REPROMPT_SCRIPT = {
    "keyed": {
        "And there's a butterfly": ['{"translation": "나비가 날아와"}'],
        "Remember me": ['{"translation": "날"}', "no payload",
                        '{"translation": "날 잊지 마 슬퍼하지는 마"}'],
    }
}


class TestRequestDigests:
    """Every trace record's digest is the ``request_digest`` of a request
    the provider received, however the conversations were hashed."""

    @pytest.mark.parametrize("ablate, media, overrides", [
        (False, False, {}),
        (False, True, {"variant": PipelineVariant(modalities=frozenset(Modality))}),
        (False, True, {"variant": PipelineVariant(modalities=frozenset(Modality)),
                       "parallelism": 2}),
        (True, False, {}),
    ], ids=["text", "media", "media-parallel", "ablate-stages"])
    def test_trace_digests_are_those_of_the_requests_sent(self, tmp_path, monkeypatch,
                                                          ablate, media, overrides):
        received = []
        complete = ScriptedProvider.complete

        def recording(provider, request):
            received.append(request)
            return complete(provider, request)

        monkeypatch.setattr(ScriptedProvider, "complete", recording)
        corpus = small_corpus(tmp_path, media_url="https://example.test/v.mp4" if media else None)
        config = base_config(corpus, write_script(tmp_path, REPROMPT_SCRIPT), tmp_path / "runs",
                             **overrides)
        run_dir = (cmd_ablate(config) if ablate else cmd_translate(config)).run_dir
        traced = [record["request_digest"] for path in sorted(run_dir.rglob("trace.jsonl"))
                  for record in read_trace(path)]
        variants = 4 if ablate else 1
        assert len(received) == 4 * variants
        assert all(bool(request.media) is media for request in received)
        assert sorted(traced) == sorted(request_digest(request) for request in received)
        assert len(set(traced)) == 4 * variants


class TestEvaluate:
    def test_remote_without_key_raises_rather_than_blanking_semantic(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("MAVL_API_KEY", raising=False)
        config = base_config(small_corpus(tmp_path), None, tmp_path / "runs",
                             provider="remote", endpoint="https://models.example",
                             model_id="m")
        with pytest.raises(ProviderAuthError, match="no API key"):
            cmd_evaluate(config)

    def test_uncountable_hypothesis_is_a_component_error(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        hyp = HypothesisSet(provenance="x")
        hyp.entries[LineKey("alpha", Language.KO, 0, 0)] = "나비 1000000"
        hyp.entries[LineKey("alpha", Language.KO, 0, 1)] = "날 잊지 마 슬퍼하지는 마"
        outcome = cmd_evaluate(config, hyp)
        bad = next(row for row in read_scores(outcome.run_dir) if row["line"] == "0")
        for block in ("original", "dubbed"):
            assert (bad[f"{block}_c_ref"], bad[f"{block}_c_pred"]) == ("6", "")
            assert "syllabic: " in bad[f"{block}_errors"]
            assert bad[f"{block}_semantic"] and bad[f"{block}_phonetic"]
        ko_dubbed = outcome.report.groups[(Language.KO, ReferenceKind.DUBBED)]
        assert ko_dubbed.line_count == 2
        assert ko_dubbed.error_rate == 0.0
        assert (outcome.run_dir / "report.json").exists()
        assert "exceeds supported range" in (
            outcome.run_dir / "scores.csv").read_text(encoding="utf-8")

    def test_dubbed_self_comparison_zeros(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        from mavl.harness import _load_dataset

        hyp = HypothesisSet.from_dubbed(_load_dataset(str(corpus)), [Language.KO])
        outcome = cmd_evaluate(config, hyp)
        assert outcome.skipped == 0
        rows = read_scores(outcome.run_dir)
        for row in rows:
            assert row["status"] == "scored"
            assert row["dubbed_se"] == "0.000000"
            assert row["dubbed_scd"] == "0.000000"
            assert row["dubbed_mismatch"] == "0"
            assert row["dubbed_phonetic"] == "0"
            assert row["dubbed_semantic"] == "1.000000"
        stats = outcome.report.groups[(Language.KO, ReferenceKind.DUBBED)]
        assert stats.error_rate == 0.0
        # SE and SCD are never negative, so a mean of 0 is 0 on every row
        assert stats.mean_se == 0.0 and stats.mean_scd == 0.0
        # a cosine is at most 1, so a mean this close keeps each row within 1e-9
        assert stats.mean_semantic == pytest.approx(1.0, abs=1e-9 / len(rows))

    def test_every_line_appears_once(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        hyp = HypothesisSet(provenance="partial")
        hyp.entries[LineKey("alpha", Language.KO, 0, 0)] = "나비가 날아와"
        outcome = cmd_evaluate(config, hyp)
        rows = read_scores(outcome.run_dir)
        keys = [(r["song_id"], r["language"], int(r["section"]), int(r["line"]))
                for r in rows]
        assert sorted(keys) == [
            ("alpha", "KO", 0, 0),
            ("alpha", "KO", 0, 1),
        ]
        assert (outcome.scored, outcome.skipped) == (1, 1)
        skipped = [r for r in rows if r["skip_reason"]]
        assert skipped[0]["skip_reason"] == "no hypothesis for this line"

    def test_line_without_reference_text_is_skipped(self, tmp_path):
        # both the EN line and the KO line are stored unresolved
        text = "나비가 날아와"
        ds = Dataset({"alpha": {
            lang: SongEntry(
                title="alpha", source_url="https://example.test/lyrics",
                media_url=None, language=lang,
                sections=[Section(index=0, lines=[
                    LyricLine(index=0, rep=encode_line(lang, line))])],
            )
            for lang, line in ((Language.EN, "And there's a butterfly"),
                               (Language.KO, text))
        }})
        corpus = tmp_path / "corpus.json"
        corpus.write_bytes(serialize_dataset(ds))
        config = base_config(corpus, write_script(tmp_path, GOOD_SCRIPT), tmp_path / "runs")
        hyp = HypothesisSet(provenance="x")
        hyp.entries[LineKey("alpha", Language.KO, 0, 0)] = text
        outcome = cmd_evaluate(config, hyp)
        assert outcome.skipped == 1
        assert outcome.report is None
        (row,) = read_scores(outcome.run_dir)
        assert row["skip_reason"] == "no reference text for this line"
        assert row["hypothesis"] == text
        # neither reference block holds a score
        assert not any(cell for name, cell in row.items()
                       if name.startswith(("original_", "dubbed_")))
        assert not (outcome.run_dir / "report.json").exists()
        assert "no reference text for this line" in (
            outcome.run_dir / "scores.csv").read_text(encoding="utf-8")

    def test_both_reference_blocks_scored(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        translated = cmd_translate(config)
        outcome = cmd_evaluate(config, translated.hypotheses)
        row = read_scores(outcome.run_dir)[0]
        # each block is scored against its own reference
        assert row["original_reference"] == "And there's a butterfly"
        assert row["original_c_ref"] and row["original_se"]
        assert row["dubbed_reference"] == "나비가 날아와"
        assert row["dubbed_c_ref"] and row["dubbed_se"]
        assert (Language.KO, ReferenceKind.ORIGINAL_EN) in outcome.report.groups
        assert (Language.KO, ReferenceKind.DUBBED) in outcome.report.groups

    def test_unresolvable_hypothesis_key_is_data_error(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        hyp = HypothesisSet(provenance="x")
        hyp.entries[LineKey("alpha", Language.KO, 7, 7)] = "text"
        with pytest.raises(DatasetValidationError):
            cmd_evaluate(config, hyp)

    def test_csv_is_deterministic_across_runs(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        from mavl.harness import _load_dataset

        hyp = HypothesisSet.from_dubbed(_load_dataset(str(corpus)), [Language.KO])
        first = cmd_evaluate(config, hyp)
        second = cmd_evaluate(config, hyp)
        csv_a = (first.run_dir / "scores.csv").read_bytes()
        csv_b = (second.run_dir / "scores.csv").read_bytes()
        assert csv_a == csv_b
        assert first.run_dir != second.run_dir


class CountingEmbedder:
    """An EmbeddingProvider that records each batch it is sent, and spoils
    the answer to any batch holding ``marker``."""

    def __init__(self, marker=None, spoil=None):
        self.marker, self.spoil = marker, spoil
        self.calls = []

    def embed_batch(self, request):
        self.calls.append(request.texts)
        vectors = HashEmbeddingProvider().embed_batch(request)
        if self.marker in request.texts:
            return self.spoil(vectors)
        return vectors


def raise_transient(vectors):
    raise TransientProviderError("endpoint hiccup")


def drop_one_vector(vectors):
    return vectors[:-1]


class TestEmbedBatching:
    """evaluate embeds each distinct text of a song once, at most 64 texts per
    call; this corpus is one song, so each distinct text is embedded once."""

    LINES = 50

    def evaluate(self, tmp_path, monkeypatch, embedder, out):
        monkeypatch.setattr("mavl.harness.HashEmbeddingProvider", lambda: embedder)
        monkeypatch.setattr(RetryPolicy, "delay_for", lambda self, attempt: 0.0)
        n = self.LINES
        corpus = write_corpus(tmp_path, {"alpha": {
            Language.EN: [[f"we sing {i} times" for i in range(n)]],
            Language.KO: [[f"나비 {i} 마리" for i in range(n)]],
        }})
        hyp = HypothesisSet(provenance="x", entries={
            LineKey("alpha", Language.KO, 0, i): f"나비가 {i}" for i in range(n)})
        hyp_path = tmp_path / "hyp.jsonl"
        hyp_path.write_text(hyp.to_jsonl(), encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp_path), "--out", str(tmp_path / out)])
        (scores,) = (tmp_path / out).glob("evaluate-*/scores.csv")
        with open(scores, encoding="utf-8", newline="") as fh:
            return code, list(csv.DictReader(fh))

    def test_each_distinct_text_is_sent_once(self, tmp_path, monkeypatch, capsys):
        embedder = CountingEmbedder()
        code, rows = self.evaluate(tmp_path, monkeypatch, embedder, "runs")
        assert code == 0
        sent = [text for call in embedder.calls for text in call]
        texts = {row[name] for row in rows
                 for name in ("original_reference", "dubbed_reference", "hypothesis")}
        assert len(texts) == 3 * self.LINES
        assert sorted(sent) == sorted(texts)
        assert len(embedder.calls) == math.ceil(len(texts) / 64)
        assert all(len(call) <= 64 for call in embedder.calls)

    @pytest.mark.parametrize("spoil,attempts", [
        (raise_transient, RetryPolicy.attempts),
        (drop_one_vector, 1),
    ], ids=["raises-after-retries", "wrong-vector-count"])
    def test_failed_batch_is_a_semantic_error_on_its_lines_alone(
            self, tmp_path, monkeypatch, capsys, spoil, attempts):
        _, good = self.evaluate(tmp_path, monkeypatch, CountingEmbedder(), "good")
        # the middle batch: a row's texts fall on both sides of its bounds
        embedder = CountingEmbedder(marker="나비가 30", spoil=spoil)
        code, rows = self.evaluate(tmp_path, monkeypatch, embedder, "spoiled")
        assert code == 0
        spoiled = [call for call in embedder.calls if "나비가 30" in call]
        assert len(spoiled) == attempts and len(set(spoiled)) == 1
        failed = set(spoiled[0])
        hit = 0
        for row, want in zip(rows, good, strict=True):
            for kind in ("original", "dubbed"):
                expect = bool({row[f"{kind}_reference"], row["hypothesis"]} & failed)
                hit += expect
                assert ("semantic: " in row[f"{kind}_errors"]) == expect
                assert (row[f"{kind}_semantic"] == "") == expect
                for name in ("c_ref", "c_pred", "se", "scd", "mismatch", "phonetic"):
                    assert row[f"{kind}_{name}"] == want[f"{kind}_{name}"]
                if not expect:
                    assert row[f"{kind}_semantic"] == want[f"{kind}_semantic"]
                    assert row[f"{kind}_errors"] == want[f"{kind}_errors"] == ""
        assert 0 < hit < 2 * self.LINES


class TestOneCallPerSong:
    """evaluate scores each song in its own ``score_pairs`` call, so no embedder
    call mixes songs, and a text two songs share is embedded once for each."""

    SHARED = "Remember me"
    # beta's texts alone fill more than one embedder call
    BETA_LINES = EMBED_BATCH // 2 + 1

    def evaluate(self, tmp_path, monkeypatch, score_pairs, out):
        embedder = CountingEmbedder()
        monkeypatch.setattr("mavl.harness.HashEmbeddingProvider", lambda: embedder)
        monkeypatch.setattr(LineScorer, "score_pairs", score_pairs)
        n = self.BETA_LINES
        corpus = write_corpus(tmp_path, {
            "alpha": {
                Language.EN: [["And there's a butterfly", self.SHARED]],
                # the third line has no EN line to be scored against
                Language.KO: [["나비가 날아와", "날 잊지 마", "세 달의 겨울"]],
            },
            "beta": {
                Language.EN: [[self.SHARED] + [f"we sing {i} times" for i in range(1, n)]],
                Language.KO: [[f"나비 {i} 마리" for i in range(n)]],
            },
        })
        hyp = HypothesisSet(provenance="x", entries={
            LineKey(song, Language.KO, 0, i): f"{song} {i}"
            for song, lines in (("alpha", 3), ("beta", n)) for i in range(lines)
            # one line of each song has no hypothesis, and is skipped
            if (song, i) not in {("alpha", 0), ("beta", 1)}})
        hyp_path = tmp_path / "hyp.jsonl"
        hyp_path.write_text(hyp.to_jsonl(), encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp_path), "--out", str(tmp_path / out)])
        assert code == 0
        (scores,) = (tmp_path / out).glob("evaluate-*/scores.csv")
        return embedder.calls, scores.read_bytes()

    @staticmethod
    def recording(calls):
        """``LineScorer.score_pairs``, appending each call's scorer and pairs to ``calls``."""
        original = LineScorer.score_pairs

        def score_pairs(scorer, pairs):
            calls.append((scorer, pairs))
            return original(scorer, pairs)
        return score_pairs

    def test_each_call_scores_one_song(self, tmp_path, monkeypatch, capsys):
        calls = []
        batches, _ = self.evaluate(tmp_path, monkeypatch, self.recording(calls), "runs")
        alpha, beta = ({text for pair in pairs for text in pair[:2]} for _, pairs in calls)
        assert alpha & beta == {self.SHARED}
        assert all(text.startswith("alpha ") for _, text, *_ in calls[0][1])
        assert all(text.startswith("beta ") for _, text, *_ in calls[1][1])
        # two lines of alpha are scored, one against EN alone; n - 1 of beta
        assert [len(pairs) for _, pairs in calls] == [3, 2 * (self.BETA_LINES - 1)]
        assert len(beta) > EMBED_BATCH
        assert [set(batch) <= alpha for batch in batches] == [True, False, False]
        assert all(set(batch) <= beta for batch in batches[1:])
        assert sorted(t for batch in batches for t in batch) == sorted([*alpha, *beta])

    def test_scores_equal_one_call_over_every_pair(self, tmp_path, monkeypatch, capsys):
        original, calls = LineScorer.score_pairs, []
        _, per_song = self.evaluate(tmp_path, monkeypatch, self.recording(calls), "per-song")
        every = [pair for _, pairs in calls for pair in pairs]
        scores = iter(original(calls[0][0], every))
        _, whole = self.evaluate(
            tmp_path, monkeypatch,
            lambda scorer, pairs: [next(scores) for _ in pairs], "whole")
        assert next(scores, None) is None
        assert per_song == whole


class TestRemoteConnections:
    """A remote command closes the connections it kept alive before it
    returns, even while its provider is still referenced."""

    @pytest.fixture
    def server(self, monkeypatch):
        monkeypatch.setenv("MAVL_API_KEY", "sekrit")
        server = Loopback()
        yield server
        server.close()

    @pytest.fixture
    def providers(self, monkeypatch):
        made = []

        def remote_provider(config):
            made.append(RemoteProvider(config.endpoint, config.model_id))
            return made[-1]

        monkeypatch.setattr("mavl.harness._remote_provider", remote_provider)
        return made

    def config(self, tmp_path, server, **overrides):
        return RunConfig(
            dataset_path=str(small_corpus(tmp_path)), target_langs=(Language.KO,),
            provider="remote", endpoint=server.url, model_id="m",
            out_dir=str(tmp_path / "runs"), **overrides,
        )

    def assert_all_closed(self, server):
        for _ in set(server.peers()):
            assert server.closed.acquire(timeout=5.0)

    def test_translate(self, tmp_path, server, providers):
        def answer(handler):
            reply(200, json.dumps({"text": '{"translation": "나비"}'}).encode())(handler)

        server.actions = [answer] * 20
        cmd_translate(self.config(tmp_path, server, parallelism=2, failure_threshold=1.0))
        assert len(providers) == 1 and server.received
        self.assert_all_closed(server)

    def test_evaluate(self, tmp_path, server, providers):
        def answer(handler):
            texts = json.loads(handler.body)["texts"]
            vectors = HashEmbeddingProvider().embed_batch(EmbeddingRequest(tuple(texts)))
            reply(200, json.dumps({"vectors": vectors}).encode())(handler)

        server.actions = [answer] * 20
        outcome = cmd_evaluate(self.config(tmp_path, server))
        assert outcome.report is not None
        assert len(providers) == 1 and server.received
        self.assert_all_closed(server)

    @pytest.mark.parametrize("status", [401, 403])
    def test_evaluate_with_a_refused_key_raises(self, tmp_path, server, providers, status):
        server.actions = [reply(status, b"{}")]
        with pytest.raises(ProviderAuthError, match=f"HTTP {status}"):
            cmd_evaluate(self.config(tmp_path, server))
        assert len(server.received) == 1
        self.assert_all_closed(server)


STAGE_LABELS = {
    "T nolist+norefine", "T nolist+refine", "T list+norefine", "T list+refine",
}
MODALITY_LABELS = {
    "T list+refine", "T+V list+refine", "T+A list+refine", "T+A+V list+refine",
}


def group_line_counts(summary):
    return {
        key: group["line_count"]
        for key, group in summary["report"]["groups"].items()
    }


class TestAblate:
    def test_stage_grid_runs_four_variants(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        grid = [
            PipelineVariant(use_syllable_list=use_list, use_refine=use_refine)
            for use_list, use_refine in STAGE_GRID
        ]
        assert set(outcome.summaries) == STAGE_LABELS == {v.label() for v in grid}
        for summary in outcome.summaries.values():
            assert group_line_counts(summary) == {"KO/original_en": 2, "KO/dubbed": 2}
            assert summary["failures"] == 0
        sub_translates = list(outcome.run_dir.glob("translate-*"))
        assert len(sub_translates) == 4
        assert (outcome.run_dir / "comparison.txt").read_text(
            encoding="utf-8") == outcome.table
        comparison = json.loads(
            (outcome.run_dir / "comparison.json").read_text(encoding="utf-8"))
        assert comparison == outcome.summaries
        for label in outcome.summaries:
            assert f"provider: mock:{label}" in outcome.table.splitlines()

    def test_summary_is_the_evaluate_report(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        written = {}
        for sub in outcome.run_dir.glob("evaluate-*"):
            report = json.loads((sub / "report.json").read_text(encoding="utf-8"))
            written[report["provider"]] = report
            assert (sub / "report.txt").read_text(encoding="utf-8") in outcome.table
        assert written == {
            f"mock:{label}": summary["report"]
            for label, summary in outcome.summaries.items()
        }

    def test_references_stay_apart(self, tmp_path):
        # the translation matches the EN count (6) but not the dub's (5)
        corpus = write_corpus(
            tmp_path,
            {"alpha": {Language.EN: [["And there's a butterfly"]],
                       Language.KO: [["나비 날아와"]]}},
        )
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        for summary in outcome.summaries.values():
            groups = summary["report"]["groups"]
            assert set(groups) == {"KO/original_en", "KO/dubbed"}
            assert groups["KO/original_en"]["line_count"] == 1
            assert groups["KO/original_en"]["error_rate"] == 0.0
            assert groups["KO/original_en"]["mean_se"] == 0.0
            assert groups["KO/dubbed"]["line_count"] == 1
            assert groups["KO/dubbed"]["error_rate"] == 1.0
            assert groups["KO/dubbed"]["mean_se"] == 2.0

    def test_comparison_files_identical_across_reruns(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        first = cmd_ablate(config, grid="modalities")
        second = cmd_ablate(config, grid="modalities")
        assert first.run_dir != second.run_dir
        for name in ("comparison.json", "comparison.txt"):
            assert (first.run_dir / name).read_bytes() == (
                second.run_dir / name).read_bytes()

    def test_case_with_no_scored_lines(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, ["no payload here"] * 6)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        assert outcome.summaries == {
            label: {"failures": 2, "report": None} for label in STAGE_LABELS
        }
        for label in STAGE_LABELS:
            assert f"{label}: no scored lines" in outcome.table.splitlines()

    def test_corpus_without_the_target_language(self, tmp_path):
        # every case translates both EN lines, and no song has a KO entry
        corpus = write_corpus(tmp_path, {"alpha": {Language.EN: [[
            "And there's a butterfly", "Remember me, don't let it make you cry"]]}})
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        assert outcome.summaries == {
            label: {"failures": 0, "report": None} for label in STAGE_LABELS
        }
        for label in STAGE_LABELS:
            assert f"{label}: no scored lines" in outcome.table.splitlines()
        comparison = json.loads(
            (outcome.run_dir / "comparison.json").read_text(encoding="utf-8"))
        assert comparison == outcome.summaries
        for translated in outcome.run_dir.glob("translate-*"):
            hypotheses = (translated / "hypotheses.jsonl").read_text(encoding="utf-8")
            assert len(hypotheses.splitlines()) == 3

    def test_only_songs_with_a_target_entry_are_scored(self, tmp_path):
        corpus = write_corpus(tmp_path, {
            "alpha": {Language.EN: [["And there's a butterfly",
                                     "Remember me, don't let it make you cry"]],
                      Language.KO: [["나비가 날아와", "날 잊지 마 슬퍼하지는 마"]]},
            "beta": {Language.EN: [["Three months of winter coolness"]]},
        })
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        for summary in outcome.summaries.values():
            assert summary["failures"] == 0
            assert group_line_counts(summary) == {"KO/original_en": 2, "KO/dubbed": 2}
        for evaluated in outcome.run_dir.glob("evaluate-*"):
            rows = (evaluated / "scores.csv").read_text(encoding="utf-8").splitlines()
            assert [row.split(",")[0] for row in rows[1:]] == ["alpha", "alpha"]

    def test_target_entry_shorter_than_the_en_entry(self, tmp_path):
        # the second EN line has no KO counterpart, so only the first is scored
        corpus = write_corpus(tmp_path, {"alpha": {
            Language.EN: [["And there's a butterfly", "Remember me, don't let it make you cry"]],
            Language.KO: [["나비가 날아와"]],
        }})
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        assert set(outcome.summaries) == STAGE_LABELS
        for summary in outcome.summaries.values():
            assert group_line_counts(summary) == {"KO/original_en": 1, "KO/dubbed": 1}
        comparison = json.loads(
            (outcome.run_dir / "comparison.json").read_text(encoding="utf-8"))
        assert comparison == outcome.summaries
        for translated in outcome.run_dir.glob("translate-*"):
            hypotheses = (translated / "hypotheses.jsonl").read_text(encoding="utf-8")
            assert '"line": 1' in hypotheses

    def test_stage_grid_rejects_direct_variant(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(
            corpus, script, tmp_path / "runs",
            variant=PipelineVariant(style=PromptStyle.DIRECT),
        )
        with pytest.raises(ConfigError):
            cmd_ablate(config, grid="stages")
        assert not (tmp_path / "runs").exists()

    def test_modality_grid_skips_av_without_media(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="modalities")
        grid = [PipelineVariant(modalities=mods) for mods in MODALITY_GRID]
        assert set(outcome.summaries) == MODALITY_LABELS == {v.label() for v in grid}
        for label in ("T+A list+refine", "T+V list+refine", "T+A+V list+refine"):
            assert outcome.summaries[label] == {"skipped": "no media in dataset"}
            assert f"{label}: skipped, no media in dataset" in outcome.table.splitlines()
        assert group_line_counts(outcome.summaries["T list+refine"]) == {
            "KO/original_en": 2, "KO/dubbed": 2,
        }

    def test_modality_grid_runs_with_media(self, tmp_path):
        corpus = small_corpus(tmp_path, media_url="https://example.test/video.mp4")
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        outcome = cmd_ablate(config, grid="modalities")
        assert set(outcome.summaries) == MODALITY_LABELS
        for summary in outcome.summaries.values():
            assert group_line_counts(summary) == {"KO/original_en": 2, "KO/dubbed": 2}

    def test_unknown_grid_rejected(self, tmp_path):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        config = base_config(corpus, script, tmp_path / "runs")
        with pytest.raises(ConfigError):
            cmd_ablate(config, grid="sideways")


class TestStats:
    def test_empty_dataset_all_zero(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}", encoding="utf-8")
        stats, table = cmd_stats(str(path))
        assert stats.per_language == {}
        for label in ("songs", "sections", "lines"):
            row = next(l for l in table.splitlines() if l.startswith(label))
            assert set(row.split()[1:]) == {"0"}

    def test_counts_echoed_exactly(self, tmp_path):
        corpus = write_corpus(
            tmp_path,
            {
                "song-a": {
                    Language.EN: [
                        ["one two", "three four", "five six"],
                        ["seven eight", "nine ten", "eleven twelve"],
                        ["a b", "c d", "e f"],
                    ],
                },
                "song-b": {
                    Language.EN: [
                        ["g h", "i j", "k l", "m n"],
                        ["o p", "q r", "s t", "u v"],
                    ],
                },
            },
        )
        stats, table = cmd_stats(str(corpus))
        per = stats.per_language[Language.EN]
        assert (per.songs, per.sections, per.lines) == (2, 5, 17)

    def test_missing_language_rendered_as_dash(self, tmp_path):
        corpus = small_corpus(tmp_path)
        _stats, table = cmd_stats(str(corpus))
        lines = table.splitlines()
        header = lines[0].split()
        songs_row = next(l for l in lines if l.startswith("songs")).split()
        by_lang = dict(zip(header, songs_row[1:]))
        assert by_lang["EN"] == "1"
        assert by_lang["KO"] == "1"
        assert by_lang["ES"] == "-"
        assert by_lang["JA"] == "-"


class TestCli:
    def test_evaluate_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        """No output follows the iteration order of a set, so ``Language`` and
        ``ReferenceKind`` may hash by identity: evaluate in two processes with
        different str hash seeds writes the same bytes."""
        corpus = write_corpus(tmp_path, {
            "alpha": {
                Language.EN: [["And there's a butterfly", "Remember me"],
                              ["Three months of winter coolness"]],
                Language.ES: [["Y hay una mariposa", "Recuérdame"],
                              ["Tres meses de frío invernal"]],
                Language.FR: [["Et voici un papillon", "Souviens-toi"],
                              ["Trois mois de froid"]],
                Language.KO: [["나비가 날아와", "날 잊지 마"], ["세 달의 겨울 추위"]],
                Language.JA: [["ちょうがとぶ", "わすれないで"], ["みつきのふゆ"]],
            },
            "beta": {
                Language.EN: [["Remember me", "Sing it 7 times"]],
                Language.JA: [["ゆめのそら", "7かいうたって"]],
                Language.KO: [["기억해 줘", "일곱 번 불러"]],
            },
        })
        from mavl.harness import _load_dataset

        targets = [lang for lang in Language if lang is not Language.EN]
        hyp = HypothesisSet.from_dubbed(_load_dataset(str(corpus)), targets)
        for key, text in hyp.entries.items():
            hyp.entries[key] = text[::-1] if key[3] % 2 else text + " 2"
        hyp_path = tmp_path / "hyp.jsonl"
        hyp_path.write_text(hyp.to_jsonl(), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "1"):
            out_dir = tmp_path / f"runs-{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run(
                [sys.executable, "-m", "mavl.cli", "evaluate", "--dataset", str(corpus),
                 "--hypotheses", str(hyp_path), "--out", str(out_dir)],
                env=env, capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            (run_dir,) = out_dir.iterdir()
            outputs.append([done.stdout] + [
                (run_dir / name).read_bytes()
                for name in ("scores.csv", "report.json", "report.txt")
            ])
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0][2])["groups"]) == 8  # 4 languages x 2 references

    def test_uncountable_numerals_do_not_abort(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, NUMERAL_SCRIPT)
        common = ["--dataset", str(corpus), "--target-lang", "KO",
                  "--out", str(tmp_path / "runs")]
        assert main(["translate", *common, "--mock-script", str(script)]) == 0
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(
            '{"provenance": "x"}\n'
            '{"song_id": "alpha", "language": "KO", "section": 0, "line": 0, '
            '"text": "나비 1000000"}\n',
            encoding="utf-8",
        )
        assert main(["evaluate", *common, "--hypotheses", str(hyp)]) == 0

    def test_stats_command(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        assert main(["stats", "--dataset", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "EN" in out and "songs" in out

    def test_translate_then_evaluate(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        out_dir = tmp_path / "runs"
        code = main(
            [
                "translate",
                "--dataset", str(corpus),
                "--target-lang", "KO",
                "--mock-script", str(script),
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "translated lines: 2" in stdout
        hyp_path = next(out_dir.glob("translate-*/hypotheses.jsonl"))
        code = main(
            [
                "evaluate",
                "--dataset", str(corpus),
                "--target-lang", "KO",
                "--hypotheses", str(hyp_path),
                "--out", str(out_dir),
                "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("song_id,language,section,line,")
        assert "나비가 날아와" in out
        # the scores.csv the run wrote, byte for byte
        (scores,) = out_dir.glob("evaluate-*/scores.csv")
        assert out.encode("utf-8") == scores.read_bytes()

    def test_evaluate_from_dubbed(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        code = main(
            [
                "evaluate",
                "--dataset", str(corpus),
                "--target-lang", "KO",
                "--from-dubbed",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vs dubbed" in out

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        code = main(["stats", "--dataset", str(tmp_path / "nope.json")])
        assert code == 2

    def test_corrupt_dataset_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("this is not json", encoding="utf-8")
        assert main(["stats", "--dataset", str(path)]) == 3

    @pytest.mark.parametrize("command", ["stats", "translate", "evaluate"])
    def test_two_keys_for_one_language_exit_3_before_the_run_directory(
        self, tmp_path, capsys, command
    ):
        corpus = small_corpus(tmp_path)
        doc = json.loads(corpus.read_text(encoding="utf-8"))
        doc["alpha"]["EN"] = doc["alpha"]["en"]
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        script = write_script(tmp_path, GOOD_SCRIPT)
        out_dir = tmp_path / "runs"
        argv = [command, "--dataset", str(corpus)]
        if command == "translate":
            argv += ["--target-lang", "KO", "--mock-script", str(script),
                     "--out", str(out_dir)]
        elif command == "evaluate":
            argv += ["--target-lang", "KO", "--from-dubbed", "--out", str(out_dir)]
        assert main(argv) == 3
        assert "alpha: key 'EN' repeats language EN" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_threshold_exit_code(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = write_script(
            tmp_path,
            {
                "keyed": {
                    "And there's a butterfly": ['{"translation": "나비가 날아와"}'],
                    "Remember me": ["junk", "junk", "junk"],
                }
            },
        )
        code = main(
            [
                "translate",
                "--dataset", str(corpus),
                "--target-lang", "KO",
                "--mock-script", str(script),
                "--out", str(tmp_path / "runs"),
                "--failure-threshold", "0.4",
            ]
        )
        assert code == 5

    def test_remote_without_key_is_provider_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MAVL_API_KEY", raising=False)
        corpus = small_corpus(tmp_path)
        code = main(
            [
                "translate",
                "--dataset", str(corpus),
                "--target-lang", "KO",
                "--provider", "remote",
                "--endpoint", "https://models.example",
                "--model-id", "m",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 4

    def test_remote_evaluate_without_key_is_provider_error(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.delenv("MAVL_API_KEY", raising=False)
        code = main(["evaluate", "--dataset", str(small_corpus(tmp_path)),
                     "--target-lang", "KO", "--from-dubbed", "--provider", "remote",
                     "--endpoint", "https://models.example", "--model-id", "m",
                     "--out", str(tmp_path / "runs")])
        assert code == 4
        assert "provider error: no API key" in capsys.readouterr().err
        assert not list((tmp_path / "runs").rglob("scores.csv"))

    @pytest.mark.parametrize("command", ["translate", "evaluate", "ablate"])
    def test_a_missing_key_leaves_no_run_directory(self, tmp_path, capsys, monkeypatch,
                                                   command):
        monkeypatch.delenv("MAVL_API_KEY", raising=False)
        extra = ["--from-dubbed"] if command == "evaluate" else []
        code = main([command, "--dataset", str(small_corpus(tmp_path)),
                     "--target-lang", "KO", "--provider", "remote",
                     "--endpoint", "https://models.example", "--model-id", "m",
                     "--out", str(tmp_path / "runs"), *extra])
        assert code == 4
        assert "provider error: no API key" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("host", ["a..b", "a" * 64 + ".example"],
                             ids=["empty-label", "label-over-63"])
    def test_remote_host_dns_cannot_take_is_a_provider_failure(self, tmp_path, capsys,
                                                               monkeypatch, host):
        monkeypatch.setenv("MAVL_API_KEY", "sekrit")
        corpus = small_corpus(tmp_path)
        code = main(["translate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--provider", "remote", "--endpoint", f"http://{host}/v1",
                     "--model-id", "m", "--out", str(tmp_path / "runs")])
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err
        run_dir = next((tmp_path / "runs").iterdir())
        failures = json.loads((run_dir / "failures.json").read_text(encoding="utf-8"))
        assert [(f["line"], f["category"], f["reason"]) for f in failures] == [
            (line, "provider", f"bad endpoint URL 'http://{host}/v1/complete'")
            for line in (0, 1)]

    @pytest.mark.parametrize("missing", ["--endpoint", "--model-id"])
    def test_remote_evaluate_needs_endpoint_and_model(self, tmp_path, capsys, missing):
        corpus = small_corpus(tmp_path)
        flags = {"--endpoint": "https://models.example", "--model-id": "m"}
        del flags[missing]
        argv = ["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                "--from-dubbed", "--provider", "remote", "--out", str(tmp_path / "runs")]
        for flag, value in flags.items():
            argv += [flag, value]
        assert main(argv) == 2
        assert "endpoint and a model id" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_remote_endpoint_needs_http_scheme(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        code = main(["translate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--provider", "remote", "--endpoint", "models.example:8000",
                     "--model-id", "m", "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "http(s) URL" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, under):
        corpus = small_corpus(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        out = afile / "runs" if under else afile
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--from-dubbed", "--out", str(out)])
        assert code == 2
        assert f"error: cannot make a run directory in {out}: " in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "kept\n"

    def test_bad_mock_script_leaves_no_run_directory(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = tmp_path / "script.json"
        script.write_text("{not json", encoding="utf-8")
        out_dir = tmp_path / "runs"
        out_dir.mkdir()
        code = main(["translate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--mock-script", str(script), "--out", str(out_dir)])
        assert code == 2
        assert list(out_dir.iterdir()) == []

    def test_from_dubbed_parses_the_dataset_once(self, tmp_path, capsys, monkeypatch):
        import mavl.harness

        calls = []
        parse = mavl.harness.parse_dataset

        def counting_parse(data):
            calls.append(1)
            return parse(data)

        monkeypatch.setattr(mavl.harness, "parse_dataset", counting_parse)
        corpus = small_corpus(tmp_path)
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--from-dubbed", "--out", str(tmp_path / "runs")])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("field,value", [
        ("section", 0.9), ("section", True), ("section", "0"),
        ("line", 0.9), ("line", True), ("line", "0"),
        ("song_id", ["alpha"]),
    ], ids=["section-float", "section-bool", "section-string", "line-float",
            "line-bool", "line-string", "song_id-array"])
    def test_hypothesis_key_of_wrong_type_exits_3(self, tmp_path, capsys, field, value):
        corpus = small_corpus(tmp_path)
        record = {"song_id": "alpha", "language": "KO", "section": 0, "line": 0,
                  "text": "나비가 날아와", field: value}
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"provenance": "x"}\n' + json.dumps(record) + "\n",
                       encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp), "--out", str(tmp_path / "runs")])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["evaluate", "--from-dubbed", "--beta", "nan"],
        ["evaluate", "--from-dubbed", "--beta", "inf"],
        ["translate", "--max-reprompts", "-1"],
    ], ids=["beta-nan", "beta-inf", "max-reprompts-negative"])
    def test_bad_number_exits_2_before_the_run_directory(self, tmp_path, capsys, flags):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, ['{"translation": "나비가 날아와"}'])
        out_dir = tmp_path / "runs"
        out_dir.mkdir()
        argv = [flags[0], "--dataset", str(corpus), "--target-lang", "KO",
                "--out", str(out_dir), *flags[1:]]
        if flags[0] == "translate":
            argv += ["--mock-script", str(script)]
        assert main(argv) == 2
        assert list(out_dir.iterdir()) == []

    def test_duplicate_hypothesis_key_exits_3(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        key = {"song_id": "alpha", "language": "KO", "section": 0, "line": 0}
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(
            '{"provenance": "x"}\n'
            + json.dumps({**key, "text": "나비가 날아와"}) + "\n"
            + json.dumps({**key, "text": "나비"}) + "\n",
            encoding="utf-8",
        )
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp), "--out", str(tmp_path / "runs")])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_lone_surrogate_hypothesis_exits_3_before_the_run_directory(
        self, tmp_path, capsys
    ):
        # json.dumps writes the surrogate as the escape "\ud800", which loads back
        corpus = small_corpus(tmp_path)
        record = {"song_id": "alpha", "language": "KO", "section": 0, "line": 0,
                  "text": "나비가 \ud800"}
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"provenance": "x"}\n' + json.dumps(record) + "\n",
                       encoding="utf-8")
        out_dir = tmp_path / "runs"
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp), "--out", str(out_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "U+D800" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("section,line", [(-1, 0), (0, -1), (0, 2), (1, 0)],
                             ids=["section-negative", "line-negative",
                                  "line-past-end", "section-past-end"])
    def test_hypothesis_key_outside_the_dataset_exits_3(self, tmp_path, capsys,
                                                        section, line):
        corpus = small_corpus(tmp_path)
        record = {"song_id": "alpha", "language": "KO", "section": section,
                  "line": line, "text": "나비가 날아와"}
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"provenance": "x"}\n' + json.dumps(record) + "\n",
                       encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp), "--out", str(tmp_path / "runs")])
        assert code == 3
        assert "does not resolve to a dataset line" in capsys.readouterr().err

    def test_hypothesis_of_a_song_without_that_language_exits_3(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, {"alpha": {Language.EN: [["And there's a butterfly"]]}})
        record = {"song_id": "alpha", "language": "KO", "section": 0, "line": 0,
                  "text": "나비가 날아와"}
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"provenance": "x"}\n' + json.dumps(record) + "\n",
                       encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp), "--out", str(tmp_path / "runs")])
        assert code == 3
        assert ("alpha/ko/section[0]/line[0]: hypothesis key does not resolve to a "
                "dataset entry" in capsys.readouterr().err)

    def test_en_hypothesis_exits_3_before_the_run_directory(self, tmp_path, capsys):
        # evaluate scores no EN line, so an EN record would vanish unscored
        corpus = small_corpus(tmp_path)
        record = {"song_id": "alpha", "language": "EN", "section": 0, "line": 0,
                  "text": "And there's a butterfly"}
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"provenance": "x"}\n' + json.dumps(record) + "\n",
                       encoding="utf-8")
        out_dir = tmp_path / "runs"
        code = main(["evaluate", "--dataset", str(corpus), "--hypotheses", str(hyp),
                     "--out", str(out_dir)])
        assert code == 3
        assert ("alpha/en/section[0]/line[0]: EN is the source language"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_config_file_defaults_with_flag_override(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment defaults\n"
            "failure-threshold=0.3\n"
            "target_lang=KO\n"
            f"mock-script={script}\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "runs"
        code = main(
            [
                "translate",
                "--dataset", str(corpus),
                "--config", str(cfg),
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        echoed = json.loads(
            next(out_dir.glob("translate-*/config.json")).read_text(encoding="utf-8")
        )
        assert echoed["failure_threshold"] == 0.3
        assert echoed["target_langs"] == ["KO"]

    @pytest.mark.parametrize("spelling", [
        ["--config", "{cfg}"],
        ["--config={cfg}"],
        ["--conf", "{cfg}"],
        ["--conf={cfg}"],
    ], ids=["separate", "equals", "abbreviated", "abbreviated-equals"])
    def test_config_file_spellings(self, tmp_path, capsys, spelling):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"failure-threshold=0.3\nmax-reprompts=1\ntarget_lang=KO\n"
            f"mock-script={script}\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "runs"
        flags = [part.format(cfg=cfg) for part in spelling]
        code = main(["translate", "--dataset", str(corpus), *flags,
                     "--failure-threshold", "0.45", "--out", str(out_dir)])
        assert code == 0
        echoed = json.loads(
            next(out_dir.glob("translate-*/config.json")).read_text(encoding="utf-8")
        )
        assert echoed["failure_threshold"] == 0.45
        assert echoed["max_reprompts"] == 1
        assert echoed["target_langs"] == ["KO"]

    def test_config_flag_without_value_exits_2(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["translate", "--dataset", str(corpus), "--config"])
        assert excinfo.value.code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("command,bad_file,content,code,where", [
        ("evaluate", "dataset", None, 3, "byte"),
        ("evaluate", "dataset", lambda en: en["sections"][0]["lines"][0].update(
            syllable_count="6"), 3, "alpha/en/section[0]/line[0]"),
        ("evaluate", "dataset", lambda en: en["sections"][0]["lines"][0].update(
            text=6), 3, "alpha/en/section[0]/line[0]"),
        ("evaluate", "dataset", lambda en: en["sections"][0].update(lines=None),
         3, "alpha/en/section[0]"),
        ("evaluate", "dataset", lambda en: en.update(sections=None), 3, "alpha/en"),
        ("evaluate", "hypotheses", b"not json\n", 3, "line 2"),
        ("evaluate", "hypotheses", b"[1, 2]\n", 3, "line 2"),
        ("evaluate", "hypotheses", b'{"song_id": "alpha", "language": "KO", '
         b'"section": null, "line": 0, "text": "x"}\n', 3, "line 2"),
        ("evaluate", "hypotheses", b'{"song_id": "alpha", "language": "KO", '
         b'"section": 0, "line": 0, "text": 6}\n', 3, "line 2"),
        ("translate", "script", b"{not json", 2, "mock script"),
        ("translate", "script", b'{"keyed": {"And": [{"translation": "x"}]}}', 2,
         '"keyed" queue "And", turn 0'),
    ], ids=["dataset-not-utf8", "dataset-count-string", "dataset-number-text",
            "dataset-null-lines", "dataset-null-sections", "hyp-not-json",
            "hyp-not-object", "hyp-null-section", "hyp-number-text",
            "script-not-json", "script-object-turn"])
    def test_bad_input_file_exits_with_location(self, tmp_path, capsys, command,
                                                bad_file, content, code, where):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"provenance": "x"}\n', encoding="utf-8")
        if bad_file == "dataset" and content is None:
            corpus.write_bytes(corpus.read_bytes().replace(b'"alpha"', b'"\xff"', 1))
        elif bad_file == "dataset":
            doc = json.loads(corpus.read_text(encoding="utf-8"))
            content(doc["alpha"]["en"])
            corpus.write_text(json.dumps(doc), encoding="utf-8")
        elif bad_file == "hypotheses":
            hyp.write_bytes(hyp.read_bytes() + content)
        else:
            script.write_bytes(content)
        argv = [command, "--dataset", str(corpus), "--target-lang", "KO",
                "--out", str(tmp_path / "runs")]
        if command == "evaluate":
            argv += ["--hypotheses", str(hyp)]
        else:
            argv += ["--mock-script", str(script)]
        assert main(argv) == code
        assert where in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_real_key=1\n", encoding="utf-8")
        code = main(
            ["translate", "--dataset", str(corpus), "--config", str(cfg)]
        )
        assert code == 2

    @pytest.mark.parametrize("command,flag,value", [
        ("translate", "--beta", "3.0"),
        ("translate", "--format", "json"),
        ("evaluate", "--variant", "direct"),
        ("evaluate", "--modalities", "t+a"),
        ("evaluate", "--mock-script", "script.json"),
        ("evaluate", "--parallelism", "4"),
        ("evaluate", "--max-reprompts", "9"),
        ("evaluate", "--failure-threshold", "0.9"),
        ("ablate", "--format", "csv"),
        ("ablate", "--failure-threshold", "0.9"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, command,
                                                    flag, value):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        out_dir = tmp_path / "runs"
        argv = [command, "--dataset", str(corpus), "--target-lang", "KO",
                "--out", str(out_dir), flag, value]
        if command == "evaluate":
            argv.append("--from-dubbed")
        else:
            argv += ["--mock-script", str(script)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command,line", [
        ("translate", "from-dubbed = true"),
        ("evaluate", "parallelism = 3"),
        ("evaluate", "dataset = other.json"),
        ("translate", "config = other.cfg"),
    ], ids=["translate-from-dubbed", "evaluate-parallelism", "dataset", "config"])
    def test_config_key_the_command_does_not_take_exits_2(self, tmp_path, capsys,
                                                          command, line):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out_dir = tmp_path / "runs"
        argv = [command, "--dataset", str(corpus), "--target-lang", "KO",
                "--config", str(cfg), "--out", str(out_dir)]
        if command == "evaluate":
            argv.append("--from-dubbed")
        else:
            argv += ["--mock-script", str(script)]
        assert main(argv) == 2
        key = line.partition(" =")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("evaluate", "format", "xml"),
        ("translate", "variant", "bogus"),
        ("ablate", "format", "csv"),
    ])
    def test_config_value_outside_the_flag_choices_exits_2(self, tmp_path, capsys,
                                                           command, key, value):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        out_dir = tmp_path / "runs"
        argv = [command, "--dataset", str(corpus), "--target-lang", "KO",
                "--config", str(cfg), "--out", str(out_dir)]
        if command == "evaluate":
            argv.append("--from-dubbed")
        else:
            argv += ["--mock-script", str(script)]
        assert main(argv) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["ES", "KO"])
    def test_target_lang_flag_replaces_the_config_list(self, tmp_path, capsys, flag):
        corpus = small_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target-lang = KO\n", encoding="utf-8")
        out_dir = tmp_path / "runs"
        code = main(["evaluate", "--dataset", str(corpus), "--from-dubbed",
                     "--config", str(cfg), "--target-lang", flag,
                     "--out", str(out_dir)])
        assert code == 0
        run_dir = next(out_dir.glob("evaluate-*"))
        echoed = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
        assert echoed["target_langs"] == [flag]
        assert set(echoed) == {"dataset_path", "target_langs", "provider", "endpoint",
                               "model_id", "beta"}
        languages = {row.split(",")[1] for row in
                     (run_dir / "scores.csv").read_text(encoding="utf-8").splitlines()[1:]}
        assert languages <= {flag}

    def test_readme_examples_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"),
                            flags=re.MULTILINE | re.DOTALL)
        commands = [
            shlex.split(line)[1:]
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("mavl ")
        ]
        assert len(commands) >= 5
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)

    @pytest.mark.parametrize("key", ["format", "FORMAT"])
    def test_config_key_is_the_long_flag_name(self, tmp_path, capsys, key):
        corpus = small_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = json\nfrom-dubbed = true\n", encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--config", str(cfg), "--out", str(tmp_path / "runs")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["provider"] == "human"

    def test_config_key_is_not_the_internal_name(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fmt = json\n", encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--from-dubbed", "--config", str(cfg)])
        assert code == 2
        assert "unknown config key 'fmt'" in capsys.readouterr().err

    @pytest.mark.parametrize("value,code", [
        ("true", 0), ("True", 0), ("FALSE", 2), ("false", 2), ("yes", 2), ("1", 2),
    ])
    def test_config_flag_without_value_takes_true_or_false(self, tmp_path, capsys,
                                                            value, code):
        corpus = small_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"from_dubbed = {value}\n", encoding="utf-8")
        out_dir = tmp_path / "runs"
        # with from-dubbed off, evaluate has no hypotheses and exits 2
        assert main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--config", str(cfg), "--out", str(out_dir)]) == code
        err = capsys.readouterr().err
        if value.lower() == "false":
            assert "needs --hypotheses or --from-dubbed" in err
        elif code == 2:
            assert "takes true or false" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["translate", "evaluate"])
    def test_repeated_target_language_exits_2(self, tmp_path, capsys, command):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        out_dir = tmp_path / "runs"
        argv = [command, "--dataset", str(corpus), "--target-lang", "KO",
                "--target-lang", "ko", "--out", str(out_dir)]
        if command == "evaluate":
            argv.append("--from-dubbed")
        else:
            argv += ["--mock-script", str(script)]
        assert main(argv) == 2
        assert "more than once" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("provenance", ["null", "[1, 2]", "7"])
    def test_provenance_that_is_not_a_string_exits_3(self, tmp_path, capsys, provenance):
        corpus = small_corpus(tmp_path)
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(f'{{"provenance": {provenance}}}\n', encoding="utf-8")
        code = main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hyp), "--out", str(tmp_path / "runs")])
        assert code == 3
        err = capsys.readouterr().err
        assert "provenance must be a string" in err
        assert "line 1" in err

    def test_ablate_command(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path)
        script = write_script(tmp_path, GOOD_SCRIPT)
        code = main(
            [
                "ablate",
                "--dataset", str(corpus),
                "--target-lang", "KO",
                "--mock-script", str(script),
                "--out", str(tmp_path / "runs"),
                "--grid", "stages",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for label in STAGE_LABELS:
            assert f"provider: mock:{label}" in lines


class TestOneLineOneName:
    """A dataset fault, a hypothesis key and a trace record name a line alike."""

    SONG = {"alpha": {
        Language.EN: [["And there's a butterfly", "Remember me"]],
        Language.JA: [["ちょうがとぶ", "わすれないで"]],
    }}

    @pytest.mark.parametrize("lang", [Language.EN, Language.JA], ids=["en", "ja"])
    def test_parse_fault_and_hypothesis_key_name_a_line_alike(self, tmp_path, lang):
        from mavl.harness import _load_dataset

        corpus = write_corpus(tmp_path, self.SONG)
        key = LineKey("alpha", lang, 0, 1)
        doc = json.loads(corpus.read_text(encoding="utf-8"))
        doc["alpha"][lang.value.lower()]["sections"][0]["lines"][1]["syllable_count"] = -1
        with pytest.raises(DatasetValidationError) as err:
            parse_dataset(json.dumps(doc))
        assert err.value.location == key.location()
        assert key.location() == f"alpha/{lang.value.lower()}/section[0]/line[1]"

        past_end = LineKey("alpha", lang, 0, 2)
        hyp = HypothesisSet(provenance="x", entries={past_end: "text"})
        with pytest.raises(DatasetValidationError) as err:
            hyp.validate_against(_load_dataset(str(corpus)))
        assert err.value.location == past_end.location()
        assert err.value.location == f"alpha/{lang.value.lower()}/section[0]/line[2]"

    def test_trace_names_each_task_by_its_line_location(self, tmp_path):
        corpus = write_corpus(tmp_path, self.SONG)
        script = write_script(tmp_path, {"keyed": {
            "And there's a butterfly": ['{"translation": "ちょうがとぶ"}'],
            "Remember me": ['{"translation": "わすれないで"}'],
        }})
        config = base_config(corpus, script, tmp_path / "runs",
                             target_langs=(Language.JA,), max_reprompts=0)
        outcome = cmd_translate(config)
        task_ids = [r["task_id"] for r in read_trace(outcome.run_dir / "trace.jsonl")]
        assert task_ids == ["alpha/ja/section[0]/line[0]", "alpha/ja/section[0]/line[1]"]
