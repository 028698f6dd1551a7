"""What the records must keep now that they are ``NamedTuple``s.

A ``NamedTuple`` is a tuple: ``json.dumps`` writes one as an array, a field
default is one object shared by every instance, and ``_replace`` builds
through ``_make``, which skips ``__new__``.  These tests pin the outputs and
checks that each of those could break.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mavl import harness
from mavl.cli import main
from mavl.dataset import (
    CompactLineRep,
    Dataset,
    LanguageStats,
    LineKey,
    LyricLine,
    Section,
    SongEntry,
    StatsReport,
)
from mavl.errors import ConfigError, EmbeddingError, MetricDomainError
from mavl.harness import (
    AblateOutcome,
    EvaluateOutcome,
    HypothesisSet,
    RunConfig,
    TranslateOutcome,
    cmd_ablate,
    cmd_evaluate,
)
from mavl.languages import Language
from mavl.metrics import (
    CorpusReport,
    GroupStats,
    LineScore,
    ReferenceKind,
    SyllableErrorParams,
    _Failed,
)
from mavl.phonetics import G2PRule, IpaString
from mavl.pipeline import Modality, PipelineVariant, TranslationResult, TranslationTask
from mavl.providers import EmbeddingRequest, GenerationRequest, MediaAttachment, MediaKind
from mavl.reports import EvaluationRow
from mavl.syllables import SyllableSegmentation
from test_harness import GOOD_SCRIPT, base_config, small_corpus, write_script

EN, KO = Language.EN, Language.KO

REPORT_KEYS = {"provider", "line_count", "error_rate", "groups"}
GROUP_KEYS = {"line_count", "error_rate", "mean_se", "mean_scd", "mean_semantic",
              "mean_phonetic"}


def assert_report_shape(report: dict) -> None:
    assert set(report) == REPORT_KEYS
    assert set(report["groups"]) == {"KO/original_en", "KO/dubbed"}
    for stats in report["groups"].values():
        assert isinstance(stats, dict) and set(stats) == GROUP_KEYS
        assert stats["line_count"] == 2


class TestJsonShapes:
    def test_report_json_groups_are_objects(self, tmp_path):
        config = base_config(small_corpus(tmp_path), None, tmp_path / "runs")
        outcome = cmd_evaluate(config)
        assert_report_shape(json.loads((outcome.run_dir / "report.json").read_text("utf-8")))

    def test_stats_json_languages_are_objects(self, tmp_path, capsys):
        assert main(["stats", "--dataset", str(small_corpus(tmp_path)),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "EN": {"songs": 1, "sections": 1, "lines": 2},
            "KO": {"songs": 1, "sections": 1, "lines": 2},
        }

    def test_comparison_json_reports_are_objects(self, tmp_path):
        config = base_config(small_corpus(tmp_path), write_script(tmp_path, GOOD_SCRIPT),
                             tmp_path / "runs")
        outcome = cmd_ablate(config, grid="stages")
        comparison = json.loads((outcome.run_dir / "comparison.json").read_text("utf-8"))
        assert len(comparison) == 4
        for case in comparison.values():
            assert set(case) == {"failures", "report"}
            assert_report_shape(case["report"])


# each checked record: a valid instance, one bad field, and the error it raises
CHECKED = [
    (RunConfig(dataset_path="x"), {"parallelism": 0}, ConfigError),
    (PipelineVariant(), {"modalities": frozenset({Modality.AUDIO})}, ConfigError),
    (TranslationTask("hello", EN, KO, 2), {"required_count": 0}, ConfigError),
    (MediaAttachment(MediaKind.AUDIO, "song.mp3", (1.0, 2.0)), {"time_span": (2.0, 1.0)},
     ConfigError),
    (GenerationRequest("hi"), {"prompt_text": "  "}, ConfigError),
    (EmbeddingRequest(("a",)), {"texts": ()}, EmbeddingError),
    (SyllableErrorParams(), {"beta": 0.5}, MetricDomainError),
]
CHECKED_IDS = [type(record).__name__ for record, _, _ in CHECKED]


class TestCheckedRecords:
    @pytest.mark.parametrize("record, bad, error", CHECKED, ids=CHECKED_IDS)
    def test_every_way_of_building_checks(self, record, bad, error):
        cls = type(record)
        values = {**record._asdict(), **bad}
        with pytest.raises(error):
            cls(**values)
        with pytest.raises(error):
            cls(*values.values())
        with pytest.raises(error):
            record._replace(**bad)
        with pytest.raises(error):
            cls._make(values.values())

    @pytest.mark.parametrize("record, bad, error", CHECKED, ids=CHECKED_IDS)
    def test_a_rebuild_keeps_its_type(self, record, bad, error):
        again = record._replace()
        assert type(again) is type(record) and again == record
        assert type(type(record)._make(record)) is type(record)

    def test_variant_modalities_are_a_frozenset(self):
        for made in (PipelineVariant(modalities={Modality.TEXT, Modality.AUDIO}),
                     PipelineVariant()._replace(modalities=[Modality.AUDIO, Modality.TEXT])):
            assert made.modalities == frozenset({Modality.TEXT, Modality.AUDIO})
            assert type(made.modalities) is frozenset
            hash(made)

    def test_ablate_grid_variants_are_checked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "MODALITY_GRID", [frozenset({Modality.AUDIO})])
        config = base_config(small_corpus(tmp_path), write_script(tmp_path, GOOD_SCRIPT),
                             tmp_path / "runs")
        with pytest.raises(ConfigError, match="text modality"):
            cmd_ablate(config, grid="modalities")

    def test_ablate_sub_run_config_is_checked(self, tmp_path):
        config = base_config("x", "s.json", tmp_path)
        sub = config._replace(variant=PipelineVariant(use_refine=False),
                              out_dir=str(tmp_path / "sub"), failure_threshold=1.0)
        assert type(sub) is RunConfig and sub.failure_threshold == 1.0
        with pytest.raises(ConfigError, match="failure_threshold"):
            config._replace(out_dir=str(tmp_path / "sub"), failure_threshold=1.5)

    def test_widened_media_is_checked(self):
        media = MediaAttachment(MediaKind.AUDIO, "song.mp3", (1.0, 2.0))
        widened = media.widened(2.0)
        assert type(widened) is MediaAttachment and widened.time_span == (0.0, 4.0)
        # the end overflows to infinity, which no span may hold
        with pytest.raises(ConfigError, match="bad time span"):
            MediaAttachment(MediaKind.AUDIO, "song.mp3", (0.0, 1e308)).widened(1e308)


def _records():
    rep = CompactLineRep("a", "a", "a")
    key = LineKey("song", KO, 0, 0)
    task = TranslationTask("hello", EN, KO, 2)
    hyp = HypothesisSet("x")
    plain = [
        rep, key, LyricLine(0, rep), Section(0, []), SongEntry("t", "u", None, EN, []),
        Dataset({}), LanguageStats(), StatsReport({}), G2PRule("a", ("a",)),
        LineScore(1, 1, ReferenceKind.DUBBED, KO), _Failed("why"),
        GroupStats(1, None, None, None, None, None), CorpusReport(1, None, {}),
        EvaluationRow(key), TranslationResult(task, "안녕", 2, True, 1),
        SyllableSegmentation(("a",), EN),
        TranslateOutcome(Path("r"), hyp, [], [], []), EvaluateOutcome(Path("r"), 0, 0, None),
        AblateOutcome(Path("r"), {}, ""),
    ]
    return [(record, record._fields) for record in plain + [r for r, _, _ in CHECKED]] + [
        (IpaString(("a",)), ("symbols", "dropped"))]


@pytest.mark.parametrize("record, fields", _records(),
                         ids=[type(r).__name__ for r, _ in _records()])
def test_no_field_can_be_assigned(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    # no instance dict either, so no attribute can be added
    with pytest.raises(AttributeError):
        record.added = 1


class TestDefaults:
    def test_lines_built_without_extras_share_no_mutable_dict(self):
        rep = CompactLineRep("a", "a", "a")
        for made in (lambda: LyricLine(index=0, rep=rep), lambda: Section(index=0, lines=[]),
                     lambda: SongEntry("t", "u", None, EN, [])):
            a, b = made(), made()
            with pytest.raises(TypeError):
                a.extras["added"] = 1
            assert a.extras == b.extras == {}

    def test_scores_built_without_errors_share_no_mutable_dict(self):
        score = LineScore(1, 1, ReferenceKind.DUBBED, KO)
        with pytest.raises(TypeError):
            score.component_errors["semantic"] = "x"
        assert LineScore(2, 2, ReferenceKind.DUBBED, KO).component_errors == {}

    def test_hypothesis_sets_keep_their_own_entries(self):
        a, b = HypothesisSet("x"), HypothesisSet("x")
        a.entries[LineKey("song", KO, 0, 0)] = "안녕"
        assert b.entries == {} and a != b
        b.entries[LineKey("song", KO, 0, 0)] = "안녕"
        assert a == b and a != HypothesisSet("y", dict(a.entries))


def test_ipa_equality_and_hash_leave_dropped_out():
    a, b = IpaString(("a", "b"), dropped=3), IpaString(("a", "b"))
    assert a == b and hash(a) == hash(b)
    assert a != IpaString(("a",)) and a != ("a", "b")
    with pytest.raises(ValueError):
        IpaString(("a", " "))
