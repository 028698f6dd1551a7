import math
import random

import pytest
from hypothesis import example, given, strategies as st

from mavl import metrics, phonetics
from mavl.errors import EmbeddingError, MetricDomainError
from mavl.languages import Language
from mavl.metrics import (
    EMBED_BATCH,
    PHONETIC,
    SEMANTIC,
    SYLLABIC,
    CorpusReport,
    LineScore,
    LineScorer,
    ReferenceKind,
    SyllableErrorParams,
    aggregate,
    cosine_similarity,
    syllable_count_distance,
    syllable_error,
)
from mavl.phonetics import edit_distance


def se_oracle(c_ref, c_pred, beta):
    if c_ref >= c_pred:
        return float(c_ref - c_pred)
    return beta * float(c_pred - c_ref)


class TestSyllableError:
    def test_equal(self):
        assert syllable_error(5, 5) == 0.0

    def test_under_count(self):
        assert syllable_error(7, 5) == 2.0

    def test_over_count_penalized(self):
        assert syllable_error(5, 7) == 4.0

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricDomainError):
            syllable_error(0, 5)

    def test_beta_below_one_rejected(self):
        for beta in (0.5, float("nan"), float("inf")):
            with pytest.raises(MetricDomainError):
                SyllableErrorParams(beta=beta)

    @given(st.integers(1, 40), st.integers(0, 40),
           st.sampled_from([1.0, 1.5, 2.0]))
    def test_matches_oracle(self, c_ref, c_pred, beta):
        params = SyllableErrorParams(beta=beta)
        assert syllable_error(c_ref, c_pred, params) == se_oracle(
            c_ref, c_pred, beta)

    @given(st.integers(2, 40), st.integers(1, 39))
    def test_branch_ratio(self, c, k):
        if k >= c:
            return
        params = SyllableErrorParams(beta=2.0)
        over = syllable_error(c, c + k, params)
        under = syllable_error(c, c - k, params)
        assert over == params.beta * under


class TestSyllableCountDistance:
    def test_equal(self):
        assert syllable_count_distance(6, 6) == 0.0

    def test_asymmetric_counts(self):
        assert syllable_count_distance(4, 2) == 0.75
        assert syllable_count_distance(2, 4) == 0.75

    def test_zero_rejected(self):
        with pytest.raises(MetricDomainError):
            syllable_count_distance(0, 3)
        with pytest.raises(MetricDomainError):
            syllable_count_distance(3, 0)

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_symmetry_and_zero_iff_equal(self, a, b):
        d = syllable_count_distance(a, b)
        assert d == syllable_count_distance(b, a)
        assert (d == 0.0) == (a == b)
        assert d >= 0.0


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_closed_form(self):
        got = cosine_similarity([1.0, 1.0], [1.0, 0.0])
        assert abs(got - math.sqrt(0.5)) < 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(EmbeddingError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(EmbeddingError):
            cosine_similarity([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_rejected(self, bad):
        with pytest.raises(EmbeddingError):
            cosine_similarity([bad, 1.0], [1.0, 1.0])
        with pytest.raises(EmbeddingError):
            cosine_similarity([1.0, 1.0], [1.0, bad])

    def test_overflowing_sum_of_squares(self):
        assert cosine_similarity([1e200, 0.0], [-1e200, 0.0]) == -1.0
        got = cosine_similarity([1e200, 1e200], [1e200, 0.0])
        assert abs(got - math.sqrt(0.5)) < 1e-9

    vectors = st.lists(st.floats(-100, 100), min_size=2, max_size=8)

    @staticmethod
    def norm(v):
        return math.sqrt(sum(x * x for x in v))

    @given(vectors, vectors)
    def test_clamped(self, a, b):
        if len(a) != len(b):
            b = (b + a)[:len(a)]
        if self.norm(a) == 0 or self.norm(b) == 0:
            return
        assert -1.0 <= cosine_similarity(a, b) <= 1.0

    @given(vectors, st.floats(0.001, 1000))
    # sums of squares that underflow into subnormals once lost precision
    @example(a=[0.0, 1.6e-159], lam=0.001)
    @example(a=[0.0, 1.5e-159], lam=0.125)
    def test_scale_invariant(self, a, lam):
        scaled_norm = self.norm([lam * x for x in a])
        if self.norm(a) == 0 or scaled_norm == 0:
            return
        scaled = [lam * x for x in a]
        assert abs(cosine_similarity(scaled, a)
                   - cosine_similarity(a, a)) < 1e-9


def fake_embedder(texts):
    return [[float(len(t)) + 1.0, float(t.count("a")) + 1.0] for t in texts]


class TestScoreLine:
    def test_self_evaluation_is_perfect(self):
        scorer = LineScorer(embedder=fake_embedder)
        score = scorer.score_line("hello world", "hello world",
                                  Language.EN, Language.EN,
                                  ReferenceKind.DUBBED)
        assert score.se == 0.0
        assert score.scd == 0.0
        assert score.mismatch is False
        assert score.semantic == 1.0
        assert score.phonetic == 0
        assert score.component_errors == {}

    def test_error_free_scores_share_one_read_only_mapping(self):
        scorer = LineScorer(embedder=fake_embedder)
        a, b = (scorer.score_line(text, text, Language.EN, Language.EN,
                                  ReferenceKind.DUBBED) for text in ("hello", "world"))
        assert (a.component_errors is b.component_errors
                is LineScore._field_defaults["component_errors"])
        with pytest.raises(TypeError):
            a.component_errors[SEMANTIC] = "changed"

    def test_butterfly_cross_language(self):
        scorer = LineScorer()
        score = scorer.score_line("And there's a butterfly", "나비가 날아와",
                                  Language.EN, Language.KO,
                                  ReferenceKind.ORIGINAL_EN)
        assert (score.c_ref, score.c_pred) == (6, 6)
        assert score.se == 0.0
        assert score.mismatch is False
        assert score.semantic is None
        assert score.phonetic is not None
        assert set(score.component_errors) == {SEMANTIC}

    def test_ten_vs_nine(self):
        scorer = LineScorer()
        score = scorer.score_line("날 잊지 마 슬퍼하지는 마", "날 기억해줘 울지는 마",
                                  Language.KO, Language.KO,
                                  ReferenceKind.DUBBED)
        assert (score.c_ref, score.c_pred) == (10, 9)
        assert score.se == 1.0
        assert abs(score.scd - 0.5 * (1 / 10 + 1 / 9)) < 1e-12
        assert score.mismatch is True

    def test_missing_embedder_recorded_not_raised(self):
        scorer = LineScorer()
        score = scorer.score_line("a", "b", Language.EN, Language.EN,
                                  ReferenceKind.ORIGINAL_EN)
        assert score.semantic is None
        assert "semantic" in score.component_errors
        assert score.se is not None

    def test_uncountable_hypothesis_is_a_syllabic_error(self):
        scorer = LineScorer(embedder=fake_embedder)
        score = scorer.score_line("나비가 날아와", "나비 1000000",
                                  Language.KO, Language.KO,
                                  ReferenceKind.DUBBED)
        assert (score.c_ref, score.c_pred) == (6, None)
        assert score.se is None and score.scd is None and score.mismatch is None
        assert "exceeds supported range" in score.component_errors[SYLLABIC]
        assert score.semantic is not None
        assert score.phonetic is not None
        assert set(score.component_errors) == {SYLLABIC}

    def test_uncountable_reference_keeps_the_hypothesis_count(self):
        scorer = LineScorer(embedder=fake_embedder)
        score = scorer.score_line("나비 1000000", "나비가 날아와",
                                  Language.KO, Language.KO,
                                  ReferenceKind.DUBBED)
        assert (score.c_ref, score.c_pred) == (None, 6)
        assert set(score.component_errors) == {SYLLABIC}

    def test_two_uncountable_texts_keep_the_reference_error(self):
        scorer = LineScorer(embedder=fake_embedder)
        score = scorer.score_line("나비 1000000", "나비 20000000",
                                  Language.KO, Language.KO,
                                  ReferenceKind.DUBBED)
        assert (score.c_ref, score.c_pred) == (None, None)
        assert score.component_errors[SYLLABIC].startswith("7-digit")

    def test_nan_embedding_is_a_semantic_error(self):
        # one vector per text: the two equal texts are one text to embed
        scorer = LineScorer(embedder=lambda texts: [[math.nan, 1.0] for _ in texts])
        score = scorer.score_line("나비가 날아와", "나비가 날아와",
                                  Language.KO, Language.KO,
                                  ReferenceKind.DUBBED)
        assert score.semantic is None
        assert "non-finite" in score.component_errors["semantic"]
        assert score.se == 0.0 and score.phonetic == 0

    def test_lines_past_the_distance_cap_are_a_phonetic_error(self):
        scorer = LineScorer(embedder=fake_embedder)
        # "la" and "na" are two IPA symbols each, so this is the cap exactly
        words = phonetics.MAX_DISTANCE_SYMBOLS // 2
        at_cap = scorer.score_line(" ".join(["la"] * words), " ".join(["na"] * words),
                                   Language.EN, Language.EN, ReferenceKind.DUBBED)
        assert at_cap.phonetic == words and at_cap.component_errors == {}
        gt, hyp = ("la " * 40000)[:100000], ("na " * 40000)[:100000]
        score = scorer.score_line(gt, hyp, Language.EN, Language.EN, ReferenceKind.DUBBED)
        assert score.phonetic is None
        cap = f"at most {phonetics.MAX_DISTANCE_SYMBOLS} IPA symbols"
        assert set(score.component_errors) == {PHONETIC}
        assert cap in score.component_errors[PHONETIC]
        assert score.se == 0.0 and score.mismatch is False
        assert score.semantic is not None

    @given(st.one_of(st.text(), st.integers(0, 10**12).map(lambda n: f"나비 {n}")))
    @example("1" * 5000)
    @example("나비 " + "1" * 5000)
    def test_any_hypothesis_scores_or_records_errors(self, hyp):
        scorer = LineScorer(embedder=fake_embedder)
        for gt, lang_gt, kind in (
            ("And there's a butterfly", Language.EN, ReferenceKind.ORIGINAL_EN),
            ("나비가 날아와", Language.KO, ReferenceKind.DUBBED),
        ):
            score = scorer.score_line(gt, hyp, lang_gt, Language.KO, kind)
            if score.se is None:
                assert SYLLABIC in score.component_errors
            if score.semantic is None:
                assert "semantic" in score.component_errors
            if score.phonetic is None:
                assert "phonetic" in score.component_errors


# texts that repeat across pairs, in all five languages, with the odd ones:
# no text, no syllables, and two numerals past the expander's range, whose
# errors differ, so a pair of them shows which text's error is kept
POOL_TEXTS = [
    "", "!!!", "나비 1000000", "cantamos 20000000 veces",
    "And there's a butterfly", "Remember me, don't let it make you cry",
    "Recuérdame, hoy me tengo que ir", "Souviens-toi de moi",
    "나비가 날아와", "날 잊지 마 슬퍼하지는 마", "シンデレラ", "蝶[ちょう]が飛ぶ",
]

line_pairs = st.lists(
    st.tuples(st.sampled_from(POOL_TEXTS), st.sampled_from(POOL_TEXTS),
              st.sampled_from(Language), st.sampled_from(Language),
              st.sampled_from(ReferenceKind)),
    max_size=12,
)


class TestScorePairs:
    @given(line_pairs)
    def test_equals_score_line_on_each_pair(self, pairs):
        scorer = LineScorer(embedder=fake_embedder)
        assert scorer.score_pairs(pairs) == [scorer.score_line(*p) for p in pairs]


# 90 distinct pairs of 180 distinct texts, which fill three embedder calls;
# repeats of earlier pairs come between them and after them
DISTINCT_PAIRS = [(f"line number {i}", f"verso numero {i}", Language.EN,
                   Language.ES, ReferenceKind.ORIGINAL_EN) for i in range(90)]
REPEATED_PAIRS = [
    pair for i, first in enumerate(DISTINCT_PAIRS)
    for pair in ([first, DISTINCT_PAIRS[i // 2]] if i % 3 == 0 else [first])
] + DISTINCT_PAIRS[::7]


def recording_embedder(batches, failing_text=None):
    def embedder(texts):
        batches.append(list(texts))
        if failing_text in texts:
            raise EmbeddingError("endpoint down")
        return fake_embedder(texts)
    return embedder


class TestRepeatedPairs:
    def test_each_distinct_pair_is_scored_once(self, monkeypatch):
        edits = []

        def counting_edit_distance(a, b):
            edits.append((a, b))
            return edit_distance(a, b)

        monkeypatch.setattr(phonetics, "edit_distance", counting_edit_distance)
        scorer = LineScorer(embedder=fake_embedder)
        scores = scorer.score_pairs(REPEATED_PAIRS)
        assert len(edits) == len(DISTINCT_PAIRS) < len(REPEATED_PAIRS)
        assert scores == [scorer.score_line(*p) for p in REPEATED_PAIRS]

    def test_embedder_gets_the_batches_of_the_distinct_pairs(self):
        with_repeats, distinct = [], []
        LineScorer(embedder=recording_embedder(with_repeats)).score_pairs(REPEATED_PAIRS)
        LineScorer(embedder=recording_embedder(distinct)).score_pairs(DISTINCT_PAIRS)
        assert with_repeats == distinct
        assert [len(b) for b in distinct] == [EMBED_BATCH, EMBED_BATCH, 180 - 2 * EMBED_BATCH]

    def test_failed_batch_is_a_semantic_error_on_every_copy(self):
        batches = []
        scorer = LineScorer(embedder=recording_embedder(batches, "verso numero 70"))
        scores = scorer.score_pairs(REPEATED_PAIRS)
        failed = set(next(b for b in batches if "verso numero 70" in b))
        copies = [p for p in REPEATED_PAIRS if p[0] in failed]
        assert len(copies) > len(set(copies))
        for (gt, pred, *_), score in zip(REPEATED_PAIRS, scores):
            if gt in failed or pred in failed:
                assert score.semantic is None
                assert score.component_errors == {SEMANTIC: "endpoint down"}
            else:
                assert score.semantic is not None and score.component_errors == {}


# how the stub embedder below builds a text's vector from a few random values
VECTOR_KINDS = {
    "normal": lambda v: v,
    "tiny": lambda v: [x * 1e-200 for x in v],
    "huge": lambda v: [x * 1e200 for x in v],
    "nan": lambda v: [math.nan] + v[1:],
    "inf": lambda v: v[:-1] + [-math.inf],
    "zero": lambda v: [0.0] * len(v),
    "empty": lambda v: [],
}


class TestSemanticMatchesCosine:
    def test_every_pair_gets_cosine_similarity_or_its_error(self, monkeypatch):
        """score_pairs takes each text's norm once; per pair it must give
        exactly what cosine_similarity gives on the two vectors."""
        monkeypatch.setattr(metrics, "EMBED_BATCH", 7)
        seen = {}

        def embedder(texts):
            # the second batch's vectors are one component longer
            dim = 3 if not seen else 4
            for text in texts:
                rng = random.Random(text)
                kind = text.partition("-")[0]
                seen[text] = VECTOR_KINDS[kind]([rng.uniform(-3, 3) for _ in range(dim)])
            return [seen[text] for text in texts]

        texts = [f"{kind}-{i}" for i in range(2) for kind in VECTOR_KINDS]
        pairs = [(gt, pred, Language.EN, Language.EN, ReferenceKind.DUBBED)
                 for gt in texts for pred in texts]
        scores = LineScorer(embedder=embedder).score_pairs(pairs)
        assert {len(v) for v in seen.values()} == {0, 3, 4}
        outcomes = set()
        for (gt, pred, *_), score in zip(pairs, scores):
            try:
                expected = cosine_similarity(seen[gt], seen[pred])
            except EmbeddingError as exc:
                outcomes.add(str(exc).partition(":")[0])
                assert score.semantic is None
                assert score.component_errors[SEMANTIC] == str(exc)
            else:
                outcomes.add("value")
                assert score.semantic == expected
                assert SEMANTIC not in score.component_errors
        assert outcomes == {
            "value", "dimension mismatch", "empty vectors",
            "embedding has a non-finite component", "zero vector has no direction",
        }


# texts the failure table's embedder gives a fixed vector; every other text
# gets fake_embedder's
TABLE_VECTORS = {"nan vector": [math.nan, 1.0], "zero vector": [0.0, 0.0],
                 "huge vector": [1e200, 3e200], "three dims": [1.0, 2.0, 3.0],
                 "no dims": []}
UNTRANSCRIBABLE = ("cannot transcribe", "nor this one")


def table_embedder(texts):
    return [TABLE_VECTORS[t] if t in TABLE_VECTORS else fake_embedder([t])[0]
            for t in texts]


def failing_embedder(texts):
    raise EmbeddingError("endpoint down")


def short_embedder(texts):
    return fake_embedder(texts)[:1]


SE, SC, PH = SYLLABIC, SEMANTIC, "phonetic"
SEVEN_DIGITS = "7-digit number exceeds supported range 999999"
EN, KO = Language.EN, Language.KO
# id, reference, hypothesis, their languages, embedder; then the expected
# counts, (se, scd, mismatch, semantic, phonetic) and component_errors
FAILURE_TABLE = [
    ("scored", "And there's a butterfly", "Remember me", EN, EN, table_embedder,
     (6, 4), (2.0, 0.41666666666666663, True, 1.0, 13), {}),
    ("hypothesis-uncountable", "나비가 날아와", "나비 1000000", KO, KO, table_embedder,
     (6, None), (None, None, None, 0.9994323735785592, 8), {SE: SEVEN_DIGITS}),
    ("reference-uncountable", "나비 1000000", "나비가 날아와", KO, KO, table_embedder,
     (None, 6), (None, None, None, 0.9994323735785592, 8), {SE: SEVEN_DIGITS}),
    # the hypothesis's error would say 8-digit: the reference's is kept
    ("both-uncountable", "나비 1000000", "나비 20000000", KO, KO, table_embedder,
     (None, None), (None, None, None, 0.9999717350442995, 0), {SE: SEVEN_DIGITS}),
    # SE takes a zero hypothesis count, SCD does not: no syllabic value is kept
    ("hypothesis-without-syllables", "나비가 날아와", "!!!", KO, KO, table_embedder,
     (6, 0), (None, None, None, 0.9927337820337083, 12),
     {SE: "syllable counts must be >= 1"}),
    ("reference-without-syllables", "!!!", "나비가 날아와", KO, KO, table_embedder,
     (0, 6), (None, None, None, 0.9927337820337083, 12),
     {SE: "reference syllable count must be >= 1"}),
    ("hypothesis-untranscribable", "Remember me", "cannot transcribe", EN, EN,
     table_embedder, (4, 4), (0.0, 0.0, False, 0.996639273541688, None),
     {PH: "no rule for 'cannot transcribe'"}),
    ("both-untranscribable", "nor this one", "cannot transcribe", EN, EN, table_embedder,
     (3, 4), (2.0, 0.29166666666666663, True, 0.9960973129748615, None),
     {PH: "no rule for 'nor this one'"}),
    ("no-embedder", "Remember me", "And there's a butterfly", EN, EN, None,
     (4, 6), (4.0, 0.41666666666666663, True, None, 13),
     {SC: "no embedding provider configured"}),
    ("embedder-raises", "Remember me", "And there's a butterfly", EN, EN,
     failing_embedder, (4, 6), (4.0, 0.41666666666666663, True, None, 13),
     {SC: "endpoint down"}),
    ("embedder-short", "Remember me", "And there's a butterfly", EN, EN, short_embedder,
     (4, 6), (4.0, 0.41666666666666663, True, None, 13),
     {SC: "embedder returned wrong vector count"}),
    ("non-finite-vector", "Remember me", "nan vector", EN, EN, table_embedder,
     (4, 3), (1.0, 0.29166666666666663, True, None, 9),
     {SC: "embedding has a non-finite component"}),
    ("zero-vector", "zero vector", "Remember me", EN, EN, table_embedder,
     (4, 4), (0.0, 0.0, False, None, 9), {SC: "zero vector has no direction"}),
    # the sum of squares overflows, so the norm is None, yet the cosine exists
    ("huge-vector", "Remember me", "huge vector", EN, EN, table_embedder,
     (4, 3), (1.0, 0.29166666666666663, True, 0.3939192985791677, 9), {}),
    ("dimension-mismatch", "Remember me", "three dims", EN, EN, table_embedder,
     (4, 2), (2.0, 0.75, True, None, 9), {SC: "dimension mismatch: 2 vs 3"}),
    ("empty-vectors", "no dims", "no dims", EN, EN, table_embedder,
     (2, 2), (0.0, 0.0, False, None, 0), {SC: "empty vectors"}),
    ("every-component-fails", "나비 1000000", "cannot transcribe", KO, EN,
     failing_embedder, (None, 4), (None, None, None, None, None),
     {SE: SEVEN_DIGITS, SC: "endpoint down", PH: "no rule for 'cannot transcribe'"}),
]


class TestFailureTable:
    """Every field of a score, and every error message, where a count, a
    transcription or a vector cannot be made or cannot be compared."""

    @pytest.mark.parametrize(
        "gt, pred, lang_gt, lang_pred, embedder, counts, values, errors",
        [case[1:] for case in FAILURE_TABLE], ids=[case[0] for case in FAILURE_TABLE])
    def test_score(self, monkeypatch, gt, pred, lang_gt, lang_pred, embedder,
                   counts, values, errors):
        transcribe = phonetics.transcribe

        def failing_transcribe(lang, text):
            if text in UNTRANSCRIBABLE:
                raise ValueError(f"no rule for {text!r}")
            return transcribe(lang, text)

        monkeypatch.setattr(phonetics, "transcribe", failing_transcribe)
        scorer = LineScorer(embedder=embedder)
        score = scorer.score_line(gt, pred, lang_gt, lang_pred, ReferenceKind.DUBBED)
        assert score == LineScore(*counts, ReferenceKind.DUBBED, lang_pred, *values, errors)
        assert dict(score.component_errors) == errors
        # a repeat of the pair within one call is the same score
        first, again = scorer.score_pairs([(gt, pred, lang_gt, lang_pred,
                                            ReferenceKind.DUBBED)] * 2)
        assert first is again and first == score


def mk(c_ref, c_pred, lang=Language.KO, kind=ReferenceKind.ORIGINAL_EN, **extra):
    return LineScore(c_ref=c_ref, c_pred=c_pred, reference_kind=kind,
                     language=lang, se=se_oracle(c_ref, c_pred, 2.0),
                     scd=syllable_count_distance(c_ref, c_pred),
                     mismatch=c_ref != c_pred, **extra)


class TestAggregate:
    def test_error_rate_half(self):
        report = aggregate([mk(5, 5), mk(5, 6)])
        assert report.error_rate == 0.5
        assert report.line_count == 2

    def test_all_equal(self):
        report = aggregate([mk(4, 4), mk(6, 6)])
        assert report.error_rate == 0.0
        key = (Language.KO, ReferenceKind.ORIGINAL_EN)
        assert report.groups[key].mean_se == 0.0

    def test_mean_se(self):
        report = aggregate([mk(7, 5), mk(7, 3)])
        key = (Language.KO, ReferenceKind.ORIGINAL_EN)
        assert report.groups[key].mean_se == 3.0

    def test_empty_rejected(self):
        with pytest.raises(MetricDomainError):
            aggregate([])

    def test_groups_split_by_language_and_kind(self):
        scores = [mk(5, 5), mk(5, 5, lang=Language.ES),
                  mk(5, 6, kind=ReferenceKind.DUBBED)]
        report = aggregate(scores)
        assert len(report.groups) == 3

    def test_provider_recorded(self):
        report = aggregate([mk(5, 5)], provider="hash-v1")
        assert report.provider == "hash-v1"

    def test_error_rate_matches_recount(self):
        scores = [mk(5, 5), mk(5, 7), mk(6, 6), mk(9, 8)]
        report = aggregate(scores)
        direct = sum(1 for s in scores if s.mismatch) / len(scores)
        assert report.error_rate == direct
