"""Line and corpus metrics for singability evaluation.

Four signals per line: syllable error SE (asymmetric, over-count
penalized by beta), syllable count distance SCD (symmetric, relative),
semantic cosine similarity over multilingual embeddings, and phonetic
Levenshtein distance over IPA. A signal that cannot be computed stays
None and its component names why. Every line is scored against a
reference of a stated kind, either the original English lyric or the
officially dubbed lyric in the target language, and aggregation keeps
those two populations apart.
"""

from __future__ import annotations

import enum
import math
import sys
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import phonetics, syllables
from .errors import EmbeddingError, MetricDomainError, NumberRangeError, ProviderAuthError
from .languages import Language
from .records import Checked

Embedder = Callable[[list[str]], list[list[float]]]

SYLLABIC = "syllabic"
SEMANTIC = "semantic"
PHONETIC = "phonetic"


class ReferenceKind(enum.Enum):
    ORIGINAL_EN = "original_en"
    DUBBED = "dubbed"

    # members are singletons compared by identity; Enum.__hash__ is Python code
    __hash__ = object.__hash__


class _SyllableErrorParams(NamedTuple):
    beta: float = 2.0


class SyllableErrorParams(Checked, _SyllableErrorParams):
    __slots__ = ()

    def _validated(self):
        if not (math.isfinite(self.beta) and self.beta >= 1):
            raise MetricDomainError("beta must be finite and >= 1")
        return self


def syllable_error(c_ref: int, c_pred: int,
                   params: SyllableErrorParams = SyllableErrorParams()
                   ) -> float:
    if c_ref < 1:
        raise MetricDomainError("reference syllable count must be >= 1")
    if c_pred < 0:
        raise MetricDomainError("predicted syllable count must be >= 0")
    if c_ref >= c_pred:
        return float(c_ref - c_pred)
    return params.beta * (c_pred - c_ref)


def syllable_count_distance(c_ref: int, c_pred: int) -> float:
    if c_ref < 1 or c_pred < 1:
        raise MetricDomainError("syllable counts must be >= 1")
    diff = abs(c_ref - c_pred)
    return 0.5 * (diff / c_ref + diff / c_pred)


# Below this, a sum of squares holds subnormal terms and has lost precision.
_TINY_SUM_OF_SQUARES = sys.float_info.min / sys.float_info.epsilon


def _max_abs_scaled(v: Sequence[float]) -> Sequence[float]:
    top = max(abs(x) for x in v)
    return [x / top for x in v] if top else v


def cosine_similarity(e_gt: Sequence[float], e_pred: Sequence[float]) -> float:
    return _cosine(e_gt, e_pred, _norm(e_gt), _norm(e_pred))


def _norm(v) -> float | None:
    """The norm of ``v`` from its plain sum of squares, or None where that
    sum has lost precision, overflowed or cannot be taken."""
    try:
        sq = sum(map(mul, v, v))
        return math.sqrt(sq) if _TINY_SUM_OF_SQUARES <= sq < math.inf else None
    except Exception:
        return None


def _cosine(e_gt, e_pred, norm_gt: float | None, norm_pred: float | None) -> float:
    """The cosine of two vectors, given each one's ``_norm``."""
    if len(e_gt) != len(e_pred):
        raise EmbeddingError(
            f"dimension mismatch: {len(e_gt)} vs {len(e_pred)}")
    if norm_gt is None or norm_pred is None:
        if len(e_gt) == 0:
            raise EmbeddingError("empty vectors")
        if not all(map(math.isfinite, e_gt)) or not all(map(math.isfinite, e_pred)):
            raise EmbeddingError("embedding has a non-finite component")
        # cosine is scale-free; rescaling only here keeps the common path's bits
        e_gt, e_pred = _max_abs_scaled(e_gt), _max_abs_scaled(e_pred)
        norm_gt, norm_pred = (math.sqrt(sum(map(mul, v, v))) for v in (e_gt, e_pred))
        if norm_gt == 0.0 or norm_pred == 0.0:
            raise EmbeddingError("zero vector has no direction")
    return max(-1.0, min(1.0, sum(map(mul, e_gt, e_pred)) / (norm_gt * norm_pred)))


# every error-free score's component_errors: one mapping no one can add to
_NO_ERRORS: Mapping[str, str] = MappingProxyType({})


class LineScore(NamedTuple):
    """``c_ref``/``c_pred`` are None when a text could not be counted."""

    c_ref: int | None
    c_pred: int | None
    reference_kind: ReferenceKind
    language: Language
    se: float | None = None
    scd: float | None = None
    mismatch: bool | None = None
    semantic: float | None = None
    phonetic: int | None = None
    component_errors: Mapping[str, str] = _NO_ERRORS


# What ``score_line`` takes: the reference text, the hypothesis text, their
# languages and the reference kind.
LinePair = tuple[str, str, Language, Language, ReferenceKind]

# most texts in one embedder call
EMBED_BATCH = 64


class _Failed(NamedTuple):
    """Stands in for a count, transcription or vector that could not be made."""

    message: str


def _count(lang: Language, text: str) -> int | _Failed:
    try:
        return syllables.count_syllables(lang, text)
    except NumberRangeError as exc:
        return _Failed(str(exc))


def _transcribe(lang: Language, text: str) -> phonetics.IpaString | _Failed:
    try:
        return phonetics.transcribe(lang, text)
    except Exception as exc:
        return _Failed(str(exc))


class LineScorer:
    """Bundles the providers needed to score lines.

    ``embedder`` maps a list of texts to one vector each; without it
    the semantic component reports an error instead of a value.
    """

    def __init__(self, params: SyllableErrorParams = SyllableErrorParams(),
                 embedder: Embedder | None = None):
        self.params = params
        self.embedder = embedder

    def score_line(self, gt_text: str, pred_text: str,
                   lang_gt: Language, lang_pred: Language,
                   reference_kind: ReferenceKind) -> LineScore:
        return self.score_pairs(
            [(gt_text, pred_text, lang_gt, lang_pred, reference_kind)])[0]

    def score_pairs(self, pairs: Sequence[LinePair]) -> list[LineScore]:
        """Score each pair as ``score_line`` does; the scores keep pair order.

        Each distinct pair is scored once, and a repeat of it gets the same
        ``LineScore``.  Each distinct (language, text) is counted and
        transcribed once, and each distinct text is embedded, and its
        vector's norm taken, once: texts go to the embedder in first-use
        order, at most ``EMBED_BATCH`` per call, and a call that fails is a
        ``semantic`` error on exactly the pairs with a text in it.  All of
        this is remembered for the one call only, so memory grows with the
        call's distinct texts; ``mavl evaluate`` makes one call per song, and
        so embeds each distinct text once per song.
        """
        texts = list(dict.fromkeys(text for gt, pred, *_ in pairs for text in (gt, pred)))
        # text -> (vector, its norm)
        vectors: dict[str, tuple] = {}
        for start in range(0, len(texts), EMBED_BATCH):
            vectors.update(self._embed(texts[start:start + EMBED_BATCH]))
        # pair -> score; (language, text) -> (count, transcription)
        done: dict[LinePair, LineScore] = {}
        known: dict[tuple[Language, str], tuple] = {}
        scores: list[LineScore] = []
        for pair in pairs:
            score = done.get(pair)
            if score is None:
                gt, pred, lang_gt, lang_pred, kind = pair
                for key in ((lang_gt, gt), (lang_pred, pred)):
                    if key not in known:
                        known[key] = (_count(*key), _transcribe(*key))
                score = done[pair] = self._score(
                    known[lang_gt, gt], known[lang_pred, pred],
                    vectors[gt], vectors[pred], lang_pred, kind)
            scores.append(score)
        return scores

    def _embed(self, batch: list[str]) -> dict[str, tuple]:
        """Each text's vector, or why there is none, and the vector's ``_norm``.

        A ``ProviderAuthError`` (no key, or a key refused) is raised: every
        other batch would fail alike, so it fails the run, not its lines.
        """
        if self.embedder is None:
            return dict.fromkeys(batch, (_Failed("no embedding provider configured"), None))
        try:
            vectors = self.embedder(batch)
            if len(vectors) != len(batch):
                raise EmbeddingError("embedder returned wrong vector count")
        except ProviderAuthError:
            raise
        except Exception as exc:
            return dict.fromkeys(batch, (_Failed(str(exc)), None))
        return {text: (v, _norm(v)) for text, v in zip(batch, vectors)}

    def _score(self, ref: tuple, hyp: tuple, ref_vector: tuple, hyp_vector: tuple,
               language: Language, reference_kind: ReferenceKind) -> LineScore:
        """Each component, or why not: an input that could not be made, the
        reference's first, else what computing it raised."""
        (c_ref, ipa_ref), (c_pred, ipa_hyp) = ref, hyp
        (v_ref, norm_ref), (v_hyp, norm_hyp) = ref_vector, hyp_vector
        errors: dict[str, str] = {}
        se = scd = mismatch = semantic = phonetic = None
        # one uncountable text leaves the other count set
        if type(c_ref) is _Failed:
            errors[SYLLABIC], c_ref = c_ref.message, None
            if type(c_pred) is _Failed:
                c_pred = None
        elif type(c_pred) is _Failed:
            errors[SYLLABIC], c_pred = c_pred.message, None
        else:
            try:
                se, scd, mismatch = (syllable_error(c_ref, c_pred, self.params),
                                     syllable_count_distance(c_ref, c_pred),
                                     c_ref != c_pred)
            except Exception as exc:
                errors[SYLLABIC] = str(exc)
        if type(v_ref) is _Failed or type(v_hyp) is _Failed:
            errors[SEMANTIC] = (v_ref if type(v_ref) is _Failed else v_hyp).message
        else:
            try:
                semantic = _cosine(v_ref, v_hyp, norm_ref, norm_hyp)
            except Exception as exc:
                errors[SEMANTIC] = str(exc)
        if type(ipa_ref) is _Failed or type(ipa_hyp) is _Failed:
            errors[PHONETIC] = (ipa_ref if type(ipa_ref) is _Failed else ipa_hyp).message
        else:
            try:
                phonetic = phonetics.edit_distance(ipa_ref, ipa_hyp)
            except Exception as exc:
                errors[PHONETIC] = str(exc)
        return LineScore(c_ref, c_pred, reference_kind, language, se, scd, mismatch,
                         semantic, phonetic, errors or _NO_ERRORS)


class GroupStats(NamedTuple):
    line_count: int
    error_rate: float | None
    mean_se: float | None
    mean_scd: float | None
    mean_semantic: float | None
    mean_phonetic: float | None


class CorpusReport(NamedTuple):
    line_count: int
    error_rate: float | None
    groups: Mapping[tuple[Language, ReferenceKind], GroupStats]
    provider: str | None = None


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _columns(scores: list[LineScore]) -> tuple[list, ...]:
    """The values of each ``GroupStats`` mean that ``scores`` hold, in score
    order: mismatches, SE, SCD, semantic, phonetic."""
    return ([s.mismatch for s in scores if s.mismatch is not None],
            [s.se for s in scores if s.se is not None],
            [s.scd for s in scores if s.scd is not None],
            [s.semantic for s in scores if s.semantic is not None],
            [s.phonetic for s in scores if s.phonetic is not None])


class ReportFold:
    """A ``CorpusReport`` folded from scores a chunk at a time, so no caller
    holds every score.

    Each (language, reference kind) keeps its line count and one column of
    doubles (an ``array("d")``) per mean, in score order.  Each mean is
    ``sum`` over its whole column, taken once at the end rather than as a
    running total: Python 3.12's ``sum`` compensates a float sum, and this
    way a report folded in chunks equals the one ``aggregate`` gives for all
    the scores at once.
    """

    def __init__(self) -> None:
        self._counts: dict[tuple[Language, ReferenceKind], int] = {}
        self._columns: dict[tuple[Language, ReferenceKind], tuple] = {}

    def add(self, scores: Iterable[LineScore]) -> None:
        # imported here: loaded with this module, the extension added 2.4% to
        # the start-up that every command pays, and only evaluate folds
        from array import array

        groups: dict[tuple[Language, ReferenceKind], list[LineScore]] = {}
        for s in scores:
            groups.setdefault((s.language, s.reference_kind), []).append(s)
        for key, group in groups.items():
            if key not in self._columns:
                self._counts[key] = 0
                self._columns[key] = tuple(array("d") for _ in GroupStats._fields[1:])
            self._counts[key] += len(group)
            for column, values in zip(self._columns[key], _columns(group)):
                column.extend(values)

    def report(self, provider: str | None = None) -> CorpusReport | None:
        """The report of every score added; None if none was."""
        if not self._counts:
            return None
        mismatches = [columns[0] for columns in self._columns.values()]
        rated = sum(map(len, mismatches))
        return CorpusReport(
            line_count=sum(self._counts.values()),
            # each mismatch is 0 or 1, so their sum is exact in any order
            error_rate=sum(map(sum, mismatches)) / rated if rated else None,
            groups={key: GroupStats(self._counts[key], *map(_mean, columns))
                    for key, columns in self._columns.items()},
            provider=provider,
        )


def aggregate(scores: Iterable[LineScore], *, provider: str | None = None,
              into: ReportFold | None = None) -> CorpusReport | None:
    """The report of ``scores``, which must hold at least one.

    With ``into``, the scores are folded into that fold instead, and None is
    returned: ``into.report()`` then gives the report of every score folded
    so far.  Evaluate aggregates one song at a time this way.
    """
    if into is not None:
        into.add(scores)
        return None
    fold = ReportFold()
    fold.add(scores)
    report = fold.report(provider)
    if report is None:
        raise MetricDomainError("aggregate needs at least one score")
    return report
