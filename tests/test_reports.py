"""``rows_to_csv`` formats each distinct score once per (song, language)."""

from __future__ import annotations

import io
import os
import tracemalloc

from mavl.dataset import LineKey
from mavl.languages import Language
from mavl.metrics import LineScore, ReferenceKind
from mavl.reports import EvaluationRow, rows_to_csv

ORIGINAL, DUBBED = ReferenceKind.ORIGINAL_EN, ReferenceKind.DUBBED


def render(rows) -> str:
    out = io.StringIO()
    rows_to_csv(rows, out)
    return out.getvalue()


def one_by_one(rows) -> list[str]:
    """Each row's CSV line rendered on its own, so no block is reused, in
    the order ``rows_to_csv`` writes them."""
    return [render([r]).splitlines(keepends=True)[1]
            for r in sorted(rows, key=lambda r: r.key.order())]


def score(n: int, kind: ReferenceKind, **fields) -> LineScore:
    return LineScore(n, n + 1, kind, Language.KO, **fields)


def row(song: str, lang: Language, line: int, original, dubbed) -> EvaluationRow:
    return EvaluationRow(LineKey(song, lang, 0, line), f"hyp {line}", None,
                         f"original {line}", f"dubbed {line}", original, dubbed)


def chorus_rows(copy) -> list[EvaluationRow]:
    """Two songs' KO and ES lines, each reusing scores as chorus repeats do;
    ``copy`` makes each repeat's score object."""
    chorus = score(6, ORIGINAL, se=2.0, scd=0.25, mismatch=True, semantic=0.5,
                   phonetic=3)
    failed = score(4, DUBBED, se=None, component_errors={"semantic": "endpoint down",
                                                         "phonetic": "no rule"})
    verse = score(5, DUBBED, se=0.0, scd=0.0, mismatch=False, semantic=1.0, phonetic=0)
    rows = []
    for song in ("alpha", "beta"):
        for lang in (Language.KO, Language.ES):
            rows += [row(song, lang, 0, chorus, failed),
                     row(song, lang, 1, copy(verse), None),
                     row(song, lang, 2, copy(chorus), copy(failed)),
                     row(song, lang, 3, None, copy(verse))]
    return rows


def test_shared_scores_render_as_equal_copies():
    shared = render(chorus_rows(lambda s: s))
    copies = render(chorus_rows(lambda s: s._replace()))
    assert shared == copies
    assert shared.splitlines(keepends=True)[1:] == one_by_one(chorus_rows(lambda s: s))
    assert "phonetic: no rule|semantic: endpoint down" in shared


def test_different_scores_are_not_conflated():
    rows = chorus_rows(lambda s: s._replace(phonetic=(s.phonetic or 0) + 7))
    assert render(rows).splitlines(keepends=True)[1:] == one_by_one(rows)


def test_4000_rows_in_200_groups_peak_under_1_mib():
    # every row holds its own two scores, so a memo over the whole file
    # would hold 8,000 blocks
    rows = [
        row(f"song-{g:03d}", Language.KO, i,
            score(g + i, ORIGINAL, se=0.5 * i, scd=0.125, mismatch=True,
                  semantic=i / 20, phonetic=i),
            score(g + i + 1, DUBBED, se=None, component_errors={"semantic": f"fault {i}"}))
        for g in range(200) for i in range(20)
    ]
    with open(os.devnull, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            rows_to_csv(rows, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2**20


def test_a_header_then_one_call_per_song_is_one_call_over_all_rows():
    """Evaluate writes the header, then each song's rows in a call of their
    own; for songs in order, that is the file one call over every row
    writes."""
    rows = chorus_rows(lambda s: s)
    out = io.StringIO()
    rows_to_csv([], out)
    for song in ("alpha", "beta"):
        rows_to_csv([r for r in rows if r.key.song_id == song], out, header=False)
    assert out.getvalue() == render(rows)
