"""Rendering of evaluation results as CSV, JSON, and text tables.

Every function here is a pure mapping from already-computed results to text,
so identical inputs always produce byte-identical output.  Nothing in this
module looks at the clock, the environment, or dict iteration quirks: rows
are sorted explicitly and floats are formatted with fixed precision.
"""

from __future__ import annotations

import csv
import json
from typing import NamedTuple, TextIO

from .dataset import LineKey, StatsReport
from .languages import Language
from .metrics import CorpusReport, GroupStats, LineScore, ReferenceKind

__all__ = [
    "EvaluationRow",
    "rows_to_csv",
    "report_payload",
    "dump_json",
    "report_to_json",
    "render_report_table",
    "render_grid",
    "render_stats_table",
]


class EvaluationRow(NamedTuple):
    """One dataset line in one language: either scored or skipped."""

    key: LineKey
    hypothesis: str | None = None
    skip_reason: str | None = None
    original_reference: str | None = None
    dubbed_reference: str | None = None
    original_score: LineScore | None = None
    dubbed_score: LineScore | None = None

    @property
    def status(self) -> str:
        return "skipped" if self.skip_reason else "scored"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


_SCORE_FIELDS = ["c_ref", "c_pred", "se", "scd", "mismatch", "semantic", "phonetic"]


def _score_block(score: LineScore | None) -> list[str]:
    """The cells of one reference block after its text: the score's
    fields, then its errors."""
    if score is None:
        return [""] * (len(_SCORE_FIELDS) + 1)
    return [_fmt(getattr(score, name)) for name in _SCORE_FIELDS] + ["|".join(
        f"{name}: {msg}" for name, msg in sorted(score.component_errors.items()))]


CSV_HEADER = (
    ["song_id", "language", "section", "line", "status", "skip_reason", "hypothesis"]
    + ["original_reference"]
    + [f"original_{name}" for name in _SCORE_FIELDS]
    + ["original_errors"]
    + ["dubbed_reference"]
    + [f"dubbed_{name}" for name in _SCORE_FIELDS]
    + ["dubbed_errors"]
)


def rows_to_csv(rows: list[EvaluationRow], out: TextIO, *, header: bool = True) -> None:
    """Write one CSV row per dataset line to ``out``, both reference blocks
    side by side, in line-key order; the header first unless ``header`` is
    false."""
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(CSV_HEADER)
    # a repeated pair shares one LineScore, so each distinct one is formatted
    # once per (song, language); rows hold their scores, so no id is reused
    group, blocks = None, {}
    for row in sorted(rows, key=lambda row: row.key.order()):
        order = row.key.order()
        if order[:2] != group:
            group, blocks = order[:2], {}
        original, dubbed = (
            blocks.get(id(score)) or blocks.setdefault(id(score), _score_block(score))
            for score in (row.original_score, row.dubbed_score))
        writer.writerow([
            # the key's four columns, in the order the rows sort by
            *order, row.status, row.skip_reason or "", row.hypothesis or "",
            row.original_reference or "", *original,
            row.dubbed_reference or "", *dubbed,
        ])


def report_payload(report: CorpusReport) -> dict:
    """The report as plain JSON values; groups are keyed "<LANG>/<kind>"."""
    return {**report._asdict(),
            "groups": {f"{lang.value}/{kind.value}": stats._asdict()
                       for (lang, kind), stats in report.groups.items()}}


def dump_json(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def report_to_json(report: CorpusReport) -> str:
    return dump_json(report_payload(report))


_METRIC_ROWS = [
    ("lines", "line_count", "d"),
    ("error rate", "error_rate", "f"),
    ("mean SE", "mean_se", "f"),
    ("mean SCD", "mean_scd", "f"),
    ("mean semantic", "mean_semantic", "f"),
    ("mean phonetic", "mean_phonetic", "f"),
]


def _stat_cell(stats: GroupStats | None, attr: str, kind: str) -> str:
    if stats is None:
        return "-"
    value = getattr(stats, attr)
    if value is None:
        return "-"
    if kind == "d":
        return str(value)
    return f"{value:.3f}"


def render_grid(title: str, col_labels: list[str], row_labels: list[str],
                cells: list[list[str]]) -> str:
    """Fixed-width text table; first column holds the row labels."""
    head = [title] + col_labels
    table = [head] + [[label] + row for label, row in zip(row_labels, cells)]
    widths = [max(len(row[i]) for row in table) for i in range(len(head))]
    lines = []
    for r, row in enumerate(table):
        rendered = "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        )
        lines.append(rendered.rstrip())
        if r == 0:
            lines.append("-" * len(rendered.rstrip()))
    return "\n".join(lines) + "\n"


def render_report_table(report: CorpusReport) -> str:
    """Metric-by-language grid, one block per reference kind.

    Languages with no scored lines show dashes so the layout is stable no
    matter which subset of the corpus was evaluated.
    """
    blocks = []
    for kind in (ReferenceKind.ORIGINAL_EN, ReferenceKind.DUBBED):
        cells = []
        for label, attr, fmt in _METRIC_ROWS:
            row = []
            for lang in Language:
                stats = report.groups.get((lang, kind))
                row.append(_stat_cell(stats, attr, fmt))
            cells.append(row)
        title = f"vs {kind.value}"
        blocks.append(
            render_grid(title, [lang.value for lang in Language],
                        [label for label, _, _ in _METRIC_ROWS], cells)
        )
    footer = ""
    if report.provider:
        footer = f"provider: {report.provider}\n"
    return "\n".join(blocks) + footer


def render_stats_table(stats: StatsReport) -> str:
    """Songs/sections/lines per language.

    A language absent from a non-empty corpus renders as dashes; a fully
    empty corpus renders zeros (nothing is "missing", there is just no data).
    """
    empty_corpus = not stats.per_language
    cells = []
    row_labels = ["songs", "sections", "lines"]
    for attr in row_labels:
        row = []
        for lang in Language:
            per = stats.per_language.get(lang)
            if per is None:
                row.append("0" if empty_corpus else "-")
            else:
                row.append(str(getattr(per, attr)))
        cells.append(row)
    return render_grid("", [lang.value for lang in Language], row_labels, cells)
