"""Output checks: a benchmark run fails when the program's outputs are wrong.

* Translations must be the replies the mock script or the fake endpoint was
  built to have accepted, with the expected recount and attempt number.
* A seeded sample of scored rows is recomputed with direct calls to the
  metric functions over offline hash-embedding vectors; every cell of
  ``scores.csv`` must match at the precision the file is written with.
* Files that promise byte-identical reruns must hash the same on every
  repeat (``DETERMINISTIC``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

from mavl.languages import Language
from mavl.metrics import (
    SyllableErrorParams,
    cosine_similarity,
    syllable_count_distance,
    syllable_error,
)
from mavl.phonetics import phonetic_distance
from mavl.providers import EmbeddingRequest, HashEmbeddingProvider
from mavl.syllables import count_syllables

DETERMINISTIC = {
    "translate": ("hypotheses.jsonl", "failures.json", "results.jsonl"),
    "evaluate": ("scores.csv", "report.json"),
}

# scored rows recomputed per run
SCORE_SAMPLE = 40


class CheckFailed(Exception):
    """The program's outputs differ from what the benchmark expects."""


def run_dir(out: Path, command: str) -> Path:
    found = sorted(out.glob(f"{command}-*"))
    if len(found) != 1:
        raise CheckFailed(f"expected one {command} run directory in {out}, found {len(found)}")
    return found[0]


def hashes(directory: Path, command: str) -> dict[str, str]:
    out = {}
    for name in DETERMINISTIC[command]:
        path = directory / name
        if not path.is_file():
            raise CheckFailed(f"{command} did not write {name}")
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _key(record: dict) -> str:
    return f"{record['song_id']}/{record['language']}/{record['section']}/{record['line']}"


def read_translate(directory: Path) -> tuple[dict[str, dict], dict[str, dict]]:
    results = {}
    for line in (directory / "results.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            results[_key(record)] = record
    failures = {
        _key(f): f
        for f in json.loads((directory / "failures.json").read_text(encoding="utf-8"))
    }
    return results, failures


def check_translations(directory: Path, expected: dict[str, dict]) -> None:
    results, failures = read_translate(directory)
    extra = (set(results) | set(failures)) - set(expected)
    if extra:
        raise CheckFailed(f"outputs for unknown tasks: {sorted(extra)[:3]}")

    def accepted(got, exp, attempts) -> bool:
        return (
            got is not None
            and got["translation"] == exp["text"]
            and got["achieved_count"] == exp["count"]
            and got["required_count"] == exp["count"]
            and got["constraint_met"] is True
            and got["attempts"] == attempts
        )

    for key, exp in expected.items():
        got, failed = results.get(key), failures.get(key)
        pipeline_failure = failed is not None and failed["category"] == "pipeline"
        if exp["kind"] == "ok":
            good = accepted(got, exp, exp["attempts"]) and failed is None
        elif exp["kind"] == "fail":
            good = pipeline_failure and got is None
        else:  # a brace inside the translation: a failure today, or accepted at once
            good = (pipeline_failure and got is None) or (
                accepted(got, exp, 1) and failed is None
            )
        if not good:
            raise CheckFailed(f"{key}: expected {exp}, got result {got} / failure {failed}")


def read_scores(directory: Path) -> list[dict]:
    with open(directory / "scores.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def check_scores(directory: Path, rows: list[dict], seed: int) -> int:
    """Recompute a seeded sample of scored rows; returns the sample size.

    The syllable-error beta is the one the run echoes in its ``config.json``.
    """
    scored = [r for r in rows if r["status"] == "scored"]
    if not scored:
        raise CheckFailed("no scored rows")
    embedder = HashEmbeddingProvider()
    config = json.loads((directory / "config.json").read_text(encoding="utf-8"))
    params = SyllableErrorParams(beta=config["beta"])
    sample = random.Random(seed).sample(scored, min(SCORE_SAMPLE, len(scored)))
    for row in sample:
        lang = Language.parse(row["language"])
        hyp = row["hypothesis"]
        for kind, gt_lang in (("original", Language.EN), ("dubbed", lang)):
            gt = row[f"{kind}_reference"]
            c_ref = count_syllables(gt_lang, gt)
            c_pred = count_syllables(lang, hyp)
            vectors = embedder.embed_batch(EmbeddingRequest((gt, hyp)))
            want = {
                "c_ref": c_ref,
                "c_pred": c_pred,
                "se": syllable_error(c_ref, c_pred, params),
                "scd": syllable_count_distance(c_ref, c_pred),
                "mismatch": c_ref != c_pred,
                "semantic": cosine_similarity(vectors[0], vectors[1]),
                "phonetic": phonetic_distance(gt_lang, gt, lang, hyp),
            }
            for field, value in want.items():
                cell = row[f"{kind}_{field}"]
                if cell != _fmt(value):
                    raise CheckFailed(
                        f"{row['song_id']}/{row['language']}/{row['section']}/"
                        f"{row['line']} {kind}_{field}: scores.csv has {cell!r}, "
                        f"recomputed {_fmt(value)!r}"
                    )
    return len(sample)


def score_error_ratio(rows: list[dict]) -> float:
    """LineScores with any component error, over all LineScores."""
    scores = errors = 0
    for row in rows:
        for kind in ("original", "dubbed"):
            if row[f"{kind}_c_ref"] != "":
                scores += 1
                errors += row[f"{kind}_errors"] != ""
    return errors / scores if scores else 0.0
