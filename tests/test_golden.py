"""Byte identity as a check: digests of what ``evaluate``, ``translate`` and
``ablate`` write for the benchmark's seed-3 inputs, against
``tests/golden.json``.

``evaluate`` runs as the eval-corpus workload runs it, once per ``--format``;
``scores.csv`` keeps one digest per column, so a change that moves outputs
on purpose shows which columns it moved.  ``translate`` runs as the
translate-mock workload runs it; its ``trace.jsonl`` is hashed without the
clock fields.  ``ablate`` runs the stage grid on the translate-mock inputs;
each case's files, in its ``<label>/`` folder, are keyed by the label.
``config.json`` and the run-directory names are left out: they hash the
output path.

``report.json`` (and the ``--format json`` stdout, the same text, and
``comparison.json``, which holds each case's report) is hashed
with each float written to six decimals, as ``scores.csv`` writes its
scores.  Its means are ``sum`` over a column, and Python 3.12's ``sum``
compensates a float sum where 3.10 and 3.11 add left to right, so their
last bits differ between interpreters.

A change that moves an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and names each file and column that moved, and why.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
SEED = 3
FORMATS = ("csv", "json", "table")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# a JSON number with a fraction or an exponent; integers are left as written
_FLOAT = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")


def _report_digest(data: bytes) -> str:
    """``data``'s digest with each float written to six decimals, every
    other byte as it is."""
    return _digest(_FLOAT.sub(lambda m: b"%.6f" % float(m.group()), data))


def _bench_corpus():
    """bench/corpus.py, loaded without putting bench/ on the path."""
    spec = importlib.util.spec_from_file_location("golden_bench_corpus",
                                                  ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _write(built, directory: Path) -> None:
    directory.mkdir()
    for name, data in built.files.items():
        (directory / name).write_bytes(data)


def _main(argv: list[str]) -> bytes:
    """``mavl.cli.main`` in this process; its stdout, as UTF-8."""
    from mavl.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"mavl {argv[0]} exited {code}: {err.getvalue()}")
    return out.getvalue().encode("utf-8")


def _only_run(root: Path) -> Path:
    (run_dir,) = root.iterdir()
    return run_dir


def _column_digests(data: bytes) -> dict[str, str]:
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    return {name: _digest(json.dumps([row[i] for row in rows], ensure_ascii=False)
                          .encode("utf-8"))
            for i, name in enumerate(header)}


def _trace_digest(data: bytes) -> str:
    records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    for record in records:
        del record["started_at"], record["finished_at"]
    return _digest("".join(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
                           for record in records).encode("utf-8"))


def _evaluate(corpus, work: Path) -> dict:
    inputs = work / "eval-inputs"
    _write(corpus.build_eval_corpus(SEED), inputs)
    argv = ["evaluate", "--dataset", str(inputs / "corpus.json"),
            "--hypotheses", str(inputs / "hypotheses.jsonl"), "--provider", "mock"]
    for lang in corpus.DUBBED_LANGS:
        argv += ["--target-lang", lang.value]
    digests = {f"stdout --format {fmt}": (_report_digest if fmt == "json" else _digest)(
        _main(argv + ["--format", fmt, "--out", str(work / f"evaluate-{fmt}")]))
        for fmt in FORMATS}
    # the files are the same whatever the format; the first run's are hashed
    run_dir = _only_run(work / f"evaluate-{FORMATS[0]}")
    digests["scores.csv"] = _column_digests((run_dir / "scores.csv").read_bytes())
    digests["report.json"] = _report_digest((run_dir / "report.json").read_bytes())
    digests["report.txt"] = _digest((run_dir / "report.txt").read_bytes())
    return digests


def _translate_inputs(corpus, work: Path) -> list[str]:
    """The translate-mock inputs, built once, as translate and ablate flags."""
    inputs = work / "translate-inputs"
    if not inputs.exists():
        _write(corpus.build_translate_mock(SEED), inputs)
    return ["--dataset", str(inputs / "corpus.json"), "--target-lang", "KO",
            "--provider", "mock", "--mock-script", str(inputs / "script.json")]


def _translate_digests(run_dir: Path) -> dict:
    digests = {name: _digest((run_dir / name).read_bytes())
               for name in ("hypotheses.jsonl", "results.jsonl", "failures.json")}
    digests["trace.jsonl"] = _trace_digest((run_dir / "trace.jsonl").read_bytes())
    return digests


def _translate(corpus, work: Path) -> dict:
    out = work / "translate"
    _main(["translate", *_translate_inputs(corpus, work), "--variant", "full",
           "--parallelism", "1", "--out", str(out)])
    return _translate_digests(_only_run(out))


def _evaluate_digests(run_dir: Path) -> dict:
    """``scores.csv``, whole, and each report file, or None where none was
    written."""
    digests = {"scores.csv": _digest((run_dir / "scores.csv").read_bytes())}
    for name, digest in (("report.json", _report_digest), ("report.txt", _digest)):
        path = run_dir / name
        digests[name] = digest(path.read_bytes()) if path.exists() else None
    return digests


def _ablate(corpus, work: Path) -> dict:
    out = work / "ablate"
    _main(["ablate", *_translate_inputs(corpus, work), "--grid", "stages", "--out", str(out)])
    run_dir = _only_run(out)
    comparison = (run_dir / "comparison.json").read_bytes()
    digests = {"comparison.json": _report_digest(comparison),
               "comparison.txt": _digest((run_dir / "comparison.txt").read_bytes())}
    # each case writes its translate and evaluate files in a folder named by its label
    for label in json.loads(comparison):
        digests[label] = {**_translate_digests(run_dir / label),
                          **_evaluate_digests(run_dir / label)}
    return digests


def current_digests(work: Path) -> dict:
    corpus = _bench_corpus()
    return {"evaluate": _evaluate(corpus, work), "translate": _translate(corpus, work),
            "ablate": _ablate(corpus, work)}


def _differences(expected: dict, got: dict, where: str = "") -> list[str]:
    """Each file, file and column, or case and file whose digest is not the
    golden one."""
    found = []
    for name in sorted(expected.keys() | got.keys()):
        at = f"{where}{name}"
        if name not in got:
            found.append(f"{at}: missing")
        elif name not in expected:
            found.append(f"{at}: not in golden.json")
        elif isinstance(expected[name], dict) and isinstance(got[name], dict):
            found += _differences(expected[name], got[name],
                                  f"{at}, column " if name == "scores.csv" else f"{at}, ")
        elif expected[name] != got[name]:
            found.append(f"{at}: differs")
    return found


def test_outputs_match_the_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = current_digests(tmp_path)
    differences = [f"{command} {line}" for command in sorted(expected.keys() | got.keys())
                   for line in _differences(expected.get(command, {}),
                                            got.get(command, {}))]
    assert not differences, (
        "outputs differ from tests/golden.json:\n  " + "\n  ".join(differences)
        + f"\nif the change is intended, regenerate with: {REGENERATE}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = current_digests(Path(work))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
