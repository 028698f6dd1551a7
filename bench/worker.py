"""One fresh process per measured step, as a user's shell would start it.

``python3 bench/worker.py setup`` imports ``mavl.cli`` and makes the first use
of every lazily loaded table (the G2P tables of all five languages, the EN
lexicon and both prompt templates), and prints the CPU seconds that took.
``python3 bench/worker.py baseline`` does the same for a fixed set of stdlib
imports, the reference that set-up time is measured against.

``python3 bench/worker.py run --result R.json [--spans S.jsonl --run-id ID]
-- <mavl arguments>`` imports ``mavl.cli``, then times one ``mavl.cli.main``
call with its stdout and stderr captured, and writes the exit code, the wall
and CPU time, the monotonic times the call began and ended and the process's
peak resident set to ``R.json``.  With ``--spans`` the call runs under the span
tracer and the spans are written when it ends.

The program is always imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _check_source(module) -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"mavl was imported from {module.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ``VmHWM`` starts afresh at exec, where ``ru_maxrss`` keeps the peak of the
    parent that forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup() -> int:
    cpu_start = time.process_time()
    import mavl.cli
    from mavl import phonetics, pipeline, syllables
    from mavl.languages import Language

    for lang in Language:
        phonetics.transcribe(lang, "a")
    syllables.count_syllables(Language.EN, "hello")
    task = pipeline.TranslationTask("hello", Language.EN, Language.KO, 2)
    for style in pipeline.PromptStyle:
        pipeline.build_prompt(task, pipeline.PipelineVariant(style=style))
    cpu = time.process_time() - cpu_start
    _check_source(mavl.cli)
    print(f'{{"cpu_s": {cpu!r}}}')
    return 0


BASELINE_MODULES = (
    "argparse", "asyncio", "configparser", "csv", "dataclasses", "decimal",
    "difflib", "email.parser", "fractions", "http.client", "json", "logging",
    "statistics", "tarfile", "textwrap", "unittest", "urllib.request",
    "xml.etree.ElementTree", "zipfile",
)


def baseline() -> int:
    import importlib

    cpu_start = time.process_time()
    for name in BASELINE_MODULES:
        importlib.import_module(name)
    print(f'{{"cpu_s": {time.process_time() - cpu_start!r}}}')
    return 0


def run(result_path: str, argv: list[str], spans_path: str | None, run_id: str) -> int:
    import contextlib
    import io
    import json
    import traceback

    import mavl.cli

    _check_source(mavl.cli)
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.monotonic(), time.process_time()
        try:
            if tracer is not None:
                code = tracer.root(mavl.cli.main, argv)
            else:
                code = mavl.cli.main(argv)
        except Exception:
            code, error = -1, traceback.format_exc()
        cpu, end = time.process_time() - cpu_start, time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    result = {
        "code": code,
        "wall_s": end - start,
        "cpu_s": cpu,
        "start": start,
        "end": end,
        "peak_rss_mb": _peak_rss_mb(),
        "stdout_tail": out.getvalue()[-2000:],
        "stderr_tail": err.getvalue()[-2000:],
        "error": error,
        "missing_hooks": tracer.missing if tracer is not None else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main() -> int:
    # the set-up measurement starts before any other import, argparse too
    if sys.argv[1:] == ["setup"]:
        return setup()
    if sys.argv[1:] == ["baseline"]:
        return baseline()
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    sub.add_parser("baseline")
    p_run = sub.add_parser("run")
    p_run.add_argument("--result", required=True)
    p_run.add_argument("--spans")
    p_run.add_argument("--run-id", default="run")
    p_run.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run(args.result, argv, args.spans, args.run_id)


if __name__ == "__main__":
    sys.exit(main())
