"""Every name a ``mavl`` module exports in ``__all__`` must resolve."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mavl

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(mavl.__path__, prefix="mavl.")
)


def test_every_module_is_listed():
    assert "mavl.harness" in MODULES
    assert "mavl.syllables.japanese" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    """A module of bench/, loaded without putting bench/ on the path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bench_hooks():
    """``HOOKS`` of bench/spans.py."""
    return [(module_name, path) for module_name, path, _, _ in _bench_module("spans").HOOKS]


@pytest.mark.parametrize("module_name, path", _bench_hooks())
def test_bench_hook_target_exists(module_name, path):
    """A hook whose target is gone would time nothing, silently.  Look the
    target up where the tracer patches it, and wrap nothing."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr))


def test_bench_tracer_hooks_resolve(monkeypatch):
    """Every span hook of bench/spans.py names a function that still exists."""
    import mavl.harness

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    original = mavl.harness.translate_line
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        assert tracer.missing == []
        assert mavl.harness.translate_line is not original
    finally:
        tracer.uninstall()
    assert mavl.harness.translate_line is original


# spans that a small evaluate and a small mock translate must each reach
REACHED_SPANS = ("syllables.count", "phonetics.transcribe", "phonetics.edit_distance",
                 "reports.render", "providers.trace_append")


def test_bench_hooks_are_reached(monkeypatch, tmp_path):
    """A hooked name that the program no longer calls through reads 0 in the
    per-layer metrics, silently; run both commands under the tracer."""
    from mavl.cli import main
    from test_harness import GOOD_SCRIPT, small_corpus, write_script

    corpus, script = small_corpus(tmp_path), write_script(tmp_path, GOOD_SCRIPT)
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    tracer = importlib.import_module("spans").Tracer("tier-1")
    tracer.install()
    try:
        assert main(["translate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--mock-script", str(script), "--out", str(tmp_path / "t")]) == 0
        hypotheses = next((tmp_path / "t").glob("*/hypotheses.jsonl"))
        assert main(["evaluate", "--dataset", str(corpus), "--target-lang", "KO",
                     "--hypotheses", str(hypotheses), "--out", str(tmp_path / "e")]) == 0
    finally:
        tracer.uninstall()
    calls = {name: sum(1 for span in tracer.spans if span[1] == name)
             for name in REACHED_SPANS}
    assert all(calls.values()), calls


def test_bench_corpora_parse_and_round_trip():
    """The benchmark's seed-3 inputs still parse, serialize back to the same
    bytes, and the eval hypotheses resolve against their corpus; a parser
    that rejected them would fail every benchmark run instead."""
    from mavl.dataset import parse_dataset, serialize_dataset
    from mavl.harness import HypothesisSet

    corpus = _bench_module("corpus")
    built = {build.__name__: build(3) for build in (
        corpus.build_eval_corpus, corpus.build_translate_mock, corpus.build_roundtrip)}
    for name, files in built.items():
        data = files.files["corpus.json"]
        assert serialize_dataset(parse_dataset(data)) == data, name
    evaluated = built["build_eval_corpus"].files
    hypotheses = HypothesisSet.from_jsonl(evaluated["hypotheses.jsonl"].decode("utf-8"))
    hypotheses.validate_against(parse_dataset(evaluated["corpus.json"]))


HTTP_MODULES = ("urllib.request", "http.client", "requests", "ssl", "socket", "select",
                "mavl.wire")

# run in a fresh interpreter: importing the CLI, then three offline commands,
# noting after each which of these modules are loaded, then one remote
# completion against the loopback server at the URL given
_HTTP_PROBE = textwrap.dedent(f"""
    import json, sys
    import mavl.cli
    from mavl.syllables import japanese

    corpus, script, hypotheses, out, url = sys.argv[1:]
    seen = {{}}

    def note(name, argv=None):
        code = [] if argv is None else [mavl.cli.main(argv)]
        seen[name] = code + [m for m in {HTTP_MODULES!r} if m in sys.modules]

    note("import")
    note("evaluate", ["evaluate", "--dataset", corpus, "--target-lang", "JA",
                      "--hypotheses", hypotheses, "--out", out + "/e"])
    seen["annotation_patterns"] = japanese._annotation.cache_info().currsize
    note("translate", ["translate", "--dataset", corpus, "--target-lang", "KO",
                       "--mock-script", script, "--out", out + "/t"])
    note("stats", ["stats", "--dataset", corpus])

    from mavl.providers import GenerationRequest, RemoteProvider

    seen["text"] = RemoteProvider(url, "m", timeout=5.0).complete(GenerationRequest("hi"))
    seen["remote"] = [m for m in ("mavl.wire", "requests", "urllib.request", "ssl")
                      if m in sys.modules]
    print(json.dumps(seen))
""")


def _fresh_python(code: str, *args, **env) -> dict:
    """Run ``code`` in a fresh interpreter that imports ``mavl`` from this
    checkout, and read the JSON object its last stdout line holds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_http_modules_load_only_for_a_remote_call(tmp_path):
    """Neither importing the CLI nor an offline evaluate, mock translate or
    stats loads the HTTP client (``mavl.wire``), a socket, select or TLS
    module; an ``http://`` remote call loads ``mavl.wire``, but neither
    ``requests``, ``urllib.request`` nor ``ssl``.  An evaluate of JA texts
    with no ``[`` compiles no annotation pattern."""
    from loopback import Loopback, reply
    from mavl.dataset import parse_dataset
    from mavl.harness import HypothesisSet
    from mavl.languages import Language
    from test_harness import GOOD_SCRIPT, write_corpus, write_script

    corpus = write_corpus(tmp_path, {"alpha": {
        Language.EN: [["And there's a butterfly", "Remember me, don't let it make you cry"]],
        Language.KO: [["나비가 날아와", "날 잊지 마 슬퍼하지는 마"]],
        Language.JA: [["蝶がとぶ", "忘れないで"]],
    }})
    hypotheses = tmp_path / "hypotheses.jsonl"
    dubbed = HypothesisSet.from_dubbed(parse_dataset(corpus.read_bytes()), [Language.JA])
    hypotheses.write_text("".join(dubbed.jsonl_lines()), encoding="utf-8")
    script = write_script(tmp_path, GOOD_SCRIPT)
    server = Loopback()
    server.actions = [reply(200, b'{"text": "ok"}')]
    try:
        seen = _fresh_python(_HTTP_PROBE, corpus, script, hypotheses, tmp_path, server.url,
                             MAVL_API_KEY="sekrit")
    finally:
        server.close()
    assert seen == {
        "import": [], "evaluate": [0], "annotation_patterns": 0, "translate": [0],
        "stats": [0], "text": "ok", "remote": ["mavl.wire"],
    }
    # the JA rows were scored, so the evaluate did read JA texts
    rows = next((tmp_path / "e").glob("*/scores.csv")).read_text(encoding="utf-8")
    assert "忘れないで" in rows


# run in a fresh interpreter: importing the CLI, then four commands, noting
# after each which of these modules are loaded
HEAVY_MODULES = ("dataclasses", "concurrent.futures", "logging")
_LOAD_PROBE = textwrap.dedent(f"""
    import glob, json, sys
    import mavl.cli

    corpus, script, out = sys.argv[1:]
    seen = {{}}

    def note(name, argv=None):
        code = [] if argv is None else [mavl.cli.main(argv)]
        seen[name] = code + [m for m in {HEAVY_MODULES!r} if m in sys.modules]

    translate = ["translate", "--dataset", corpus, "--target-lang", "KO",
                 "--mock-script", script]
    note("import")
    note("translate-1", translate + ["--parallelism", "1", "--out", out + "/p1"])
    hypotheses = glob.glob(out + "/p1/*/hypotheses.jsonl")[0]
    note("evaluate", ["evaluate", "--dataset", corpus, "--target-lang", "KO",
                      "--hypotheses", hypotheses, "--out", out + "/eval"])
    note("stats", ["stats", "--dataset", corpus])
    note("translate-2", translate + ["--parallelism", "2", "--out", out + "/p2"])
    print(json.dumps(seen))
""")


def test_no_thread_pool_dataclasses_or_logging_load(tmp_path):
    """Neither importing the CLI nor evaluate, stats or a translate, serial or
    at ``--parallelism 2``, loads ``dataclasses``, ``concurrent.futures`` or
    ``logging``.  The parallel translate writes the serial run's outputs."""
    from test_harness import GOOD_SCRIPT, small_corpus, write_script

    corpus, script = small_corpus(tmp_path), write_script(tmp_path, GOOD_SCRIPT)
    assert _fresh_python(_LOAD_PROBE, corpus, script, tmp_path) == {
        "import": [], "translate-1": [0], "evaluate": [0], "stats": [0],
        "translate-2": [0],
    }
    serial, parallel = (next((tmp_path / p).iterdir()) for p in ("p1", "p2"))
    for name in ("hypotheses.jsonl", "failures.json", "results.jsonl"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
    # both lines translated, so the comparison covers real output
    assert len((serial / "results.jsonl").read_text(encoding="utf-8").splitlines()) == 2


# run in a fresh interpreter: importing the CLI, then every command, a mock
# and a remote translate among them, noting after each whether OpenSSL's
# hashing modules are loaded
OPENSSL_MODULES = ("hashlib", "_hashlib")
_OPENSSL_PROBE = textwrap.dedent(f"""
    import json, sys
    import mavl.cli

    corpus, script, hypotheses, url, out = sys.argv[1:]
    seen = {{}}

    def note(name, argv=None):
        code = [] if argv is None else [mavl.cli.main(argv)]
        seen[name] = code + [m for m in {OPENSSL_MODULES!r} if m in sys.modules]

    run = ["--dataset", corpus, "--target-lang", "KO"]
    note("import")
    note("evaluate", ["evaluate", *run, "--hypotheses", hypotheses, "--out", out + "/e"])
    note("stats", ["stats", "--dataset", corpus])
    note("translate", ["translate", *run, "--mock-script", script, "--out", out + "/t"])
    note("ablate", ["ablate", *run, "--mock-script", script, "--out", out + "/a"])
    note("remote", ["translate", *run, "--provider", "remote", "--endpoint", url,
                    "--model-id", "m", "--max-reprompts", "0", "--out", out + "/r"])
    print(json.dumps(seen))
""")


def test_no_command_loads_openssl(tmp_path):
    """No command, a translate included, loads ``hashlib`` or OpenSSL's
    ``_hashlib``: run directory names and request digests are hashed with
    the interpreter's own SHA-256."""
    from loopback import Loopback, reply
    from mavl.dataset import parse_dataset
    from mavl.harness import HypothesisSet
    from mavl.languages import Language
    from test_harness import GOOD_SCRIPT, small_corpus, write_script

    corpus, script = small_corpus(tmp_path), write_script(tmp_path, GOOD_SCRIPT)
    hypotheses = tmp_path / "hypotheses.jsonl"
    dubbed = HypothesisSet.from_dubbed(parse_dataset(corpus.read_bytes()), [Language.KO])
    hypotheses.write_text("".join(dubbed.jsonl_lines()), encoding="utf-8")
    server = Loopback()
    body = json.dumps({"text": json.dumps({"translation": "나비가 날아와"})}).encode()
    server.actions = [reply(200, body)] * 2
    try:
        seen = _fresh_python(_OPENSSL_PROBE, corpus, script, hypotheses, server.url,
                             tmp_path, MAVL_API_KEY="sekrit")
    finally:
        server.close()
    assert seen == {
        "import": [], "evaluate": [0], "stats": [0], "translate": [0], "ablate": [0],
        "remote": [0],
    }
    assert len(server.received) == 2


# run in a fresh interpreter: a remote translate against the loopback server
# the test runs, then whether the idna codec and its stringprep tables loaded
IDNA_MODULES = ("encodings.idna", "stringprep")
_IDNA_PROBE = textwrap.dedent(f"""
    import json, sys
    import mavl.cli

    corpus, url, out = sys.argv[1:]
    code = mavl.cli.main(["translate", "--dataset", corpus, "--target-lang", "KO",
                          "--provider", "remote", "--endpoint", url, "--model-id", "m",
                          "--max-reprompts", "0", "--out", out])
    print(json.dumps([code] + [m for m in {IDNA_MODULES!r} if m in sys.modules]))
""")


def test_http_translate_loads_no_idna_codec(tmp_path):
    """An ``http://`` translate hands ``getaddrinfo`` its host as ASCII bytes,
    so it never loads the idna codec or ``stringprep``."""
    from loopback import Loopback, reply
    from test_harness import small_corpus

    server = Loopback()
    body = json.dumps({"text": json.dumps({"translation": "나비가 날아와"})}).encode()
    server.actions = [reply(200, body)] * 2
    try:
        seen = _fresh_python(_IDNA_PROBE, small_corpus(tmp_path), server.url,
                             tmp_path / "runs", MAVL_API_KEY="sekrit")
    finally:
        server.close()
    assert seen == [0]
    assert len(server.received) == 2
