from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import string
import sys
import tempfile
import threading
import time
import tracemalloc
import zlib
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from loopback import Loopback, raw, reply

from mavl import providers
from mavl.errors import (
    ConfigError,
    EmbeddingError,
    ProviderAuthError,
    ProviderError,
    ProviderRateLimitError,
    ProviderTimeoutError,
    RetriesExhaustedError,
    TransientProviderError,
)
from mavl.metrics import cosine_similarity
from mavl.providers import (
    EmbeddingRequest,
    GenerationRequest,
    HashEmbeddingProvider,
    MediaAttachment,
    MediaKind,
    RemoteProvider,
    RetryPolicy,
    ScriptedProvider,
    TraceStore,
    embed,
    generate,
    map_bounded,
    request_digest,
)


def read_trace(path):
    """The records of a trace file, in the order they were appended."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture
def no_backoff(monkeypatch):
    """Retries skip their waits; lists each attempt that was followed by one."""
    waited = []

    def delay_for(self, attempt):
        waited.append(attempt)
        return 0.0

    monkeypatch.setattr(RetryPolicy, "delay_for", delay_for)
    return waited


class TestConfigs:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ConfigError):
            GenerationRequest(prompt_text="   ")

    @given(st.text(alphabet=st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680"
                                            "\u2028\u2029\u3000\u200bax"), max_size=6)
           | st.text(max_size=6))
    @example("")
    @example("\x85")
    @example("\u2028")
    @example("\u3000")
    @example("\u200b")
    def test_blank_prompt_is_what_strip_leaves_empty(self, prompt):
        try:
            GenerationRequest(prompt)
        except ConfigError:
            rejected = True
        else:
            rejected = False
        assert rejected == (not prompt.strip())

    def test_media_span_validation(self):
        with pytest.raises(ConfigError):
            MediaAttachment(MediaKind.AUDIO, "a.wav", time_span=(5.0, 3.0))

    @pytest.mark.parametrize("span", [
        (0.0, float("inf")), (float("nan"), 1.0), (0.0, float("nan")),
    ], ids=["inf-end", "nan-start", "nan-end"])
    def test_media_span_must_be_finite(self, span):
        with pytest.raises(ConfigError):
            MediaAttachment(MediaKind.AUDIO, "a.wav", time_span=span)

    def test_media_widening_floors_at_zero(self):
        clip = MediaAttachment(MediaKind.VIDEO, "v.mp4", time_span=(1.0, 4.0))
        padded = clip.widened(2.0)
        assert padded.time_span == (0.0, 6.0)
        assert clip.time_span == (1.0, 4.0)

    def test_widening_whole_file_is_noop(self):
        clip = MediaAttachment(MediaKind.AUDIO, "a.wav")
        assert clip.widened(2.0) is clip


class TestRetries:
    def test_fail_twice_then_succeed_within_cap(self, no_backoff):
        provider = ScriptedProvider(
            [ProviderRateLimitError("slow down"), ProviderRateLimitError("again"), "ok"]
        )
        assert generate(GenerationRequest("hello"), provider) == "ok"
        assert provider.calls == 3
        assert no_backoff == [1, 2]

    def test_exhausted_error_carries_last_cause(self, no_backoff):
        provider = ScriptedProvider(
            [ProviderRateLimitError("first"), ProviderRateLimitError("second"),
             ProviderRateLimitError("final"), "too late"]
        )
        with pytest.raises(RetriesExhaustedError) as excinfo:
            generate(GenerationRequest("hello"), provider)
        assert "final" in str(excinfo.value.last_error)
        assert excinfo.value.attempts == provider.calls == 3

    def test_auth_errors_never_retried(self, no_backoff):
        provider = ScriptedProvider([ProviderAuthError("bad key"), "would succeed"])
        with pytest.raises(ProviderAuthError):
            generate(GenerationRequest("hello"), provider)
        assert provider.calls == 1
        assert no_backoff == []

    def test_backoff_schedule_is_exponential(self, monkeypatch):
        # generate and embed share one schedule: three attempts, 0.5 s then 1 s
        slept = []
        monkeypatch.setattr(providers, "time", SimpleNamespace(sleep=slept.append,
                                                               time=time.time))
        completer = ScriptedProvider([ProviderRateLimitError("x")] * 4)
        with pytest.raises(RetriesExhaustedError):
            generate(GenerationRequest("hello"), completer)

        class Flaky:
            def embed_batch(self, request):
                raise TransientProviderError("x")

        with pytest.raises(RetriesExhaustedError):
            embed(EmbeddingRequest(("a",)), Flaky())
        assert completer.calls == 3
        assert slept == [0.5, 1.0] * 2

    def test_script_exhaustion_is_loud(self):
        provider = ScriptedProvider(["only one"])
        req = GenerationRequest("hello")
        assert generate(req, provider) == "only one"
        with pytest.raises(ProviderError, match="script exhausted"):
            generate(req, provider)
        assert provider.calls == 2


# Few symbols, so generated keys and prompts overlap often; the Hangul and
# kana make some prompts wide strings.  Prompts are read line by line, split
# on "\n" alone, so keys and prompts also hold "\n" and two other breaks.
KEY_ALPHABET = "ab 나비かな\n\r\u2028"


def linear_match(keys, prompt):
    """The documented rule, as a plain scan: first key in script order that
    occurs in the prompt."""
    for key in keys:
        if key in prompt:
            return key
    return None


@st.composite
def keyed_scripts(draw):
    """(keys in script order, prompt, position of the ``None`` queue or None)."""
    keys = draw(st.lists(st.text(KEY_ALPHABET, min_size=6, max_size=16), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        # a prefix, suffix or infix of a drawn key, maybe empty
        key = draw(st.sampled_from(keys))
        start = draw(st.integers(0, len(key)))
        keys.append(key[start : draw(st.integers(start, len(key)))])
    keys = list(dict.fromkeys(draw(st.permutations(keys))))
    pieces = st.sampled_from(keys) | st.text(KEY_ALPHABET + "xy", max_size=12)
    prompt = "".join(draw(st.lists(pieces, min_size=1, max_size=6)))
    return keys, prompt, draw(st.none() | st.integers(0, len(keys)))


@st.composite
def prompt_runs(draw):
    """(keys in script order, prompts in call order), the prompts built from
    shared template lines, as a run's prompts are.

    A prompt takes the first lines of the template, maybe part of the next
    one (so prompts split mid-line), then drawn pieces; or it continues the
    prompt before it, on its last line or after a line break.  Keys are
    drawn, may be empty, short or hold a line break, and some are cut from
    the template lines."""
    template = draw(st.lists(st.text(KEY_ALPHABET.replace("\n", "") + "xy", max_size=14),
                             min_size=1, max_size=6))
    keys = draw(st.lists(st.text(KEY_ALPHABET, max_size=14), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        line = draw(st.sampled_from(template))
        start = draw(st.integers(0, len(line)))
        keys.append(line[start : draw(st.integers(start, len(line)))])
    keys = list(dict.fromkeys(draw(st.permutations(keys))))
    pieces = st.lists(st.sampled_from(keys) | st.text(KEY_ALPHABET + "xy", max_size=8), max_size=4)
    prompts = []
    for _ in range(draw(st.integers(1, 8))):
        if prompts and draw(st.booleans()):
            prompts.append(prompts[-1] + draw(st.sampled_from(["", "\n"])) + "".join(draw(pieces)))
            continue
        n = draw(st.integers(0, len(template)))
        head = "".join(line + "\n" for line in template[:n])
        if n < len(template):
            head += template[n][: draw(st.integers(0, len(template[n])))]
        prompts.append(head + "".join(draw(pieces)))
    return keys, prompts


def check_clean_prefix(provider, keys):
    """The clean prefix is whole lines, none holding a one-line key."""
    clean = provider._clean
    assert clean == "" or clean.endswith("\n"), clean
    one_line = [key for key in keys if "\n" not in key]
    for line in clean.split("\n")[:-1]:
        assert not any(key in line for key in one_line), (clean, line)


def answer(keys, prompt):
    found = linear_match(keys, prompt)
    return "fallback" if found is None else f"#{keys.index(found)}"


class TestScriptedProvider:
    def test_keyed_scripts_match_on_prompt_substring(self):
        provider = ScriptedProvider(
            {
                "butterfly": ["reply A"],
                "winter": ["reply B"],
                None: ["fallback"],
            }
        )
        assert provider.complete(GenerationRequest("about a butterfly")) == "reply A"
        assert provider.complete(GenerationRequest("cold winter day")) == "reply B"
        assert provider.complete(GenerationRequest("unrelated")) == "fallback"

    def test_no_match_and_no_fallback_raises(self):
        provider = ScriptedProvider({"specific": ["x"]})
        with pytest.raises(ProviderError):
            provider.complete(GenerationRequest("other"))
        assert provider.calls == 1

    @given(keyed_scripts())
    # the empty key matches every prompt, wherever it stands in the script
    @example((["", "ab"], "xab", None))
    @example((["ab", ""], "b", 2))
    # a suffix of a longer key that comes first in the script
    @example((["ab 나비かなab abab", "나비かなab abab"], "xy나비かなab ababx", None))
    # the shortest keys that are indexed and unindexed, each placed so that
    # only one sampled window, or none, lies inside it
    @example((["ab 나비かなab"], "xyab 나비かなabx", None))
    @example((["ab 나비かなab a"], "xab 나비かなab ay", None))
    @example((["ab 나비かなab a"], "xyxyxab 나비かなab a", None))
    # an infix of a longer key
    @example((["かなab ab 나비かなab", "ab ab"], "x ab ab x", 0))
    # nothing matches: the fallback queue, or an error without one
    @example((["abab나비abab나비"], "abab나비abab", 1))
    @example((["abab나비abab나비"], "abab나비abab", None))
    # a key holding a newline wins over a later one-line key
    @example((["b\na", "ab 나비かなab"], "xab 나비かなab\nab", None))
    @example((["\n", "ab"], "ab\nab", None))
    # keys that occur only across a line break, indexed length or not
    @example((["ab 나비\nかなab ab", "ab"], "xyab 나비\nかなab abx", 2))
    @example((["b\na"], "ab\nab", 1))
    # "\r" and "\u2028" do not end a line
    @example((["ab\r나비かなab ab", "나비"], "xab\r나비かなab abx", None))
    @example((["a\r", "b\u2028"], "xb\u2028a\r", 0))
    def test_lookup_agrees_with_a_linear_scan(self, case):
        keys, prompt, fallback_at = case
        assume(prompt.strip())
        items = [(key, [f"#{i}"]) for i, key in enumerate(keys)]
        if fallback_at is not None:
            items.insert(fallback_at, (None, ["fallback"]))
        provider = ScriptedProvider(dict(items))
        expected = linear_match(keys, prompt)
        if expected is not None:
            assert provider.complete(GenerationRequest(prompt)) == f"#{keys.index(expected)}"
        elif fallback_at is not None:
            assert provider.complete(GenerationRequest(prompt)) == "fallback"
        else:
            with pytest.raises(ProviderError, match="no script entry"):
                provider.complete(GenerationRequest(prompt))

    @given(prompt_runs())
    # two prompts share a prefix, then split mid-line; a key spans the split
    @example((["ab나"], ["T\naxy\n", "T\nabx\n", "T\nab나\n"]))
    # a prompt is a line-prefix of the next, which finishes its last line
    @example((["b나비"], ["T\nab", "T\nab나비"]))
    @example((["xy", "\n"], ["T\nax", "T\naxy"]))
    # prompts that share no line: the prefix starts again from the next one
    @example((["나비"], ["x\nab", "y\nab", "y\nab나비"]))
    # an empty key occurs in every line, so no line is key-free
    @example((["나비", ""], ["x\ny\n", "x\ny\n나비"]))
    # "\r" and "\u2028" do not end a line, and keys may hold them
    @example((["a\rb", "b\u2028"], ["xa\ry\nb", "xa\ry\nb\u2028", "xa\rb\n"]))
    def test_a_run_of_prompts_agrees_with_a_linear_scan(self, case):
        keys, prompts = case
        script = {key: [f"#{i}"] * len(prompts) for i, key in enumerate(keys)}
        script[None] = ["fallback"] * len(prompts)
        provider = ScriptedProvider(script)
        one_line = [key for key in keys if "\n" not in key]
        for prompt in prompts:
            if not prompt.strip():
                continue
            assert provider.complete(GenerationRequest(prompt)) == answer(keys, prompt), prompt
            check_clean_prefix(provider, keys)
            assert prompt.startswith(provider._clean)
            first, newline, _ = prompt.partition("\n")
            if newline and not any(key in first for key in one_line):
                assert provider._clean, prompt

    @settings(max_examples=40, deadline=None)
    @given(prompt_runs(), st.randoms(use_true_random=False))
    def test_threads_sharing_a_provider_agree_with_a_linear_scan(self, case, rng):
        keys, prompts = case
        prompts = [prompt for prompt in prompts if prompt.strip()] * 3
        assume(prompts)
        script = {key: [f"#{i}"] * 4 * len(prompts) for i, key in enumerate(keys)}
        script[None] = ["fallback"] * 4 * len(prompts)
        provider = ScriptedProvider(script)
        wrong = []

        def worker(order):
            for prompt in order:
                got = provider.complete(GenerationRequest(prompt))
                if got != answer(keys, prompt):
                    wrong.append((prompt, got))

        orders = [rng.sample(prompts, len(prompts)) for _ in range(4)]
        threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert provider.calls == 4 * len(prompts)
        check_clean_prefix(provider, keys)

    def test_index_of_2000_keys_stays_under_2_mib(self):
        rng = random.Random(7)
        letters = string.ascii_letters + " "
        keys: set[str] = set()
        while len(keys) < 2000:
            keys.add("".join(rng.choice(letters) for _ in range(40)))
        script = {key: ["reply"] for key in sorted(keys)}
        tracemalloc.start()
        try:
            ScriptedProvider(script)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_line_memo_of_20000_distinct_lines_stays_under_2_mib(self):
        rng = random.Random(11)
        letters = string.ascii_letters + " "
        keys = sorted({"".join(rng.choice(letters) for _ in range(40)) for _ in range(2000)})
        script = {key: ["reply"] for key in keys}
        script[None] = ["fallback"] * 20000
        head = "Translate the line below.\nKeep its syllable count.\n"
        tracemalloc.start()
        try:
            provider = ScriptedProvider(script)
            for n in range(20000):
                # a distinct ~200-character line, holding a key in every 100th
                line = rng.randbytes(100).hex()
                if n % 100 == 0:
                    line += keys[n // 100]
                provider.complete(GenerationRequest(f"{head}{line}\nReply in JSON."))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert provider.calls == 20000
        assert peak < 2 * 2**20

    def test_concurrent_calls_pop_every_turn_once(self):
        keys = [f"verse {i} of the song" for i in range(4)]
        turns = {key: [f"{key} #{n}" for n in range(60)] for key in keys}
        provider = ScriptedProvider(turns)
        replies: list[str] = []

        def worker(key):
            for _ in range(30):
                replies.append(provider.complete(GenerationRequest(f"sing: {key}!")))

        threads = [threading.Thread(target=worker, args=(key,)) for key in keys * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(replies) == sorted(r for queue in turns.values() for r in queue)
        assert provider.calls == 240
        with pytest.raises(ProviderError, match="script exhausted"):
            provider.complete(GenerationRequest(f"sing: {keys[0]}!"))


# what JSON must escape, and what it need not: quotes, backslashes, control
# characters, a line separator, characters past the BMP and a lone surrogate
TRACE_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028é나\U0001f98b\ud800') | st.characters())


class TestTraceStore:
    def test_records_every_attempt(self, tmp_path, no_backoff):
        store = TraceStore(str(tmp_path / "trace.jsonl"))
        provider = ScriptedProvider([ProviderRateLimitError("x"), "done"])
        generate(
            GenerationRequest("hello"),
            provider,
            trace=store,
            task_id="song-1/0/0",
        )
        records = read_trace(store.path)
        # failed attempts raise before logging; the success is attempt 2
        assert len(records) == 1
        assert records[0]["task_id"] == "song-1/0/0"
        assert records[0]["attempt"] == 2
        assert records[0]["response_text"] == "done"
        assert len(records[0]["request_digest"]) == 16
        assert records[0]["finished_at"] >= records[0]["started_at"]
        store.close()

    def test_concurrent_appends_keep_lines_whole(self, tmp_path):
        store = TraceStore(str(tmp_path / "trace.jsonl"))

        def writer(i):
            for attempt in range(5):
                store.append(f"task-{i}", attempt, "0" * 16, "payload " * 20)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = read_trace(store.path)
        store.close()
        assert len(records) == 40
        for rec in records:
            assert rec["response_text"] == "payload " * 20

    @settings(max_examples=60, deadline=None)
    @given(
        task_id=TRACE_TEXT,
        attempt=st.integers(1, 3),
        reply=TRACE_TEXT,
        started=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_each_line_is_json_dumps_of_its_record(self, task_id, attempt, reply, started):
        with tempfile.TemporaryDirectory() as work:
            store = TraceStore(os.path.join(work, "trace.jsonl"))
            store.append(task_id, attempt, "0123456789abcdef", reply, started=started)
            store.close()
            with open(store.path, "rb") as fh:
                written = fh.read()
        finished = json.loads(written)["finished_at"]
        record = {
            "task_id": task_id,
            "attempt": attempt,
            "request_digest": "0123456789abcdef",
            "response_text": reply,
            "started_at": finished if started is None else started,
            "finished_at": finished,
        }
        line = json.dumps(record, ensure_ascii=False) + "\n"
        assert written == line.encode("utf-8", "backslashreplace")

    def test_each_append_is_readable_before_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        store = TraceStore(str(path))
        assert not path.exists()
        for attempt in (1, 2, 3):
            store.append("task", attempt, "0" * 16, f"reply {attempt}")
            assert [r["attempt"] for r in read_trace(store.path)] == list(range(1, attempt + 1))
        store.close()
        store.close()
        store.append("task", 4, "0" * 16, "after close")
        store.close()
        assert [r["attempt"] for r in read_trace(store.path)] == [1, 2, 3, 4]

    def test_digest_is_stable_and_config_sensitive(self):
        a = GenerationRequest("same text")
        b = GenerationRequest("same text")
        clip = MediaAttachment(MediaKind.AUDIO, "a.wav")
        c = GenerationRequest("same text", media=(clip,))
        assert request_digest(a) == request_digest(b)
        assert request_digest(a) != request_digest(c)

    def test_equal_media_keep_the_digests_of_their_json(self):
        # equal attachments whose spans print differently in JSON
        ints = GenerationRequest("same text", (MediaAttachment(MediaKind.AUDIO, "a.wav", (1, 2)),))
        floats = ints._replace(media=(MediaAttachment(MediaKind.AUDIO, "a.wav", (1.0, 2.0)),))
        assert ints == floats
        for request in (ints, floats, ints):
            media = json.dumps([["audio", "a.wav", list(request.media[0].time_span)]])
            want = hashlib.sha256(f"{media}\nsame text".encode()).hexdigest()[:16]
            assert request_digest(request) == want

    @pytest.mark.parametrize("prompt, media, digest", [
        ("same text", (), "653edda2cc34578d"),
        ("나비가 날아와\n두 줄", (), "f769c9602a930b27"),
        ("same text", (MediaAttachment(MediaKind.AUDIO, "a.wav"),), "6d90e011b5766de4"),
        ("same text", (
            MediaAttachment(MediaKind.VIDEO, "https://example.test/v.mp4", (1.5, 4.0)),
            MediaAttachment(MediaKind.AUDIO, "ü.wav", (0.0, 2.0)),
        ), "b109ab7a42a0d30a"),
    ], ids=["no-media", "no-media-two-lines", "one-clip", "two-clips-with-spans"])
    def test_digest_values_are_pinned(self, prompt, media, digest):
        """Traces of earlier runs stay comparable: the digests do not move."""
        assert request_digest(GenerationRequest(prompt, media=media)) == digest


class TestHashEmbeddings:
    def test_identical_texts_identical_vectors(self):
        provider = HashEmbeddingProvider()
        req = EmbeddingRequest(("나비가 날아와", "나비가 날아와"))
        va, vb = embed(req, provider)
        assert va == vb

    def test_one_char_edit_moves_the_vector(self):
        provider = HashEmbeddingProvider()
        va, vb = embed(EmbeddingRequest(("abc", "abd")), provider)
        assert cosine_similarity(va, vb) < 1.0

    def test_vectors_are_unit_norm(self):
        provider = HashEmbeddingProvider()
        (vec,) = embed(EmbeddingRequest(("some lyric line",)), provider)
        assert len(vec) == 128
        norm = sum(x * x for x in vec) ** 0.5
        assert abs(norm - 1.0) < 1e-9

    def test_empty_text_still_embeds(self):
        provider = HashEmbeddingProvider()
        (vec,) = embed(EmbeddingRequest(("",)), provider)
        assert any(vec)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmbeddingError):
            EmbeddingRequest(())

    @staticmethod
    def per_gram_vector(text):
        """The embedder's definition, one n-gram at a time: each 1-, 2- and
        3-gram adds one to bucket CRC32(its UTF-8 bytes) mod 128."""
        vec = [0.0] * 128
        if not text:
            vec[0] = 1.0
            return vec
        for n in (1, 2, 3):
            for i in range(len(text) - n + 1):
                vec[zlib.crc32(text[i : i + n].encode("utf-8")) % 128] += 1.0
        norm = sum(map(mul, vec, vec)) ** 0.5
        return [x / norm for x in vec]

    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=60))
    @example("")
    @example("a")
    @example("\U0001f98b")
    @example("ab")
    @example("é\U0001f98b")
    @example("abc")
    @example("나\U0001f98b비")
    def test_vectors_equal_the_per_gram_definition(self, text):
        (vec,) = HashEmbeddingProvider().embed_batch(EmbeddingRequest((text,)))
        assert vec == self.per_gram_vector(text)

    def test_batch_dimension_check(self):
        class Ragged:
            name = "ragged"

            def embed_batch(self, request):
                return [[1.0, 0.0], [1.0, 0.0, 0.0]]

        with pytest.raises(EmbeddingError):
            embed(EmbeddingRequest(("a", "b")), Ragged())

    def test_batch_length_check(self):
        class Short:
            name = "short"

            def embed_batch(self, request):
                return [[1.0, 0.0]]

        with pytest.raises(EmbeddingError):
            embed(EmbeddingRequest(("a", "b")), Short())


@pytest.fixture(autouse=True)
def close_remote_providers(monkeypatch):
    """Close the idle connections of each ``RemoteProvider`` a test makes,
    once the test is done."""
    made = []
    init = RemoteProvider.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(RemoteProvider, "__init__", tracked)
    yield
    for provider in made:
        provider.close()


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("MAVL_API_KEY", "sekrit")
    server = Loopback()
    yield server
    server.close()


class TestRemoteProvider:
    """What ``RemoteProvider`` sends and how it reads replies, on loopback HTTP."""

    def test_missing_key_is_auth_error_before_any_call(self, loopback, monkeypatch):
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        monkeypatch.delenv("MAVL_API_KEY")
        # checked when the provider is built, and again for each request
        with pytest.raises(ProviderAuthError, match="MAVL_API_KEY"):
            RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(ProviderAuthError, match="MAVL_API_KEY"):
            provider.complete(GenerationRequest("hi"))
        with pytest.raises(ProviderAuthError):
            provider.embed_batch(EmbeddingRequest(("hola",)))
        assert loopback.received == []

    def test_success_path_sends_config_and_media(self, loopback):
        loopback.actions = [reply(200, b'{"text": "un"}'), reply(200, b'{"text": "deux"}')]
        provider = RemoteProvider(loopback.url, "lyric-xl", timeout=5.0)
        film = MediaAttachment(MediaKind.VIDEO, "s3://film.mp4")
        clip = MediaAttachment(MediaKind.AUDIO, "s3://clip.wav", time_span=(3.0, 9.0))
        assert provider.complete(GenerationRequest("hi", media=(film, clip))) == "un"
        assert provider.complete(GenerationRequest("hi")) == "deux"
        with_media, bare = (json.loads(got["body"]) for got in loopback.received)
        assert list(with_media) == [
            "model", "prompt", "temperature", "top_p", "max_output_tokens", "top_k",
            "media",
        ]
        assert with_media["media"] == [
            {"kind": "video", "location": "s3://film.mp4", "time_span": None},
            {"kind": "audio", "location": "s3://clip.wav", "time_span": [3.0, 9.0]},
        ]
        assert bare == {
            "model": "lyric-xl",
            "prompt": "hi",
            "temperature": 0.6,
            "top_p": 0.95,
            "max_output_tokens": 8192,
            "top_k": 40,
        }
        assert all(
            got["headers"]["Authorization"] == "Bearer sekrit" for got in loopback.received
        )

    def test_rate_limit_then_success_via_retry_wrapper(self, loopback, no_backoff):
        # embeddings go through the same retry schedule as completions
        loopback.actions = [reply(429), reply(200, b'{"vectors": [[0.1, 0.2]]}')]
        provider = RemoteProvider(loopback.url, "lyric-xl", timeout=5.0)
        assert embed(EmbeddingRequest(("hola",)), provider) == [[0.1, 0.2]]
        assert [got["path"] for got in loopback.received] == ["/v1/embed", "/v1/embed"]
        assert no_backoff == [1]

    def test_embed_endpoint(self, loopback):
        loopback.actions = [reply(200, b'{"vectors": [[1, 0], [0.25, 0.75]]}')]
        provider = RemoteProvider(loopback.url, "lyric-xl", timeout=5.0)
        vectors = provider.embed_batch(EmbeddingRequest(("hola", "adiós")))
        assert vectors == [[1.0, 0.0], [0.25, 0.75]]
        assert all(type(x) is float for v in vectors for x in v)
        (got,) = loopback.received
        assert got["path"] == "/v1/embed"
        assert json.loads(got["body"]) == {"model": "lyric-xl", "texts": ["hola", "adiós"]}

    @pytest.mark.parametrize("body", [
        b"<html>busy</html>",
        b'{"oops": 1}', b'{"text": null}', b'{"text": 7}', b'["text"]',
    ], ids=["not-json", "no-text", "null-text", "number-text", "array"])
    def test_odd_reply_is_provider_error(self, loopback, no_backoff, body):
        loopback.actions = [reply(200, body)]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(ProviderError, match="not JSON|malformed completion") as excinfo:
            generate(GenerationRequest("hi"), provider)
        assert type(excinfo.value) is ProviderError
        assert len(loopback.received) == 1

    def test_lone_surrogate_reply_is_traced_then_not_retried(self, loopback, no_backoff, tmp_path):
        loopback.actions = [reply(200, b'{"text": "un \\ud800"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        store = TraceStore(str(tmp_path / "trace.jsonl"))
        with pytest.raises(ProviderError, match="lone surrogate U\\+D800") as excinfo:
            generate(GenerationRequest("hi"), provider, trace=store, task_id="t")
        store.close()
        assert type(excinfo.value) is ProviderError
        assert len(loopback.received) == 1
        raw_trace = (tmp_path / "trace.jsonl").read_bytes()
        assert b'"un \\ud800"' in raw_trace
        raw_trace.decode("utf-8")
        assert [r["response_text"] for r in read_trace(store.path)] == ["un \ud800"]

    def test_embed_reply_not_json_is_provider_error(self, loopback):
        loopback.actions = [reply(200, b"<html>busy</html>")]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(ProviderError, match="not JSON"):
            provider.embed_batch(EmbeddingRequest(("hola",)))

    @pytest.mark.parametrize("body", [
        b'{"oops": 1}', b'{"vectors": 5}', b'{"vectors": [5]}',
        b'{"vectors": [["a", 1]]}', b'{"vectors": [["0.5"]]}', b'{"vectors": [[true]]}',
        b'[[0.5]]',
    ], ids=["no-vectors", "number", "number-row", "letter", "numeric-string", "bool",
            "array"])
    def test_embed_reply_malformed(self, loopback, body):
        loopback.actions = [reply(200, body)]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(EmbeddingError, match="malformed embedding"):
            provider.embed_batch(EmbeddingRequest(("hola",)))


class TestRemoteProviderHttp:
    """The real HTTP path of ``RemoteProvider``, against a loopback server."""

    def test_body_and_headers(self, loopback):
        loopback.actions = [reply(200, b'{"text": "bonjour"}'),
                            reply(200, b'{"text": "encore"}')]
        provider = RemoteProvider(loopback.url + "/", "lyric-xl", timeout=5.0)
        clip = MediaAttachment(MediaKind.AUDIO, "s3://clip.wav", time_span=(3.0, 9.5))
        out = provider.complete(GenerationRequest("héllo 夢 \"x\"", media=(clip,)))
        assert out == "bonjour"
        assert provider.complete(GenerationRequest("hi")) == "encore"
        payload = {
            "model": "lyric-xl",
            "prompt": "héllo 夢 \"x\"",
            "temperature": 0.6,
            "top_p": 0.95,
            "max_output_tokens": 8192,
            "top_k": 40,
            "media": [
                {"kind": "audio", "location": "s3://clip.wav", "time_span": [3.0, 9.5]}
            ],
        }
        got, again = loopback.received
        assert got["path"] == "/v1/complete"
        assert got["body"] == json.dumps(payload, allow_nan=False).encode()
        assert got["headers"]["Authorization"] == "Bearer sekrit"
        assert got["headers"]["Content-Type"] == "application/json"
        assert got["headers"]["Host"] == loopback.url.split("/")[2]
        # kept alive: no Connection header, and the second request follows
        # on the first one's connection
        assert "Connection" not in got["headers"]
        assert again["peer"] == got["peer"]

    def test_embed_body(self, loopback):
        loopback.actions = [reply(200, b'{"vectors": [[0.5, 1]]}')]
        provider = RemoteProvider(loopback.url, "lyric-xl", timeout=5.0)
        assert provider.embed_batch(EmbeddingRequest(("hola",))) == [[0.5, 1.0]]
        (got,) = loopback.received
        assert got["path"] == "/v1/embed"
        assert got["body"] == json.dumps(
            {"model": "lyric-xl", "texts": ["hola"]}, allow_nan=False
        ).encode()

    @pytest.mark.parametrize("status, error, retryable", [
        (401, ProviderAuthError, False),
        (403, ProviderAuthError, False),
        (429, ProviderRateLimitError, True),
        (503, TransientProviderError, True),
        (404, ProviderError, False),
        (301, ProviderError, False),
        (307, ProviderError, False),
    ])
    def test_status_ladder(self, loopback, status, error, retryable):
        loopback.actions = [reply(status, b'{"error": "no"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(error) as excinfo:
            provider.complete(GenerationRequest("hi"))
        assert type(excinfo.value) is error
        assert excinfo.value.retryable is retryable
        assert f"HTTP {status}" in str(excinfo.value)

    def test_redirect_names_its_location_and_is_not_retried(self, loopback, no_backoff):
        loopback.actions = [raw(
            b"HTTP/1.1 302 Found\r\nLocation: https://elsewhere.example/v1/complete\r\n"
            b"Content-Length: 0\r\n\r\n"
        )]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(ProviderError) as excinfo:
            generate(GenerationRequest("hi"), provider)
        assert type(excinfo.value) is ProviderError
        assert str(excinfo.value) == (
            "redirect to https://elsewhere.example/v1/complete not followed (HTTP 302)"
        )
        assert len(loopback.received) == 1

    def test_reply_not_json(self, loopback):
        loopback.actions = [reply(200, b"<html>busy</html>")]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(ProviderError, match="not JSON") as excinfo:
            provider.complete(GenerationRequest("hi"))
        assert type(excinfo.value) is ProviderError

    def test_handler_past_timeout(self, loopback):
        loopback.actions = [loopback.stall]
        provider = RemoteProvider(loopback.url, "m", timeout=0.2)
        with pytest.raises(ProviderTimeoutError):
            provider.complete(GenerationRequest("hi"))

    def test_connect_timeout(self, monkeypatch):
        def create_connection(address, timeout):
            raise TimeoutError("timed out")

        monkeypatch.setattr(socket, "create_connection", create_connection)
        monkeypatch.setenv("MAVL_API_KEY", "sekrit")
        provider = RemoteProvider("http://127.0.0.1:9", "m", timeout=0.2)
        with pytest.raises(ProviderTimeoutError):
            provider.complete(GenerationRequest("hi"))

    def test_refused_port(self, monkeypatch):
        monkeypatch.setenv("MAVL_API_KEY", "sekrit")
        # a bound socket that never listens refuses every connection
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            provider = RemoteProvider(
                f"http://127.0.0.1:{sock.getsockname()[1]}", "m", timeout=5.0
            )
            with pytest.raises(TransientProviderError) as excinfo:
                provider.complete(GenerationRequest("hi"))
        assert type(excinfo.value) is TransientProviderError

    def test_connection_dropped_mid_reply(self, loopback):
        loopback.actions = [reply(200, b'{"text": "bon', length=100)]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(TransientProviderError) as excinfo:
            provider.complete(GenerationRequest("hi"))
        assert type(excinfo.value) is TransientProviderError
        assert "IncompleteRead" in str(excinfo.value)

    def test_rate_limit_then_success_through_generate(self, loopback, no_backoff):
        loopback.actions = [reply(429), reply(200, b'{"text": "fin"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        assert generate(GenerationRequest("hi"), provider) == "fin"
        assert len(loopback.received) == 2
        assert no_backoff == [1]

    @pytest.mark.parametrize("endpoint, key", [
        (None, "sek\r\nX-Injected: 1"),
        (None, "sekrit\n"),
        ("http://127.0.0.1:99999/v1", "sekrit"),
        ("http://bad host/v1", "sekrit"),
        ("ftp://127.0.0.1/v1", "sekrit"),
        ("http://a..b/v1", "sekrit"),
        ("http://" + "a" * 64 + ".example/v1", "sekrit"),
    ], ids=["key-with-crlf", "key-with-newline", "port-out-of-range", "space-in-host",
            "other-scheme", "empty-host-label", "host-label-over-63"])
    def test_unsendable_request_is_not_retried(self, loopback, monkeypatch, no_backoff,
                                               endpoint, key):
        monkeypatch.setenv("MAVL_API_KEY", key)
        provider = RemoteProvider(endpoint or loopback.url, "m", timeout=5.0)
        with pytest.raises(ProviderError) as excinfo:
            generate(GenerationRequest("hi"), provider)
        assert type(excinfo.value) is ProviderError
        assert key.strip() not in str(excinfo.value)
        assert loopback.received == []

    @given(st.lists(st.sampled_from(["", "a", "b" * 62, "c" * 63, "d" * 64]),
                    min_size=1, max_size=4).map(".".join))
    @example("a.b.")
    @example(".")
    @example("c" * 63 + ".")
    @example("d" * 64 + ".")
    def test_route_takes_the_hosts_the_idna_codec_takes(self, host):
        """``_route`` refuses exactly the ASCII hosts whose labels the idna
        codec, which ``getaddrinfo`` applies to a ``str`` host, refuses."""
        assume(host)
        try:
            host.encode("idna")
        except UnicodeError:
            with pytest.raises(ProviderError, match="bad endpoint URL"):
                providers._route(f"http://{host}:80/v1")
        else:
            assert providers._route(f"http://{host}:80/v1")[1] == host

    def test_url_and_key_are_checked_on_every_request(self, loopback, monkeypatch):
        """The URL's checks run once per URL, but a bad URL fails each time;
        the key is read and checked anew for each request."""
        bad = RemoteProvider("http://bad host/v1", "m", timeout=5.0)
        for _ in range(2):
            with pytest.raises(ProviderError, match="bad endpoint URL"):
                bad.complete(GenerationRequest("hi"))
        loopback.actions = [reply(200, b'{"text": "un"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        monkeypatch.setenv("MAVL_API_KEY", "sek\nrit")
        with pytest.raises(ProviderError, match="Authorization header"):
            provider.complete(GenerationRequest("hi"))
        monkeypatch.setenv("MAVL_API_KEY", "sekrit")
        assert provider.complete(GenerationRequest("hi")) == "un"
        assert [got["headers"]["Authorization"] for got in loopback.received] == [
            "Bearer sekrit"]


def chunked(body, cuts):
    """``body`` in the chunked transfer coding, cut at ``cuts``, with a
    chunk extension on each size line and one trailer field."""
    bounds = [0, *cuts, len(body)]
    pieces = [body[a:b] for a, b in zip(bounds, bounds[1:])]
    return b"".join(b"%x;note=1\r\n%s\r\n" % (len(p), p) for p in pieces) + (
        b"0\r\nX-Checksum: none\r\n\r\n"
    )


class TestHttpReplies:
    """Where the client finds the end of a reply, and which replies it
    rejects, on raw bytes from the loopback server."""

    @pytest.mark.parametrize("head, body, hold", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n", b'{"text": "tot"}', True),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
         chunked(b'{"text": "tot"}', [4, 15 - 3]), True),
        (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n",
         b'{"text": "tot"}', False),
        (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\nContent-Length: 15\n\n",
         b'{"text": "tot"}', True),
    ], ids=["length-on-open-connection", "chunked-on-open-connection", "read-to-close",
            "interim-reply-and-bare-line-feeds"])
    def test_reply_read_to_its_end(self, loopback, head, body, hold):
        loopback.actions = [raw(head + body, hold=loopback.release if hold else None)]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        started = time.monotonic()
        assert provider.complete(GenerationRequest("hi")) == "tot"
        # a client that read to the close of a held connection would time out
        assert time.monotonic() - started < 2.5

    @pytest.mark.parametrize("data", [
        b"HTPT/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 099 Low\r\nContent-Length: 2\r\n\r\n{}",
        b"",
        b"HTTP/1.1 200 OK\r\nContent-Len",
        b"HTTP/1.1 200 OK\r\n"
        + b"".join(b"X-Pad-%d: %s\r\n" % (i, b"a" * 1000) for i in range(70))
        + b"Content-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n{\"te",
    ], ids=["garbled-status-line", "non-numeric-status", "status-below-100", "no-reply",
            "cut-in-headers", "header-section-over-64k", "header-line-over-64k",
            "bad-chunk-size", "cut-in-chunk"])
    def test_malformed_reply_is_transient(self, loopback, data):
        loopback.actions = [raw(data)]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(TransientProviderError) as excinfo:
            provider.complete(GenerationRequest("hi"))
        assert type(excinfo.value) is TransientProviderError
        assert excinfo.value.retryable

    @pytest.mark.parametrize("status", [204, 304])
    def test_no_body_reply_ends_at_its_head(self, loopback, status):
        loopback.actions = [
            raw(b"HTTP/1.1 %d Nothing\r\n\r\n" % status, hold=loopback.release)
        ]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        started = time.monotonic()
        with pytest.raises(ProviderError, match=f"HTTP {status}") as excinfo:
            provider.complete(GenerationRequest("hi"))
        assert type(excinfo.value) is ProviderError
        # a client that read to the close of a held connection would time out
        assert time.monotonic() - started < 2.5


def echo(handler):
    """A loopback handler action: answer a completion with its own prompt."""
    prompt = json.loads(handler.body)["prompt"]
    time.sleep(0.002)
    reply(200, json.dumps({"text": prompt}).encode())(handler)


class TestConnectionReuse:
    """Which connections a provider keeps between requests, and which it
    opens anew, on the loopback server."""

    def test_no_delayed_ack_stall(self, loopback):
        # the handler writes head and body in two sends with Nagle on, so
        # each body waits for the ACK of its head
        loopback.actions = [reply(200, b'{"text": "vite"}') for _ in range(21)]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        provider.complete(GenerationRequest("hi"))
        started = time.monotonic()
        for _ in range(20):
            assert provider.complete(GenerationRequest("hi")) == "vite"
        # a delayed ACK would cost ~40 ms a request
        assert time.monotonic() - started < 20 * 0.04 / 2
        assert len(set(loopback.peers())) == 1

    def test_connection_closed_while_idle_is_replaced(self, loopback, no_backoff):
        def reply_then_close(handler):
            reply(200, b'{"text": "un"}')(handler)
            handler.close_connection = True

        loopback.actions = [reply_then_close, reply(200, b'{"text": "deux"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        assert generate(GenerationRequest("hi"), provider) == "un"
        assert loopback.closed.acquire(timeout=5.0)
        assert generate(GenerationRequest("hi"), provider) == "deux"
        first, second = loopback.peers()
        assert first != second
        assert no_backoff == []

    @pytest.mark.parametrize("data", [
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 11\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nConnection: Keep-Alive, Close\r\nContent-Length: 11\r\n\r\n",
        b"HTTP/1.0 200 OK\r\nContent-Length: 11\r\n\r\n",
        b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 11\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n",
    ], ids=["connection-close", "close-among-tokens", "http-1.0", "http-1.0-keep-alive",
            "bytes-left-over"])
    def test_reply_that_ends_its_connection_is_not_reused(self, loopback, data):
        # the server holds each connection open, so a reused one would stall
        loopback.actions = [raw(data + b'{"text": 1}', hold=loopback.release),
                            reply(200, b'{"text": "deux"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        with pytest.raises(ProviderError):
            provider.complete(GenerationRequest("hi"))
        started = time.monotonic()
        assert provider.complete(GenerationRequest("hi")) == "deux"
        assert time.monotonic() - started < 2.5
        first, second = loopback.peers()
        assert first != second

    def test_read_to_close_reply_is_not_reused(self, loopback):
        loopback.actions = [raw(b'HTTP/1.1 200 OK\r\n\r\n{"text": "un"}'),
                            reply(200, b'{"text": "deux"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        assert provider.complete(GenerationRequest("hi")) == "un"
        assert provider.complete(GenerationRequest("hi")) == "deux"
        first, second = loopback.peers()
        assert first != second

    def test_without_quickack_each_request_has_its_own_connection(
        self, loopback, monkeypatch
    ):
        monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
        loopback.actions = [reply(200, b'{"text": "un"}'), reply(200, b'{"text": "deux"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        assert provider.complete(GenerationRequest("hi")) == "un"
        assert provider.complete(GenerationRequest("hi")) == "deux"
        first, second = loopback.received
        assert first["headers"]["Connection"] == second["headers"]["Connection"] == "close"
        assert first["peer"] != second["peer"]

    def test_parallel_replies_match_their_requests(self, loopback):
        prompts = [f"ligne {n}" for n in range(60)]
        loopback.actions = [echo] * len(prompts)
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = map_bounded(
                lambda prompt: provider.complete(GenerationRequest(prompt)), prompts, 4
            )
        finally:
            sys.setswitchinterval(interval)
        assert out == prompts
        # never more connections than requests in flight
        assert 1 <= len(set(loopback.peers())) <= 4

    def test_close_ends_the_idle_connections(self, loopback):
        loopback.actions = [reply(200, b'{"text": "un"}')]
        provider = RemoteProvider(loopback.url, "m", timeout=5.0)
        assert provider.complete(GenerationRequest("hi")) == "un"
        assert not loopback.closed.acquire(timeout=0.05)
        provider.close()
        assert loopback.closed.acquire(timeout=5.0)


@pytest.fixture
def https_loopback(tmp_path, monkeypatch):
    """A loopback server behind a fresh self-signed certificate for
    127.0.0.1; yields the server and the certificate's PEM path."""
    x509 = pytest.importorskip("cryptography.x509")
    import datetime
    import ipaddress
    import ssl

    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "mavl loopback")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
            critical=False,
        )
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()),
                       critical=False)
        .add_extension(
            x509.AuthorityKeyIdentifier.from_issuer_public_key(key.public_key()),
            critical=False,
        )
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_path, key_path)
    monkeypatch.setenv("MAVL_API_KEY", "sekrit")
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    server = Loopback(tls=context)
    yield server, cert_path
    server.close()


class TestRemoteProviderHttps:
    """TLS trusts the system CA store, or the bundle in ``SSL_CERT_FILE``."""

    def test_completion_with_the_certificate_trusted(self, https_loopback, monkeypatch):
        server, cert_path = https_loopback
        monkeypatch.setenv("SSL_CERT_FILE", str(cert_path))
        server.actions = [reply(200, '{"text": "sûr"}'.encode()), reply(200, b'{"text": "encore"}')]
        provider = RemoteProvider(server.url, "m", timeout=5.0)
        assert provider.complete(GenerationRequest("hi")) == "sûr"
        assert provider.complete(GenerationRequest("hi")) == "encore"
        assert [got["path"] for got in server.received] == ["/v1/complete"] * 2
        # the second request follows on the first one's TLS connection
        first, second = server.peers()
        assert first == second

    def test_untrusted_certificate_fails_after_the_retries(self, https_loopback, no_backoff):
        server, _ = https_loopback
        provider = RemoteProvider(server.url, "m", timeout=5.0)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            generate(GenerationRequest("hi"), provider)
        assert type(excinfo.value.last_error) is TransientProviderError
        assert "CERTIFICATE_VERIFY_FAILED" in str(excinfo.value.last_error)
        assert no_backoff == [1, 2]
        assert server.received == []


class TestMapBounded:
    def test_preserves_order(self):
        out = map_bounded(lambda x: x * x, range(20), parallelism=4)
        assert out == [x * x for x in range(20)]

    def test_sequential_when_parallelism_one(self):
        seen = []
        out = map_bounded(lambda x: (seen.append(x), x)[1], [3, 1, 2], parallelism=1)
        assert out == [3, 1, 2]
        assert seen == [3, 1, 2]

    def test_rejects_zero_parallelism(self):
        with pytest.raises(ConfigError):
            map_bounded(lambda x: x, [1], parallelism=0)

    def test_never_exceeds_bound(self):
        lock = threading.Lock()
        active = {"now": 0, "peak": 0}
        gate = threading.Event()

        def job(i):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            gate.wait(0.01)
            with lock:
                active["now"] -= 1
            return i

        map_bounded(job, range(16), parallelism=3)
        assert active["peak"] <= 3


@pytest.fixture
def fast_switching():
    """Threads switch every 10 µs, so races between workers show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("fast_switching")
class TestMapBoundedContract:
    """What callers of ``map_bounded`` rely on above ``parallelism=1``."""

    def test_results_in_input_order(self):
        baseline = threading.active_count()
        delays = [random.Random(n).random() * 0.004 for n in range(40)]

        def job(n):
            time.sleep(delays[n])
            return n * n

        assert map_bounded(job, range(40), parallelism=3) == [n * n for n in range(40)]
        assert threading.active_count() == baseline

    def test_lowest_index_failure_is_raised(self):
        baseline = threading.active_count()
        everyone = threading.Barrier(6, timeout=5.0)

        def job(n):
            everyone.wait()  # all six are running before any fails
            if n == 2:
                time.sleep(0.05)  # fails after item 4 has failed
                raise ValueError("item 2")
            if n == 4:
                raise KeyError("item 4")
            return n

        with pytest.raises(ValueError, match="item 2"):
            map_bounded(job, range(6), parallelism=6)
        assert threading.active_count() == baseline

    def test_no_item_starts_after_a_failure(self):
        baseline = threading.active_count()
        started, lock = [], threading.Lock()
        both = threading.Barrier(2, timeout=5.0)

        def job(n):
            with lock:
                started.append(n)
            if n < 2:
                both.wait()  # items 0 and 1 run together
            if n == 1:
                raise ValueError("item 1")
            time.sleep(0.05)  # item 1's failure is recorded meanwhile
            return n

        with pytest.raises(ValueError, match="item 1"):
            map_bounded(job, range(20), parallelism=2)
        assert sorted(started) == [0, 1]
        assert threading.active_count() == baseline

    def test_interrupt_in_the_caller_stops_new_items(self):
        """SIGINT sent to the main thread, as Ctrl-C would, while it waits."""
        import signal

        baseline = threading.active_count()
        started, finished, lock = [], [], threading.Lock()

        def job(n):
            with lock:
                started.append(n)
            if n == 1:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.05)
            with lock:
                finished.append(n)
            return n

        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                map_bounded(job, range(40), parallelism=2)
        finally:
            signal.signal(signal.SIGINT, previous)
        # the items running when the interrupt came finish; few others start
        assert len(started) <= 4
        assert sorted(finished) == sorted(started)
        assert threading.active_count() == baseline

    def test_one_thread_per_item_when_workers_outnumber_items(self, monkeypatch):
        baseline = threading.active_count()
        starts = []
        start = threading.Thread.start

        def counted(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        everyone = threading.Barrier(3, timeout=5.0)

        def job(n):
            everyone.wait()  # all three run at once
            return threading.get_ident()

        idents = map_bounded(job, range(3), parallelism=10)
        assert len(set(idents)) == len(starts) == 3
        assert threading.active_count() == baseline


class LineByLineReply(providers._Reply):
    """The reference reader: each line, headers included, read on its own
    and rejected once it is over ``_MAX_HEAD`` bytes, finished or not."""

    def line(self):
        end = self.buf.find(b"\n", self.pos)
        while end < 0 and len(self.buf) - self.pos <= providers._MAX_HEAD:
            seen = len(self.buf)
            if not self._fill():
                raise TransientProviderError("connection closed mid-line of the reply")
            end = self.buf.find(b"\n", seen)
        if (len(self.buf) if end < 0 else end) - self.pos > providers._MAX_HEAD:
            raise TransientProviderError(f"reply line over {providers._MAX_HEAD} bytes")
        line = bytes(self.buf[self.pos : end]).rstrip(b"\r")
        self.pos = end + 1
        return line

    def head(self):
        start = self.pos
        status_line = self.line()
        found = providers._STATUS_LINE.fullmatch(status_line)
        if found is None:
            raise TransientProviderError(f"malformed status line {status_line[:80]!r}")
        headers = {}
        while line := self.line():
            if self.pos - start > providers._MAX_HEAD:
                raise TransientProviderError(
                    f"reply header section over {providers._MAX_HEAD} bytes")
            name, colon, value = line.partition(b":")
            if colon:
                headers.setdefault(
                    name.strip().lower().decode("latin-1"), value.strip().decode("latin-1")
                )
        return found[1], int(found[2]), headers


class Feed:
    """A socket that hands out ``chunks``, one or part of one per ``recv``,
    then reports the close."""

    def __init__(self, chunks):
        self.chunks = [chunk for chunk in chunks if chunk]

    def recv(self, size):
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > size:
            self.chunks.insert(0, chunk[size:])
        return chunk[:size]

    def setsockopt(self, *args):
        pass


def read_reply(reader, chunks):
    """``reader``'s reading of ``chunks``: the result of ``read``, or the
    type and message of what it raised."""
    try:
        return reader(Feed(chunks), (6, 12, 1)).read()
    except TransientProviderError as exc:
        return type(exc), str(exc)


BODY = b'{"text": "ok"}'
PAD = b"X-Pad: " + b"a" * 1000
REPLIES = {
    "crlf": b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\nServer: t\r\n\r\n" + BODY,
    "lf": b"HTTP/1.1 200 OK\nContent-Length: 14\nServer: t\n\n" + BODY,
    "mixed": b"HTTP/1.1 200 OK\nContent-Length: 14\r\nServer: t\n\r\n" + BODY,
    "no-headers": b"HTTP/1.1 200 OK\r\n\r\n" + BODY,
    "cr-only-line-ends-the-head": b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\r\n\r\r\n" + BODY,
    "repeated-headers-first-wins": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\nX-A: 1\r\nx-a: 2\r\n"
        b"CONTENT-LENGTH: 99\r\n\r\n" + BODY),
    "odd-fields": (
        b"HTTP/1.1 200 OK\r\nno colon here\r\n  Content-Length :  14 \r\n"
        b"X-Latin: caf\xe9\r\nX-Empty:\r\nX-Inner: a\rb\r\n\r\n" + BODY),
    "interim-replies": (
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\nLink: </a>\n\n"
        b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n" + BODY),
    "chunked": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"4\r\n" + BODY[:4] + b"\r\na;x=1\r\n" + BODY[4:] + b"\r\n0\r\nT: 1\r\n\r\n"),
    "no-body": b"HTTP/1.1 204 No Content\r\nContent-Length: 14\r\n\r\n",
    "read-to-close": b"HTTP/1.0 200 OK\r\nServer: t\r\n\r\n" + BODY,
    "connection-close": b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 14\r\n\r\n" + BODY,
    "bytes-left-over": b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n" + BODY,
    "malformed-status-line": b"HTTP/1.1 2x0 OK\r\nContent-Length: 14\r\n\r\n" + BODY,
    "empty-status-line": b"\r\nHTTP/1.1 200 OK\r\n\r\n" + BODY,
    "malformed-status-then-close": b"HTP/1.1 200 OK\r\nContent-Len",
    "close-mid-head": b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\nSer",
    "close-after-a-header-line": b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n",
    "close-mid-status-line": b"HTTP/1.1 20",
    "close-mid-interim": b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nX",
    "no-reply": b"",
}
# heads at and past the 64 KiB limit
LONG_REPLIES = {
    "many-lines-over": b"HTTP/1.1 200 OK\r\n" + b"".join(
        PAD + b"%d\r\n" % i for i in range(70)) + b"Content-Length: 14\r\n\r\n" + BODY,
    "many-lines-over-then-close": b"HTTP/1.1 200 OK\r\n" + b"".join(
        PAD + b"%d\r\n" % i for i in range(70)),
    "one-line-over": b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n" + BODY,
    "one-line-over-then-close": b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000,
    "under-the-limit-then-close-past-it": b"HTTP/1.1 200 OK\r\n" + b"".join(
        PAD + b"%d\r\n" % i for i in range(60)) + b"X-Pad: " + b"a" * 7000,
    "long-status-line": b"HTTP/1.1 200 " + b"O" * 70_000 + b"\r\n\r\n" + BODY,
    "long-line-of-crs-ends-the-head": b"HTTP/1.1 200 OK\r\n" + b"\r" * 70_000 + b"\n" + BODY,
    "long-chunk-size-line": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"e;x=" + b"a" * 70_000 + b"\r\n" + BODY + b"\r\n0\r\n\r\n"),
    "long-trailer-line": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"e\r\n" + BODY + b"\r\n0\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"),
    # the header line ends 65,536 bytes past the start of the status line
    "just-under": b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (65536 - 26) + b"\r\n\r\n" + BODY,
    "just-over": b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (65536 - 25) + b"\r\n\r\n" + BODY,
    "blank-line-past-the-limit": (
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (65536 - 26) + b"\r\n\r\r\r\n" + BODY),
}


class TestReplyAgainstLineByLine:
    """``_Reply.read`` returns and raises what reading the head line by
    line does, wherever the replies' bytes are cut between reads."""

    @pytest.mark.parametrize("data", REPLIES.values(), ids=REPLIES.keys())
    def test_every_split_point(self, data):
        for cut in range(len(data) + 1):
            chunks = [data[:cut], data[cut:]]
            assert read_reply(providers._Reply, chunks) == read_reply(
                LineByLineReply, chunks), cut

    @pytest.mark.parametrize("data", REPLIES.values(), ids=REPLIES.keys())
    def test_byte_by_byte(self, data):
        chunks = [data[i : i + 1] for i in range(len(data))]
        assert read_reply(providers._Reply, chunks) == read_reply(LineByLineReply, chunks)

    @pytest.mark.parametrize("step", [len(b"HTTP/1.1 200 OK\r\n"), 997, 4096, 65536],
                             ids=["status-line-first", "997", "4096", "65536"])
    @pytest.mark.parametrize("data", LONG_REPLIES.values(), ids=LONG_REPLIES.keys())
    def test_long_heads(self, data, step):
        chunks = [data[:step]] + [data[i : i + 997] for i in range(step, len(data), 997)]
        assert read_reply(providers._Reply, chunks) == read_reply(LineByLineReply, chunks)
        assert read_reply(providers._Reply, [data]) == read_reply(LineByLineReply, [data])

    def test_over_limit_heads_are_rejected(self):
        for name in ("many-lines-over", "many-lines-over-then-close", "one-line-over",
                     "one-line-over-then-close", "long-status-line",
                     "long-line-of-crs-ends-the-head", "long-chunk-size-line",
                     "long-trailer-line", "just-over"):
            got = read_reply(providers._Reply, [LONG_REPLIES[name]])
            assert got[0] is TransientProviderError, name
            assert got[1].endswith("over 65536 bytes"), name
        for name in ("just-under", "blank-line-past-the-limit"):
            assert read_reply(providers._Reply, [LONG_REPLIES[name]])[0] == 200, name

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(st.sampled_from([
            b"Content-Length: 14", b"content-length:14", b"X-A: 1", b"x-a: 2", b"junk",
            b"Connection: close", b"Transfer-Encoding: chunked", b"", b"\r", b": v",
        ]), max_size=6),
        ends=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r\r\n"]), min_size=8, max_size=8),
        status=st.sampled_from([b"HTTP/1.1 200 OK", b"HTTP/1.0 204 N", b"HTTP/1.1 100 C",
                                b"HTTP/1.1 20 OK", b"HTTP/1.1 200"]),
        tail=st.sampled_from([BODY, b"", b"4\r\nabcd\r\n0\r\n\r\n"]),
        cuts=st.lists(st.integers(0, 200), max_size=3),
    )
    def test_generated_heads(self, lines, ends, status, tail, cuts):
        head = b"".join(line + end for line, end in zip([status, *lines, b""], ends))
        data = head + tail
        bounds = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
        chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
        assert read_reply(providers._Reply, chunks) == read_reply(LineByLineReply, chunks)
