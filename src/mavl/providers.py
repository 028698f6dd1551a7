"""Model access layer: request shapes, retries, tracing, and test doubles.

Everything the translation pipeline needs from a model is narrowed to two
operations: complete a prompt (optionally with attached media) and embed a
batch of texts.  Real backends sit behind :class:`RemoteProvider`; tests and
offline runs use :class:`ScriptedProvider` and :class:`HashEmbeddingProvider`,
which are fully deterministic.

Retries live here rather than in each provider so that every call gets the
same schedule: three attempts in all, 0.5 s and then 1 s apart, and immediate
give-up on errors marked non-retryable (bad credentials will not fix
themselves).

Each completion attempt can be traced with a request digest, a SHA-256 of
the request from the interpreter's own ``_sha2`` (or ``_sha256``) module,
so no command loads OpenSSL through ``hashlib``.  A conversation that grows
by reprompts is hashed incrementally (:class:`PromptDigest`), from a kept
hash state of the prompt head that its variant's prompts share.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import threading
import time
from enum import Enum
from json.encoder import encode_basestring as _json_string
from operator import mul
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence, TextIO

from .errors import (
    ConfigError,
    EmbeddingError,
    ProviderAuthError,
    ProviderError,
    ProviderRateLimitError,
    ProviderTimeoutError,
    RetriesExhaustedError,
    TransientProviderError,
)
from .languages import surrogate_problem
from .records import Checked

try:
    # the interpreter's own SHA-256: hashlib loads OpenSSL, whose memory and
    # load time cost more than the few hundred kilobytes a run hashes
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "MediaKind",
    "MediaAttachment",
    "GenerationRequest",
    "EmbeddingRequest",
    "GenerationProvider",
    "EmbeddingProvider",
    "RetryPolicy",
    "TraceStore",
    "generate",
    "embed",
    "ScriptedProvider",
    "HashEmbeddingProvider",
    "RemoteProvider",
    "request_digest",
    "PromptDigest",
    "map_bounded",
]


# ---------------------------------------------------------------------------
# Request shapes

# sampling settings sent with every remote completion, in payload order
_SAMPLING = {"temperature": 0.6, "top_p": 0.95, "max_output_tokens": 8192, "top_k": 40}

_HASH_DIM = 128


class MediaKind(Enum):
    AUDIO = "audio"
    VIDEO = "video"


class _MediaAttachment(NamedTuple):
    kind: MediaKind
    location: str
    time_span: tuple[float, float] | None = None


class MediaAttachment(Checked, _MediaAttachment):
    """A pointer to an audio or video excerpt to send alongside the prompt.

    ``time_span`` is (start, end) in seconds within the referenced file; None
    means the whole file.  Attachments carry locations, not bytes; the
    provider decides how to fetch or upload them.
    """

    __slots__ = ()

    def _validated(self):
        if not self.location:
            raise ConfigError("media attachment needs a location")
        if self.time_span is not None:
            start, end = self.time_span
            # NaN fails every comparison, so NaN and infinite spans fail too
            if not 0 <= start <= end < math.inf:
                raise ConfigError(f"bad time span {self.time_span!r}")
        return self

    def widened(self, margin: float) -> "MediaAttachment":
        """Pad the span by ``margin`` seconds on both sides (floor at zero)."""
        if self.time_span is None or margin <= 0:
            return self
        start, end = self.time_span
        return self._replace(time_span=(max(0.0, start - margin), end + margin))


class _GenerationRequest(NamedTuple):
    prompt_text: str
    media: tuple[MediaAttachment, ...] = ()


class GenerationRequest(Checked, _GenerationRequest):
    __slots__ = ()

    def _validated(self):
        # the test of ``not s.strip()``, without copying the prompt
        if not self.prompt_text or self.prompt_text.isspace():
            raise ConfigError("prompt_text must be non-empty")
        return self


class _EmbeddingRequest(NamedTuple):
    texts: tuple[str, ...]


class EmbeddingRequest(Checked, _EmbeddingRequest):
    __slots__ = ()

    def _validated(self):
        if not self.texts:
            raise EmbeddingError("embedding request needs at least one text")
        return self


# The prompt heads whose hash state is kept, each after one media line.
_HEAD_MEMO = 64


@functools.lru_cache(maxsize=_HEAD_MEMO)
def _head_state(media_line: str, head: str):
    """The hash state after ``media_line``, its line break and ``head``.

    Keyed by the JSON text, not the media: media that compare equal, such
    as spans of ``1`` and ``1.0`` seconds, can differ in JSON.  Shared by
    every caller: it is copied, never updated.
    """
    state = sha256(f"{media_line}\n".encode("utf-8"))
    state.update(head.encode("utf-8"))
    return state


class PromptDigest:
    """The request digests of a prompt that only grows, each byte hashed once.

    Starts from the hash state after the media line and the prompt head
    ``head``, which is kept for the most recent (media, head) pairs;
    :meth:`extend` appends text to the prompt and returns the digest of
    the request carrying ``media`` and the prompt so far, as
    :func:`request_digest` gives it.
    """

    __slots__ = ("_state",)

    def __init__(self, media: tuple[MediaAttachment, ...], head: str = "") -> None:
        # JSON escapes newlines, so the first one ends the media
        line = json.dumps([
            [m.kind.value, m.location, list(m.time_span) if m.time_span else None]
            for m in media
        ])
        self._state = _head_state(line, head).copy()

    def extend(self, text: str) -> str:
        self._state.update(text.encode("utf-8"))
        return self._state.hexdigest()[:16]


def request_digest(request: GenerationRequest) -> str:
    """Stable short fingerprint of a request, for trace correlation.

    The first 16 hex digits of the SHA-256 of the media as one JSON line,
    then the prompt's UTF-8 bytes.  A caller that sends a growing prompt
    gets the same digests from a :class:`PromptDigest`, hashing each byte
    once.
    """
    return PromptDigest(request.media).extend(request.prompt_text)


# ---------------------------------------------------------------------------
# Provider protocols


class GenerationProvider(Protocol):
    """One raw completion attempt.  Retry logic lives outside."""

    def complete(self, request: GenerationRequest) -> str: ...


class EmbeddingProvider(Protocol):
    def embed_batch(self, request: EmbeddingRequest) -> list[list[float]]: ...


# ---------------------------------------------------------------------------
# Retry policy and call tracing


class RetryPolicy:
    """The one retry schedule: ``attempts`` tries in all, the first included,
    waiting 0.5 s after the first failure and 1 s after the second."""

    attempts = 3

    def delay_for(self, attempt: int) -> float:
        """Seconds to wait after the given 1-based attempt fails."""
        return 0.5 * 2.0 ** (attempt - 1)


class TraceStore:
    """Append-only JSONL log of raw model exchanges.

    One line per attempt: task id, attempt number, request digest, response
    text, and wall-clock timestamps.  Each line is formatted directly, as
    the ``json.dumps(record, ensure_ascii=False)`` of that record would be.
    Reports never read this file; it exists for auditing and for replaying
    a run by hand.  Writes are serialized with a lock so concurrent workers
    interleave whole lines, never fragments.
    The file is opened on the first append, so a run that makes no model
    call leaves none, and stays open, line-buffered, until :meth:`close`.
    A lone surrogate in a reply is written as its JSON escape (``\\ud800``),
    so the file stays UTF-8 and each line still parses to the reply.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh: TextIO | None = None

    def append(
        self,
        task_id: str,
        attempt: int,
        digest: str,
        response_text: str,
        *,
        started: float | None = None,
    ) -> None:
        now = time.time()
        started = now if started is None else started
        # json.dumps(record, ensure_ascii=False), written out: its string
        # escapes, its separators and repr() of each (finite) number
        line = (
            f'{{"task_id": {_json_string(task_id)}, "attempt": {attempt!r}, '
            f'"request_digest": {_json_string(digest)}, '
            f'"response_text": {_json_string(response_text)}, '
            f'"started_at": {started!r}, "finished_at": {now!r}}}\n'
        )
        with self._lock:
            if self._fh is None:
                # only a surrogate fails to encode, and only inside a JSON
                # string, where its backslash escape is the JSON escape
                self._fh = open(
                    self.path, "a", encoding="utf-8", errors="backslashreplace", buffering=1
                )
            self._fh.write(line)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _with_retries(call):
    policy = RetryPolicy()
    last: ProviderError | None = None
    for attempt in range(1, policy.attempts + 1):
        try:
            return call(attempt)
        except ProviderError as exc:
            if not exc.retryable:
                raise
            last = exc
            if attempt < policy.attempts:
                time.sleep(policy.delay_for(attempt))
    assert last is not None
    raise RetriesExhaustedError(
        f"gave up after {policy.attempts} attempt(s): {last}",
        policy.attempts,
        last,
    )


def generate(
    request: GenerationRequest,
    provider: GenerationProvider,
    *,
    trace: TraceStore | None = None,
    task_id: str = "",
    digest: str | None = None,
) -> str:
    """Run one completion with retries, logging every attempt if tracing.

    ``digest`` is the request's :func:`request_digest`, for a caller that
    already has it; it is worked out here when None.  A reply that UTF-8
    cannot encode (it holds a lone surrogate) is traced, then raised as a
    non-retryable ``ProviderError``.
    """
    if digest is None:
        digest = request_digest(request)

    def attempt_once(attempt: int) -> str:
        started = time.time()
        text = provider.complete(request)
        if trace is not None:
            trace.append(task_id, attempt, digest, text, started=started)
        problem = surrogate_problem(text)
        if problem:
            raise ProviderError(f"reply {problem}")
        return text

    return _with_retries(attempt_once)


def embed(request: EmbeddingRequest, provider: EmbeddingProvider) -> list[list[float]]:
    """Embed a batch with retries; enforces one equal-length vector per text."""
    vectors = _with_retries(lambda attempt: provider.embed_batch(request))
    if len(vectors) != len(request.texts):
        raise EmbeddingError(
            f"provider returned {len(vectors)} vectors for {len(request.texts)} texts"
        )
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise EmbeddingError(f"inconsistent embedding dimensions in batch: {sorted(dims)}")
    return vectors


# ---------------------------------------------------------------------------
# Deterministic providers


# Script keys are found by sampling the prompt, not by trying every key.  A
# key of at least _KEY_GRAM + _KEY_STRIDE - 1 characters is indexed by its
# grams (substrings) of _KEY_GRAM characters at offsets 0 .. _KEY_STRIDE - 1.
# A text is cut into _KEY_GRAM-character windows every _KEY_STRIDE
# characters; wherever such a key occurs, one window lies wholly inside it at
# one of those offsets, so the key becomes a candidate.  Shorter keys are
# always candidates, and a candidate wins only if it occurs in the text.
# The index holds at most _KEY_STRIDE short strings per key, where a
# character trie of the keys costs over ten times the memory.
#
# A key without a newline occurs in a prompt only inside one of its lines,
# and prompts built from one template share most of their lines.  The
# leading lines that hold no such key (the clean prefix) are skipped while
# prompts start with them.
_KEY_GRAM = 8
_KEY_STRIDE = 4


class ScriptedProvider:
    """Replays canned responses; raises canned exceptions.

    The script maps a task key to a list of turns, each either a response
    string or an exception instance to raise.  Keys are matched against the
    prompt: the first script key, in script order, found as a substring of
    the prompt text selects that task's queue (an empty key matches every
    prompt).  A ``None`` key (or no match) falls through to the default
    queue.  Queues are consumed in order and running past the end is a hard
    error, so tests notice extra calls.

    The provider keeps a clean prefix: whole lines, each ending in
    ``"\\n"``, none of which holds a one-line key.  A prompt that starts
    with it is scanned once from where it ends: a one-line key cannot cross
    a line break, so the rest needs no split.  Any other prompt is read
    whole, line by line, split on ``"\\n"`` alone, and the clean prefix
    becomes the leading lines it shares with this prompt's key-free leading
    lines (never the last), or those lines alone if it shares none.  So the
    template text that every prompt starts with is compared, not scanned.
    Keys that contain a newline are tested against the whole prompt on
    every call.
    """

    def __init__(
        self,
        script: dict[str | None, Sequence[str | Exception]] | Sequence[str | Exception],
    ) -> None:
        if isinstance(script, dict):
            self._queues = {key: list(turns) for key, turns in script.items()}
        else:
            self._queues = {None: list(script)}
        self._keys = [key for key in self._queues if key is not None]
        self._short: list[int] = []
        self._multiline: list[int] = []
        # each gram's keys in script order
        self._grams: dict[str, tuple[int, ...]] = {}
        for i, key in enumerate(self._keys):
            if "\n" in key:
                self._multiline.append(i)
            elif len(key) < _KEY_GRAM + _KEY_STRIDE - 1:
                self._short.append(i)
            else:
                for gram in {key[d : d + _KEY_GRAM] for d in range(_KEY_STRIDE)}:
                    self._grams[gram] = self._grams.get(gram, ()) + (i,)
        # read and replaced without the lock: every value it ever holds is a
        # clean prefix, so a stale one is still correct
        self._clean = ""
        self._lock = threading.Lock()
        self.calls = 0

    def _first_in(self, text: str) -> int:
        """Index of the first one-line key that occurs in ``text``, else the
        number of keys."""
        keys = self._keys
        best = len(keys)
        for i in self._short:
            if keys[i] in text:
                best = i
                break
        missed = set()  # candidates tested and absent, so each is tested once
        get = self._grams.get
        for pos in range(0, len(text) - _KEY_GRAM + 1, _KEY_STRIDE):
            for i in get(text[pos : pos + _KEY_GRAM], ()):
                if i >= best:
                    break
                if i not in missed:
                    if keys[i] in text:
                        best = i
                        break
                    missed.add(i)
        return best

    def _next_clean(self, clean: str, prompt: str, lines: list[str], firsts: list[int]) -> str:
        """The clean prefix once ``prompt``, which does not start with
        ``clean``, has been read whole: the leading lines of ``clean`` that
        begin the prompt, or if none do, the prompt's key-free leading
        lines; never its last line, which no line break ends."""
        n = 0
        for line, kept in zip(lines[:-1], clean.split("\n")[:-1]):
            if line != kept:
                break
            n += 1
        if not n:
            none = len(self._keys)
            for first in firsts[:-1]:
                if first != none:
                    break
                n += 1
        return prompt[: sum(map(len, lines[:n])) + n]

    def _queue_for(self, prompt: str) -> list[str | Exception] | None:
        """The matched queue, else the ``None`` queue, else None.

        Reads only what ``__init__`` built and the clean prefix, so it needs
        no lock.
        """
        clean = self._clean
        if clean and prompt.startswith(clean):
            first = self._first_in(prompt[len(clean) :])
        else:
            # not splitlines(): a one-line key may hold "\r" or "\u2028"
            lines = prompt.split("\n")
            firsts = list(map(self._first_in, lines))
            first = min(firsts)
            self._clean = self._next_clean(clean, prompt, lines, firsts)
        for i in self._multiline:
            if i > first:
                break
            if self._keys[i] in prompt:
                first = i
                break
        if first < len(self._keys):
            return self._queues[self._keys[first]]
        return self._queues.get(None)

    def complete(self, request: GenerationRequest) -> str:
        queue = self._queue_for(request.prompt_text)
        with self._lock:
            self.calls += 1
            if queue is None:
                raise ProviderError("no script entry matches this prompt")
            if not queue:
                raise ProviderError("script exhausted")
            turn = queue.pop(0)
        if isinstance(turn, Exception):
            raise turn
        return turn


class HashEmbeddingProvider:
    """Embeddings from character n-gram hashing.  No model, no network.

    Each text is mapped to a 128-dimension bag of 1- to 3-grams, bucketed
    by the CRC32 of their UTF-8 bytes and L2-normalized.  Identical texts
    always get identical vectors, and a one-character edit moves the vector,
    which is all the offline evaluation path needs.
    """

    def _vector(self, text: str) -> list[float]:
        import zlib

        vec = [0.0] * _HASH_DIM
        if not text:
            vec[0] = 1.0
            return vec
        # crc32(b, crc32(a)) == crc32(a + b): each n-gram's CRC extends the
        # (n-1)-gram's by one character, so every character is encoded once
        crc32 = zlib.crc32
        chars = [ch.encode("utf-8") for ch in text]
        crc1 = list(map(crc32, chars))
        crc2 = list(map(crc32, chars[1:], crc1))
        crc3 = list(map(crc32, chars[2:], crc2))
        for crcs in (crc1, crc2, crc3):
            for crc in crcs:
                vec[crc % _HASH_DIM] += 1.0
        norm = sum(map(mul, vec, vec)) ** 0.5
        return [x / norm for x in vec]

    def embed_batch(self, request: EmbeddingRequest) -> list[list[float]]:
        return [self._vector(t) for t in request.texts]


# ---------------------------------------------------------------------------
# Remote backend


def _check_status(status: int, location: str | None = None) -> None:
    """Map an HTTP status onto the provider error ladder; only 2xx passes.

    A redirect is not followed: re-sent elsewhere, the POST would reach a
    service that the endpoint setting does not name.
    """
    if 300 <= status < 400:
        where = f" to {location}" if location else ""
        raise ProviderError(f"redirect{where} not followed (HTTP {status})")
    if status in (401, 403):
        raise ProviderAuthError(f"authentication rejected (HTTP {status})")
    if status == 429:
        raise ProviderRateLimitError("rate limited (HTTP 429)")
    if status >= 500:
        raise TransientProviderError(f"server error (HTTP {status})")
    if status >= 400:
        raise ProviderError(f"request rejected (HTTP {status})")


# http.client's bound on one line of a reply; here it bounds the whole head too
_MAX_HEAD = 65536
_RECV = 65536  # bytes asked of each recv
_STATUS_LINE = re.compile(rb"HTTP/(\d\.\d) ([1-9]\d\d)(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
# what may not appear in a request target or Host (as http.client rejects),
# and in a header value: controls, and anything past Latin-1
_BAD_URL = re.compile(r"[^\x21-\x7e]")
_BAD_VALUE = re.compile(r"[^\t\x20-\x7e\x80-\xff]")


class _Reply:
    """The reply waiting on a socket, read only as far as it is needed.

    Given ``quickack``, the ``setsockopt`` arguments of ``TCP_QUICKACK``,
    each read that must wait for more of a reply first ACKs what came: a
    server that writes head and body apart holds the body (Nagle) until the
    head is ACKed, which a kept connection would otherwise delay ~40 ms.
    """

    def __init__(self, sock, quickack: tuple[int, int, int] | None) -> None:
        self.sock = sock
        self.quickack = quickack
        self.buf = bytearray()
        self.pos = 0

    def _fill(self) -> bool:
        """Read more of the reply; False once the server has closed."""
        if self.buf and self.quickack:
            self.sock.setsockopt(*self.quickack)
        chunk = self.sock.recv(_RECV)
        self.buf += chunk
        return bool(chunk)

    def line(self) -> bytes:
        """The next line, without its line break (LF, or CR LF); none over
        ``_MAX_HEAD`` bytes, finished or not."""
        while (end := self.buf.find(b"\n", self.pos)) < 0:
            if len(self.buf) - self.pos > _MAX_HEAD:
                raise TransientProviderError(f"reply line over {_MAX_HEAD} bytes")
            if not self._fill():
                raise TransientProviderError("connection closed mid-line of the reply")
        if end - self.pos > _MAX_HEAD:
            raise TransientProviderError(f"reply line over {_MAX_HEAD} bytes")
        line = bytes(self.buf[self.pos : end]).rstrip(b"\r")
        self.pos = end + 1
        return line

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        while len(self.buf) - self.pos < n:
            if not self._fill():
                got = len(self.buf) - self.pos
                raise TransientProviderError(
                    f"IncompleteRead({got} bytes read, {n - got} more expected)"
                )
        out = bytes(self.buf[self.pos : self.pos + n])
        self.pos += n
        return out

    def head(self) -> tuple[bytes, int, dict[str, str]]:
        """HTTP version, status and headers (lower-case names, first of
        each) of one reply.

        Read line by line: no line over ``_MAX_HEAD`` bytes, finished or
        not, and no header line ending further than that past the start of
        the status line.
        """
        start = self.pos
        status_line = self.line()
        found = _STATUS_LINE.fullmatch(status_line)
        if found is None:
            raise TransientProviderError(f"malformed status line {status_line[:80]!r}")
        headers: dict[str, str] = {}
        while line := self.line():
            if self.pos - start > _MAX_HEAD:
                raise TransientProviderError(f"reply header section over {_MAX_HEAD} bytes")
            name, colon, value = line.partition(b":")
            if colon:
                headers.setdefault(
                    name.strip().lower().decode("latin-1"), value.strip().decode("latin-1")
                )
        return found[1], int(found[2]), headers

    def chunked(self) -> bytes:
        """A chunked body, its chunks joined; trailer fields are skipped."""
        chunks = []
        while True:
            size = self.line().partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise TransientProviderError(f"malformed chunk size {size[:80]!r}")
            if not int(size, 16):
                break
            chunks.append(self.take(int(size, 16)))
            self.line()  # the line break after the chunk's data
        while self.line():
            pass
        return b"".join(chunks)

    def read(self) -> tuple[int, dict[str, str], bytes, bool]:
        """The final reply's status, headers and body, and whether the
        connection may carry another request.

        A 204 or 304 reply ends at its head.  Any other body ends at its
        ``Content-Length`` or at the last chunk of a chunked body, without
        waiting for the server to close; else at close.  The connection is
        kept only after an HTTP/1.1 reply that did not say
        ``Connection: close``, did not run to close and left no byte unread.
        """
        version, status, headers = self.head()
        while status < 200:  # interim replies, such as 100 Continue
            version, status, headers = self.head()
        length = headers.get("content-length", "")
        if status in (204, 304):
            body = b""
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            body = self.chunked()
        elif length.isdecimal():
            body = self.take(int(length))
        else:
            while self._fill():
                pass
            return status, headers, bytes(self.buf[self.pos :]), False
        tokens = headers.get("connection", "").lower().split(",")
        reusable = (
            version == b"1.1"
            and "close" not in map(str.strip, tokens)
            and self.pos == len(self.buf)
        )
        return status, headers, body, reusable


class _IdlePool:
    """The idle keep-alive connections of one provider, all to its endpoint.

    A connection is here only between requests, so none carries two
    requests at once, and a provider never holds more connections than the
    most requests it had in flight at once (``--parallelism``).
    """

    def __init__(self) -> None:
        self._socks: list = []
        self._lock = threading.Lock()

    def take(self):
        """The newest idle connection still fit to send on, else None.

        An idle connection has nothing to read: one that is readable has
        been closed by the server, or holds bytes no request asked for, and
        is closed here.  A zero-timeout ``poll`` tells, where
        ``recv(MSG_PEEK)`` would fail on a TLS socket and ``select.select``
        on a descriptor past ``FD_SETSIZE``.  Pooling needs
        ``TCP_QUICKACK``, a Linux option, and Linux has ``poll``.
        """
        import select

        while True:
            with self._lock:
                if not self._socks:
                    return None
                sock = self._socks.pop()
            poller = select.poll()
            poller.register(sock, select.POLLIN)
            if not poller.poll(0):
                return sock
            sock.close()

    def give(self, sock) -> None:
        with self._lock:
            self._socks.append(sock)

    def close(self) -> None:
        with self._lock:
            socks, self._socks = self._socks, []
        for sock in socks:
            sock.close()


@functools.lru_cache(maxsize=32)
def _route(url: str) -> tuple[bool, str, int, bytes]:
    """Whether ``url`` is ``https``, its host and port, and the head of a
    request to it up to the value of ``Content-Length``.

    Checked and formatted once per URL; a bad URL raises on every call,
    since ``lru_cache`` keeps no exception.
    """
    from urllib.parse import urlsplit

    try:
        parts = urlsplit(url)
        port = parts.port or (443 if parts.scheme == "https" else 80)
    except ValueError as exc:
        raise ProviderError(f"bad endpoint URL {url!r}: {exc}") from exc
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    authority = parts.netloc.rpartition("@")[2]
    if (
        parts.scheme not in ("http", "https")
        or not parts.hostname
        or _BAD_URL.search(target + authority)
        # the labels DNS takes, as the idna codec checks them: 1 to 63
        # characters each, a trailing dot allowed
        or not all(0 < len(label) < 64
                   for label in parts.hostname.removesuffix(".").split("."))
    ):
        raise ProviderError(f"bad endpoint URL {url!r}")
    head = (
        f"POST {target} HTTP/1.1\r\nHost: {authority}\r\n"
        "Content-Type: application/json\r\nContent-Length: "
    )
    return parts.scheme == "https", parts.hostname, port, head.encode("latin-1")


def _http_post(
    url: str, payload: dict, headers: dict, timeout: float, tls: Callable, idle: _IdlePool
) -> tuple[int, dict[str, str], bytes]:
    """POST ``payload`` as JSON: the reply's status, headers and body.

    HTTP/1.1; head and body go in one send, with ``TCP_NODELAY``.  The URL
    is checked and the fixed part of the head formatted once per URL (see
    ``_route``); ``headers`` are checked on every request.  The request goes
    on an idle connection from ``idle`` if one is fit, else on a new one,
    and the connection goes back to ``idle`` if the reply lets it be reused
    (see ``_Reply.read``).  Reuse needs ``TCP_QUICKACK`` (see ``_Reply``);
    where ``socket`` lacks it, each request opens its own connection and
    sends ``Connection: close``.  An ``https://`` URL is wrapped in the
    context that ``tls()`` returns.  No proxy is used and no redirect
    followed.  A timeout, a socket or TLS failure and a reply cut short or
    garbled raise, also on a kept connection that the server closed
    meanwhile: the retry schedule sends again.  ``socket`` and ``select``
    load here, so offline runs never import them.
    """
    import socket

    https, host, port, head = _route(url)
    for name, value in headers.items():
        if _BAD_VALUE.search(value):
            # the value is the API key: name it, never echo it
            raise ProviderError(f"the {name} header holds a character HTTP cannot carry")
    quickack = None
    if hasattr(socket, "TCP_QUICKACK"):
        quickack = (socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    fields = "".join([f"{name}: {value}\r\n" for name, value in headers.items()])
    end = b"\r\n" if quickack else b"Connection: close\r\n\r\n"
    request = b"".join([head, b"%d\r\n" % len(body), fields.encode("latin-1"), end, body])
    sock = None
    try:
        if quickack:
            sock = idle.take()
        if sock is None:
            # an ASCII-bytes host (see ``_route``) skips the idna codec's import
            sock = socket.create_connection((host.encode("ascii"), port), timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if https:
                sock = tls().wrap_socket(sock, server_hostname=host)
        sock.sendall(request)
        status, reply_headers, reply_body, reusable = _Reply(sock, quickack).read()
        if quickack and reusable:
            idle.give(sock)
            sock = None
        return status, reply_headers, reply_body
    except TimeoutError as exc:
        raise ProviderTimeoutError(f"no reply within {timeout} s: {exc}") from exc
    except OSError as exc:
        # refused, reset, unresolvable, or a failed TLS handshake
        raise TransientProviderError(f"{type(exc).__name__}: {exc}") from exc
    finally:
        if sock is not None:
            sock.close()


class RemoteProvider:
    """HTTP backend for both completion and embedding.

    Credentials come from the environment (never from config files): the
    variable named by ``api_key_env`` must hold the key when the provider is
    built, and it is read again for each request.  Requests reuse
    the provider's idle connections (see ``_http_post``); :meth:`close`
    closes them.
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        *,
        api_key_env: str = "MAVL_API_KEY",
        timeout: float = 60.0,
    ) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.model_id = model_id
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._tls = None
        self._tls_lock = threading.Lock()
        self._idle = _IdlePool()
        # a run without a key fails before it makes anything
        self._api_key()

    def _api_key(self) -> str:
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise ProviderAuthError(
                f"no API key: set the {self.api_key_env} environment variable"
            )
        return key

    def _tls_context(self):
        """The TLS context of every ``https://`` request, made on the first:
        ``ssl.create_default_context()``, so the system CA store, or
        ``SSL_CERT_FILE`` when it is set."""
        with self._tls_lock:
            if self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
            return self._tls

    def _post(self, path: str, payload: dict) -> dict:
        url = self.endpoint + path
        headers = {"Authorization": f"Bearer {self._api_key()}"}
        status, reply_headers, raw = _http_post(
            url, payload, headers, self.timeout, self._tls_context, self._idle
        )
        _check_status(status, reply_headers.get("location"))
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ProviderError(f"reply is not JSON (HTTP {status}): {exc}") from exc

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        self._idle.close()

    def complete(self, request: GenerationRequest) -> str:
        payload: dict = {
            "model": self.model_id,
            "prompt": request.prompt_text,
            **_SAMPLING,
        }
        if request.media:
            payload["media"] = [
                {
                    "kind": m.kind.value,
                    "location": m.location,
                    "time_span": list(m.time_span) if m.time_span else None,
                }
                for m in request.media
            ]
        body = self._post("/complete", payload)
        text = body.get("text") if isinstance(body, dict) else None
        if not isinstance(text, str):
            raise ProviderError(f"malformed completion response: {body!r}")
        return text

    def embed_batch(self, request: EmbeddingRequest) -> list[list[float]]:
        body = self._post(
            "/embed", {"model": self.model_id, "texts": list(request.texts)}
        )
        vectors = body.get("vectors") if isinstance(body, dict) else None
        # JSON numbers only: float() would also take "0.5" and true
        if not isinstance(vectors, list) or not all(
            isinstance(v, list) and {*map(type, v)} <= {int, float} for v in vectors
        ):
            raise EmbeddingError(f"malformed embedding response: {body!r}")
        return [list(map(float, v)) for v in vectors]


# ---------------------------------------------------------------------------
# Bounded fan-out


def map_bounded(fn: Callable, items: Iterable, parallelism: int = 1) -> list:
    """Apply ``fn`` to each item with at most ``parallelism`` in flight.

    Results come back in input order.  ``parallelism=1`` degenerates to a
    plain loop, which keeps single-threaded runs exactly reproducible.
    Above 1, ``min(parallelism, len(items))`` plain threads each take the
    next item in input order.  Once an item raises, no further item starts;
    the running ones finish, and the failure of the lowest input index is
    raised.  An exception in the caller while it waits, such as
    ``KeyboardInterrupt``, also stops new items, waits for the running ones
    and propagates.  No thread outlives the call.
    """
    items = list(items)
    if parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    if parallelism == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0  # items started; set to len(items) to start no more

    def work() -> None:
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i >= len(items):
                    return
                taken = i + 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised in the caller below
                with lock:
                    failures[i] = exc
                    taken = len(items)
                return

    threads = [threading.Thread(target=work) for _ in range(min(parallelism, len(items)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException:
        with lock:
            taken = len(items)
        for thread in threads:
            if thread.is_alive():  # join() raises for a thread never started
                thread.join()
        raise
    if failures:
        raise failures[min(failures)]
    return results
