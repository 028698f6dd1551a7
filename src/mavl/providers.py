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
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from operator import mul
from typing import Callable, Iterable, Protocol, Sequence, TextIO

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


@dataclass(frozen=True)
class MediaAttachment:
    """A pointer to an audio or video excerpt to send alongside the prompt.

    ``time_span`` is (start, end) in seconds within the referenced file; None
    means the whole file.  Attachments carry locations, not bytes; the
    provider decides how to fetch or upload them.
    """

    kind: MediaKind
    location: str
    time_span: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.location:
            raise ConfigError("media attachment needs a location")
        if self.time_span is not None:
            start, end = self.time_span
            # NaN fails every comparison, so NaN and infinite spans fail too
            if not 0 <= start <= end < math.inf:
                raise ConfigError(f"bad time span {self.time_span!r}")

    def widened(self, margin: float) -> "MediaAttachment":
        """Pad the span by ``margin`` seconds on both sides (floor at zero)."""
        if self.time_span is None or margin <= 0:
            return self
        start, end = self.time_span
        return replace(self, time_span=(max(0.0, start - margin), end + margin))


@dataclass(frozen=True)
class GenerationRequest:
    prompt_text: str
    media: tuple[MediaAttachment, ...] = ()

    def __post_init__(self) -> None:
        if not self.prompt_text.strip():
            raise ConfigError("prompt_text must be non-empty")


@dataclass(frozen=True)
class EmbeddingRequest:
    texts: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.texts:
            raise EmbeddingError("embedding request needs at least one text")


def request_digest(request: GenerationRequest) -> str:
    """Stable short fingerprint of a request, for trace correlation.

    Hashes the media as one JSON line, then the prompt's UTF-8 bytes: JSON
    escapes newlines, so the first one ends the media.
    """
    media = json.dumps([
        [m.kind.value, m.location, list(m.time_span) if m.time_span else None]
        for m in request.media
    ])
    digest = hashlib.sha256(f"{media}\n".encode("utf-8"))
    digest.update(request.prompt_text.encode("utf-8"))
    return digest.hexdigest()[:16]


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
    text, and wall-clock timestamps.  Reports never read this file; it exists
    for auditing and for replaying a run by hand.  Writes are serialized with
    a lock so concurrent workers interleave whole lines, never fragments.
    The file is opened on the first append, so a run that makes no model
    call leaves none, and stays open, line-buffered, until :meth:`close`.
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
        record = {
            "task_id": task_id,
            "attempt": attempt,
            "request_digest": digest,
            "response_text": response_text,
            "started_at": started if started is not None else now,
            "finished_at": now,
        }
        line = json.dumps(record, ensure_ascii=False)
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8", buffering=1)
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def read_all(self) -> list[dict]:
        with open(self.path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]


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
) -> str:
    """Run one completion with retries, logging every attempt if tracing."""
    digest = request_digest(request)

    def attempt_once(attempt: int) -> str:
        started = time.time()
        text = provider.complete(request)
        if trace is not None:
            trace.append(task_id, attempt, digest, text, started=started)
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
# A line is cut into _KEY_GRAM-character windows every _KEY_STRIDE
# characters; wherever such a key occurs, one window lies wholly inside it at
# one of those offsets, so the key becomes a candidate.  Shorter keys are
# always candidates, and a candidate wins only if it occurs in the line.
# The index holds at most _KEY_STRIDE short strings per key, where a
# character trie of the keys costs over ten times the memory.
#
# A key without a newline occurs in a prompt only inside one of its lines,
# and prompts built from one template share most of their lines, so each
# line's first key is remembered for the last _LINE_MEMO distinct lines.
_KEY_GRAM = 8
_KEY_STRIDE = 4
_LINE_MEMO = 256


class ScriptedProvider:
    """Replays canned responses; raises canned exceptions.

    The script maps a task key to a list of turns, each either a response
    string or an exception instance to raise.  Keys are matched against the
    prompt: the first script key, in script order, found as a substring of
    the prompt text selects that task's queue (an empty key matches every
    prompt).  A ``None`` key (or no match) falls through to the default
    queue.  Queues are consumed in order and running past the end is a hard
    error, so tests notice extra calls.

    The prompt is read line by line, split on ``"\\n"`` alone, and each
    line's first matching key is remembered for the most recent distinct
    lines, so template lines shared by every prompt are scanned once.  Keys
    that contain a newline are tested against the whole prompt on every call.
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
        self._grams: dict[str, tuple[int, ...]] = {}
        for i, key in enumerate(self._keys):
            if "\n" in key:
                self._multiline.append(i)
            elif len(key) < _KEY_GRAM + _KEY_STRIDE - 1:
                self._short.append(i)
            else:
                for gram in {key[d : d + _KEY_GRAM] for d in range(_KEY_STRIDE)}:
                    self._grams[gram] = self._grams.get(gram, ()) + (i,)
        # per instance, so the memo dies with its provider
        self._scan_line = functools.lru_cache(maxsize=_LINE_MEMO)(self._first_in_line)
        self._lock = threading.Lock()
        self.calls = 0

    def _first_in_line(self, line: str) -> int:
        """Index of the first one-line key that occurs in ``line``, else the
        number of keys."""
        sampled = {
            line[pos : pos + _KEY_GRAM]
            for pos in range(0, len(line) - _KEY_GRAM + 1, _KEY_STRIDE)
        }
        candidates = set(self._short)
        for gram in sampled & self._grams.keys():
            candidates.update(self._grams[gram])
        for i in sorted(candidates):
            if self._keys[i] in line:
                return i
        return len(self._keys)

    def _queue_for(self, prompt: str) -> list[str | Exception] | None:
        """The matched queue, else the ``None`` queue, else None.

        Reads only what ``__init__`` built and the thread-safe line memo, so
        it needs no lock.
        """
        # not splitlines(): a one-line key may hold "\r" or "\u2028"
        first = min(map(self._scan_line, prompt.split("\n")))
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
    by CRC32 and L2-normalized.  Identical texts always get identical
    vectors, and a one-character edit moves the vector, which is all the
    offline evaluation path needs.
    """

    def _vector(self, text: str) -> list[float]:
        import zlib

        vec = [0.0] * _HASH_DIM
        if not text:
            vec[0] = 1.0
            return vec
        for n in (1, 2, 3):
            for i in range(len(text) - n + 1):
                gram = text[i : i + n]
                bucket = zlib.crc32(gram.encode("utf-8")) % _HASH_DIM
                vec[bucket] += 1.0
        norm = sum(map(mul, vec, vec)) ** 0.5
        return [x / norm for x in vec]

    def embed_batch(self, request: EmbeddingRequest) -> list[list[float]]:
        return [self._vector(t) for t in request.texts]


# ---------------------------------------------------------------------------
# Remote backend


def _check_status(status: int) -> None:
    """Map an HTTP status onto the provider error ladder; 2xx and 3xx pass."""
    if status in (401, 403):
        raise ProviderAuthError(f"authentication rejected (HTTP {status})")
    if status == 429:
        raise ProviderRateLimitError("rate limited (HTTP 429)")
    if status >= 500:
        raise TransientProviderError(f"server error (HTTP {status})")
    if status >= 400:
        raise ProviderError(f"request rejected (HTTP {status})")


def _urlopen(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, bytes]:
    """POST ``payload`` as JSON; the status and body bytes of the reply.

    An error status comes back as a status with an empty body, for
    :func:`_check_status` to map; a failure to get a whole reply raises.  The
    HTTP modules load here, so offline runs never import them.
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(payload, allow_nan=False).encode("utf-8"),
        headers={**headers, "Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, b""
    except TimeoutError as exc:
        raise ProviderTimeoutError(f"no reply within {timeout} s: {exc}") from exc
    except urllib.error.URLError as exc:
        # a connect timeout arrives wrapped in URLError
        if isinstance(exc.reason, TimeoutError):
            raise ProviderTimeoutError(f"no connection within {timeout} s: {exc.reason}") from exc
        raise TransientProviderError(str(exc)) from exc
    except (OSError, http.client.HTTPException) as exc:
        # HTTPException covers IncompleteRead, which is not an OSError
        raise TransientProviderError(f"{type(exc).__name__}: {exc}") from exc


class RemoteProvider:
    """HTTP backend for both completion and embedding.

    Credentials come from the environment (never from config files): the
    variable named by ``api_key_env`` must hold the key.
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

    def _api_key(self) -> str:
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise ProviderAuthError(
                f"no API key: set the {self.api_key_env} environment variable"
            )
        return key

    def _post(self, path: str, payload: dict) -> dict:
        url = self.endpoint + path
        headers = {"Authorization": f"Bearer {self._api_key()}"}
        status, raw = _urlopen(url, payload, headers, self.timeout)
        _check_status(status)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProviderError(f"reply is not JSON (HTTP {status}): {exc}") from exc

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
    """
    items = list(items)
    if parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    if parallelism == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, items))
