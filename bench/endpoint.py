"""Fake completion and embedding service for the remote round trip.

Run as a child process: ``python3 bench/endpoint.py``.  It binds
127.0.0.1 on a free port, prints ``port <n>`` on its first stdout line and
serves until it is terminated.

``POST /complete`` reads the required syllable count, the target language and
the source line from the prompt and answers with a line of exactly that many
syllables; on a task's first attempt a fixed third of tasks miss by one (see
``corpus.remote_translation``).  ``POST /embed`` answers with the program's
offline hash-embedding vectors, so scores can be recomputed offline.
``GET /stats`` returns the request count per path and the texts per embed
call; it is not counted itself.  Every request waits a fixed service delay
of ``DELAY_S``, and at most nproc requests are served at once.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
from mavl.languages import Language  # noqa: E402
from mavl.providers import EmbeddingRequest, HashEmbeddingProvider  # noqa: E402

_COUNT = re.compile(r"Real Syllable Count: (\d+)\s*\nOriginal Lyrics:\n([^\n]+)")
_LANGS = re.compile(r"lyrics from (\w+) to (\w+)\.")
_BY_NAME = {lang.display_name: lang for lang in Language}

DELAY_S = 0.005
MAX_INFLIGHT = os.cpu_count() or 1


class _State:
    def __init__(self) -> None:
        self.slots = threading.BoundedSemaphore(MAX_INFLIGHT)
        self.lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.embed_texts: list[int] = []
        self.embedder = HashEmbeddingProvider()

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": dict(self.requests), "embed_texts": list(self.embed_texts)}


def complete(prompt: str) -> str:
    count = _COUNT.search(prompt)
    langs = _LANGS.search(prompt)
    if count is None or langs is None or langs.group(2) not in _BY_NAME:
        raise ValueError("prompt has no syllable count, source line or target language")
    required, source = int(count.group(1)), count.group(2)
    attempt = 1 + prompt.count(corpus.REPLY_MARK)
    lang = _BY_NAME[langs.group(2)]
    return corpus.format_reply(
        source, corpus.remote_translation(source, lang, required, attempt)
    )


def make_handler(state: _State):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, state.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length)
            with state.slots:
                with state.lock:
                    state.requests[self.path] = state.requests.get(self.path, 0) + 1
                time.sleep(DELAY_S)
                if not self.headers.get("Authorization", "").startswith("Bearer "):
                    self._send(401, {"error": "no key"})
                    return
                try:
                    payload = json.loads(raw)
                    if self.path == "/complete":
                        body = {"text": complete(payload["prompt"])}
                    elif self.path == "/embed":
                        texts = tuple(payload["texts"])
                        with state.lock:
                            state.embed_texts.append(len(texts))
                        body = {"vectors": state.embedder.embed_batch(EmbeddingRequest(texts))}
                    else:
                        self._send(404, {"error": "not found"})
                        return
                except (ValueError, KeyError, TypeError) as exc:
                    self._send(400, {"error": str(exc)})
                    return
                self._send(200, body)

    return Handler


def main() -> int:
    state = _State()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
