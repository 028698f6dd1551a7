"""HTTP/1.1 over a socket, for :class:`~mavl.providers.RemoteProvider` only.

A JSON POST and its reply, read only as far as needed; idle keep-alive
connections; the mapping of an HTTP status onto the provider error ladder.
``RemoteProvider`` imports this module when it is built, so offline runs
never load it.
"""

from __future__ import annotations

import json
import re
import threading

from .errors import (
    ConfigError,
    ProviderAuthError,
    ProviderError,
    ProviderRateLimitError,
    ProviderTimeoutError,
    TransientProviderError,
)


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


def _route(url: str) -> tuple[bool, str, int, str, str]:
    """Whether ``url`` is ``https``, its host, port, path and authority.

    The one check of an endpoint, made when a provider is built: a URL that
    cannot be sent raises ``ConfigError``.  User info is refused, not
    dropped, and never echoed, since it may hold a password.
    """
    from urllib.parse import urlsplit

    if "@" in url.partition("//")[2].partition("/")[0]:
        raise ConfigError("bad endpoint URL: it holds user info, which is never sent")
    try:
        parts = urlsplit(url)
        port = parts.port or (443 if parts.scheme == "https" else 80)
    except ValueError as exc:
        raise ConfigError(f"bad endpoint URL {url!r}: {exc}") from exc
    if parts.scheme not in ("http", "https"):
        raise ConfigError(f"endpoint must be an http(s) URL, got {url!r}")
    if "?" in url or "#" in url:
        # the provider appends its path to the endpoint, which would land in
        # the query or the fragment and send every request to the wrong path
        raise ConfigError(f"bad endpoint URL {url!r}: it holds a query or a fragment")
    if (
        not parts.hostname
        or _BAD_URL.search(parts.path + parts.netloc)
        # the labels DNS takes, as the idna codec checks them: 1 to 63
        # characters each, a trailing dot allowed
        or not all(0 < len(label) < 64
                   for label in parts.hostname.removesuffix(".").split("."))
    ):
        raise ConfigError(f"bad endpoint URL {url!r}")
    return parts.scheme == "https", parts.hostname, port, parts.path, parts.netloc


def _http_post(
    route: tuple[str, int, bytes], payload: dict, timeout: float, tls, idle: _IdlePool
) -> tuple[int, dict[str, str], bytes]:
    """POST ``payload`` as JSON: the reply's status, headers and body.

    ``route`` is the host, the port and the request's head up to the value
    of ``Content-Length``, checked and formatted when the provider was
    built.  HTTP/1.1; head and body go in one send, with ``TCP_NODELAY``.
    The request goes on an idle connection from ``idle`` if one is fit,
    else on a new one, and the connection goes back to ``idle`` if the
    reply lets it be reused (see ``_Reply.read``).  Reuse needs
    ``TCP_QUICKACK`` (see ``_Reply``); where ``socket`` lacks it, each
    request opens its own connection and sends ``Connection: close``.  A
    new connection is wrapped in the TLS context ``tls`` unless it is None.
    No proxy is used and no redirect followed.  A timeout, a socket or TLS
    failure and a reply cut short or garbled raise, also on a kept
    connection that the server closed meanwhile: the retry schedule sends
    again.  ``socket`` and ``select`` load here, so offline runs never
    import them.
    """
    import socket

    host, port, head = route
    quickack = None
    if hasattr(socket, "TCP_QUICKACK"):
        quickack = (socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    end = b"\r\n" if quickack else b"Connection: close\r\n\r\n"
    request = b"".join([head, b"%d\r\n" % len(body), end, body])
    sock = None
    try:
        if quickack:
            sock = idle.take()
        if sock is None:
            # an ASCII-bytes host (see ``_route``) skips the idna codec's import
            sock = socket.create_connection((host.encode("ascii"), port), timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tls is not None:
                sock = tls.wrap_socket(sock, server_hostname=host)
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
