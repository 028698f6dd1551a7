"""A loopback HTTP server for the tests of the remote provider, and the
handler actions it answers with."""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def reply(status, body=b"", *, length=None):
    """A loopback handler action: answer with ``status`` and ``body``; a
    ``length`` past the body announces bytes that never come, and the
    server then closes the connection."""

    def send(handler):
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body) if length is None else length))
        handler.end_headers()
        handler.wfile.write(body)
        handler.close_connection = length is not None

    return send


def raw(data, *, hold=None):
    """A loopback handler action: write ``data`` as the whole reply, then,
    given an event as ``hold``, keep the connection open until it is set;
    the server then closes the connection."""

    def send(handler):
        handler.wfile.write(data)
        if hold is not None:
            hold.wait(5.0)
        handler.close_connection = True

    return send


class Loopback:
    """A ``ThreadingHTTPServer`` on 127.0.0.1, run in a thread; given an
    ``ssl`` server context as ``tls``, it speaks HTTPS.

    Its handler speaks HTTP/1.1, so a connection stays open for the next
    request until the client closes it or an action sets the handler's
    ``close_connection``; each end of a connection releases ``closed``.
    Each POST is recorded (path, headers, body bytes, and the client's
    address as ``peer``, one per connection) and answered by the next
    action in ``actions``, which may read the request's body as
    ``handler.body``; an action may also stall until ``release`` is set,
    which teardown does, so no handler outlives its test.
    """

    def __init__(self, tls=None):
        self.actions = []
        self.received = []
        self.release = threading.Event()
        self.closed = threading.Semaphore(0)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

            def do_POST(self):
                self.body = self.rfile.read(int(self.headers["Content-Length"]))
                outer.received.append({
                    "path": self.path, "headers": self.headers, "body": self.body,
                    "peer": self.client_address,
                })
                outer.actions.pop(0)(self)

        class Server(ThreadingHTTPServer):
            def shutdown_request(self, request):
                super().shutdown_request(request)
                outer.closed.release()

        self.server = Server(("127.0.0.1", 0), Handler)
        self.server.handle_error = lambda request, address: None
        scheme = "http"
        if tls is not None:
            self.server.socket = tls.wrap_socket(self.server.socket, server_side=True)
            scheme = "https"
        self.url = f"{scheme}://127.0.0.1:{self.server.server_address[1]}/v1"
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    def peers(self):
        """The client address of each request, in arrival order."""
        return [got["peer"] for got in self.received]

    def stall(self, handler):
        self.release.wait(5.0)

    def close(self):
        self.release.set()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(5.0)
        assert not self.thread.is_alive()
