from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from timeclaw.core import SealedAnswer, TaskInstance, TaskType
from timeclaw.corpus import FamilySpec, generate_sample
from timeclaw.toolkit import builtin_toolkit


@pytest.fixture
def toolkit():
    return builtin_toolkit()


@pytest.fixture
def forecast_instance():
    return TaskInstance(
        id="t1",
        series=tuple(float(v) for v in range(1, 13)),
        task_type=TaskType.FORECAST,
        horizon=3,
        scope="synth_forecast_short",
        ground_truth=SealedAnswer([13.0, 14.0, 15.0]),
    )


@pytest.fixture
def trend_instance():
    return TaskInstance(
        id="t2",
        series=(5.0, 5.1, 4.9, 5.0, 5.2, 5.0, 4.8, 5.1),
        task_type=TaskType.TREND,
        horizon=2,
        scope="synth_trend_short",
        label_space=("decreasing", "increasing", "stable"),
        ground_truth=SealedAnswer("stable"),
    )


@pytest.fixture
def seasonal_family():
    return FamilySpec(
        name="seasonal",
        kind="seasonal",
        learn_count=4,
        eval_count=2,
        length=96,
        horizon=24,
        period=24,
    )


@pytest.fixture
def seasonal_instance(seasonal_family):
    instance, _source, _future = generate_sample(seasonal_family, "learning", 0, seed=11)
    return instance


class _Flaky(BaseHTTPRequestHandler):
    """A chat-completions endpoint that records each request and answers as
    its ``mode`` says. :func:`stub_server` serves a fresh subclass per test,
    so its class attributes are that test's state."""

    mode = "retry"  # retry | 429 | bad_tool_json | not_json | reject | redirect | reply | ok
    throttled = 1  # in mode 429: how many calls get a 429 before a 200
    throttle_headers = {"Retry-After": "0"}  # in mode 429: the 429's headers
    body: dict = {}  # in mode reply: the JSON body of every 200
    close_after_reply = False  # close each connection after one reply, telling no one
    calls = 0
    connections = 0  # connections accepted
    closed = 0  # connections closed by close_after_reply
    requests: list = []  # (method, path, headers, body bytes) of each call

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_CONNECT(self):
        type(self).requests.append((self.command, self.path, self.headers, b""))
        self._send(502, b"no tunnels here", {})

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        cls.requests.append(
            (self.command, self.path, self.headers, self.rfile.read(int(self.headers.get("Content-Length", 0))))
        )
        self._reply(cls)
        if cls.close_after_reply:
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_RDWR)
            cls.closed += 1

    def _reply(self, cls):
        if cls.mode == "retry" and cls.calls == 1:
            self._send(500, b"", {})
            return
        if cls.mode == "429" and cls.calls <= cls.throttled:
            self._send(429, b"", cls.throttle_headers)
            return
        if cls.mode == "reject":
            self._send(400, b"bad request: " + b"x" * 300, {"Content-Type": "text/plain"})
            return
        if cls.mode == "redirect":
            self._send(307, b"moved to /v2", {"Location": "/v2/chat/completions"})
            return
        if cls.mode == "not_json":
            self._send(200, b"<html>upstream proxy page</html>", {"Content-Type": "text/html"})
            return
        if cls.mode == "reply":
            body = cls.body
        else:
            if cls.mode == "bad_tool_json":
                message = {
                    "tool_calls": [{"function": {"name": "ses", "arguments": "{not json"}}],
                    "content": None,
                }
            else:
                message = {"content": "remote says hi"}
            body = {"choices": [{"message": message}], "usage": {"prompt_tokens": 7, "completion_tokens": 3}}
        self._send(200, json.dumps(body).encode(), {"Content-Type": "application/json"})

    def _send(self, status, body, headers):
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    """A fresh :class:`_Flaky` subclass served on 127.0.0.1 for the test;
    its ``url`` is the base URL to give ``RemoteGateway``. Set its
    ``protocol_version`` to ``"HTTP/1.1"`` to keep connections alive."""
    handler = type("Stub", (_Flaky,), {"calls": 0, "connections": 0, "closed": 0, "requests": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True  # a kept-alive connection's thread does not hold up the close
    # a short poll, so shutdown() does not wait out the default half second
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    handler.url = f"http://127.0.0.1:{server.server_address[1]}"
    yield handler
    server.shutdown()
    server.server_close()
