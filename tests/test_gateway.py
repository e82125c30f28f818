from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from timeclaw.errors import GatewayError, ScriptMissError, ToolCallParseError
from timeclaw.gateway import (
    AssistantReply,
    ChatExchange,
    ChatMessage,
    PolicyGateway,
    RecordingGateway,
    RemoteGateway,
    ScriptedGateway,
    ToolCallRequest,
    exchange_digest,
)


def _exchange(content="hello", tools=()):
    return ChatExchange(
        messages=[ChatMessage(role="user", content=content)],
        declared_tools=[{"name": t} for t in tools],
    )


class TestDigest:
    def test_stable_across_trailing_whitespace(self):
        assert exchange_digest(_exchange("a\nb")) == exchange_digest(_exchange("a  \nb \n"))

    def test_content_changes_invalidate(self):
        assert exchange_digest(_exchange("a")) != exchange_digest(_exchange("b"))

    def test_declared_tools_participate(self):
        assert exchange_digest(_exchange("a", ("x",))) != exchange_digest(_exchange("a", ("y",)))


class TestScriptedGateway:
    def test_replay_text(self):
        ex = _exchange("what trend?")
        gw = ScriptedGateway({exchange_digest(ex): {"content": "answer: increasing"}})
        assert gw.complete(ex).content == "answer: increasing"

    def test_replay_tool_call_round_trip(self):
        ex = _exchange("forecast please")
        gw = ScriptedGateway(
            {
                exchange_digest(ex): {
                    "content": "",
                    "tool_calls": [{"tool": "ses", "args": {"horizon": 4}}],
                }
            }
        )
        reply = gw.complete(ex)
        assert reply.tool_calls == (ToolCallRequest(tool="ses", args={"horizon": 4}),)

    def test_miss_fails_loudly(self):
        gw = ScriptedGateway({})
        with pytest.raises(ScriptMissError):
            gw.complete(_exchange("unexpected"))

    def test_recording_then_replay(self, tmp_path):
        inner = PolicyGateway(lambda ex: AssistantReply(content="ok"))
        rec = RecordingGateway(inner)
        ex = _exchange("record me")
        rec.complete(ex)
        path = tmp_path / "script.json"
        rec.save(path)
        replayed = ScriptedGateway.from_file(path)
        assert replayed.complete(ex).content == "ok"

    def test_mock_usage_accounting(self):
        ex = _exchange("x" * 400)
        gw = ScriptedGateway({exchange_digest(ex): {"content": "y" * 40}})
        usage = gw.complete(ex).usage
        assert usage["prompt_tokens"] == 100
        assert usage["completion_tokens"] == 10


class _Flaky(BaseHTTPRequestHandler):
    calls = 0
    mode = "retry"  # retry | bad_tool_json | not_json

    def do_POST(self):
        type(self).calls += 1
        if type(self).mode == "retry" and type(self).calls == 1:
            self.send_response(500)
            self.end_headers()
            return
        if type(self).mode == "not_json":
            body = b"<html>upstream proxy page</html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if type(self).mode == "bad_tool_json":
            message = {
                "tool_calls": [{"function": {"name": "ses", "arguments": "{not json"}}],
                "content": None,
            }
        else:
            message = {"content": "remote says hi"}
        body = json.dumps(
            {"choices": [{"message": message}], "usage": {"prompt_tokens": 7, "completion_tokens": 3}}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Flaky)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Flaky.calls = 0
    _Flaky.mode = "retry"
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestRemoteGateway:
    def test_retry_on_500_then_success(self, stub_server):
        gw = RemoteGateway(base_url=stub_server, api_key="k", backoff=0.01)
        reply = gw.complete(_exchange("hi"))
        assert reply.content == "remote says hi"
        assert _Flaky.calls == 2
        assert reply.usage == {"prompt_tokens": 7, "completion_tokens": 3}

    def test_malformed_tool_json_is_parse_error(self, stub_server):
        _Flaky.mode = "bad_tool_json"
        gw = RemoteGateway(base_url=stub_server, api_key="k", backoff=0.01)
        with pytest.raises(ToolCallParseError):
            gw.complete(_exchange("hi"))

    def test_non_json_body_is_gateway_error(self, stub_server):
        _Flaky.mode = "not_json"
        gw = RemoteGateway(base_url=stub_server, api_key="k", backoff=0.01)
        with pytest.raises(GatewayError, match="not JSON"):
            gw.complete(_exchange("hi"))
        assert _Flaky.calls == 1

    def test_exhausted_retries_raise_gateway_error(self):
        gw = RemoteGateway(
            base_url="http://127.0.0.1:9", api_key="k", max_retries=1, backoff=0.01, timeout=0.2
        )
        with pytest.raises(GatewayError):
            gw.complete(_exchange("hi"))
