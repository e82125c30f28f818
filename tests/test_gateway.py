from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from timeclaw import gateway as gateway_module
from timeclaw.errors import ContractError, GatewayError, ScriptMissError, ToolCallParseError
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
    reply_from_dict,
)


def _digest_oracle(messages, tools):
    """The exchange digest written out from its definition: SHA-256 over the
    tool names' digest, then each message's digest, cut to 16 hex digits."""
    names = json.dumps(sorted(tools), separators=(",", ":"), ensure_ascii=False)
    body = hashlib.sha256(names.encode("utf-8")).digest()
    for role, content in messages:
        lines = [line.rstrip() for line in content.strip().splitlines()]
        text = json.dumps(role, ensure_ascii=False) + "\n" + "\n".join(lines)
        body += hashlib.sha256(text.encode("utf-8")).digest()
    return hashlib.sha256(body).hexdigest()[:16]


def _conversation(messages, tools=()):
    return ChatExchange(
        messages=[ChatMessage(role=role, content=content) for role, content in messages],
        declared_tools=[{"name": t} for t in tools],
    )


def _exchange(content="hello", tools=()):
    return _conversation([("user", content)], tools)


ROLES = st.sampled_from(["system", "user", "assistant", "tool"])
MESSAGES = st.lists(st.tuples(ROLES, st.text()), min_size=1, max_size=6)
TOOLS = st.lists(st.text(min_size=1), max_size=4, unique=True)


class TestDigest:
    def test_stable_across_trailing_whitespace(self):
        assert exchange_digest(_exchange("a\nb")) == exchange_digest(_exchange("a  \nb \n"))

    def test_content_changes_invalidate(self):
        assert exchange_digest(_exchange("a")) != exchange_digest(_exchange("b"))

    def test_declared_tools_participate(self):
        assert exchange_digest(_exchange("a", ("x",))) != exchange_digest(_exchange("a", ("y",)))

    def test_an_exchange_without_messages_is_refused(self):
        with pytest.raises(ContractError, match="at least one message"):
            ChatExchange(messages=[])

    @settings(max_examples=200, deadline=None)
    @given(messages=MESSAGES, tools=TOOLS)
    def test_equals_the_digest_of_digests_formula(self, messages, tools):
        exchange = _conversation(messages, tools)
        assert exchange_digest(exchange) == _digest_oracle(messages, tools)
        # a message resent in a longer conversation keeps its cached digest
        longer = ChatExchange(messages=[*exchange.messages, ChatMessage(role="user", content="more  \n")])
        assert exchange_digest(longer) == _digest_oracle([*messages, ("user", "more")], ())

    @settings(max_examples=100, deadline=None)
    @given(messages=MESSAGES, tools=TOOLS, pad=st.sampled_from([" ", "\t", "  \n", "\n\n"]))
    def test_trailing_whitespace_does_not_matter(self, messages, tools, pad):
        # pad each line before its own ending, with lines as str.splitlines
        # cuts them: a pad put inside "\r\n" would split one break into two
        def padded_content(content):
            lines = content.splitlines(keepends=True)
            bodies = [line.splitlines()[0] for line in lines]
            return "".join(body + pad.strip("\n") + line[len(body):]
                           for body, line in zip(bodies, lines)) + pad

        padded = [(role, padded_content(content)) for role, content in messages]
        assert exchange_digest(_conversation(padded, tools)) == exchange_digest(_conversation(messages, tools))

    @settings(max_examples=100, deadline=None)
    @given(messages=MESSAGES, tools=TOOLS, data=st.data())
    def test_role_content_order_and_tools_each_change_it(self, messages, tools, data):
        base = exchange_digest(_conversation(messages, tools))
        i = data.draw(st.integers(0, len(messages) - 1))
        role, content = messages[i]
        other_role = data.draw(ROLES.filter(lambda r: r != role))
        changed_role = [*messages[:i], (other_role, content), *messages[i + 1:]]
        assert exchange_digest(_conversation(changed_role, tools)) != base
        changed_content = [*messages[:i], (role, content + "x"), *messages[i + 1:]]
        assert exchange_digest(_conversation(changed_content, tools)) != base
        assert exchange_digest(_conversation(messages, [*tools, "extra_tool"])) != base
        if len(set(messages)) > 1:
            reordered = data.draw(st.permutations(messages).filter(lambda p: list(p) != messages))
            assert exchange_digest(_conversation(reordered, tools)) != base

    @settings(max_examples=100, deadline=None)
    @given(a=st.text('ab"\\', min_size=1), moved=st.text('ab"\\', min_size=1), b=st.text('ab"\\', min_size=1))
    def test_moving_text_across_a_message_boundary_changes_it(self, a, moved, b):
        one = exchange_digest(_conversation([("user", a + moved), ("user", b)]))
        assert one != exchange_digest(_conversation([("user", a), ("user", moved + b)]))
        assert one != exchange_digest(_conversation([("user", a + moved + b)]))

    @settings(max_examples=100, deadline=None)
    @given(messages=MESSAGES, tools=TOOLS)
    def test_equal_messages_in_distinct_objects_give_equal_digests(self, messages, tools):
        one, other = _conversation(messages, tools), _conversation(list(messages), list(reversed(tools)))
        assert all(a is not b for a, b in zip(one.messages, other.messages))
        assert exchange_digest(one) == exchange_digest(other)


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


class TestLoneSurrogates:
    """JSON's escape of a lone surrogate decodes to text UTF-8 cannot encode,
    which the next turn's digest and the trace write would crash on, so a
    reply is refused where it enters."""

    @pytest.mark.parametrize(
        "data",
        [
            {"content": "\ud800 thinking"},
            {"content": "", "tool_calls": [{"tool": "ses", "args": {"note": "\udfff"}}]},
            {"content": "", "tool_calls": [{"tool": "ses", "args": {"\ud800": 1}}]},
            {"content": "", "tool_calls": [{"tool": "s\ud800s", "args": {}}]},
        ],
        ids=["content", "an-argument", "an-argument-name", "the-tool"],
    )
    def test_a_script_entry_is_a_contract_error_naming_it(self, data):
        with pytest.raises(ContractError, match="^entry 'd' holds a lone surrogate"):
            reply_from_dict(data, "entry 'd'")

    def test_a_paired_surrogate_escape_is_a_character(self):
        reply = reply_from_dict(json.loads('{"content": "\\ud83d\\ude00"}'), "entry")
        assert reply.content == "\U0001f600"

    @pytest.mark.parametrize(
        "message",
        [
            {"content": "\ud800 thinking"},
            {"content": None, "tool_calls": [{"function": {"name": "ses", "arguments": '{"note": "\\ud800"}'}}]},
            {"content": None, "tool_calls": [{"function": {"name": "ses", "arguments": {"note": "\ud800"}}}]},
        ],
        ids=["content", "arguments-as-json-text", "arguments-as-an-object"],
    )
    def test_a_remote_reply_is_a_gateway_error(self, message):
        body = {"choices": [{"message": message}]}
        session = SimpleNamespace(post=lambda *_a, **_k: SimpleNamespace(status_code=200, json=lambda: body))
        gw = RemoteGateway(base_url="http://stub", session=session, backoff=0.0)
        with pytest.raises(GatewayError, match="lone surrogate"):
            gw.complete(_exchange("hi"))



def _stub_gateway(message):
    body = {"choices": [{"message": message}]}
    session = SimpleNamespace(post=lambda *_a, **_k: SimpleNamespace(status_code=200, json=lambda: body))
    return RemoteGateway(base_url="http://stub", session=session, backoff=0.0)


class TestRemoteReplyShape:
    """A completion reply is checked as a script entry is: content a string
    or null, each tool call a string name and an object of arguments."""

    @pytest.mark.parametrize(
        "call",
        [
            {"function": {"name": "ses", "arguments": "[1, 2]"}},
            {"function": {"name": "ses", "arguments": "7"}},
            {"function": {"name": 7, "arguments": "{}"}},
        ],
        ids=["arguments-a-list", "arguments-a-number", "name-a-number"],
    )
    def test_a_tool_call_of_another_shape_is_a_gateway_error(self, call):
        with pytest.raises(GatewayError, match="^completion reply is not a reply"):
            _stub_gateway({"content": None, "tool_calls": [call]}).complete(_exchange("hi"))

    def test_content_that_is_no_string_is_a_gateway_error(self):
        with pytest.raises(GatewayError, match="^completion reply is not a reply"):
            _stub_gateway({"content": 12}).complete(_exchange("hi"))

    @pytest.mark.parametrize("message", ["hi", {"tool_calls": ["ses"]}], ids=["a-string", "a-call-a-string"])
    def test_a_message_of_another_shape_is_a_gateway_error(self, message):
        with pytest.raises(GatewayError, match="^malformed completion response"):
            _stub_gateway(message).complete(_exchange("hi"))

    def test_a_well_formed_reply_keeps_its_calls_and_usage(self):
        call = {"function": {"name": "ses", "arguments": '{"alpha": 0.5}'}}
        body = {"choices": [{"message": {"content": None, "tool_calls": [call]}}], "usage": {"prompt_tokens": 4}}
        session = SimpleNamespace(post=lambda *_a, **_k: SimpleNamespace(status_code=200, json=lambda: body))
        reply = RemoteGateway(base_url="http://stub", session=session).complete(_exchange("hi"))
        assert reply.to_dict() == {"content": None, "tool_calls": [{"tool": "ses", "args": {"alpha": 0.5}}]}
        assert reply.usage == {"prompt_tokens": 4}


class _Flaky(BaseHTTPRequestHandler):
    calls = 0
    mode = "retry"  # retry | 429 | bad_tool_json | not_json
    throttled = 1  # in mode 429: how many calls get a 429 before a 200

    def do_POST(self):
        type(self).calls += 1
        if type(self).mode == "retry" and type(self).calls == 1:
            self.send_response(500)
            self.end_headers()
            return
        if type(self).mode == "429" and type(self).calls <= type(self).throttled:
            self.send_response(429)
            self.send_header("Retry-After", "0")
            self.send_header("Content-Length", "0")
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
    _Flaky.throttled = 1
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

    def test_a_429_is_retried_then_succeeds(self, stub_server):
        _Flaky.mode = "429"
        gw = RemoteGateway(base_url=stub_server, api_key="k", backoff=0.01)
        assert gw.complete(_exchange("hi")).content == "remote says hi"
        assert _Flaky.calls == 2

    def test_a_run_of_429s_is_a_gateway_error(self, stub_server):
        _Flaky.mode, _Flaky.throttled = "429", 99
        gw = RemoteGateway(base_url=stub_server, api_key="k", max_retries=2, backoff=0.01)
        with pytest.raises(GatewayError, match="after 3 attempts: status 429"):
            gw.complete(_exchange("hi"))
        assert _Flaky.calls == 3

    @pytest.mark.parametrize(
        "headers, waits",
        [
            ({"Retry-After": "3"}, [3.0, 3.0]),
            ({"Retry-After": "0"}, [1.0, 2.0]),
            ({"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}, [1.0, 2.0]),
            ({"Retry-After": "1e9"}, [1e9, 1e9]),
            (None, [1.0, 2.0]),
        ],
        ids=["seconds", "zero", "a-date", "capped", "no-headers"],
    )
    def test_a_429_waits_the_longer_of_backoff_and_retry_after(self, monkeypatch, headers, waits):
        response = SimpleNamespace(status_code=429, text="")
        if headers is not None:
            response.headers = headers
        slept = []
        monkeypatch.setattr(gateway_module, "time", SimpleNamespace(sleep=slept.append))
        gw = RemoteGateway(base_url="http://stub", session=SimpleNamespace(post=lambda *_a, **_k: response), backoff=1.0)
        with pytest.raises(GatewayError, match="status 429"):
            gw.complete(_exchange("hi"))
        assert slept == [min(wait, gateway_module.MAX_RETRY_WAIT_S) for wait in waits]

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
