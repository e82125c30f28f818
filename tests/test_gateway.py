from __future__ import annotations

import base64
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from timeclaw import gateway as gateway_module
from timeclaw.cli import main
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

    def test_tool_call_ids_do_not_change_it(self):
        # a backend names the ids, so a script keyed by digest replays
        # whatever ids the recording run was given
        def answered(call_id):
            call = ToolCallRequest(tool="ses", args={}, id=call_id)
            return ChatExchange(messages=[
                ChatMessage(role="assistant", tool_calls=(call,)),
                ChatMessage(role="tool", content="{}", tool_call_id=call_id),
            ])

        assert exchange_digest(answered("call_1")) == exchange_digest(answered("call_2")) == exchange_digest(answered(""))

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
    def test_a_remote_reply_is_a_gateway_error(self, stub_server, message):
        gw = _stub_gateway(stub_server, message)
        with pytest.raises(GatewayError, match="lone surrogate"):
            gw.complete(_exchange("hi"))


class TestNonFiniteNumbers:
    """json.loads reads NaN and Infinity, which strict JSON has no text for,
    so a reply holding one is refused where it enters, before its tool call
    is written to a trace."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_a_script_entry_is_a_contract_error_naming_it(self, tmp_path, token):
        path = tmp_path / "script.json"
        call = f'{{"tool": "window_stats", "args": {{"reference_mean": {token}}}}}'
        path.write_text(f'{{"d": {{"content": "", "tool_calls": [{call}]}}}}', encoding="utf-8")
        with pytest.raises(ContractError, match="^replay script entry 'd' holds a NaN or an infinity"):
            ScriptedGateway.from_file(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_a_remote_reply_is_a_gateway_error(self, stub_server, token):
        call = {"function": {"name": "window_stats", "arguments": f'{{"reference_mean": {token}}}'}}
        gw = _stub_gateway(stub_server, {"content": None, "tool_calls": [call]})
        with pytest.raises(GatewayError, match="^completion reply holds a NaN or an infinity"):
            gw.complete(_exchange("hi"))


def _stub_gateway(server, message):
    server.mode, server.body = "reply", {"choices": [{"message": message}]}
    return RemoteGateway(base_url=server.url, backoff=0.0)


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
    def test_a_tool_call_of_another_shape_is_a_gateway_error(self, stub_server, call):
        with pytest.raises(GatewayError, match="^completion reply is not a reply"):
            _stub_gateway(stub_server, {"content": None, "tool_calls": [call]}).complete(_exchange("hi"))

    def test_content_that_is_no_string_is_a_gateway_error(self, stub_server):
        with pytest.raises(GatewayError, match="^completion reply is not a reply"):
            _stub_gateway(stub_server, {"content": 12}).complete(_exchange("hi"))

    @pytest.mark.parametrize("message", ["hi", {"tool_calls": ["ses"]}], ids=["a-string", "a-call-a-string"])
    def test_a_message_of_another_shape_is_a_gateway_error(self, stub_server, message):
        with pytest.raises(GatewayError, match="^malformed completion response"):
            _stub_gateway(stub_server, message).complete(_exchange("hi"))

    def test_a_well_formed_reply_keeps_its_calls_and_usage(self, stub_server):
        call = {"id": "call_1", "type": "function", "function": {"name": "ses", "arguments": '{"alpha": 0.5}'}}
        body = {"choices": [{"message": {"content": None, "tool_calls": [call]}}], "usage": {"prompt_tokens": 4}}
        stub_server.mode, stub_server.body = "reply", body
        reply = RemoteGateway(base_url=stub_server.url).complete(_exchange("hi"))
        assert reply.to_dict() == {"content": None, "tool_calls": [{"tool": "ses", "args": {"alpha": 0.5}}]}
        assert [c.id for c in reply.tool_calls] == ["call_1"]  # kept for the tool message, not the trace
        assert reply.usage == {"prompt_tokens": 4}


class TestRequestShape:
    """What RemoteGateway sends, as the server reads it: the JSON it parses,
    not the bytes, so any encoder that writes the same JSON passes."""

    SCHEMA = {"name": "ses", "description": "smoothing", "parameters": {"type": "object", "properties": {}}}

    @staticmethod
    def _sent(server, exchange, **kwargs):
        server.mode = "ok"
        assert RemoteGateway(**kwargs).complete(exchange).content == "remote says hi"
        [(method, path, headers, body)] = server.requests
        return method, path, headers, json.loads(body)

    def test_a_json_post_to_chat_completions_with_the_key_as_bearer(self, stub_server):
        method, path, headers, _body = self._sent(
            stub_server, _exchange("hi"), base_url=f"{stub_server.url}/v1/", api_key="k"
        )
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert headers["Content-Type"] == "application/json"
        assert headers.get_all("Authorization") == ["Bearer k"]

    def test_no_key_sends_no_authorization(self, stub_server, monkeypatch):
        monkeypatch.delenv(gateway_module.API_KEY_ENV, raising=False)
        _method, _path, headers, _body = self._sent(stub_server, _exchange("hi"), base_url=stub_server.url)
        assert headers["Content-Type"] == "application/json"
        assert "Authorization" not in headers

    def test_the_body_holds_the_model_messages_and_temperature(self, stub_server):
        exchange = _conversation([("system", "be brief"), ("user", "trend of 1, 2, 3?")])
        *_, body = self._sent(stub_server, exchange, base_url=stub_server.url, model="m1")
        assert body == {
            "model": "m1",
            "messages": [{"role": "system", "content": "be brief"}, {"role": "user", "content": "trend of 1, 2, 3?"}],
            "temperature": 0.0,
        }

    def test_declared_tools_add_tools_and_tool_choice(self, stub_server, monkeypatch):
        monkeypatch.delenv(gateway_module.MODEL_ENV, raising=False)
        exchange = ChatExchange(messages=[ChatMessage(role="user", content="hi")], declared_tools=[self.SCHEMA])
        *_, body = self._sent(stub_server, exchange, base_url=stub_server.url)
        assert body == {
            "model": "default",
            "messages": [{"role": "user", "content": "hi"}],
            "temperature": 0.0,
            "tools": [{"type": "function", "function": self.SCHEMA}],
            "tool_choice": "auto",
        }


    def test_a_conversation_past_a_tool_call_is_in_the_wire_format(self, stub_server):
        call = ToolCallRequest(tool="ses", args={"alpha": 0.5}, id="call_1")
        exchange = ChatExchange(messages=[
            ChatMessage(role="user", content="hi"),
            ChatMessage(role="assistant", content="", tool_calls=(call,)),
            ChatMessage(role="tool", content='{"payload":{}}', tool_call_id="call_1"),
        ])
        *_, body = self._sent(stub_server, exchange, base_url=stub_server.url)
        [sent_call] = body["messages"][1]["tool_calls"]
        assert json.loads(sent_call["function"].pop("arguments")) == {"alpha": 0.5}
        assert body["messages"] == [
            {"role": "user", "content": "hi"},
            {"role": "assistant", "content": "", "tool_calls": [
                {"id": "call_1", "type": "function", "function": {"name": "ses"}},
            ]},
            {"role": "tool", "content": '{"payload":{}}', "tool_call_id": "call_1"},
        ]

    @pytest.mark.parametrize("tool", ["naive", "evaluate_batch_against_gt"], ids=["run", "rejected"])
    def test_each_tool_message_of_a_loop_answers_its_call_by_id(self, stub_server, seasonal_instance, tmp_path, tool):
        # an inference loop whose backend requests, on every turn, a tool the
        # sample may use or one it may not: the next request echoes the
        # call and answers it, by its id, with the artifact or the feedback
        from timeclaw.orchestrator import EpisodeDeps, run_inference
        from timeclaw.toolkit import builtin_toolkit

        call = {"id": "call_7", "type": "function", "function": {"name": tool, "arguments": '{"horizon": 2}'}}
        stub_server.mode, stub_server.body = "reply", {"choices": [{"message": {"content": None, "tool_calls": [call]}}]}
        deps = EpisodeDeps(toolkit=builtin_toolkit(), gateway=RemoteGateway(base_url=stub_server.url), trace_dir=tmp_path)
        run_inference(seasonal_instance, deps, max_steps=2)
        deps.close()
        first, second = (json.loads(body)["messages"] for *_, body in stub_server.requests)
        assistant, answer = second[len(first):]
        assert [(c["id"], c["function"]["name"]) for c in assistant["tool_calls"]] == [("call_7", tool)]
        assert (answer["role"], answer["tool_call_id"]) == ("tool", "call_7")
        assert ("tool_not_available" in answer["content"]) == (tool != "naive")


    def test_every_call_of_a_reply_is_echoed_and_answered_in_order(self, stub_server, seasonal_instance, tmp_path):
        # a backend that requests two tools in one message, as parallel
        # function calling does: the next request echoes the message with
        # both calls, ids intact, then answers each by its id, in order
        from timeclaw.orchestrator import EpisodeDeps, run_inference
        from timeclaw.toolkit import builtin_toolkit

        calls = [
            {"id": f"call_{tool}", "type": "function", "function": {"name": tool, "arguments": '{"horizon": 2}'}}
            for tool in ("naive", "drift")
        ]
        stub_server.mode, stub_server.body = "reply", {"choices": [{"message": {"content": None, "tool_calls": calls}}]}
        deps = EpisodeDeps(toolkit=builtin_toolkit(), gateway=RemoteGateway(base_url=stub_server.url), trace_dir=tmp_path)
        run_inference(seasonal_instance, deps, max_steps=2)
        deps.close()
        first, second = (json.loads(body)["messages"] for *_, body in stub_server.requests)
        assistant, *answers = second[len(first):]
        assert assistant == {"role": "assistant", "content": "", "tool_calls": calls}
        assert [(m["role"], m["tool_call_id"]) for m in answers] == [("tool", "call_naive"), ("tool", "call_drift")]
        naive, drift = (json.loads(m["content"])["payload"]["values"] for m in answers)
        assert naive == [seasonal_instance.series[-1]] * 2 and len(drift) == 2 and drift != naive

    @pytest.mark.parametrize("horizon", [2, "two"], ids=["artifact", "error"])
    def test_a_reply_that_answers_from_its_call_is_sent_back_whole_until_its_artifact_answers(
        self, stub_server, seasonal_instance, tmp_path, horizon
    ):
        # the backend calls naive and answers from it on every turn: a
        # series ends the loop after one request, and an error artifact is
        # fed back after the reply, its content and its call intact
        from timeclaw.orchestrator import EpisodeDeps, run_inference
        from timeclaw.toolkit import builtin_toolkit

        final = json.dumps({"answer_type": "forecast", "answer_from": "naive", "reasoning": "last value"})
        call = {"id": "call_3", "type": "function", "function": {"name": "naive", "arguments": json.dumps({"horizon": horizon})}}
        stub_server.mode = "reply"
        stub_server.body = {"choices": [{"message": {"content": final, "tool_calls": [call]}}]}
        deps = EpisodeDeps(toolkit=builtin_toolkit(), gateway=RemoteGateway(base_url=stub_server.url), trace_dir=tmp_path)
        result = run_inference(seasonal_instance, deps, max_steps=2)
        deps.close()
        sent = [json.loads(body)["messages"] for *_, body in stub_server.requests]
        if horizon == 2:
            assert len(sent) == 1
            assert result.prediction == [seasonal_instance.series[-1]] * 2 and not result.degraded
            return
        first, second = sent
        assistant, answer = second[len(first):]
        assert assistant == {"role": "assistant", "content": final, "tool_calls": [call]}
        assert (answer["tool_call_id"], json.loads(answer["content"])["payload"]["error"]) == ("call_3", "schema_violation")


class TestRemoteGateway:
    def test_retry_on_500_then_success(self, stub_server):
        gw = RemoteGateway(base_url=stub_server.url, api_key="k", backoff=0.01)
        reply = gw.complete(_exchange("hi"))
        assert reply.content == "remote says hi"
        assert stub_server.calls == 2
        assert reply.usage == {"prompt_tokens": 7, "completion_tokens": 3}

    def test_a_429_is_retried_then_succeeds(self, stub_server):
        stub_server.mode = "429"
        gw = RemoteGateway(base_url=stub_server.url, api_key="k", backoff=0.01)
        assert gw.complete(_exchange("hi")).content == "remote says hi"
        assert stub_server.calls == 2

    def test_a_run_of_429s_is_a_gateway_error(self, stub_server):
        stub_server.mode, stub_server.throttled = "429", 99
        gw = RemoteGateway(base_url=stub_server.url, api_key="k", max_retries=2, backoff=0.01)
        with pytest.raises(GatewayError, match="after 3 attempts: status 429"):
            gw.complete(_exchange("hi"))
        assert stub_server.calls == 3

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
    def test_a_429_waits_the_longer_of_backoff_and_retry_after(self, monkeypatch, stub_server, headers, waits):
        stub_server.mode, stub_server.throttled = "429", 99
        stub_server.throttle_headers = headers or {}
        slept = []
        monkeypatch.setattr(gateway_module, "time", SimpleNamespace(sleep=slept.append))
        gw = RemoteGateway(base_url=stub_server.url, backoff=1.0)
        with pytest.raises(GatewayError, match="status 429"):
            gw.complete(_exchange("hi"))
        assert slept == [min(wait, gateway_module.MAX_RETRY_WAIT_S) for wait in waits]

    def test_another_4xx_is_a_gateway_error_at_once(self, stub_server):
        stub_server.mode = "reject"
        gw = RemoteGateway(base_url=stub_server.url, api_key="k", backoff=0.01)
        with pytest.raises(GatewayError) as caught:
            gw.complete(_exchange("hi"))
        assert str(caught.value) == "gateway rejected the request: 400 " + ("bad request: " + "x" * 300)[:200]
        assert stub_server.calls == 1

    def test_a_redirect_is_a_gateway_error_naming_its_status(self, stub_server):
        stub_server.mode = "redirect"
        gw = RemoteGateway(base_url=stub_server.url, backoff=0.01)
        with pytest.raises(GatewayError, match="^gateway rejected the request: 307 moved to /v2$"):
            gw.complete(_exchange("hi"))
        assert stub_server.calls == 1

    def test_a_kept_alive_connection_carries_every_call(self, stub_server):
        stub_server.mode, stub_server.protocol_version = "ok", "HTTP/1.1"
        gw = RemoteGateway(base_url=stub_server.url, max_retries=0)
        for _ in range(3):
            assert gw.complete(_exchange("hi")).content == "remote says hi"
        assert (stub_server.calls, stub_server.connections) == (3, 1)

    def test_a_connection_the_server_closed_while_idle_is_reopened_not_retried(self, stub_server):
        stub_server.mode, stub_server.protocol_version, stub_server.close_after_reply = "ok", "HTTP/1.1", True
        gw = RemoteGateway(base_url=stub_server.url, max_retries=0)
        for call in range(1, 4):
            assert gw.complete(_exchange("hi")).content == "remote says hi"
            deadline = time.monotonic() + 5
            while stub_server.closed < call and time.monotonic() < deadline:
                time.sleep(0.001)
        assert (stub_server.calls, stub_server.connections) == (3, 3)

    def test_an_http_backend_is_reached_through_http_proxy(self, stub_server, monkeypatch):
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", stub_server.url.replace("://", "://us%40r:pa%3Ass@"))
        stub_server.mode = "ok"
        gw = RemoteGateway(base_url="http://backend.invalid/v1", max_retries=0)
        assert gw.complete(_exchange("hi")).content == "remote says hi"
        [(method, path, headers, _body)] = stub_server.requests
        assert (method, path) == ("POST", "http://backend.invalid/v1/chat/completions")
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"us@r:pa:ss").decode()

    def test_an_https_backend_is_reached_through_a_tunnel(self, stub_server, monkeypatch):
        for name in ("no_proxy", "NO_PROXY", "HTTPS_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("https_proxy", stub_server.url)
        gw = RemoteGateway(base_url="https://backend.invalid/v1", max_retries=0)
        with pytest.raises(GatewayError, match="Tunnel connection failed: 502"):
            gw.complete(_exchange("hi"))
        [(method, path, headers, _body)] = stub_server.requests
        assert (method, path) == ("CONNECT", "backend.invalid:443")
        assert "Proxy-Authorization" not in headers

    def test_a_host_in_no_proxy_is_reached_directly(self, stub_server, monkeypatch):
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        stub_server.mode = "ok"
        assert RemoteGateway(base_url=stub_server.url, max_retries=0).complete(_exchange("hi")).content == "remote says hi"

    def test_malformed_tool_json_is_parse_error(self, stub_server):
        stub_server.mode = "bad_tool_json"
        gw = RemoteGateway(base_url=stub_server.url, api_key="k", backoff=0.01)
        with pytest.raises(ToolCallParseError):
            gw.complete(_exchange("hi"))

    def test_non_json_body_is_gateway_error(self, stub_server):
        stub_server.mode = "not_json"
        gw = RemoteGateway(base_url=stub_server.url, api_key="k", backoff=0.01)
        with pytest.raises(GatewayError, match="not JSON"):
            gw.complete(_exchange("hi"))
        assert stub_server.calls == 1

    @pytest.mark.parametrize("base_url", ["", "127.0.0.1:8000", "file:///etc"], ids=["none", "no-scheme", "file"])
    def test_a_base_url_that_is_not_http_is_a_contract_error(self, monkeypatch, base_url):
        monkeypatch.delenv(gateway_module.API_BASE_ENV, raising=False)
        with pytest.raises(ContractError, match="needs an http"):
            RemoteGateway(base_url=base_url)

    @pytest.mark.parametrize(
        "base_url, proxy, named",
        [
            ("http://[::1", None, "base URL"),
            ("http://127.0.0.1:abc", None, "base URL"),
            ("http://127.0.0.1:9", "http://[::1", "proxy URL"),
            ("http://127.0.0.1:9", "http://127.0.0.1:99999", "proxy URL"),
        ],
        ids=["base-url-ipv6", "base-url-port", "proxy-url-ipv6", "proxy-url-port"],
    )
    def test_a_url_that_does_not_parse_is_a_contract_error(self, tmp_path, monkeypatch, capsys, base_url, proxy, named):
        for name in ("no_proxy", "NO_PROXY", "http_proxy", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        if proxy:
            monkeypatch.setenv("http_proxy", proxy)
        with pytest.raises(ContractError, match=f"the {named}.* is not a URL: "):
            RemoteGateway(base_url=base_url)
        # so infer prints an error line and exits 2, before any request
        spec = {"families": [{"name": "s", "kind": "seasonal", "learn_count": 2, "eval_count": 2}]}
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        assert main(["gen-corpus", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "corpus")]) == 0
        capsys.readouterr()
        argv = ["infer", "--corpus", str(tmp_path / "corpus" / "eval.jsonl"), "--api-base", base_url,
                "--out", str(tmp_path / "pred.jsonl")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the {named}") and "Traceback" not in err

    @pytest.mark.parametrize("api_key", ["ключ", "k\n"], ids=["not-ascii", "a-newline"])
    def test_a_key_no_header_can_carry_is_a_contract_error(self, api_key):
        with pytest.raises(ContractError, match="must be printable ASCII"):
            RemoteGateway(base_url="http://127.0.0.1:9", api_key=api_key)

    def test_exhausted_retries_raise_gateway_error(self):
        gw = RemoteGateway(
            base_url="http://127.0.0.1:9", api_key="k", max_retries=1, backoff=0.01, timeout=0.2
        )
        with pytest.raises(GatewayError):
            gw.complete(_exchange("hi"))


def test_the_remote_transport_is_imported_by_a_remote_call_only():
    """``timeclaw.cli`` loads no HTTP client, so a run on a mock pays for
    none; a remote call loads only the standard library's."""
    code = """if True:
        import json, sys
        import timeclaw.cli
        from timeclaw.errors import GatewayError
        from timeclaw.gateway import ChatExchange, ChatMessage, RemoteGateway

        clients = ("requests", "urllib.request", "http.client")
        at_import = [m for m in clients if m in sys.modules]
        gw = RemoteGateway(base_url="http://127.0.0.1:9", max_retries=0, timeout=0.2)
        try:
            gw.complete(ChatExchange(messages=[ChatMessage(role="user", content="hi")]))
            raised = None
        except GatewayError as exc:
            raised = type(exc).__name__
        print(json.dumps([at_import, raised, "requests" in sys.modules]))
    """
    src = str(Path(gateway_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], "GatewayError", False]
