"""The single model-call abstraction: a chat exchange with declared tool
schemas, returning text and/or structured tool-call requests.

Three backends ship:

* ``RemoteGateway`` talks OpenAI-compatible chat completions with retry.
* ``ScriptedGateway`` replays responses keyed by :func:`exchange_digest`,
  failing loudly on a miss so prompt drift invalidates scripts instead of
  silently shifting replies.
* ``PolicyGateway`` wraps a deterministic function of the exchange; the
  built-in offline model in :mod:`timeclaw.policy` is one.

``RecordingGateway`` captures digest->reply pairs from any backend so replay
scripts can be generated instead of hand-written.

The exchange digest is a digest of digests, one per message and one per tool
list, so a turn reads no earlier message's text. Scripts recorded before 0.7.0
keyed by a whole-body digest and miss. Tool-call ids, which a backend names
and a tool message echoes, are in neither the digest nor a reply's dict, so a
script or trace reads the same whatever ids a run was given.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from .errors import ContractError, GatewayError, ScriptMissError, ToolCallParseError
from .util import canonical_json, read_json, write_atomic

API_BASE_ENV = "TIMECLAW_API_BASE"
API_KEY_ENV = "TIMECLAW_API_KEY"
MODEL_ENV = "TIMECLAW_MODEL"
MAX_RETRY_WAIT_S = 30.0  # the longest a retry waits, whatever Retry-After asks


@dataclass(frozen=True)
class ToolCallRequest:
    tool: str
    args: Mapping[str, Any]
    id: str = ""  # the backend's id for the call, echoed by its tool message


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant | tool
    content: str = ""
    tool_calls: tuple[ToolCallRequest, ...] = ()
    tool_call_id: str = ""  # a tool message's answer to that call

    @cached_property
    def _digest_piece(self) -> bytes:
        """This message's 32-byte entry of :func:`exchange_digest`: SHA-256
        of the role's JSON string, a newline and the normalized content. A
        conversation resends every earlier message, so each is hashed once."""
        return hashlib.sha256(f"{canonical_json(self.role)}\n{_normalize(self.content)}".encode()).digest()


class DeclaredTools(tuple):
    """The tool schemas an exchange declares, the only place a prompt names
    its tools. A run builds one list per distinct tool set and every prompt
    with that set declares it, so its sorted names and their digest are
    worked out once per list, not once per prompt or exchange."""

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(t["name"] for t in self))

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the canonical JSON of :attr:`names`."""
        return hashlib.sha256(canonical_json(self.names).encode()).digest()


@dataclass
class ChatExchange:
    messages: list[ChatMessage]
    declared_tools: DeclaredTools = DeclaredTools()

    def __post_init__(self) -> None:
        if not self.messages:
            raise ContractError("exchange must contain at least one message")
        if not isinstance(self.declared_tools, DeclaredTools):
            self.declared_tools = DeclaredTools(self.declared_tools)

    @cached_property
    def _digest(self) -> str:
        """:func:`exchange_digest`, once per exchange: it is not changed once sent."""
        pieces = [self.declared_tools.digest, *(m._digest_piece for m in self.messages)]
        return hashlib.sha256(b"".join(pieces)).hexdigest()[:16]


@dataclass
class AssistantReply:
    content: Optional[str] = None
    tool_calls: tuple[ToolCallRequest, ...] = ()
    usage: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "content": self.content,
            "tool_calls": [{"tool": c.tool, "args": dict(c.args)} for c in self.tool_calls],
        }


def reply_from_dict(data: Any, name: str) -> AssistantReply:
    """``data`` as a reply; ``ContractError`` naming it when it is not one."""
    calls = data.get("tool_calls", []) if isinstance(data, Mapping) else None
    if not isinstance(calls, list) or not isinstance(data.get("content"), (str, type(None))) or not all(
        isinstance(c, Mapping) and isinstance(c.get("tool"), str) and isinstance(c.get("args", {}), Mapping)
        and isinstance(c.get("id", ""), str)
        for c in calls
    ):
        raise ContractError(f'{name} is not a reply {{"content": string or null, '
                            '"tool_calls": [{"tool": string, "args": object}, ...]}')
    reply = AssistantReply(
        content=data.get("content"),
        tool_calls=tuple(ToolCallRequest(c["tool"], dict(c.get("args", {})), c.get("id", "")) for c in calls),
    )
    # JSON's \ud800 escape decodes to a lone surrogate, which the next turn's
    # exchange digest and the trace write fail on; its NaN and Infinity
    # decode to numbers the trace would write as tokens strict JSON refuses
    fields = [reply.content, [[c.tool, c.args] for c in reply.tool_calls]]
    try:
        json.dumps(fields, ensure_ascii=False, allow_nan=False).encode()
    except UnicodeEncodeError:
        raise ContractError(f"{name} holds a lone surrogate, which UTF-8 cannot encode") from None
    except ValueError:
        raise ContractError(f"{name} holds a NaN or an infinity, which JSON cannot encode") from None
    return reply


def _normalize(content: str) -> str:
    return "\n".join([line.rstrip() for line in content.strip().splitlines()])


def exchange_digest(exchange: ChatExchange) -> str:
    """The key of a replay script and of a trace's ``gateway_request``: the
    first 16 hex digits of SHA-256 over the declared tools' 32-byte digest
    (:attr:`DeclaredTools.digest`) followed by each message's 32-byte digest
    (SHA-256 of ``canonical_json(role)``, ``"\\n"`` and the content,
    stripped and with each line's trailing whitespace cut), in order. Every
    field has a fixed size, so the encoding is unambiguous."""
    return exchange._digest


def _estimate_tokens(text: str) -> int:
    return max(1, len(text) // 4)


def _mock_usage(exchange: ChatExchange, reply: AssistantReply) -> dict[str, int]:
    prompt = sum(_estimate_tokens(m.content) for m in exchange.messages)
    completion = _estimate_tokens(reply.content or "") + sum(
        _estimate_tokens(canonical_json(dict(c.args))) for c in reply.tool_calls
    )
    return {"prompt_tokens": prompt, "completion_tokens": completion}


class Gateway:
    def complete(self, exchange: ChatExchange) -> AssistantReply:
        raise NotImplementedError


class ScriptedGateway(Gateway):
    """Replays canned replies from a {digest: reply} script."""

    def __init__(self, script: Mapping[str, Mapping[str, Any]]):
        if not isinstance(script, Mapping):
            raise ContractError("a replay script is a JSON object of {digest: reply}")
        self._script = {d: reply_from_dict(r, f"replay script entry {d!r}") for d, r in script.items()}

    @classmethod
    def from_file(cls, path: Path) -> "ScriptedGateway":
        return cls(read_json(path))

    def complete(self, exchange: ChatExchange) -> AssistantReply:
        digest = exchange_digest(exchange)
        if digest not in self._script:
            tail = exchange.messages[-1].content[:80].replace("\n", " ")
            raise ScriptMissError(digest, hint=f"last message starts: {tail!r}")
        reply = self._script[digest]
        return replace(reply, usage=_mock_usage(exchange, reply))


class PolicyGateway(Gateway):
    """Wraps a deterministic reply policy: fn(exchange) -> AssistantReply."""

    def __init__(self, fn: Callable[[ChatExchange], AssistantReply]):
        self._fn = fn

    def complete(self, exchange: ChatExchange) -> AssistantReply:
        reply = self._fn(exchange)
        if not reply.usage:
            reply.usage = _mock_usage(exchange, reply)
        return reply


class RecordingGateway(Gateway):
    """Captures digest->reply pairs from an inner gateway so replay scripts
    can be generated rather than hand-written."""

    def __init__(self, inner: Gateway):
        self.inner = inner
        self.script: dict[str, dict[str, Any]] = {}

    def complete(self, exchange: ChatExchange) -> AssistantReply:
        reply = self.inner.complete(exchange)
        self.script[exchange_digest(exchange)] = reply.to_dict()
        return reply

    def save(self, path: Path) -> None:
        write_atomic(Path(path), json.dumps(self.script, sort_keys=True, indent=1) + "\n")


class RemoteGateway(Gateway):
    """OpenAI-compatible chat-completions backend with bounded retry of a
    connection error, a 5xx or a 429, waiting out a longer ``Retry-After``.
    Connections are kept alive and reused, at most ``max_in_flight`` open;
    one the server closed while idle is reopened before it is used."""

    def __init__(
        self,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        model: Optional[str] = None,
        max_retries: int = 2,
        backoff: float = 0.5,
        timeout: float = 60.0,
        max_in_flight: int = 8,
    ):
        # imported here, so a run on a mock loads no HTTP client
        from base64 import b64encode
        from http.client import HTTPConnection, HTTPSConnection
        from urllib.parse import unquote, urlsplit
        from urllib.request import getproxies, proxy_bypass

        self.base_url = (base_url or os.environ.get(API_BASE_ENV, "")).rstrip("/")
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ContractError(f"remote gateway needs an http(s) base URL ({API_BASE_ENV})")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        if not (self.api_key.isascii() and self.api_key.isprintable()):
            raise ContractError(f"the API key ({API_KEY_ENV}) must be printable ASCII")
        self.model = model or os.environ.get(MODEL_ENV) or "default"
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self._slots = threading.Semaphore(max_in_flight)
        self._idle: list[Any] = []  # connections not in use, closed with the gateway
        weakref.finalize(self, lambda idle: [conn.close() for conn in idle], self._idle)

        def split(text: str, name: str) -> Any:
            try:
                parts = urlsplit(text)
                parts.port  # a port that is not a number in range raises here, not at the first request
                return parts
            except ValueError as exc:
                raise ContractError(f"the {name} is not a URL: {exc}") from None

        url = split(self.base_url, f"base URL ({API_BASE_ENV})")
        https = url.scheme.lower() == "https"
        self._kind, self._tunnel = (HTTPSConnection if https else HTTPConnection), None
        self._path, self._headers = f"{url.path}/chat/completions", {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        # the http proxy HTTP(S)_PROXY names, unless NO_PROXY lists the host:
        # a CONNECT tunnel to an https backend, absolute URLs to an http one
        proxy = None if proxy_bypass(url.netloc) else getproxies().get(url.scheme.lower())
        via = split(proxy if "://" in proxy else f"http://{proxy}", "proxy URL") if proxy else url
        self._host = via.netloc.rpartition("@")[2]
        if proxy:
            creds = f"{unquote(via.username or '')}:{unquote(via.password or '')}".encode()
            auth = {"Proxy-Authorization": f"Basic {b64encode(creds).decode()}"} if via.username else {}
            if https:
                self._tunnel = (url.netloc, None, auth)
            else:
                self._path = f"{self.base_url}/chat/completions"
                self._headers.update(auth)

    def _payload(self, exchange: ChatExchange) -> dict[str, Any]:
        """The request body: each message in the chat-completions wire
        format, an assistant's tool calls and a tool message's call id
        included, so a backend accepts a conversation past its first call."""
        messages: list[dict[str, Any]] = []
        for m in exchange.messages:
            message: dict[str, Any] = {"role": m.role, "content": m.content}
            if m.tool_calls:
                message["tool_calls"] = [
                    {"id": c.id, "type": "function", "function": {"name": c.tool, "arguments": json.dumps(dict(c.args))}}
                    for c in m.tool_calls
                ]
            if m.role == "tool":
                message["tool_call_id"] = m.tool_call_id
            messages.append(message)
        payload: dict[str, Any] = {"model": self.model, "messages": messages, "temperature": 0.0}
        if exchange.declared_tools:
            payload["tools"] = [
                {"type": "function", "function": schema} for schema in exchange.declared_tools
            ]
            payload["tool_choice"] = "auto"
        return payload

    def _connection(self) -> Any:
        """An idle connection, or a new one. A closed one, as one the server
        closed while idle is, opens again on its next request."""
        from select import select

        try:
            conn = self._idle.pop()  # atomic, so two threads never share one
        except IndexError:
            conn = self._kind(self._host, timeout=self.timeout)
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
            return conn
        if conn.sock is not None and select([conn.sock], [], [], 0)[0]:
            conn.close()
        return conn

    def complete(self, exchange: ChatExchange) -> AssistantReply:
        from http.client import HTTPException

        request = json.dumps(self._payload(exchange)).encode()
        last_error: Optional[str] = None
        retry_after = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                time.sleep(min(max(self.backoff * (2 ** (attempt - 1)), retry_after), MAX_RETRY_WAIT_S))
            with self._slots:
                conn, status = self._connection(), 0
                try:
                    conn.request("POST", self._path, request, self._headers)
                    resp = conn.getresponse()
                    status, body = resp.status, resp.read()
                except (OSError, HTTPException) as exc:
                    last_error, retry_after = str(exc), 0.0
                    continue
                finally:
                    if not status:  # failed mid-exchange: its next request opens a new one
                        conn.close()
                    self._idle.append(conn)
            if status >= 500 or status == 429:
                last_error = f"status {status}"
                try:  # a numeric Retry-After's seconds; 0 for none or a date
                    retry_after = float(resp.headers.get("Retry-After", 0))
                except ValueError:
                    retry_after = 0.0
                continue
            if status >= 300:  # a redirect is not followed
                raise GatewayError(f"gateway rejected the request: {status} {body.decode(errors='replace')[:200]}")
            try:
                data = json.loads(body)
            except ValueError as exc:
                raise GatewayError(f"completion response is not JSON: {exc}") from exc
            return self._parse(data)
        raise GatewayError(f"gateway unavailable after {self.max_retries + 1} attempts: {last_error}")

    @staticmethod
    def _parse(data: Mapping[str, Any]) -> AssistantReply:
        """The reply in a completion response, checked as a script entry is
        (:func:`reply_from_dict`), so a reply that the trace write or the
        next turn would fail on is a ``GatewayError`` here."""
        try:
            message = data["choices"][0]["message"]
            calls: list[dict[str, Any]] = []
            for tc in message.get("tool_calls") or ():
                fn = tc.get("function", {})
                raw_args = fn.get("arguments", "{}")
                try:
                    args = json.loads(raw_args) if isinstance(raw_args, str) else dict(raw_args)
                except (ValueError, TypeError) as exc:
                    raise ToolCallParseError(f"tool call arguments are not valid JSON: {exc}") from exc
                calls.append({"tool": fn.get("name", ""), "args": args, "id": str(tc.get("id") or "")})
            reply = reply_from_dict({"content": message.get("content"), "tool_calls": calls}, "completion reply")
            reply.usage = {
                k: int(v)
                for k, v in (data.get("usage") or {}).items()
                if k in ("prompt_tokens", "completion_tokens") and isinstance(v, (int, float))
            }
        except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise GatewayError(f"malformed completion response: {exc}") from exc
        except ContractError as exc:
            raise GatewayError(str(exc)) from exc
        return reply
