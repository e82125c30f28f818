"""Deterministic built-in gateway policies for offline runs.

These implement the agent side of the conversation as a pure function of the
rendered prompt text, so whole runs are reproducible and recordable into
digest-keyed replay scripts. The exploration policy drives each branch
through its hinted tool (the engine then evaluates the candidates); the
inference policy follows injected memory when present and falls back to the
simplest valid path otherwise. Where a tool's artifact is the answer itself,
both answer from it in the reply that calls the tool (``_call``); an
indicator, derived from a series, is restated in a second reply.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from .corpus import TREND_LABELS
from .gateway import AssistantReply, ChatExchange, ChatMessage, PolicyGateway, ToolCallRequest
from .util import json_dumps

FORECAST_TOOLS = ("naive", "drift", "seasonal_naive", "ses", "holt", "moving_average")


def _first_user(exchange: ChatExchange) -> str:
    for m in exchange.messages:
        if m.role == "user":
            return m.content
    return ""


def _system(exchange: ChatExchange) -> str:
    for m in exchange.messages:
        if m.role == "system":
            return m.content
    return ""


def _last_message(exchange: ChatExchange) -> ChatMessage:
    return exchange.messages[-1]


def _find(pattern: str, text: str) -> Optional[str]:
    m = re.search(pattern, text)
    return m.group(1) if m else None


def _horizon(text: str) -> int:
    raw = _find(r"- horizon = (\d+)", text)
    return int(raw) if raw else 1


def _dominant_period(text: str) -> Optional[int]:
    raw = _find(r"- dominant_period = (\d+) \(significant\)", text)
    return int(raw) if raw else None


def _required_final_type(text: str) -> str:
    return _find(r"- required_final_type = (\w+)", text) or "forecast"


def _hint(text: str) -> str:
    return _find(r"- hint = (\S+)", text) or "naive"


def _label_space(text: str) -> list[str]:
    raw = _find(r"- label_space = (\[.*\])", text)
    return json.loads(raw) if raw else []


def _memory_preferred(system_text: str) -> list[str]:
    tools: list[str] = []
    for match in re.finditer(r"prefer: ([^;]+);", system_text):
        for token in match.group(1).split(","):
            token = token.strip()
            if token and token != "-" and token not in tools:
                tools.append(token)
    return tools


def _forecast_args(tool: str, text: str) -> dict[str, Any]:
    args: dict[str, Any] = {"horizon": _horizon(text)}
    if tool == "seasonal_naive":
        args["period"] = _dominant_period(text) or 2
    return args


def _tool_reply(tool: str, args: dict[str, Any], content: str = "") -> AssistantReply:
    return AssistantReply(content=content, tool_calls=(ToolCallRequest(tool=tool, args=args),))


def _call(tool: str, args: dict[str, Any], final_type: str, labels: list[str], source: str) -> AssistantReply:
    """A call of ``tool``. When its artifact is the answer itself (a forecast
    tool's series on a forecast task, or ``detect_trend``'s label where the
    label space holds every label it gives), the reply also carries the final
    that answers from it, its reasoning naming the tool as ``source``: the
    answer ``_answer_from_artifact`` would restate from that artifact."""
    if final_type == "forecast" and tool in FORECAST_TOOLS:
        reasoning = f"{source} continuation"
    elif tool == "detect_trend" and set(TREND_LABELS) <= set(labels):
        reasoning = f"{source} label"
    else:
        return _tool_reply(tool, args)
    final = {"answer_type": final_type, "answer_from": tool, "reasoning": reasoning}
    return _tool_reply(tool, args, json_dumps(final, sort_keys=True))


def _final(answer_type: str, answer: Any, reasoning: str = "") -> AssistantReply:
    return AssistantReply(
        content=json_dumps(
            {"answer_type": answer_type, "answer": answer, "reasoning": reasoning},
            sort_keys=True,
        )
    )


def _parse_artifact(message: ChatMessage) -> Optional[dict[str, Any]]:
    try:
        data = json.loads(message.content)
    except json.JSONDecodeError:
        return None
    return data if isinstance(data, dict) and "payload" in data else None


def _indicator_from_series(values: list[float]) -> dict[str, float]:
    return {
        "max": max(values),
        "min": min(values),
        "diff": max(values) - min(values),
    }


def _answer_from_artifact(
    final_type: str, artifact: dict[str, Any], labels: list[str], used_tool: str
) -> AssistantReply:
    payload = artifact.get("payload", {})
    if final_type in ("forecast",):
        values = payload.get("values")
        if isinstance(values, list) and values:
            return _final(final_type, values, reasoning=f"{used_tool} continuation")
        return _final(final_type, None, reasoning=f"{used_tool} failed")
    if final_type == "indicator":
        values = payload.get("values")
        if isinstance(values, list) and values:
            return _final(final_type, _indicator_from_series(values), reasoning=f"{used_tool} summary")
        return _final(final_type, None, reasoning=f"{used_tool} failed")
    # label tasks: use a trend label when one is available
    label = payload.get("label")
    if label in labels:
        return _final(final_type, label, reasoning=f"{used_tool} label")
    if labels:
        return _final(final_type, sorted(labels)[0], reasoning="default label")
    return _final(final_type, None, reasoning="no label space")


def exploration_policy(exchange: ChatExchange) -> AssistantReply:
    """A branch's reply: run the hinted tool when it is usable, answering
    from its artifact."""
    prompt = _first_user(exchange)
    final_type = _required_final_type(prompt)
    labels = _label_space(prompt)
    hint = _hint(prompt)
    available = set(exchange.declared_tools.names)
    last = _last_message(exchange)

    if last.role != "tool":
        # first move: run the hinted tool when it is usable for the task
        if final_type in ("forecast", "indicator"):
            tool = hint if hint in FORECAST_TOOLS and hint in available else None
            if tool is None:
                tool = next((t for t in FORECAST_TOOLS if t in available), None)
            if tool is None:
                return _final(final_type, None, reasoning="no forecasting tool visible")
            return _call(tool, _forecast_args(tool, prompt), final_type, labels, tool)
        if final_type in ("trend", "trend_past"):
            if hint in available and hint != "detect_trend":
                return _tool_reply(hint, _forecast_args(hint, prompt) if hint in FORECAST_TOOLS else {})
            if "detect_trend" in available:
                return _call("detect_trend", {}, final_type, labels, "detect_trend")
            return _final(final_type, sorted(labels)[0] if labels else None)
        # correlation / mcqa
        if hint in available and hint not in FORECAST_TOOLS:
            return _call(hint, {}, final_type, labels, hint)
        return _final(final_type, sorted(labels)[0] if labels else None)

    artifact = _parse_artifact(last)
    if artifact is None:
        return _final(final_type, None, reasoning="unreadable tool result")
    used = artifact.get("payload", {}).get("tool", "") or _find(r'"tool":"(\w+)"', last.content) or "tool"
    if final_type in ("trend", "trend_past") and "label" not in artifact.get("payload", {}):
        if "detect_trend" in available:
            return _call("detect_trend", {}, final_type, labels, "detect_trend")
    return _answer_from_artifact(final_type, artifact, labels, used)


def inference_policy(exchange: ChatExchange) -> AssistantReply:
    prompt = _first_user(exchange)
    final_type = _required_final_type(prompt)
    labels = _label_space(prompt)
    available = set(exchange.declared_tools.names)
    last = _last_message(exchange)

    if last.role != "tool":
        preferred = [t for t in _memory_preferred(_system(exchange)) if t in available]
        if final_type in ("forecast", "indicator"):
            tool = next((t for t in preferred if t in FORECAST_TOOLS), None)
            if tool is None:
                tool = "naive" if "naive" in available else next(
                    (t for t in FORECAST_TOOLS if t in available), None
                )
            if tool is None:
                return _final(final_type, None, reasoning="no forecasting tool visible")
            return _call(tool, _forecast_args(tool, prompt), final_type, labels, "selected tool")
        if final_type in ("trend", "trend_past"):
            if "detect_trend" in available:
                return _call("detect_trend", {}, final_type, labels, "selected tool")
            return _final(final_type, sorted(labels)[0] if labels else None)
        return _final(final_type, sorted(labels)[0] if labels else None)

    artifact = _parse_artifact(last)
    if artifact is None:
        return _final(final_type, None, reasoning="unreadable tool result")
    return _answer_from_artifact(final_type, artifact, labels, "selected tool")


BUILTIN_POLICIES = {
    "exploration": exploration_policy,
    "inference": inference_policy,
}


def policy_gateway(name: str) -> PolicyGateway:
    if name not in BUILTIN_POLICIES:
        raise KeyError(f"unknown policy {name!r}; choose from {sorted(BUILTIN_POLICIES)}")
    return PolicyGateway(BUILTIN_POLICIES[name])
