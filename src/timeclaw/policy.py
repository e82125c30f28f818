"""The offline model: a deterministic stand-in for the frozen base model.

The paper runs Explore and Reinject on one base model that only sees
different prompts, so one policy answers every exchange here, as a pure
function of that exchange: it is never told whether it drives an
exploration branch or an inference. Its first tool is the branch prompt's
hint when there is one, else the first tool its remembered preferences name
that answers the task, else the first visible tool that does. Where a tool's
artifact is the answer itself, it answers from it in the reply that calls
the tool (``_call``); an indicator, derived from a series, is restated in a
second reply. Every final that answers from a tool names it in its
reasoning. Whole runs are reproducible and recordable into digest-keyed
replay scripts.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from .core import NUMERIC_TYPES
from .corpus import TREND_LABELS
from .gateway import AssistantReply, ChatExchange, ChatMessage, PolicyGateway, ToolCallRequest
from .util import json_dumps

FORECAST_TOOLS = ("naive", "drift", "seasonal_naive", "ses", "holt", "moving_average")
_TREND_FINALS = ("trend", "trend_past")


def _content(exchange: ChatExchange, role: str) -> str:
    """The text of the exchange's first ``role`` message ("" without one)."""
    return next((m.content for m in exchange.messages if m.role == role), "")


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


def _hint(text: str) -> Optional[str]:
    return _find(r"- hint = (\S+)", text)


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


def _first_tool(final_type: str, hint: Optional[str], system_text: str, available: set[str]) -> Optional[str]:
    """The tool a reply opens with. A forecast or indicator answers from a
    forecast tool's series and a trend label from ``detect_trend``, which any
    hinted tool may precede; a correlation or multiple-choice label answers
    from its hinted analysis tool alone. The hint comes first when it
    applies, then the tools remembered in ``system_text`` that answer the
    task, then the visible ones that do."""
    if final_type in NUMERIC_TYPES:
        answering, hint_applies = FORECAST_TOOLS, hint in FORECAST_TOOLS
    elif final_type in _TREND_FINALS:
        answering, hint_applies = ("detect_trend",), True
    else:
        answering, hint_applies = (), hint not in FORECAST_TOOLS
    if hint and hint_applies and hint in available:
        return hint
    options = [t for t in _memory_preferred(system_text) if t in answering] + list(answering)
    return next((t for t in options if t in available), None)


def _args(tool: str, exchange: ChatExchange, prompt: str) -> dict[str, Any]:
    """The arguments that ``tool``'s declared schema requires: ``horizon``
    is the prompt's, and any other (a period, lag or window) the significant
    dominant period, else 2."""
    schema = next(t for t in exchange.declared_tools if t["name"] == tool)
    required = schema.get("parameters", {}).get("required", ())
    return {name: _horizon(prompt) if name == "horizon" else (_dominant_period(prompt) or 2) for name in required}


def _tool_reply(tool: str, args: dict[str, Any], content: str = "") -> AssistantReply:
    return AssistantReply(content=content, tool_calls=(ToolCallRequest(tool=tool, args=args),))


def _call(tool: str, args: dict[str, Any], final_type: str, labels: list[str]) -> AssistantReply:
    """A call of ``tool``. When its artifact is the answer itself (a forecast
    tool's series on a forecast task, or ``detect_trend``'s label where the
    label space holds every label it gives), the reply also carries the final
    that answers from it: the answer ``_answer_from_artifact`` would restate
    from that artifact."""
    if final_type == "forecast" and tool in FORECAST_TOOLS:
        reasoning = f"{tool} continuation"
    elif tool == "detect_trend" and set(TREND_LABELS) <= set(labels):
        reasoning = f"{tool} label"
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


def _answer_from_artifact(final_type: str, payload: dict[str, Any], labels: list[str], tool: str) -> AssistantReply:
    """The final restated from ``tool``'s artifact ``payload``."""
    if final_type in NUMERIC_TYPES:
        values = payload.get("values")
        if not (isinstance(values, list) and values):
            return _final(final_type, None, reasoning=f"{tool} failed")
        if final_type == "forecast":
            return _final(final_type, values, reasoning=f"{tool} continuation")
        return _final(final_type, _indicator_from_series(values), reasoning=f"{tool} summary")
    # label tasks: use a trend label when one is available
    label = payload.get("label")
    if label in labels:
        return _final(final_type, label, reasoning=f"{tool} label")
    if labels:
        return _final(final_type, sorted(labels)[0], reasoning="default label")
    return _final(final_type, None, reasoning="no label space")


def offline_policy(exchange: ChatExchange) -> AssistantReply:
    """The offline model's reply to ``exchange``: open with the first tool
    that applies (see ``_first_tool``), answering from its artifact."""
    prompt = _content(exchange, "user")
    final_type = _required_final_type(prompt)
    labels = _label_space(prompt)
    available = set(exchange.declared_tools.names)
    last = exchange.messages[-1]

    if last.role != "tool":
        tool = _first_tool(final_type, _hint(prompt), _content(exchange, "system"), available)
        if tool is None:
            if final_type in NUMERIC_TYPES:
                return _final(final_type, None, reasoning="no forecasting tool visible")
            return _final(final_type, sorted(labels)[0] if labels else None)
        return _call(tool, _args(tool, exchange, prompt), final_type, labels)

    artifact = _parse_artifact(last)
    if artifact is None:
        return _final(final_type, None, reasoning="unreadable tool result")
    payload, used = artifact["payload"], exchange.messages[-2].tool_calls[0].tool  # the call it answers
    if final_type in _TREND_FINALS and "label" not in payload and used != "detect_trend":
        if "detect_trend" in available:
            return _call("detect_trend", {}, final_type, labels)
    return _answer_from_artifact(final_type, payload, labels, used)


def policy_gateway(name: str) -> PolicyGateway:
    """A gateway answering with the offline model. ``name`` is the run that
    asks, "exploration" or "inference"; both get the same model, as Explore
    and Reinject share one base model. The argument stays because the
    benchmark (``perfbench/run.py``) patches ``cli.policy_gateway`` with a
    one-argument stand-in that passes it on."""
    if name not in ("exploration", "inference"):
        raise KeyError(f"unknown policy {name!r}; choose from ['exploration', 'inference']")
    return PolicyGateway(offline_policy)
