"""Trace replay and linting: re-executes recorded tool calls against the
current engine and compares artifacts byte-wise, and re-checks the
exploration contract plus ground-truth leakage on stored traces.

Gateway events are stubbed from the trace itself; only tool behavior is
re-executed, which is exactly the part the engine owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .core import EvaluatorCapability
from .corpus import parse_record
from .errors import ReplayError
from .orchestrator import SPAWN_TOOL, ContractVerdict, enforce_exploration_contract, read_trace
from .toolkit import ArtifactStore, InvocationContext, ToolArtifact, Toolkit, ToolInvocation, builtin_toolkit
from .util import canonical_json


@dataclass
class Divergence:
    index: int
    kind: str  # artifact_mismatch | unknown_tool | missing_result
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "kind": self.kind, "detail": self.detail}


@dataclass
class ReplayReport:
    trace: str
    events: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace": self.trace,
            "events": self.events,
            "divergences": [d.to_dict() for d in self.divergences],
        }


def replay(trace_path: Path, toolkit: Optional[Toolkit] = None) -> ReplayReport:
    """Re-execute every recorded tool call and compare artifacts byte-wise.

    Refuses traces produced by a different engine version.
    """
    header, events = read_trace(trace_path)
    version = header.get("version")
    if version != __version__:
        raise ReplayError(
            f"trace version {version!r} does not match engine version {__version__!r}"
        )
    if not isinstance(header.get("instance"), dict):
        raise ReplayError(f"trace {trace_path} header carries no instance")
    toolkit = toolkit or builtin_toolkit()
    instance = parse_record({**header["instance"], "ground_truth": header.get("ground_truth")})
    mode = header.get("mode", "exploration")
    capability = EvaluatorCapability() if mode == "exploration" else None
    ctx = InvocationContext(mode=mode, instance=instance, capability=capability)
    artifacts = ArtifactStore(instance)
    results_by_call = {
        e["payload"]["call_id"]: (i, e["payload"]["artifact"])
        for i, e in enumerate(events)
        if e["kind"] == "tool_result"
    }
    report = ReplayReport(trace=str(trace_path), events=len(events))
    for i, event in enumerate(events):
        if event["kind"] != "tool_call":
            continue
        payload = event["payload"]
        tool = payload["tool"]
        if tool == SPAWN_TOOL:
            continue  # orchestrator-handled; nothing to re-execute
        if not toolkit.has(tool):
            report.divergences.append(
                Divergence(index=i, kind="unknown_tool", detail=f"tool {tool!r} is not registered")
            )
            continue
        if payload["call_id"] not in results_by_call:
            report.divergences.append(
                Divergence(index=i, kind="missing_result", detail=f"call {payload['call_id']} has no result")
            )
            continue
        result_index, recorded = results_by_call[payload["call_id"]]
        produced = toolkit.invoke(
            ToolInvocation(
                tool_id=tool,
                args=dict(payload.get("args", {})),
                inputs=tuple(payload.get("inputs", ())),
            ),
            artifacts,
            ctx,
        )
        if canonical_json(produced.to_dict()) != canonical_json(recorded):
            report.divergences.append(
                Divergence(
                    index=result_index,
                    kind="artifact_mismatch",
                    detail=f"call {payload['call_id']} ({tool}) produced a different artifact",
                )
            )
            # keep replaying from the recorded state so one divergence does
            # not cascade
            artifacts.add(ToolArtifact.from_dict(recorded))
    return report


@dataclass
class LintReport:
    trace: str
    mode: str
    contract: Optional[ContractVerdict]
    leaks: list[dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        contract_ok = self.contract is None or self.contract.satisfied
        return contract_ok and not self.leaks

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace": self.trace,
            "mode": self.mode,
            "contract": self.contract.to_dict() if self.contract else None,
            "leaks": list(self.leaks),
        }


def lint(trace_path: Path, forbidden_substrings: Sequence[str] = ()) -> LintReport:
    """Contract verdict (exploration traces) plus a byte-level scan for
    forbidden payloads such as ground-truth renderings."""
    header, events = read_trace(trace_path)
    mode = header.get("mode", "exploration")
    contract = enforce_exploration_contract(header, events) if mode == "exploration" else None
    leaks: list[dict[str, Any]] = []
    lines = Path(trace_path).read_text().splitlines()
    for needle in forbidden_substrings:
        if not needle:
            continue
        for line_no, line in enumerate(lines, start=1):
            if needle in line:
                leaks.append({"line": line_no, "needle_head": needle[:40]})
    return LintReport(trace=str(trace_path), mode=mode, contract=contract, leaks=leaks)
