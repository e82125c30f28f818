"""Trace replay and linting: re-executes recorded tool calls against the
current engine and compares artifacts byte-wise, and re-checks the
exploration contract plus ground-truth leakage on stored traces, one report
per episode of a trace log.

Gateway events are stubbed from the trace itself; only tool behavior is
re-executed, which is exactly the part the engine owns. A trace header names
its sample by id and digest, so replay takes each sample from the corpus the
run read; lint needs no sample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from . import __version__
from .core import TaskInstance
from .errors import ReplayError
from .orchestrator import (
    EVALUATE_TOOL,
    ContractVerdict,
    TraceBlock,
    candidate_answers,
    enforce_exploration_contract,
    evaluate,
    read_trace,
)
from .toolkit import ORIGINAL_INPUT, ArtifactStore, ToolArtifact, Toolkit, ToolInvocation, builtin_toolkit
from .util import canonical_json


@dataclass
class Divergence:
    index: int
    kind: str  # artifact_mismatch | unknown_tool | missing_result
    detail: str


@dataclass
class ReplayReport:
    episode: str
    events: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def replay(trace_path: Path, samples: Iterable[TaskInstance]) -> list[ReplayReport]:
    """Re-execute every recorded tool call of every episode in a trace log
    against the episode's sample, taken from ``samples`` (the corpus the run
    read) by id, and compare artifacts byte-wise; one report per episode.

    Refuses traces produced by a different engine version, and a block whose
    sample is missing from ``samples`` or has another digest than the header
    names, or, in an exploration block, carries no ground truth (the loader
    admits only a ground truth that is a valid answer).
    """
    toolkit = builtin_toolkit()
    by_id = {sample.id: sample for sample in samples}
    return [_replay_block(block, by_id, toolkit) for block in read_trace(trace_path)]


def _block_sample(header: Mapping[str, Any], samples: Mapping[str, TaskInstance]) -> TaskInstance:
    """The sample a block's header names, as the episode saw it: an
    inference episode's with its ground truth withheld."""
    episode = header["episode"]
    sample = samples.get(episode)
    if sample is None:
        raise ReplayError(f"episode {episode!r}: its sample is not in the corpus")
    if sample.digest != header["sample"]:
        raise ReplayError(
            f"episode {episode!r}: the corpus sample has digest {sample.digest}, the trace names {header['sample']}"
        )
    if header["mode"] != "exploration":
        return replace(sample, ground_truth=None)
    if not sample.has_ground_truth:
        raise ReplayError(f"episode {episode!r}: the corpus sample has no ground truth")
    return sample


def _replay_block(block: TraceBlock, samples: Mapping[str, TaskInstance], toolkit: Toolkit) -> ReplayReport:
    header, events = block.header, block.events
    version = header["version"]
    if version != __version__:
        raise ReplayError(
            f"trace version {version!r} does not match engine version {__version__!r}"
        )
    sample = _block_sample(header, samples)
    artifacts = ArtifactStore(sample)
    produced_by_call: dict[str, dict[str, Any]] = {}
    results_by_call = {
        e["payload"]["call_id"]: (i, e["payload"]["artifact"])
        for i, e in enumerate(events)
        if e["kind"] == "tool_result"
    }
    report = ReplayReport(episode=header["episode"], events=len(events))
    for i, event in enumerate(events):
        if event["kind"] != "tool_call":
            continue
        payload = event["payload"]
        tool = payload["tool"]
        if tool != EVALUATE_TOOL and toolkit.descriptor(tool) is None:
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
        inputs = tuple(payload.get("inputs", [ORIGINAL_INPUT]))
        call = ToolInvocation(tool_id=tool, args=dict(payload["args"]), inputs=inputs)
        if tool == EVALUATE_TOOL:
            # the evaluate call is the engine's, not a tool's, and runs as
            # the engine ran it: over the valid candidates' answers, rebuilt
            # from their branches' final messages and the artifacts
            # re-executed here
            produced = evaluate(call, sample, candidate_answers(header["episode"], events, produced_by_call))
        else:
            produced = toolkit.invoke(call, artifacts)
        produced_by_call[payload["call_id"]] = produced.to_dict()
        if produced.text != canonical_json(recorded):
            report.divergences.append(
                Divergence(
                    index=result_index,
                    kind="artifact_mismatch",
                    detail=f"call {payload['call_id']} ({tool}) produced a different artifact",
                )
            )
            # keep replaying from the recorded state so one divergence does
            # not cascade
            try:
                artifacts.add(ToolArtifact.from_dict(recorded))
            except (KeyError, TypeError, ValueError) as exc:
                raise ReplayError(f"call {payload['call_id']} recorded a malformed artifact: {exc!r}") from None
    return report


@dataclass
class LintReport:
    episode: str
    mode: str
    contract: Optional[ContractVerdict]
    leaks: list[dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        contract_ok = self.contract is None or self.contract.satisfied
        return contract_ok and not self.leaks

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def lint(trace_path: Path, forbidden_substrings: Sequence[str] = ()) -> list[LintReport]:
    """Per episode of a trace log: the contract verdict (exploration blocks)
    plus a byte-level scan for forbidden payloads such as ground-truth
    renderings; a leak names its log line."""
    # the log's bytes are searched, not its decoded text, so a log lints
    # whenever read_trace reads it (a torn tail that is not UTF-8 included);
    # a needle is encoded as json.loads decodes a log, surrogates passed
    needles = [(needle, needle.encode("utf-8", "surrogatepass")) for needle in forbidden_substrings if needle]
    lines = Path(trace_path).read_bytes().split(b"\n") if needles else []
    reports = []
    start = 0  # each block is its header line and one line per event
    for block in read_trace(trace_path):
        mode = block.header["mode"]
        contract = enforce_exploration_contract(block.header, block.events) if mode == "exploration" else None
        end = start + 1 + len(block.events)
        leaks = [
            {"line": line_no, "needle_head": needle[:40]}
            for needle, encoded in needles
            for line_no, line in enumerate(lines[start:end], start=start + 1)
            if encoded in line
        ]
        reports.append(LintReport(episode=block.header["episode"], mode=mode, contract=contract, leaks=leaks))
        start = end
    return reports
