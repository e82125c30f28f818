"""The episode engine: exploration with branching, comparison, and
fallbacks, plus inference-time reuse with exploration tools removed.

Exploration flow per instance:

    1. retrieve prior experience, sample slot-local visible tool subsets
    2. main exchange: the model spawns candidate branches
    3. each branch runs the step loop until it finishes with a task-typed
       answer or hits the step cap
    4. valid candidates are evaluated against ground truth and the best one
       is selected (ties: shorter substantive chain, then lower slot)
    5. the model must finish with a learning_summary; the outcome is handed
       to the experience pipeline and tool usage is recorded to the ledger

Branches and inference share one step loop, ``_step_loop``: gateway call ->
tool invoke -> observation, over the per-run state of an ``_EpisodeRunner``
(trace, artifacts, invocation context, call ids, gateway totals). The two
modes differ only in which tool requests they reject (a branch refuses
spawn/evaluate tools and tools outside its slot's subset; inference refuses
anything outside the inference-visible set) and in what they record from the
loop's steps (branch candidates vs. an inference tool chain and context).

Each episode appends one block to its scope's trace log: a header line, then
one event per line, so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from . import __version__, prompts
from .core import (
    CandidateExecution,
    EpisodeOutcome,
    EvaluatorCapability,
    EvidenceClass,
    LearningSummaryText,
    TaskInstance,
    TaskType,
    validate_answer,
)
from .corpus import parse_record
from .errors import ContractError, CorpusError, GatewayError, ScriptMissError
from .gateway import (
    AssistantReply,
    ChatExchange,
    ChatMessage,
    Gateway,
    exchange_digest,
)
from .registry import ToolRegistry
from .store import ExperienceStore, Selection
from .toolkit import (
    ORIGINAL_INPUT,
    ArtifactKind,
    ArtifactStore,
    InvocationContext,
    ToolArtifact,
    Toolkit,
    ToolInvocation,
)
from .util import (
    TornRecord,
    append_record,
    canonical_json,
    digest_obj,
    iter_records,
    json_dumps,
    read_records,
    splice_json,
    stable_seed,
)

# An exploration episode must yield at least this many valid candidates.
MIN_VALID_CANDIDATES = 2
EVALUATE_TOOLS = ("evaluate_against_gt", "evaluate_batch_against_gt")
SPAWN_TOOL = "spawn_subagent"
ANSWER_TOLERANCE = 1e-9

# Each trace event kind, with the payload fields its readers index and their
# types (``object``: any value). A verdict also holds the fields of its type,
# and a block's header those of TRACE_HEADER.
TRACE_KINDS: dict[str, dict[str, type]] = {
    "gateway_request": {"digest": str},
    "gateway_response": {"reply": dict},
    "tool_call": {"call_id": str, "tool": str, "args": dict, "inputs": list},
    "tool_result": {"call_id": str, "artifact": dict},
    "verdict": {"type": str},
    "outcome": {},
}
VERDICT_FIELDS: dict[str, dict[str, type]] = {
    "candidate": {"branch": str, "valid": bool, "substantive_chain": list, "answer": object,
                  "prior_guided": bool, "alternative": bool},
    "contract": {"satisfied": bool, "violations": list},
}
TRACE_HEADER: dict[str, type] = {"version": str, "mode": str, "episode": str, "instance": dict}


@dataclass(frozen=True)
class ExplorationConfig:
    branch_slots: int = 2
    max_steps: int = 6
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.branch_slots < MIN_VALID_CANDIDATES:
            raise ContractError(f"branch_slots must be >= {MIN_VALID_CANDIDATES}")
        if self.max_steps < 1:
            raise ContractError("max_steps must be >= 1")
        if not self.alpha > 0:
            raise ContractError("alpha must be positive")

    def digest(self) -> str:
        return digest_obj(
            {
                "branch_slots": self.branch_slots,
                "max_steps": self.max_steps,
                "alpha": self.alpha,
                "seed": self.seed,
                "version": __version__,
            }
        )


@dataclass
class EpisodeDeps:
    registry: ToolRegistry
    toolkit: Toolkit
    gateway: Gateway
    store: Optional[ExperienceStore] = None
    trace_dir: Optional[Path] = None
    traces: Optional[TraceLog] = field(init=False, repr=False)  # the logs under trace_dir

    def __post_init__(self) -> None:
        self.traces = TraceLog(self.trace_dir) if self.trace_dir is not None else None

    @cached_property
    def inference_tools(self) -> tuple[frozenset[str], list[dict[str, Any]]]:
        """The tools inference exposes and their schemas, worked out once per
        run: the registry and toolkit do not change while one runs."""
        visible = [t for t in self.registry.inference_visible() if self.toolkit.has(t)]
        return frozenset(visible), [self.toolkit.tool_schema(t) for t in visible]


@dataclass(frozen=True)
class BranchSlot:
    slot: int
    goal: str
    hint: str
    visible_tools: frozenset[str]
    prior_guided: bool = False
    alternative: bool = False


@dataclass(frozen=True)
class ContractVerdict:
    satisfied: bool
    violations: tuple[str, ...] = ()


class TraceLog:
    """The trace logs of one run, ``<directory>/<scope>.jsonl``: one block per
    episode, each appended whole under one lock. A log's first append cuts
    off whatever follows its last whole block or, when ``fresh``, all of it:
    inference starts its logs afresh, exploration adds to its store's."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._ends: dict[Path, int] = {}  # where each log's last whole block ends
        self._lock = threading.Lock()

    def append(self, path: Path, block: str, fresh: bool) -> None:
        with self._lock:
            if path not in self._ends:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._ends[path] = 0 if fresh else read_records(path, _parse_block)[1]
            self._ends[path] = append_record(path, self._ends[path], block.encode())


class TraceWriter:
    """One episode's block of a trace log: the header line, then one
    ``{"branch", "kind", "payload"}`` line per event, the ``outcome`` event
    last. The header names the episode; event order is line order. The block
    is appended whole once the ``with`` body ends without raising, so a log
    never holds half an episode."""

    def __init__(self, log: Optional[TraceLog], scope: str, header: Mapping[str, Any]):
        self.log = log
        self.path = log.directory / f"{scope}.jsonl" if log is not None else None
        self.fresh = header["mode"] == "inference"
        self._lines = [canonical_json(header)] if log is not None else None

    def event(self, kind: str, payload: Mapping[str, Any] | str, branch: Optional[int] = None) -> None:
        """Add one event line; ``payload`` is the event's payload object or
        its canonical JSON text, which is spliced into the line as it is."""
        if kind not in TRACE_KINDS:
            raise ContractError(f"unknown trace event kind {kind}")
        if self._lines is None:
            return
        if isinstance(payload, str):
            self._lines.append(
                splice_json({"branch": canonical_json(branch), "kind": canonical_json(kind), "payload": payload})
            )
        else:
            self._lines.append(canonical_json({"branch": branch, "kind": kind, "payload": payload}))

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: Any, *_exc: Any) -> None:
        if exc_type is None and self.log is not None:
            self.log.append(self.path, "\n".join(self._lines) + "\n", self.fresh)


@dataclass(frozen=True)
class TraceBlock:
    header: dict[str, Any]
    events: list[dict[str, Any]]
    instance: TaskInstance  # the header's sample, its ground truth sealed


def _parse_block(data: bytes, pos: int) -> tuple[list[dict[str, Any]], int]:
    """One block's records: a header object, then event objects of known
    kinds through the first ``outcome`` event."""
    records: list[dict[str, Any]] = []
    while True:
        end = data.find(b"\n", pos)
        if end < 0:
            raise TornRecord
        record = json.loads(data[pos:end])
        if not isinstance(record, dict) or (records and record.get("kind") not in TRACE_KINDS):
            raise ValueError("expected " + ("an event" if records else "a header") + " object")
        records.append(record)
        pos = end + 1
        if len(records) > 1 and record["kind"] == "outcome":
            return records, pos


def _require(record: Any, fields: Mapping[str, type], what: str) -> None:
    if not isinstance(record, dict):
        raise ContractError(f"{what} is not an object")
    for key, kind in fields.items():
        if key not in record or not isinstance(record[key], kind):
            raise ContractError(f"{what} has no {kind.__name__} {key!r}")


def _checked_block(header: dict[str, Any], events: list[dict[str, Any]]) -> TraceBlock:
    _require(header, TRACE_HEADER, "the header")
    truth = header.get("ground_truth")
    try:
        instance = parse_record({**header["instance"], "ground_truth": truth})
    except CorpusError as exc:
        raise ContractError(f"the header instance is bad: {exc}") from None
    if truth is not None and not validate_answer(truth, instance).valid:
        raise ContractError("the header ground truth is not a valid answer")
    for n, event in enumerate(events, start=1):
        payload = event.get("payload")
        _require(payload, TRACE_KINDS[event["kind"]], f"event {n}'s payload")
        if event["kind"] == "verdict":
            _require(payload, VERDICT_FIELDS.get(payload["type"], {}), f"event {n}'s payload")
    return TraceBlock(header, events, instance)


def read_trace(path: Path) -> Iterator[TraceBlock]:
    """Each whole block of a trace log, in log order, read as it is needed; a
    torn last block is dropped with a warning. Raises LogError for a block
    that does not frame, and ContractError when the log holds no whole block,
    or a block's header instance does not parse, or a field ``TRACE_HEADER``,
    ``TRACE_KINDS`` or ``VERDICT_FIELDS`` names is missing or of another type."""
    line = 1
    for (header, *events), _end in iter_records(Path(path), _parse_block):
        try:
            block = _checked_block(header, events)
        except ContractError as exc:
            raise ContractError(f"trace {path}: the block at line {line}: {exc}") from None
        yield block
        line += 1 + len(events)
    if line == 1:
        raise ContractError(f"trace {path} is missing or holds no whole episode")


def parse_final(content: Optional[str]) -> Optional[dict[str, Any]]:
    """A final message is a JSON object carrying answer_type."""
    if not content or not isinstance(content, str):
        return None
    try:
        data = json.loads(content)
    except json.JSONDecodeError:
        return None
    if isinstance(data, dict) and "answer_type" in data:
        return data
    return None


_HINT_CATEGORY_ORDER = {
    TaskType.FORECAST: ("forecasting", "analysis", "text"),
    TaskType.INDICATOR: ("forecasting", "analysis", "text"),
    TaskType.TREND: ("analysis", "forecasting", "text"),
    TaskType.TREND_PAST: ("analysis", "forecasting", "text"),
    TaskType.CORRELATION: ("text", "analysis", "forecasting"),
    TaskType.MCQA: ("text", "analysis", "forecasting"),
}


def _rank_hints(
    instance: TaskInstance, registry: ToolRegistry, visible: Sequence[str]
) -> list[str]:
    counts = registry.ledger.counts(instance.scope)
    order = _HINT_CATEGORY_ORDER[instance.task_type]

    def key(tool_id: str) -> tuple[int, int, str]:
        d = registry.descriptor(tool_id)
        cat = d.category.value if d else "analysis"
        rank = order.index(cat) if cat in order else len(order)
        return (rank, counts.get(tool_id, 0), tool_id)

    return sorted(visible, key=key)


def assign_branch_slots(
    instance: TaskInstance,
    config: ExplorationConfig,
    prior_exists: bool,
    registry: ToolRegistry,
    selection: Optional[Selection],
    episode_seed: int,
) -> list[BranchSlot]:
    """Per-slot goals and tool hints drawn from slot-local visible subsets.

    With prior experience, slot 0 is prior-guided (hinted at the top
    remembered tool, which is force-included in its subset) and slot 1 is the
    alternative (hint excludes that tool)."""
    prior_tool: Optional[str] = None
    if prior_exists and selection is not None:
        for rule in selection.rules:
            if rule.preferred_tools:
                prior_tool = sorted(rule.preferred_tools)[0]
                break
    slots: list[BranchSlot] = []
    used_hints: set[str] = set()
    for s in range(config.branch_slots):
        extra = (prior_tool,) if (s == 0 and prior_tool) else ()
        visible = registry.sample_visible_subset(
            instance.scope, s, episode_seed, config.alpha, extra_protected=extra
        )
        prior_guided = s == 0 and prior_tool is not None
        alternative = s == 1 and prior_tool is not None
        if prior_guided:
            hint = prior_tool
        else:
            ranked = [t for t in _rank_hints(instance, registry, sorted(visible)) if t not in used_hints]
            if alternative:
                ranked = [t for t in ranked if t != prior_tool] or ranked
            hint = ranked[0] if ranked else sorted(visible)[0]
        used_hints.add(hint)
        goal = f"produce one {instance.task_type.value} candidate anchored on {hint}"
        slots.append(
            BranchSlot(
                slot=s,
                goal=goal,
                hint=hint,
                visible_tools=visible,
                prior_guided=prior_guided,
                alternative=alternative,
            )
        )
    return slots


class _EpisodeRunner:
    """Per-run state of one exploration episode (``config`` given) or one
    inference sample (``config`` None): sample profile and retrieval, trace,
    artifacts, invocation context, call ids, and gateway totals."""

    def __init__(
        self,
        instance: TaskInstance,
        deps: EpisodeDeps,
        config: Optional[ExplorationConfig] = None,
        fp: Optional[prompts.SampleFingerprint] = None,
    ):
        self.instance = instance
        self.config = config
        self.deps = deps
        self.artifacts = ArtifactStore(instance)
        self.call_counter = 0
        self.tokens_used = 0
        self.gateway_calls = 0
        self.substantive_used: list[str] = []
        self.declared: dict[Optional[int], tuple[str, ...]] = {}  # last tool list requested, per branch
        self.fp = fp if fp is not None else prompts.fingerprint(instance)
        self.selection = deps.store.retrieve(instance.scope, self.fp) if deps.store else None
        self.prior_exists = bool(self.selection and self.selection.rules)
        header = {
            "engine": "timeclaw",
            "version": __version__,
            "config_digest": "",
            "mode": "inference",
            "episode": instance.id,
            "instance": instance.public_dict(),
        }
        if config is None:
            self.ctx = InvocationContext(mode="inference", instance=instance)
        else:
            capability = EvaluatorCapability()
            self.ctx = InvocationContext(mode="exploration", instance=instance, capability=capability)
            header.update(
                config_digest=config.digest(),
                mode="exploration",
                seed=config.seed,
                prior_exists=self.prior_exists,
                ground_truth=instance.answer_key(capability),
            )
        self.trace = TraceWriter(deps.traces, instance.scope, header)

    def complete(self, exchange: ChatExchange, branch: Optional[int]) -> AssistantReply:
        request: dict[str, Any] = {"digest": exchange_digest(exchange)}
        # a request lists its tools only when they differ from the previous
        # request's on the same branch (None: the main exchange)
        tools = exchange.declared_tool_names()
        if self.declared.get(branch) != tools:
            request["tools"] = self.declared[branch] = tools
        self.trace.event("gateway_request", request, branch=branch)
        reply = self.deps.gateway.complete(exchange)
        self.gateway_calls += 1
        self.tokens_used += sum(reply.usage.values())
        self.trace.event(
            "gateway_response",
            {"reply": reply.to_dict(), "usage": reply.usage},
            branch=branch,
        )
        return reply

    def invoke_tool(
        self,
        tool: str,
        args: Mapping[str, Any],
        inputs: Sequence[str],
        branch: Optional[int],
    ) -> ToolArtifact:
        self.call_counter += 1
        call_id = f"c{self.call_counter:03d}"
        call = ToolInvocation(tool_id=tool, args=dict(args), inputs=tuple(inputs))
        encoded = {"call_id": canonical_json(call_id), "tool": canonical_json(tool), "inputs": canonical_json(list(inputs))}
        self.trace.event("tool_call", splice_json({**encoded, "args": call.args_json}), branch=branch)
        artifact = self.deps.toolkit.invoke(call, self.artifacts, self.ctx)
        self.trace.event(
            "tool_result",
            splice_json({"call_id": encoded["call_id"], "artifact": artifact.text}),
            branch=branch,
        )
        descriptor = self.deps.registry.descriptor(tool)
        if descriptor is not None and descriptor.substantive and not artifact.is_error:
            self.substantive_used.append(tool)
        return artifact


def _split_call_args(raw_args: Mapping[str, Any]) -> tuple[dict[str, Any], list[str]]:
    """The tool's own arguments, and the artifact ids a call names in
    ``_inputs`` (the original series when it names none). An ``_inputs`` that
    is not a list of strings stays among the arguments, so the toolkit answers
    it with the schema_violation artifact any bad argument gets."""
    args = dict(raw_args)
    inputs = args.get("_inputs")
    if inputs is not None and not (isinstance(inputs, list) and all(isinstance(i, str) for i in inputs)):
        return args, [ORIGINAL_INPUT]
    args.pop("_inputs", None)
    return args, inputs or [ORIGINAL_INPUT]


_Step = tuple[str, ToolArtifact]


def _step_loop(
    runner: _EpisodeRunner,
    bundle: prompts.PromptBundle,
    max_steps: int,
    reject: Callable[[str], Optional[str]],
    branch: Optional[int] = None,
) -> tuple[list[_Step], Optional[dict[str, Any]], Optional[str]]:
    """The gateway -> tool -> observation loop shared by branches and
    inference. ``reject(tool)`` names the error fed back, instead of running
    the tool, for a request the caller does not accept (None: run it).

    Returns the invoked (tool, artifact) steps, the parsed final
    message (None without one), and the failure reason: ``gateway_error: ...``,
    ``step_cap``, or None once a final message arrived."""
    messages = [bundle.system, ChatMessage(role="user", content=bundle.user_text)]
    steps: list[_Step] = []
    for _step in range(max_steps):
        exchange = ChatExchange(messages=messages, declared_tools=bundle.declared_tools)
        try:
            reply = runner.complete(exchange, branch)
        except ScriptMissError:
            raise  # a stale replay script is a test-configuration error
        except GatewayError as exc:
            return steps, None, f"gateway_error: {exc}"
        if reply.tool_calls:
            call = reply.tool_calls[0]  # one tool call per gateway turn
            messages.append(
                ChatMessage(role="assistant", content=reply.content or "", tool_calls=(call,))
            )
            error = reject(call.tool)
            if error is not None:
                messages.append(
                    ChatMessage(role="tool", content=canonical_json({"error": error, "tool": call.tool}))
                )
                continue
            args, inputs = _split_call_args(call.args)
            art = runner.invoke_tool(call.tool, args, inputs, branch)
            steps.append((call.tool, art))
            messages.append(ChatMessage(role="tool", content=art.text))
            continue
        final = parse_final(reply.content)
        if final is not None:
            return steps, final, None
        messages.append(ChatMessage(role="assistant", content=reply.content or ""))
    return steps, None, "step_cap"


def _run_branch(runner: _EpisodeRunner, slot: BranchSlot) -> CandidateExecution:
    instance = runner.instance
    deps = runner.deps
    declared = [deps.toolkit.tool_schema(t) for t in sorted(slot.visible_tools) if deps.toolkit.has(t)]
    bundle = prompts.build_branch_prompt(
        instance,
        runner.fp,
        slot,
        declared,
        selection=runner.selection,
        soul=deps.store.soul_text() if deps.store else "",
    )

    def reject(tool: str) -> Optional[str]:
        if tool == SPAWN_TOOL or tool in EVALUATE_TOOLS:
            return "not_available_in_branch"
        return None if tool in slot.visible_tools else "tool_not_visible"

    steps, final, failure_reason = _step_loop(
        runner, bundle, runner.config.max_steps, reject, branch=slot.slot
    )
    final_answer = final.get("answer") if final else None
    verdict = validate_answer(final_answer, instance)
    substantive = tuple(
        tool
        for tool, _art in steps
        if (d := deps.registry.descriptor(tool)) is not None and d.substantive
    )
    return CandidateExecution(
        branch_id=f"{instance.id}#b{slot.slot}",
        slot=slot.slot,
        final_answer=final_answer,
        valid=verdict.valid,
        substantive_chain=substantive,
        prior_guided=slot.prior_guided,
        alternative=slot.alternative,
        failure_reason=failure_reason or (None if verdict.valid else verdict.reason),
    )


def _candidate_lines(candidates: Sequence[CandidateExecution]) -> str:
    lines = ["## Candidates Ready"]
    for c in candidates:
        chain = " -> ".join(c.substantive_chain) or "(no tools)"
        lines.append(f"- branch {c.branch_id}: slot = {c.slot}, valid = {c.valid}, chain = {chain}")
    lines.append("Evaluate the task-valid candidates before finishing.")
    return "\n".join(lines)


def _pick_winner(valid: Sequence[CandidateExecution]) -> Optional[CandidateExecution]:
    scored = [c for c in valid if c.quality is not None]
    pool = scored if scored else list(valid)
    if not pool:
        return None
    return min(
        pool,
        key=lambda c: (
            -(c.quality if c.quality is not None else 0.0),
            len(c.substantive_chain),
            c.slot,
        ),
    )


def run_exploration_episode(
    instance: TaskInstance,
    config: ExplorationConfig,
    deps: EpisodeDeps,
    fp: Optional[prompts.SampleFingerprint] = None,
) -> EpisodeOutcome:
    """Run one exploration episode end to end (Explore -> Compare -> hand off
    to Distill). Never raises for in-episode failures: zero completed
    branches simply becomes a failure outcome. ``fp`` is the instance's
    fingerprint when the caller profiled it already (see
    ``prompts.fingerprints``)."""
    if not instance.has_ground_truth:
        raise ContractError("exploration requires targets (ground truth) on every instance")
    runner = _EpisodeRunner(instance, deps, config, fp)
    with runner.trace:
        episode_seed = stable_seed(config.seed, instance.id)
        slots = assign_branch_slots(
            instance, config, runner.prior_exists, deps.registry, runner.selection, episode_seed
        )

        exploration_tools = [
            deps.toolkit.tool_schema(t)
            for t in deps.registry.exploration_visible()
            if deps.toolkit.has(t)
        ]
        bundle = prompts.build_exploration_prompt(
            instance,
            runner.fp,
            runner.selection,
            slots,
            exploration_tools,
            soul=deps.store.soul_text() if deps.store else "",
        )
        messages = [bundle.system, ChatMessage(role="user", content=bundle.user_text)]

        def main_exchange() -> Optional[AssistantReply]:
            exchange = ChatExchange(messages=messages, declared_tools=exploration_tools)
            try:
                return runner.complete(exchange, branch=None)
            except ScriptMissError:
                raise  # a stale replay script is a test-configuration error
            except GatewayError:
                return None

        candidates: list[CandidateExecution] = []
        reply = main_exchange()
        spawned = reply is not None and any(c.tool == SPAWN_TOOL for c in reply.tool_calls)
        if reply is not None:
            messages.append(
                ChatMessage(role="assistant", content=reply.content or "", tool_calls=reply.tool_calls)
            )
        if spawned:
            for slot in slots:
                candidates.append(_run_branch(runner, slot))

        valid = [c for c in candidates if c.valid]
        eval_reports: dict[str, Any] = {}
        eval_evidence = False
        if valid:
            messages.append(ChatMessage(role="user", content=_candidate_lines(candidates)))
            reply = main_exchange()
            if reply is not None:
                messages.append(
                    ChatMessage(role="assistant", content=reply.content or "", tool_calls=reply.tool_calls)
                )
                eval_call = next((c for c in reply.tool_calls if c.tool in EVALUATE_TOOLS), None)
                if eval_call is not None:
                    answers = {c.branch_id: c.final_answer for c in valid}
                    runner.ctx.candidates = answers
                    args = dict(eval_call.args)
                    if eval_call.tool == "evaluate_batch_against_gt":
                        args.setdefault("candidates", answers)
                    art = runner.invoke_tool(eval_call.tool, args, [ORIGINAL_INPUT], branch=None)
                    messages.append(ChatMessage(role="tool", content=art.text))
                    eval_reports = _evaluation_reports(art.payload)
                    for c in valid:
                        entry = eval_reports.get(c.branch_id)
                        if entry and "quality" in entry:
                            c.quality = float(entry["quality"])
                            eval_evidence = True

        # final learning_summary exchange
        messages.append(
            ChatMessage(
                role="user",
                content="## Comparison Result\nFinish the learning run now with a learning_summary.",
            )
        )
        reply = main_exchange()
        final = parse_final(reply.content) if reply is not None else None
        final_type = final.get("answer_type") if final else None
        summary_body = final.get("answer") if final else None
        if isinstance(summary_body, Mapping):
            summary = LearningSummaryText(
                insight=str(summary_body.get("insight", "")),
                recommendation=str(summary_body.get("recommendation", "")),
            )
        else:
            summary = LearningSummaryText(insight="", recommendation="")

        scored_valid = [c for c in valid if c.quality is not None]
        if len(scored_valid) >= 2:
            evidence_class = EvidenceClass.COMPARATIVE
        elif len(valid) >= 1:
            evidence_class = EvidenceClass.SINGLE_EXECUTION
        else:
            evidence_class = EvidenceClass.FAILURE
        winner = _pick_winner(valid)

        # the contract check reads the records the trace carries, as lint does
        records = [
            {
                "type": "candidate",
                "branch": c.branch_id,
                "slot": c.slot,
                "valid": c.valid,
                "answer": c.final_answer,
                "substantive_chain": list(c.substantive_chain),
                "prior_guided": c.prior_guided,
                "alternative": c.alternative,
                "quality": c.quality,
                "failure_reason": c.failure_reason,
            }
            for c in candidates
        ]
        for record in records:
            runner.trace.event("verdict", record, branch=record["slot"])

        # the renderings of the truth and the answers that cleaning redacts
        # from the summary text, built only when there is text to clean
        sensitive: list[str] = []
        if summary.insight or summary.recommendation:
            truth = instance.answer_key(runner.ctx.capability)
            sensitive = [canonical_json(truth), json_dumps(truth), *(canonical_json(c.final_answer) for c in valid)]
        outcome = EpisodeOutcome(
            instance_id=instance.id,
            candidates=candidates,
            winner=winner.branch_id if winner is not None and evidence_class != EvidenceClass.FAILURE else None,
            evidence_class=evidence_class,
            learning_summary=summary,
            trace_path=str(runner.trace.path) if runner.trace.path else None,
            eval_evidence=eval_evidence,
            eval_reports=eval_reports,
            sensitive=tuple(dict.fromkeys(sensitive)),
            tokens_used=runner.tokens_used,
            gateway_calls=runner.gateway_calls,
        )

        verdict = _contract_check(records, set(eval_reports), final_type, runner.prior_exists)
        runner.trace.event("verdict", {"type": "contract", **asdict(verdict)})
        runner.trace.event(
            "outcome",
            {
                "winner": outcome.winner,
                "evidence_class": outcome.evidence_class.value,
                "eval_evidence": eval_evidence,
                "final_type": final_type,
                "tokens_used": runner.tokens_used,
            },
        )

    deps.registry.record_usage(instance.scope, runner.substantive_used)
    if deps.store is not None:
        deps.store.record_episode(outcome, instance, runner.fp)
    return outcome


# ---------------------------------------------------------------------------
# exploration contract
# ---------------------------------------------------------------------------


def _evaluation_reports(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The reports, by branch id, that an evaluate tool's artifact payload
    holds: its ``reports``, or one report when a ``branch_id`` sits beside a
    ``quality``. An error artifact holds none. The runtime and lint both read
    the evaluated branches from here, so they judge an episode alike."""
    reports = payload.get("reports")
    if isinstance(reports, Mapping):
        return dict(reports)
    if isinstance(payload.get("branch_id"), str) and "quality" in payload:
        return {payload["branch_id"]: {k: payload[k] for k in ("report", "quality") if k in payload}}
    return {}


def _answers_distinct(a: Any, b: Any) -> bool:
    if type(a) is not type(b):
        return True
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return True
        return any(abs(float(x) - float(y)) > ANSWER_TOLERANCE for x, y in zip(a, b))
    if isinstance(a, Mapping):
        if set(a) != set(b):
            return True
        return any(abs(float(a[k]) - float(b[k])) > ANSWER_TOLERANCE for k in a)
    return a != b


def _distinct_pair_exists(candidates: Sequence[Mapping[str, Any]]) -> bool:
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            if tuple(a["substantive_chain"]) != tuple(b["substantive_chain"]):
                return True
            if _answers_distinct(a["answer"], b["answer"]):
                return True
    return False


def _contract_check(
    candidate_records: Sequence[Mapping[str, Any]],
    evaluated_branches: set[str],
    final_type: Optional[str],
    prior_exists: bool,
) -> ContractVerdict:
    violations: list[str] = []
    valid = [c for c in candidate_records if c["valid"]]
    if len(valid) < MIN_VALID_CANDIDATES:
        violations.append("too_few_valid")
    if len(valid) >= 2 and len(evaluated_branches & {c["branch"] for c in valid}) < 2:
        violations.append("no_comparison")
    if final_type != prompts.LEARNING_SUMMARY_TYPE:
        violations.append("wrong_final_type")
    if len(valid) >= 2 and not _distinct_pair_exists(valid):
        violations.append("no_distinct_pair")
    if prior_exists and candidate_records:
        has_prior = any(c["prior_guided"] for c in candidate_records)
        has_alt = any(c["alternative"] for c in candidate_records)
        if not (has_prior and has_alt):
            violations.append("missing_prior_or_alternative")
    return ContractVerdict(satisfied=not violations, violations=tuple(violations))


def enforce_exploration_contract(
    header: Mapping[str, Any], events: Sequence[Mapping[str, Any]]
) -> ContractVerdict:
    """Pure contract check over one finalized trace block."""
    candidate_records = [
        e["payload"]
        for e in events
        if e["kind"] == "verdict" and e["payload"]["type"] == "candidate"
    ]
    evaluate_calls = {
        e["payload"]["call_id"]
        for e in events
        if e["kind"] == "tool_call" and e["payload"]["tool"] in EVALUATE_TOOLS
    }
    evaluated: set[str] = set()
    for e in events:
        if e["kind"] == "tool_result" and e["payload"]["call_id"] in evaluate_calls:
            evaluated.update(_evaluation_reports(e["payload"]["artifact"].get("payload", {})))
    final_type: Optional[str] = None
    for e in events:
        if e["kind"] == "gateway_response":
            final = parse_final(e["payload"]["reply"].get("content"))
            if final is not None:
                final_type = final.get("answer_type")
    return _contract_check(candidate_records, evaluated, final_type, bool(header.get("prior_exists")))


# ---------------------------------------------------------------------------
# inference (experience reuse, no learning)
# ---------------------------------------------------------------------------


@dataclass
class InferenceResult:
    instance_id: str
    prediction: Any
    tool_chain: tuple[str, ...]
    execution_context: str
    degraded: bool
    trace_path: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.instance_id,
            "prediction": self.prediction,
            "tool_chain": list(self.tool_chain),
            "execution_context": self.execution_context,
            "degraded": self.degraded,
        }


def _fallback_answer(instance: TaskInstance) -> Any:
    if instance.task_type == TaskType.FORECAST:
        return [float(instance.series[-1])] * instance.horizon
    if instance.task_type == TaskType.INDICATOR:
        last = float(instance.series[-1])
        return {"max": last, "min": last, "diff": 0.0}
    return sorted(instance.label_space or ())[0]


def _context_line(step: int, tool: str, artifact: ToolArtifact) -> str:
    payload = artifact.payload
    if artifact.kind == ArtifactKind.SERIES:
        values = payload.get("values", [])
        head = ", ".join(repr(float(v)) for v in values[:3])
        return f"{step}. {tool}: produced a {len(values)}-step series starting [{head}, ...]."
    if "error" in payload:
        return f"{step}. {tool}: failed ({payload.get('error')})."
    compact = canonical_json(payload)
    if len(compact) > 160:
        compact = compact[:160] + "..."
    return f"{step}. {tool}: {compact}"


def run_inference(
    instance: TaskInstance,
    deps: EpisodeDeps,
    max_steps: int = 6,
    fp: Optional[prompts.SampleFingerprint] = None,
) -> InferenceResult:
    """Solve one instance with reinjected experience and task-facing tools
    only. No store writes, no ledger writes, no ground-truth access. ``fp``
    as for run_exploration_episode."""
    view = replace(instance, ground_truth=None)
    runner = _EpisodeRunner(view, deps, fp=fp)
    with runner.trace:
        visible, declared = deps.inference_tools
        bundle = prompts.build_inference_prompt(
            view,
            runner.fp,
            runner.selection,
            declared,
            soul=deps.store.soul_text() if deps.store else "",
        )

        def reject(tool: str) -> Optional[str]:
            # undeclared (or exploration-only) tool: feedback, no tool event
            return None if tool in visible else "tool_not_available"

        steps, final, _failure = _step_loop(runner, bundle, max_steps, reject)
        tool_chain = [tool for tool, _art in steps]
        context_lines = [_context_line(i, tool, art) for i, (tool, art) in enumerate(steps, 1)]
        final_answer = final.get("answer") if final else None
        if final and final.get("reasoning"):
            context_lines.append(f"{len(context_lines) + 1}. final: {final['reasoning']}")
        degraded = not validate_answer(final_answer, view).valid
        if degraded:
            final_answer = _fallback_answer(view)
            context_lines.append(
                f"{len(context_lines) + 1}. fallback: degraded default answer used."
            )
        runner.trace.event(
            "outcome",
            {"prediction_valid": not degraded, "degraded": degraded, "tool_chain": tool_chain},
        )
    return InferenceResult(
        instance_id=view.id,
        prediction=final_answer,
        tool_chain=tuple(tool_chain),
        execution_context="\n".join(context_lines),
        degraded=degraded,
        trace_path=str(runner.trace.path) if runner.trace.path else None,
    )
