"""The episode engine: exploration with branching, comparison, and
fallbacks, plus inference-time reuse with exploration tools removed.

Exploration flow per instance:

    1. retrieve prior experience, and assign each branch slot its goal, hint
       and visible tool subset (task-aware dropout)
    2. each branch runs the step loop until it finishes with a task-typed
       answer or hits the step cap; the branches are the episode's only
       gateway exchanges
    3. the engine evaluates every valid candidate's own answer against
       ground truth, as one evaluate tool call traced on the main branch,
       and ``compare`` scores them and decides the evidence class and the
       winner: the metric decides Compare, not the model
    4. the episode ends there: the outcome and the tools it used are handed
       to the experience pipeline

Branches and inference share one step loop, ``_step_loop``: gateway call ->
each tool call the reply carries, invoked in order -> one observation per
call, over the per-run state of an ``_EpisodeRunner`` (trace, artifacts,
invocation context, call ids, gateway totals), until a final message, or a
reply whose final answers from the artifact of one of its calls
(``answer_from``, see ``_resolve_answer``). The two modes differ only in
which tool requests they reject (a branch refuses the evaluate tool and
tools outside its slot's subset; inference refuses anything outside the
inference-visible set) and in what they record from the loop's steps
(branch candidates vs. an inference tool chain and context).

Each episode appends one block to its scope's trace log: a header line, then
one event per line, so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import json
import re
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
    TaskInstance,
    TaskType,
    compare,
    validate_answer,
)
from .errors import ContractError, GatewayError, ScriptMissError
from .gateway import (
    AssistantReply,
    ChatExchange,
    ChatMessage,
    DeclaredTools,
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
    AppendLog,
    TornRecord,
    canonical_json,
    digest_obj,
    iter_records,
    records_end,
    splice_json,
    stable_seed,
)

# An exploration episode must yield at least this many valid candidates.
MIN_VALID_CANDIDATES = 2
EVALUATE_TOOL = "evaluate_batch_against_gt"
ANSWER_TOLERANCE = 1e-9

# Each trace event kind, with the payload fields its readers index and their
# types. A verdict also holds the fields of its type, and a block's header
# those of TRACE_HEADER: the header names its sample by ``TaskInstance.digest``.
TRACE_KINDS: dict[str, dict[str, type]] = {
    "gateway_request": {"digest": str},
    "gateway_response": {"reply": dict},
    "tool_call": {"call_id": str, "tool": str, "args": dict, "inputs": list},
    "tool_result": {"call_id": str, "artifact": dict},
    "verdict": {"type": str},
    "outcome": {},
}
VERDICT_FIELDS: dict[str, dict[str, type]] = {
    "candidate": {"branch": str, "valid": bool, "substantive_chain": list, "prior_guided": bool,
                  "alternative": bool},
    "contract": {"satisfied": bool, "violations": list},
}
TRACE_HEADER: dict[str, type] = {"version": str, "mode": str, "episode": str, "sample": str}
# What follows the branch in an event line of each kind: the line is
# canonical_json({"branch", "kind", "payload"}), and those keys sort in that order.
_EVENT_KIND = {kind: f',"kind":{canonical_json(kind)},"payload":' for kind in TRACE_KINDS}
# the start of an outcome event's line, the last line of a block as written;
# a tool's arguments may spell the same keys, but never at a line's start
_OUTCOME_LINE = re.compile(rb'\{"branch":(?:null|-?[0-9]+)' + re.escape(_EVENT_KIND["outcome"].encode()))


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
        return self._digest

    @cached_property
    def _digest(self) -> str:
        """:meth:`digest`, once per config: every episode's header carries it."""
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
    """What the episodes of one run share. The toolkit is the run's one tool
    catalog, and dropout runs over it. It does not change while a run goes,
    so each distinct tool list its prompts declare is built once per run:
    one per distinct set of tools a branch sees, and the inference list.
    Threads that race to build a list build equal ones.
    Every episode appends its trace to the run's logs under ``trace_dir``.
    The store, when there is one, holds the usage counts that dropout reads;
    a run without a store counts nothing."""

    toolkit: Toolkit
    gateway: Gateway
    trace_dir: Path
    store: Optional[ExperienceStore] = None
    traces: TraceLog = field(init=False, repr=False)  # the logs under trace_dir
    _branch_tools: dict[frozenset[str], DeclaredTools] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.traces = TraceLog(self.trace_dir)

    def close(self) -> None:
        """Release the descriptors of the run's logs: traces and store."""
        self.traces.close()
        if self.store is not None:
            self.store.close()

    def _declared(self, tools: Sequence[str]) -> DeclaredTools:
        return DeclaredTools([self.toolkit.tool_schema(t) for t in tools])

    def branch_tools(self, visible: frozenset[str]) -> DeclaredTools:
        """The tools a branch whose slot sees ``visible`` declares, by name."""
        declared = self._branch_tools.get(visible)
        if declared is None:
            declared = self._branch_tools.setdefault(visible, self._declared(sorted(visible)))
        return declared

    @cached_property
    def inference_tools(self) -> tuple[frozenset[str], DeclaredTools]:
        """The tools inference exposes, and the list it declares."""
        visible = self.toolkit.inference_visible()
        return frozenset(visible), self._declared(visible)


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
    episode, each appended whole under one lock. A scope's log is set up when
    the run's first episode of that scope starts, past its last whole block
    or, when ``fresh``, at its start, so that its first append cuts off what
    follows: inference starts its logs afresh, exploration adds to its
    store's. The last whole block's end is found from the log's tail, at its
    last whole ``outcome`` line (``_OUTCOME_LINE``); the blocks before it are
    not decoded. :meth:`close` releases the logs' descriptors."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._logs: dict[str, AppendLog] = {}  # by scope
        self._lock = threading.Lock()

    def log(self, scope: str, fresh: bool) -> AppendLog:
        with self._lock:
            log = self._logs.get(scope)
            if log is None:
                path = self.directory / f"{scope}.jsonl"
                end = 0 if fresh else records_end(path, _parse_block, _OUTCOME_LINE)
                log = self._logs[scope] = AppendLog(path, end)
            return log

    def append(self, log: AppendLog, block: str) -> None:
        with self._lock:
            log.append(block.encode())

    def close(self) -> None:
        with self._lock:
            for log in self._logs.values():
                log.close()


class TraceWriter:
    """One episode's block of a trace log: the header line, then one
    ``{"branch", "kind", "payload"}`` line per event, the ``outcome`` event
    last. The header names the episode; event order is line order. The block
    is appended whole once the ``with`` body ends without raising, so a log
    never holds half an episode."""

    def __init__(self, traces: TraceLog, scope: str, header: Mapping[str, Any]):
        self.traces = traces
        self.log = traces.log(scope, fresh=header["mode"] == "inference")
        self.path = self.log.path
        self._lines = [canonical_json(header)]

    def event(self, kind: str, payload: Mapping[str, Any] | str, branch: Optional[int] = None) -> None:
        """Add one event line; ``payload`` is the event's payload object or
        its canonical JSON text, which is spliced into the line as it is."""
        tail = _EVENT_KIND.get(kind)
        if tail is None:
            raise ContractError(f"unknown trace event kind {kind}")
        if not isinstance(payload, str):
            payload = canonical_json(payload)
        self._lines.append(f'{{"branch":{"null" if branch is None else canonical_json(branch)}{tail}{payload}}}')

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: Any, *_exc: Any) -> None:
        if exc_type is None:
            self.traces.append(self.log, "\n".join(self._lines) + "\n")


@dataclass(frozen=True)
class TraceBlock:
    header: dict[str, Any]
    events: list[dict[str, Any]]


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
    for n, event in enumerate(events, start=1):
        branch = event.get("branch")
        if branch is not None and type(branch) is not int:
            raise ContractError(f"event {n}'s branch is neither null nor an integer")
        payload = event.get("payload")
        _require(payload, TRACE_KINDS[event["kind"]], f"event {n}'s payload")
        if event["kind"] == "verdict":
            _require(payload, VERDICT_FIELDS.get(payload["type"], {}), f"event {n}'s payload")
    return TraceBlock(header, events)


def read_trace(path: Path) -> Iterator[TraceBlock]:
    """Each whole block of a trace log, in log order, read as it is needed; a
    torn last block is dropped with a warning. Raises LogError for a block
    that does not frame, and ContractError when the log holds no whole block,
    or an event's branch is neither null nor an integer, or a field
    ``TRACE_HEADER``, ``TRACE_KINDS`` or ``VERDICT_FIELDS`` names is missing
    or of another type."""
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
    instance: TaskInstance, registry: ToolRegistry, counts: Mapping[str, int], visible: Sequence[str]
) -> list[str]:
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
    counts: Mapping[str, int],
    selection: Optional[Selection],
    episode_seed: int,
) -> list[BranchSlot]:
    """Per-slot goals and tool hints drawn from slot-local visible subsets,
    dropout and hint ranking both reading the scope's usage ``counts``.

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
            counts, instance.scope, s, episode_seed, config.alpha, extra_protected=extra
        )
        prior_guided = s == 0 and prior_tool is not None
        alternative = s == 1 and prior_tool is not None
        if prior_guided:
            hint = prior_tool
        else:
            ranked = [t for t in _rank_hints(instance, registry, counts, sorted(visible)) if t not in used_hints]
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
            "sample": instance.digest,
        }
        if config is None:
            self.ctx = InvocationContext(mode="inference", instance=instance)
        else:
            self.ctx = InvocationContext(mode="exploration", instance=instance, capability=EvaluatorCapability())
            header.update(
                config_digest=config.digest(),
                mode="exploration",
                seed=config.seed,
                prior_exists=self.prior_exists,
            )
        self.trace = TraceWriter(deps.traces, instance.scope, header)

    def complete(self, exchange: ChatExchange, branch: Optional[int]) -> AssistantReply:
        request: dict[str, Any] = {"digest": exchange_digest(exchange)}
        # a request lists its tools only when they differ from the previous
        # request's on the same branch (None: inference)
        tools = exchange.declared_tools.names
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

    def invoke_tool(self, tool: str, args: Mapping[str, Any], inputs: Sequence[str], branch: Optional[int]) -> ToolArtifact:
        """Run one tool call and trace it."""
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
        descriptor = self.deps.toolkit.descriptor(tool)
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
# The payload field an ``answer_from`` answer is read from, by the kind of the
# artifact it names: a forecast tool's series or ``detect_trend``'s label.
_ANSWER_FIELDS = {ArtifactKind.SERIES.value: "values", ArtifactKind.LABEL.value: "label"}


def _resolve_answer(
    final: Optional[Mapping[str, Any]],
    ran: Sequence[tuple[str, Mapping[str, Any]]] = (),
    task_type: Optional[TaskType] = None,
) -> tuple[Any, Optional[str]]:
    """The answer a final message gives, and the failure reason of its own
    when it gives none. A plain final gives its ``answer``. One that carries
    ``answer_from`` gives the ``values`` of the series, or the ``label`` of
    the label, that the named call's artifact (a ``ToolArtifact.to_dict()``)
    holds, among ``ran``, the (tool, artifact) of each call its reply ran. It
    fails with ``answer_from_other_tool`` when its reply ran no such call,
    with ``answer_from_ambiguous`` when it ran more than one, and with
    ``answer_from_indicator`` on an indicator task, whose answer is derived
    from a series, not read from one. Lint passes no ``task_type``: it reads
    only valid candidates' answers."""
    if final is None:
        return None, None
    if "answer_from" not in final:
        return final.get("answer"), None
    artifacts = [artifact for tool, artifact in ran if tool == final["answer_from"]]
    if len(artifacts) != 1:
        return None, "answer_from_ambiguous" if artifacts else "answer_from_other_tool"
    if task_type == TaskType.INDICATOR:
        return None, "answer_from_indicator"
    [artifact] = artifacts
    payload, field_name = artifact.get("payload"), _ANSWER_FIELDS.get(artifact.get("kind"))
    answer = payload.get(field_name) if field_name and isinstance(payload, Mapping) else None
    return (list(answer) if isinstance(answer, list) else answer), None  # not the artifact's own list


def _step_loop(
    runner: _EpisodeRunner,
    bundle: prompts.PromptBundle,
    max_steps: int,
    reject: Callable[[str], Optional[str]],
    branch: Optional[int] = None,
) -> tuple[list[_Step], Optional[dict[str, Any]], Any, Optional[str]]:
    """The gateway -> tool -> observation loop shared by branches and
    inference. Each tool call a reply carries runs in order, and each gets
    one tool message: its artifact, or, for a request the caller does not
    accept, the error ``reject(tool)`` names (None: run it). A reply that
    also carries an ``answer_from`` final ends the loop unless a call it
    answers from was rejected or gave an error artifact: a call of the tool
    it names, or, when the reply called no such tool, any of its calls. Then
    every tool message is fed back.

    Returns the invoked (tool, artifact) steps, the parsed final message
    (None without one), its answer (see ``_resolve_answer``), and the failure
    reason: ``gateway_error: ...``, ``step_cap``, ``_resolve_answer``'s, or
    None."""
    messages = [bundle.system, ChatMessage(role="user", content=bundle.user_text)]
    steps: list[_Step] = []
    task_type = runner.instance.task_type
    for _step in range(max_steps):
        exchange = ChatExchange(messages=messages, declared_tools=bundle.declared_tools)
        try:
            reply = runner.complete(exchange, branch)
        except ScriptMissError:
            raise  # a stale replay script is a test-configuration error
        except GatewayError as exc:
            return steps, None, None, f"gateway_error: {exc}"
        final = parse_final(reply.content)
        if reply.tool_calls:
            messages.append(ChatMessage(role="assistant", content=reply.content or "", tool_calls=reply.tool_calls))
            first, failed = len(steps), set()  # the tools of the calls that cannot answer
            for call in reply.tool_calls:
                error = reject(call.tool)
                if error is not None:
                    content = canonical_json({"error": error, "tool": call.tool})
                else:
                    args, inputs = _split_call_args(call.args)
                    art = runner.invoke_tool(call.tool, args, inputs, branch)
                    steps.append((call.tool, art))
                    content = art.text
                if error is not None or art.is_error:
                    failed.add(call.tool)
                messages.append(ChatMessage(role="tool", content=content, tool_call_id=call.id))
            if final is not None and "answer_from" in final:
                called = {call.tool for call in reply.tool_calls}
                answers_from = {final["answer_from"]} if final["answer_from"] in called else called
                if not failed & answers_from:
                    ran = [(tool, art.to_dict()) for tool, art in steps[first:]]
                    return steps, final, *_resolve_answer(final, ran, task_type)
            continue
        if final is not None:
            return steps, final, *_resolve_answer(final, task_type=task_type)
        messages.append(ChatMessage(role="assistant", content=reply.content or ""))
    return steps, None, None, "step_cap"


def _run_branch(runner: _EpisodeRunner, slot: BranchSlot, bundle: prompts.PromptBundle) -> CandidateExecution:
    instance = runner.instance
    deps = runner.deps

    def reject(tool: str) -> Optional[str]:
        if tool == EVALUATE_TOOL:
            return "not_available_in_branch"
        return None if tool in slot.visible_tools else "tool_not_visible"

    steps, _final, final_answer, failure_reason = _step_loop(
        runner, bundle, runner.config.max_steps, reject, branch=slot.slot
    )
    verdict = validate_answer(final_answer, instance)
    substantive = tuple(
        tool
        for tool, _art in steps
        if (d := deps.toolkit.descriptor(tool)) is not None and d.substantive
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


def run_exploration_episode(
    instance: TaskInstance,
    config: ExplorationConfig,
    deps: EpisodeDeps,
    fp: Optional[prompts.SampleFingerprint] = None,
) -> EpisodeOutcome:
    """Run one exploration episode end to end (Explore -> Compare -> hand off
    to Distill): its branches, then the engine's evaluation. Never raises for
    in-episode failures: zero completed branches simply becomes a failure
    outcome. ``fp`` is the instance's fingerprint when the caller profiled it
    already (see ``prompts.fingerprints``)."""
    if not instance.has_ground_truth:
        raise ContractError("exploration requires targets (ground truth) on every instance")
    runner = _EpisodeRunner(instance, deps, config, fp)
    with runner.trace:
        episode_seed = stable_seed(config.seed, instance.id)
        counts = deps.store.ledger.counts(instance.scope) if deps.store is not None else {}
        slots = assign_branch_slots(
            instance, config, runner.prior_exists, deps.toolkit, counts, runner.selection, episode_seed
        )
        bundles = prompts.build_exploration_prompt(
            instance,
            runner.fp,
            runner.selection,
            slots,
            [deps.branch_tools(slot.visible_tools) for slot in slots],
            soul=deps.store.soul_text() if deps.store else "",
        )
        candidates = [_run_branch(runner, slot, bundle) for slot, bundle in zip(slots, bundles)]

        # Compare is metric-supervised: the engine scores each valid
        # candidate's own answer, and no model reply chooses what is scored
        valid = [c for c in candidates if c.valid]
        answers = {c.branch_id: c.final_answer for c in valid}
        eval_reports: dict[str, Any] = {}
        if valid:
            runner.ctx.candidates = answers
            art = runner.invoke_tool(EVALUATE_TOOL, {}, [ORIGINAL_INPUT], branch=None)
            eval_reports = _evaluation_reports(art.payload)
        evidence_class, winner, eval_evidence = compare(valid, eval_reports)

        # the contract check reads the records the trace carries, as lint
        # does, and the answers held in memory, which lint reads from each
        # branch's final message (see candidate_answers)
        records = [
            {
                "type": "candidate",
                "branch": c.branch_id,
                "slot": c.slot,
                "valid": c.valid,
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

        outcome = EpisodeOutcome(
            instance_id=instance.id,
            candidates=candidates,
            winner=winner,
            evidence_class=evidence_class,
            trace_path=str(runner.trace.path),
            eval_evidence=eval_evidence,
            eval_reports=eval_reports,
            tokens_used=runner.tokens_used,
            gateway_calls=runner.gateway_calls,
        )

        verdict = _contract_check(records, answers, set(eval_reports), runner.prior_exists)
        runner.trace.event("verdict", {"type": "contract", **asdict(verdict)})
        runner.trace.event(
            "outcome",
            {
                "winner": outcome.winner,
                "evidence_class": outcome.evidence_class.value,
                "eval_evidence": eval_evidence,
                "tokens_used": runner.tokens_used,
            },
        )

    if deps.store is not None:
        deps.store.record_episode(outcome, instance, runner.fp, runner.substantive_used)
    return outcome


# ---------------------------------------------------------------------------
# exploration contract
# ---------------------------------------------------------------------------


def _evaluation_reports(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The reports, by branch id, that the evaluate tool's artifact payload
    holds as its ``reports``. An error artifact holds none. The runtime and
    lint both read the evaluated branches from here, so they judge an
    episode alike."""
    reports = payload.get("reports")
    return dict(reports) if isinstance(reports, Mapping) else {}


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


def _distinct_pair_exists(candidates: Sequence[Mapping[str, Any]], answers: Mapping[str, Any]) -> bool:
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            if tuple(a["substantive_chain"]) != tuple(b["substantive_chain"]):
                return True
            if _answers_distinct(answers.get(a["branch"]), answers.get(b["branch"])):
                return True
    return False


def _contract_check(
    candidate_records: Sequence[Mapping[str, Any]],
    answers: Mapping[str, Any],
    evaluated_branches: set[str],
    prior_exists: bool,
) -> ContractVerdict:
    """The contract verdict over the candidate verdict records and the valid
    candidates' answers by branch id."""
    violations: list[str] = []
    valid = [c for c in candidate_records if c["valid"]]
    if len(valid) < MIN_VALID_CANDIDATES:
        violations.append("too_few_valid")
    if len(valid) >= 2 and len(evaluated_branches & {c["branch"] for c in valid}) < 2:
        violations.append("no_comparison")
    if len(valid) >= 2 and not _distinct_pair_exists(valid, answers):
        violations.append("no_distinct_pair")
    if prior_exists and candidate_records:
        has_prior = any(c["prior_guided"] for c in candidate_records)
        has_alt = any(c["alternative"] for c in candidate_records)
        if not (has_prior and has_alt):
            violations.append("missing_prior_or_alternative")
    return ContractVerdict(satisfied=not violations, violations=tuple(violations))


def _candidate_verdicts(events: Sequence[Mapping[str, Any]]) -> list[Mapping[str, Any]]:
    return [e for e in events if e["kind"] == "verdict" and e["payload"]["type"] == "candidate"]


def candidate_answers(
    episode: str, events: Sequence[Mapping[str, Any]], produced: Mapping[str, Mapping[str, Any]] = {}
) -> dict[str, Any]:
    """The valid candidates' answers of one trace block, by branch id
    ``<episode>#b<slot>``, as the orchestrator held them: each is the answer
    (``_resolve_answer``) of its branch's last ``gateway_response``, the one
    message ``_step_loop`` accepted as final (None when that message is not
    one). An ``answer_from`` reads the artifact of the named call among the
    branch's calls that follow that response, matched by call id and tool:
    the artifact ``produced`` holds by call id (replay's, re-executed), else
    the recorded ``tool_result``. Lint and replay both read the answers from
    here."""
    ends: dict[int, tuple[Any, list[Any]]] = {}  # branch -> (final, the (tool, artifact) of each call that ran)
    tools: dict[str, str] = {}  # call id -> tool
    for e in events:
        branch, payload = e.get("branch"), e["payload"]
        if branch is None:
            continue
        if e["kind"] == "gateway_response":
            reply = payload["reply"]
            calls, final = reply.get("tool_calls"), parse_final(reply.get("content"))
            if calls and final is not None and "answer_from" not in final:
                final = None  # a call's plain answer is not final: the loop ran the call
            ends[branch] = (final, [])
        elif e["kind"] == "tool_call":
            tools[payload["call_id"]] = payload["tool"]
        elif e["kind"] == "tool_result" and branch in ends:
            call_id = payload["call_id"]
            ends[branch][1].append((tools.get(call_id), produced.get(call_id, payload["artifact"])))
    return {
        f"{episode}#b{branch}": _resolve_answer(*ends[branch])[0] if branch in ends else None
        for branch in (e.get("branch") for e in _candidate_verdicts(events) if e["payload"]["valid"])
    }


def enforce_exploration_contract(
    header: Mapping[str, Any], events: Sequence[Mapping[str, Any]]
) -> ContractVerdict:
    """Pure contract check over one finalized trace block."""
    candidate_records = [e["payload"] for e in _candidate_verdicts(events)]
    evaluate_calls = {
        e["payload"]["call_id"]
        for e in events
        if e["kind"] == "tool_call" and e["payload"]["tool"] == EVALUATE_TOOL
    }
    evaluated: set[str] = set()
    for e in events:
        if e["kind"] == "tool_result" and e["payload"]["call_id"] in evaluate_calls:
            evaluated.update(_evaluation_reports(e["payload"]["artifact"].get("payload", {})))
    answers = candidate_answers(header["episode"], events)
    return _contract_check(candidate_records, answers, evaluated, bool(header.get("prior_exists")))


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
    trace_path: str
    tokens_used: int
    gateway_calls: int

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
    only. No store writes, no usage counts, no ground-truth access. ``fp``
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

        steps, final, final_answer, _failure = _step_loop(runner, bundle, max_steps, reject)
        tool_chain = [tool for tool, _art in steps]
        context_lines = [_context_line(i, tool, art) for i, (tool, art) in enumerate(steps, 1)]
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
        trace_path=str(runner.trace.path),
        tokens_used=runner.tokens_used,
        gateway_calls=runner.gateway_calls,
    )
