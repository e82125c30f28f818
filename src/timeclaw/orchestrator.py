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

Traces are JSONL, header in line 1, then one event per line with a logical
timestamp so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from . import __version__, prompts
from .core import (
    CandidateExecution,
    EpisodeOutcome,
    EvaluatorCapability,
    EvidenceClass,
    LearningSummaryText,
    TaskInstance,
    TaskType,
    ToolCallRecord,
    validate_answer,
)
from .errors import ContractError, GatewayError, ScriptMissError
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
    ArtifactStore,
    InvocationContext,
    Toolkit,
    ToolInvocation,
)
from .util import canonical_json, digest_obj, stable_seed

EVALUATE_TOOLS = ("evaluate_against_gt", "evaluate_batch_against_gt")
SPAWN_TOOL = "spawn_subagent"
ANSWER_TOLERANCE = 1e-9

TRACE_KINDS = ("gateway_request", "gateway_response", "tool_call", "tool_result", "verdict", "outcome")


@dataclass(frozen=True)
class ExplorationConfig:
    branch_slots: int = 2
    min_valid_candidates: int = 2
    max_steps: int = 6
    alpha: float = 1.0
    seed: int = 0
    require_prior_and_alternative: bool = True
    token_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.branch_slots < self.min_valid_candidates:
            raise ContractError("branch_slots must cover min_valid_candidates")
        if self.max_steps < 1:
            raise ContractError("max_steps must be >= 1")

    def digest(self) -> str:
        return digest_obj(
            {
                "branch_slots": self.branch_slots,
                "min_valid_candidates": self.min_valid_candidates,
                "max_steps": self.max_steps,
                "alpha": self.alpha,
                "seed": self.seed,
                "require_prior_and_alternative": self.require_prior_and_alternative,
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

    def to_dict(self) -> dict[str, Any]:
        return {"satisfied": self.satisfied, "violations": list(self.violations)}


class TraceWriter:
    """JSONL trace with a header line and logical timestamps."""

    def __init__(self, path: Optional[Path], header: Mapping[str, Any]):
        self.path = Path(path) if path is not None else None
        self.header = dict(header)
        self._ts = 0
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")
            self._fh.write(canonical_json(self.header) + "\n")

    def event(self, kind: str, payload: Mapping[str, Any], branch: Optional[int] = None) -> None:
        if kind not in TRACE_KINDS:
            raise ContractError(f"unknown trace event kind {kind}")
        self._ts += 1
        entry = {
            "ts": self._ts,
            "episode": self.header.get("episode"),
            "branch": branch,
            "kind": kind,
            "payload": dict(payload),
        }
        if self._fh is not None:
            self._fh.write(canonical_json(entry) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_trace(path: Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ContractError(f"trace {path} is empty")
    header = json.loads(lines[0])
    events = [json.loads(line) for line in lines[1:] if line.strip()]
    return header, events


def parse_final(content: Optional[str]) -> Optional[dict[str, Any]]:
    """A final message is a JSON object carrying answer_type."""
    if not content:
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
    if prior_exists and selection is not None and config.require_prior_and_alternative:
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


def _tool_message(artifact: Mapping[str, Any]) -> ChatMessage:
    body = {
        "artifact_id": artifact["artifact_id"],
        "kind": artifact["kind"],
        "payload": artifact["payload"],
    }
    return ChatMessage(role="tool", content=canonical_json(body))


class _EpisodeRunner:
    """Per-run state of one exploration episode (``config`` given) or one
    inference sample (``config`` None): sample profile and retrieval, trace,
    artifacts, invocation context, call ids, and gateway totals."""

    def __init__(
        self,
        instance: TaskInstance,
        deps: EpisodeDeps,
        config: Optional[ExplorationConfig] = None,
    ):
        self.instance = instance
        self.config = config
        self.deps = deps
        self.artifacts = ArtifactStore(instance)
        self.call_counter = 0
        self.tokens_used = 0
        self.gateway_calls = 0
        self.substantive_used: list[str] = []
        trace_path = None
        if deps.trace_dir is not None:
            trace_path = Path(deps.trace_dir) / f"{_safe_name(instance.id)}.jsonl"
        self.fp = prompts.fingerprint(instance)
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
                require_prior_and_alternative=config.require_prior_and_alternative,
                ground_truth=instance.answer_key(capability),
            )
        self.trace = TraceWriter(trace_path, header)

    def complete(self, exchange: ChatExchange, branch: Optional[int]) -> AssistantReply:
        self.trace.event(
            "gateway_request",
            {"digest": exchange_digest(exchange), "tools": exchange.declared_tool_names()},
            branch=branch,
        )
        reply = self.deps.gateway.complete(exchange)
        self.gateway_calls += 1
        self.tokens_used += sum(reply.usage.values())
        self.trace.event(
            "gateway_response",
            {"reply": reply.to_dict(), "usage": reply.usage},
            branch=branch,
        )
        budget = self.config.token_budget if self.config is not None else None
        if budget is not None and self.tokens_used > budget:
            raise GatewayError("episode token budget exhausted")
        return reply

    def invoke_tool(
        self,
        tool: str,
        args: Mapping[str, Any],
        inputs: Sequence[str],
        branch: Optional[int],
    ) -> dict[str, Any]:
        self.call_counter += 1
        call_id = f"c{self.call_counter:03d}"
        self.trace.event(
            "tool_call",
            {"call_id": call_id, "tool": tool, "args": dict(args), "inputs": list(inputs)},
            branch=branch,
        )
        artifact = self.deps.toolkit.invoke(
            ToolInvocation(tool_id=tool, args=dict(args), inputs=tuple(inputs)),
            self.artifacts,
            self.ctx,
        )
        art_dict = artifact.to_dict()
        self.trace.event("tool_result", {"call_id": call_id, "artifact": art_dict}, branch=branch)
        descriptor = self.deps.registry.descriptor(tool)
        if descriptor is not None and descriptor.substantive and not artifact.is_error:
            self.substantive_used.append(tool)
        return art_dict


def _safe_name(instance_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in instance_id)


def _split_call_args(raw_args: Mapping[str, Any]) -> tuple[dict[str, Any], list[str]]:
    args = dict(raw_args)
    inputs = args.pop("_inputs", None) or [ORIGINAL_INPUT]
    return args, list(inputs)


_Step = tuple[str, dict[str, Any], dict[str, Any]]  # tool, args, artifact


def _step_loop(
    runner: _EpisodeRunner,
    bundle: prompts.PromptBundle,
    declared: list[dict[str, Any]],
    max_steps: int,
    reject: Callable[[str], Optional[str]],
    branch: Optional[int] = None,
) -> tuple[list[_Step], Optional[dict[str, Any]], Optional[str]]:
    """The gateway -> tool -> observation loop shared by branches and
    inference. ``reject(tool)`` names the error fed back, instead of running
    the tool, for a request the caller does not accept (None: run it).

    Returns the invoked (tool, args, artifact) steps, the parsed final
    message (None without one), and the failure reason: ``gateway_error: ...``,
    ``step_cap``, or None once a final message arrived."""
    messages = [
        ChatMessage(role="system", content=bundle.system_text),
        ChatMessage(role="user", content=bundle.user_text),
    ]
    steps: list[_Step] = []
    for _step in range(max_steps):
        exchange = ChatExchange(messages=messages, declared_tools=declared)
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
            steps.append((call.tool, args, art))
            messages.append(_tool_message(art))
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
        runner, bundle, declared, runner.config.max_steps, reject, branch=slot.slot
    )
    final_answer = final.get("answer") if final else None
    tool_records = tuple(ToolCallRecord(tool, args, art["artifact_id"]) for tool, args, art in steps)
    verdict = validate_answer(final_answer, instance)
    substantive = tuple(
        r.tool_id
        for r in tool_records
        if (d := deps.registry.descriptor(r.tool_id)) is not None and d.substantive
    )
    return CandidateExecution(
        branch_id=f"{instance.id}#b{slot.slot}",
        slot=slot.slot,
        tool_calls=tool_records,
        final_answer=final_answer,
        valid=verdict.valid,
        reasoning_text=str(final.get("reasoning", "")) if final else "",
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
    instance: TaskInstance, config: ExplorationConfig, deps: EpisodeDeps
) -> EpisodeOutcome:
    """Run one exploration episode end to end (Explore -> Compare -> hand off
    to Distill). Never raises for in-episode failures: zero completed
    branches simply becomes a failure outcome."""
    if not instance.has_ground_truth:
        raise ContractError("exploration requires targets (ground truth) on every instance")
    runner = _EpisodeRunner(instance, deps, config)
    with closing(runner.trace):
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
            require_prior_and_alternative=config.require_prior_and_alternative,
        )
        messages = [
            ChatMessage(role="system", content=bundle.system_text),
            ChatMessage(role="user", content=bundle.user_text),
        ]

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
                    messages.append(_tool_message(art))
                    payload = art["payload"]
                    if "reports" in payload:
                        eval_reports = payload["reports"]
                    elif "branch_id" in payload:
                        eval_reports = {payload["branch_id"]: {k: payload[k] for k in ("report", "quality") if k in payload}}
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

        truth = instance.answer_key(runner.ctx.capability)
        sensitive = [canonical_json(truth), json.dumps(truth)]
        for c in valid:
            sensitive.append(canonical_json(c.final_answer))
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

        verdict = _contract_check(
            records,
            set(eval_reports),
            final_type,
            runner.prior_exists,
            config.require_prior_and_alternative,
            config.min_valid_candidates,
        )
        runner.trace.event("verdict", {"type": "contract", **verdict.to_dict()})
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
    require_prior_and_alternative: bool,
    min_valid: int,
) -> ContractVerdict:
    violations: list[str] = []
    valid = [c for c in candidate_records if c["valid"]]
    if len(valid) < min_valid:
        violations.append("too_few_valid")
    if len(valid) >= 2 and len(evaluated_branches & {c["branch"] for c in valid}) < 2:
        violations.append("no_comparison")
    if final_type != prompts.LEARNING_SUMMARY_TYPE:
        violations.append("wrong_final_type")
    if len(valid) >= 2 and not _distinct_pair_exists(valid):
        violations.append("no_distinct_pair")
    if prior_exists and require_prior_and_alternative and candidate_records:
        has_prior = any(c.get("prior_guided") for c in candidate_records)
        has_alt = any(c.get("alternative") for c in candidate_records)
        if not (has_prior and has_alt):
            violations.append("missing_prior_or_alternative")
    return ContractVerdict(satisfied=not violations, violations=tuple(violations))


def enforce_exploration_contract(
    header: Mapping[str, Any], events: Sequence[Mapping[str, Any]]
) -> ContractVerdict:
    """Pure contract check over a finalized trace."""
    candidate_records = [
        e["payload"]
        for e in events
        if e["kind"] == "verdict" and e["payload"].get("type") == "candidate"
    ]
    evaluated: set[str] = set()
    for e in events:
        if e["kind"] != "tool_call" or e["payload"].get("tool") not in EVALUATE_TOOLS:
            continue
        args = e["payload"].get("args", {})
        if "candidates" in args:
            evaluated.update(args["candidates"])
        elif "branch_id" in args and args["branch_id"]:
            evaluated.add(args["branch_id"])
    final_type: Optional[str] = None
    for e in events:
        if e["kind"] == "gateway_response":
            final = parse_final(e["payload"].get("reply", {}).get("content"))
            if final is not None:
                final_type = final.get("answer_type")
    return _contract_check(
        candidate_records,
        evaluated,
        final_type,
        bool(header.get("prior_exists")),
        bool(header.get("require_prior_and_alternative")),
        min_valid=2,
    )


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


def _context_line(step: int, tool: str, artifact: Mapping[str, Any]) -> str:
    payload = artifact.get("payload", {})
    if artifact.get("kind") == "series":
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
) -> InferenceResult:
    """Solve one instance with reinjected experience and task-facing tools
    only. No store writes, no ledger writes, no ground-truth access."""
    view = replace(instance, ground_truth=None)
    runner = _EpisodeRunner(view, deps)
    with closing(runner.trace):
        visible = [t for t in deps.registry.inference_visible() if deps.toolkit.has(t)]
        declared = [deps.toolkit.tool_schema(t) for t in visible]
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

        steps, final, _failure = _step_loop(runner, bundle, declared, max_steps, reject)
        tool_chain = [tool for tool, _args, _art in steps]
        context_lines = [_context_line(i, tool, art) for i, (tool, _args, art) in enumerate(steps, 1)]
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
