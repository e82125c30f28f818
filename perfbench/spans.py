"""In-memory span tracing around the public functions of timeclaw's layers.

The tracer never edits timeclaw's source: it swaps the module attributes and
class methods named in ``LAYERS`` for timing wrappers while it is installed,
and puts the originals back when it is removed. Each wrapped call records a
span (layer name, start, end, parent span, item id). Time spent in a function
that is not wrapped counts toward the nearest wrapped caller, so the self
times of all spans of one command add up to that command's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

# (object path, attribute, layer). "module:Class" names a method.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("timeclaw.cli", "main", "cli"),
    ("timeclaw.corpus", "load_samples", "corpus.load_samples"),
    ("timeclaw.prompts", "fingerprint", "prompts.fingerprint"),
    ("timeclaw.prompts", "build_exploration_prompt", "prompts.build"),
    ("timeclaw.prompts", "build_branch_prompt", "prompts.build"),
    ("timeclaw.prompts", "build_inference_prompt", "prompts.build"),
    ("timeclaw.seriesops", "dominant_period", "seriesops.dominant_period"),
    ("timeclaw.gateway", "exchange_digest", "gateway.exchange_digest"),
    ("timeclaw.gateway:PolicyGateway", "complete", "gateway.complete"),
    ("timeclaw.gateway:ScriptedGateway", "complete", "gateway.complete"),
    ("timeclaw.gateway:RemoteGateway", "complete", "gateway.complete"),
    ("timeclaw.gateway:RecordingGateway", "complete", "gateway.complete"),
    ("workloads:SleepGateway", "complete", "gateway.complete"),
    ("timeclaw.toolkit:Toolkit", "invoke", "toolkit.invoke"),
    ("timeclaw.orchestrator", "run_exploration_episode", "orchestrator.item"),
    ("timeclaw.orchestrator", "run_inference", "orchestrator.item"),
    ("timeclaw.orchestrator:TraceWriter", "event", "orchestrator.trace_event"),
    ("timeclaw.registry:ToolUsageLedger", "record", "registry.ledger_record"),
    ("timeclaw.registry:ToolRegistry", "sample_visible_subset", "registry.sample_visible_subset"),
    ("timeclaw.store:ExperienceStore", "record_episode", "store.record_episode"),
    ("timeclaw.store:ExperienceStore", "commit_note", "store.commit_note"),
    ("timeclaw.store:ExperienceStore", "notes", "store.notes"),
    ("timeclaw.store:ExperienceStore", "memory_state", "store.memory_state"),
    ("timeclaw.store:ExperienceStore", "maybe_trigger_distillation", "store.distill"),
    ("timeclaw.store:ExperienceStore", "finalize", "store.distill"),
    ("timeclaw.store:ExperienceStore", "snapshot", "store.snapshot"),
    ("timeclaw.store:ExperienceStore", "retrieve", "store.retrieve"),
    ("timeclaw.store:ExperienceStore", "tree_digest", "store.tree_digest"),
)

ITEM_LAYER = "orchestrator.item"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[str]
    counts: dict[str, int] = field(default_factory=dict)


def _count_gateway(span: Span, result: Any) -> None:
    span.counts["tokens"] = sum(result.usage.values())


def _count_tool(span: Span, result: Any) -> None:
    if result.is_error:
        span.counts["error:" + str(result.payload.get("error"))] = 1


def _count_distill(span: Span, result: Any) -> None:
    # a batch returns its stages; more than "notes_to_memory" means the
    # memory fingerprint changed and the derived layers were rebuilt
    span.counts["fired"] = int(bool(result))
    span.counts["rebuilt"] = int(len(result) > 1)


OBSERVERS: dict[str, Callable[[Span, Any], None]] = {
    "gateway.complete": _count_gateway,
    "toolkit.invoke": _count_tool,
    "store.distill": _count_distill,
}


def _resolve(path: str) -> tuple[Any, bool]:
    """The module or class an entry of LAYERS names, and whether it is a class."""
    module_name, _, class_name = path.partition(":")
    module = sys.modules[module_name]
    return (getattr(module, class_name), True) if class_name else (module, False)


class Tracer:
    """Collects spans for the layers in LAYERS while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._item: Optional[str] = None

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack
            if stack and self.spans[stack[-1]].name == name:
                # one layer calling itself through a wrapper (a sleeping
                # gateway around the policy mock) is one span
                return fn(*args, **kwargs)
            outer_item = self._item
            if name == ITEM_LAYER:
                self._item = str(args[0].id)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self._item)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.counts["raised:" + type(exc).__name__] = 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._item = outer_item
            if observe is not None:
                observe(span, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer function for the duration of the block.

        A module function is replaced wherever a loaded timeclaw module holds
        it, so names imported with ``from x import f`` are traced as well.
        """
        undo: list[tuple[Any, str, Any]] = []
        try:
            for path, attr, name in LAYERS:
                owner, is_class = _resolve(path)
                original = owner.__dict__[attr]
                traced = self.wrap(original, name)
                holders = [owner] if is_class else [
                    m for n, m in list(sys.modules.items())
                    if m is not None and (n == "timeclaw" or n.startswith("timeclaw."))
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, traced)
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def layer_totals(spans: Sequence[Span]) -> dict[str, LayerTotals]:
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span, own in zip(spans, self_times(spans)):
        layer = totals[span.name]
        layer.calls += 1
        layer.self_s += own
        for key, n in span.counts.items():
            layer.counts[key] += n
    return dict(totals)
