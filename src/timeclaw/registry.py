"""Tool descriptors, per-scope usage bookkeeping, task-aware dropout, and
collapse diagnostics.

The dropout rule anchors keep probabilities at the least-explored competing
tool: keep(i) = ((1 + n_min) / (1 + n_i)) ** alpha, with protected tools
bypassing dropout entirely. Usage counts only ever increase, and only via
:meth:`ToolRegistry.record_usage`.
"""

from __future__ import annotations

import enum
import fnmatch
import json
import logging
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import ContractError
from .util import canonical_json, stable_rng

logger = logging.getLogger(__name__)

UNKNOWN_TOOL_BUCKET = "unknown"


class ToolCategory(str, enum.Enum):
    FORECASTING = "forecasting"
    ANALYSIS = "analysis"
    TEXT = "text"
    EXPLORATION_ONLY = "exploration_only"
    ORCHESTRATION = "orchestration"


SUBSTANTIVE_CATEGORIES = frozenset(
    {ToolCategory.FORECASTING, ToolCategory.ANALYSIS, ToolCategory.TEXT}
)
EXPLORATION_SURFACE_CATEGORIES = frozenset(
    {ToolCategory.EXPLORATION_ONLY, ToolCategory.ORCHESTRATION}
)


@dataclass(frozen=True)
class ArgSpec:
    type: str  # number | integer | string | boolean | array | object
    required: bool = False
    default: Any = None
    description: str = ""


@dataclass(frozen=True)
class ToolDescriptor:
    tool_id: str
    category: ToolCategory
    arg_schema: Mapping[str, ArgSpec] = field(default_factory=dict)
    modality: str = "numeric"  # numeric | text | mixed
    protected_in: tuple[str, ...] = ()  # scope globs where never_drop applies
    description: str = ""

    @property
    def substantive(self) -> bool:
        return self.category in SUBSTANTIVE_CATEGORIES

    def protected_for(self, scope: str) -> bool:
        return any(fnmatch.fnmatchcase(scope, pat) for pat in self.protected_in)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tool_id": self.tool_id,
            "category": self.category.value,
            "modality": self.modality,
            "protected_in": list(self.protected_in),
            "description": self.description,
            "args": {
                name: {
                    "type": spec.type,
                    "required": spec.required,
                    "default": spec.default,
                    "description": spec.description,
                }
                for name, spec in sorted(self.arg_schema.items())
            },
        }


def descriptor_from_dict(data: Mapping[str, Any]) -> ToolDescriptor:
    args = {
        name: ArgSpec(
            type=spec.get("type", "string"),
            required=bool(spec.get("required", False)),
            default=spec.get("default"),
            description=spec.get("description", ""),
        )
        for name, spec in data.get("args", {}).items()
    }
    return ToolDescriptor(
        tool_id=data["tool_id"],
        category=ToolCategory(data["category"]),
        arg_schema=args,
        modality=data.get("modality", "numeric"),
        protected_in=tuple(data.get("protected_in", ())),
        description=data.get("description", ""),
    )


def keep_probability(n_i: int, n_min: int, alpha: float, protected: bool = False) -> float:
    """Frequency-anchored keep probability for exploration-time dropout."""
    if alpha <= 0:
        raise ContractError("alpha must be positive")
    if protected:
        return 1.0
    if n_i < 0 or n_min < 0:
        raise ContractError("usage counts must be non-negative")
    if n_min > n_i:
        raise ContractError("n_min must not exceed n_i over the same competing set")
    return ((1.0 + n_min) / (1.0 + n_i)) ** alpha


# The ledger's log, relative to the store root.
LEDGER_FILE = "ledger.jsonl"


class ToolUsageLedger:
    """Per-scope tool invocation counts and the usage entropy after each
    update, so collapse can be audited over time.

    Counts only increase. Each update appends one line to an append-only log,
    and opening the ledger replays that log through the same update, so a
    reopened ledger equals one that never closed, history included.
    """

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        self._counts: dict[str, dict[str, int]] = {}
        self._history: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            for line in self.path.read_text().splitlines():
                entry = json.loads(line)
                self._apply_locked(entry["scope"], entry["tools"])

    def counts(self, scope: str) -> dict[str, int]:
        return dict(self._counts.get(scope, {}))

    def scopes(self) -> list[str]:
        return sorted(self._counts)

    def record(self, scope: str, tool_ids: Iterable[str]) -> None:
        tools = list(tool_ids)
        if not tools:
            return
        with self._lock:
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a") as fh:
                    fh.write(canonical_json({"scope": scope, "tools": tools}) + "\n")
            self._apply_locked(scope, tools)

    def _apply_locked(self, scope: str, tools: Sequence[str]) -> None:
        bucket = self._counts.setdefault(scope, {})
        for tool_id in tools:
            bucket[tool_id] = bucket.get(tool_id, 0) + 1
        self._history.setdefault(scope, []).append(self._entropy_locked(scope))

    def entropy(self, scope: str) -> Optional[float]:
        """Natural-log Shannon entropy of the usage distribution; None when
        the scope has no recorded usage."""
        with self._lock:
            if not self._counts.get(scope):
                return None
            return self._entropy_locked(scope)

    def _entropy_locked(self, scope: str) -> float:
        counts = [c for c in self._counts[scope].values() if c > 0]
        total = sum(counts)
        if total == 0:
            return 0.0
        h = 0.0
        for c in counts:
            p = c / total
            h -= p * math.log(p)
        return h

    def top_k_share(self, scope: str, k: int) -> Optional[float]:
        if k < 1:
            raise ContractError("k must be positive")
        counts = sorted(self._counts.get(scope, {}).values(), reverse=True)
        total = sum(counts)
        if total == 0:
            return None
        return sum(counts[:k]) / total

    def entropy_history(self, scope: str) -> list[float]:
        return list(self._history.get(scope, []))


# Non-protected survivors below this floor are force-included (lowest counts
# first) so branch exploration always has at least two competitors.
MIN_SURVIVING_COMPETITORS = 2


class ToolRegistry:
    """Descriptor catalog plus the usage ledger that drives dropout."""

    def __init__(self, descriptors: Iterable[ToolDescriptor], ledger: Optional[ToolUsageLedger] = None):
        self._tools: dict[str, ToolDescriptor] = {}
        for d in descriptors:
            self.add(d)
        self.ledger = ledger if ledger is not None else ToolUsageLedger()

    def add(self, descriptor: ToolDescriptor) -> None:
        if descriptor.tool_id in self._tools:
            raise ContractError(f"duplicate tool id {descriptor.tool_id}")
        self._tools[descriptor.tool_id] = descriptor

    def descriptor(self, tool_id: str) -> Optional[ToolDescriptor]:
        return self._tools.get(tool_id)

    def tool_ids(self) -> list[str]:
        return sorted(self._tools)

    def substantive_tools(self) -> list[str]:
        return sorted(t for t, d in self._tools.items() if d.substantive)

    def inference_visible(self) -> list[str]:
        """Tools exposed at inference: exploration-only and orchestration
        categories are removed."""
        return self.substantive_tools()

    def exploration_visible(self) -> list[str]:
        return sorted(self._tools)

    def is_protected(self, tool_id: str, scope: str) -> bool:
        d = self._tools.get(tool_id)
        return d is not None and d.protected_for(scope)

    def competing_sets(self, scope: str) -> dict[str, list[str]]:
        """Non-protected substantive tools grouped by category; tools only
        compete against tools of their own category."""
        groups: dict[str, list[str]] = {}
        for tool_id in sorted(self._tools):
            d = self._tools[tool_id]
            if not d.substantive or d.protected_for(scope):
                continue
            groups.setdefault(d.category.value, []).append(tool_id)
        return groups

    def sample_visible_subset(
        self,
        scope: str,
        slot: int,
        seed: int,
        alpha: float,
        extra_protected: Sequence[str] = (),
    ) -> frozenset[str]:
        """Slot-local visible substantive tool subset for one branch.

        Pure function of (ledger snapshot, scope, slot, seed, alpha): each
        non-protected competing tool survives an independent Bernoulli draw
        with its keep probability; protected and explicitly hinted tools are
        always included; at least MIN_SURVIVING_COMPETITORS non-protected
        competitors are force-included, lowest usage counts first.
        """
        counts = self.ledger.counts(scope)
        rng = stable_rng("visible", seed, scope, slot)
        kept: set[str] = set()
        protected = {
            t
            for t, d in self._tools.items()
            if d.substantive and (d.protected_for(scope) or t in set(extra_protected))
        }
        kept.update(protected)

        survivors: list[str] = []
        all_competitors: list[str] = []
        for _category, competitors in sorted(self.competing_sets(scope).items()):
            competitors = [t for t in competitors if t not in protected]
            if not competitors:
                continue
            all_competitors.extend(competitors)
            n_min = min(counts.get(t, 0) for t in competitors)
            for tool_id in competitors:
                p = keep_probability(counts.get(tool_id, 0), n_min, alpha)
                if rng.random() < p:
                    kept.add(tool_id)
                    survivors.append(tool_id)

        if len(survivors) < MIN_SURVIVING_COMPETITORS and all_competitors:
            by_count = sorted(
                (t for t in all_competitors if t not in kept),
                key=lambda t: (counts.get(t, 0), t),
            )
            for tool_id in by_count:
                if len(survivors) >= MIN_SURVIVING_COMPETITORS:
                    break
                kept.add(tool_id)
                survivors.append(tool_id)
        return frozenset(kept)

    def coverage_rate(self, scope: str, prefix_traces: Sequence[Iterable[str]]) -> float:
        """|union of tools invoked in the prefix| / |visible universe|."""
        universe = set(self.substantive_tools())
        if not universe:
            raise ContractError("empty visible-tool universe")
        used: set[str] = set()
        for episode_tools in prefix_traces:
            used.update(episode_tools)
        return len(used & universe) / len(universe)

    def usage_entropy(self, scope: str) -> Optional[float]:
        return self.ledger.entropy(scope)

    def top_k_share(self, scope: str, k: int) -> Optional[float]:
        return self.ledger.top_k_share(scope, k)

    def record_usage(self, scope: str, tools_used: Iterable[str]) -> None:
        """Count substantive tool usage from a finalized episode trace.

        Exploration-only and orchestration tools are never counted; unknown
        ids land in an audit bucket instead of crashing the run.
        """
        countable: list[str] = []
        for tool_id in tools_used:
            d = self._tools.get(tool_id)
            if d is None:
                logger.warning("usage recorded for unknown tool %r in scope %s", tool_id, scope)
                countable.append(UNKNOWN_TOOL_BUCKET)
            elif d.substantive:
                countable.append(tool_id)
        self.ledger.record(scope, countable)

    def save_registry(self, path: Path) -> None:
        data = [self._tools[t].to_dict() for t in sorted(self._tools)]
        Path(path).write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def load_registry(path: Path, ledger: Optional[ToolUsageLedger] = None) -> ToolRegistry:
    data = json.loads(Path(path).read_text())
    return ToolRegistry([descriptor_from_dict(d) for d in data], ledger=ledger)
