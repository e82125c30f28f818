"""Synthetic tool-prior-collapse simulation.

Models an exploration loop whose branch-tool selection is biased toward
historically used tools (rich-get-richer), then measures how task-aware
dropout changes tool coverage, top-k concentration, and usage entropy over
episode prefixes, averaged over seeds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import ContractError
from .registry import ToolCategory, ToolDescriptor, ToolRegistry, ToolUsageLedger
from .util import stable_rng, write_atomic

SCOPE = "sim_collapse"


@dataclass(frozen=True)
class DropoutScenario:
    n_tools: int = 10
    episodes: int = 120
    branch_count: int = 2
    selection_bias: float = 2.5  # selection weight ~ (1 + count) ** bias
    alpha: float = 1.5
    measure_every: int = 5
    top_k: int = 5
    protected: tuple[str, ...] = ()

    def tool_ids(self) -> list[str]:
        return [f"tool_{i:02d}" for i in range(self.n_tools)]


def scenario_from_dict(d: Any) -> DropoutScenario:
    """The scenario a JSON object describes, each field converted to its
    default's type; ContractError for one that is no object, names a key
    ``DropoutScenario`` does not have, or holds a value of another type or
    out of range."""
    if not isinstance(d, Mapping):
        raise ContractError("a scenario is a JSON object")
    defaults = {f.name: f.default for f in fields(DropoutScenario)}
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ContractError(f"scenario: unknown key {unknown[0]!r}")
    try:
        scenario = DropoutScenario(**{key: type(defaults[key])(value) for key, value in d.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"scenario: {exc}") from None
    for name in ("n_tools", "measure_every", "top_k"):
        if getattr(scenario, name) < 1:
            raise ContractError(f"scenario: {name} must be at least 1")
    if not (scenario.alpha > 0 and math.isfinite(scenario.selection_bias)):
        raise ContractError("scenario: alpha must be positive and selection_bias finite")
    return scenario


def _build_registry(scenario: DropoutScenario) -> ToolRegistry:
    protected = set(scenario.protected)
    descriptors = [
        ToolDescriptor(
            tool_id=t,
            category=ToolCategory.FORECASTING,
            protected_in=("*",) if t in protected else (),
        )
        for t in scenario.tool_ids()
    ]
    return ToolRegistry(descriptors)


@dataclass
class PrefixPoint:
    episodes: int
    coverage: float
    top_share: float
    entropy: float


def run_collapse_simulation(
    scenario: DropoutScenario, dropout_on: bool, seed: int
) -> list[PrefixPoint]:
    """One simulated exploration run; returns the diagnostic curve."""
    registry = _build_registry(scenario)
    ledger = ToolUsageLedger()
    # the selection stream is shared between ON and OFF so dropout is the
    # only difference; an all-protected pool then yields identical runs
    rng = stable_rng("simulate", seed)
    episode_tool_sets: list[set[str]] = []
    points: list[PrefixPoint] = []
    for episode in range(1, scenario.episodes + 1):
        counts = ledger.counts(SCOPE)
        chosen: list[str] = []
        for slot in range(scenario.branch_count):
            if dropout_on:
                visible = sorted(
                    registry.sample_visible_subset(counts, SCOPE, slot, seed * 7919 + episode, scenario.alpha)
                )
            else:
                visible = scenario.tool_ids()
            pool = [t for t in visible if t not in chosen] or visible
            weights = [(1.0 + counts.get(t, 0)) ** scenario.selection_bias for t in pool]
            chosen.append(rng.choices(pool, weights=weights, k=1)[0])
        ledger.record(SCOPE, chosen)
        episode_tool_sets.append(set(chosen))
        if episode % scenario.measure_every == 0 or episode == scenario.episodes:
            points.append(
                PrefixPoint(
                    episodes=episode,
                    coverage=registry.coverage_rate(SCOPE, episode_tool_sets),
                    top_share=ledger.top_k_share(SCOPE, scenario.top_k) or 0.0,
                    entropy=ledger.entropy(SCOPE) or 0.0,
                )
            )
    return points


@dataclass
class ComparisonResult:
    prefixes: list[int]
    on: dict[str, list[float]] = field(default_factory=dict)
    off: dict[str, list[float]] = field(default_factory=dict)

    def mean_top_share_reduction(self) -> float:
        diffs = [o - n for o, n in zip(self.off["top_share"], self.on["top_share"])]
        return sum(diffs) / len(diffs) if diffs else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "prefixes": self.prefixes,
            "on": self.on,
            "off": self.off,
            "mean_top_share_reduction": self.mean_top_share_reduction(),
        }


def compare_over_seeds(scenario: DropoutScenario, seeds: Sequence[int]) -> ComparisonResult:
    """Mean ON/OFF curves over seeds for coverage, top-k share, and entropy."""
    if not seeds:
        raise ValueError("at least one seed is required")
    per_mode: dict[bool, dict[str, list[list[float]]]] = {}
    prefixes: list[int] = []
    for dropout_on in (True, False):
        runs = [run_collapse_simulation(scenario, dropout_on, s) for s in seeds]
        prefixes = [p.episodes for p in runs[0]]
        per_mode[dropout_on] = {
            "coverage": [[p.coverage for p in run] for run in runs],
            "top_share": [[p.top_share for p in run] for run in runs],
            "entropy": [[p.entropy for p in run] for run in runs],
        }

    def means(rows: list[list[float]]) -> list[float]:
        return [sum(col) / len(col) for col in zip(*rows)]

    return ComparisonResult(
        prefixes=prefixes,
        on={k: means(v) for k, v in per_mode[True].items()},
        off={k: means(v) for k, v in per_mode[False].items()},
    )


def write_outputs(result: ComparisonResult, out_dir: Path) -> dict[str, str]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "dropout_diag.csv"
    json_path = out_dir / "dropout_diag.json"
    columns = [(metric, side) for metric in ("coverage", "top_share", "entropy") for side in ("on", "off")]
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["prefix", *(f"{metric}_{side}" for metric, side in columns)])
    writer.writerows(
        [prefix, *(f"{getattr(result, side)[metric][i]:.6f}" for metric, side in columns)]
        for i, prefix in enumerate(result.prefixes)
    )
    write_atomic(csv_path, rows.getvalue())
    write_atomic(json_path, json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n")
    return {"csv": str(csv_path), "json": str(json_path)}
