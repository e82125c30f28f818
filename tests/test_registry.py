from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from timeclaw.errors import ContractError
from timeclaw.registry import (
    ToolCategory,
    ToolDescriptor,
    ToolRegistry,
    ToolUsageLedger,
    keep_probability,
    load_registry,
)


def _registry(tools, protected=(), ledger=None):
    descriptors = [
        ToolDescriptor(
            tool_id=t,
            category=ToolCategory.FORECASTING,
            protected_in=("*",) if t in protected else (),
        )
        for t in tools
    ]
    return ToolRegistry(descriptors, ledger=ledger or ToolUsageLedger())


class TestKeepProbability:
    def test_protected_bypasses_dropout(self):
        assert keep_probability(10**6, 0, 3.0, protected=True) == 1.0

    def test_cold_edge_is_exactly_one(self):
        for n in (0, 1, 7, 10**6):
            assert keep_probability(n, n, 2.5) == 1.0

    def test_hand_computed_value(self):
        assert keep_probability(3, 1, 1.0) == pytest.approx(0.5)

    def test_closed_form(self):
        rng = random.Random(9)
        for _ in range(1000):
            n_min = rng.randint(0, 1000)
            n_i = n_min + rng.randint(0, 1000)
            alpha = rng.uniform(0.01, 8.0)
            expected = ((1.0 + n_min) / (1.0 + n_i)) ** alpha
            assert keep_probability(n_i, n_min, alpha) == pytest.approx(expected, rel=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ContractError):
            keep_probability(1, 0, 0.0)
        with pytest.raises(ContractError):
            keep_probability(1, 0, -1.0)

    def test_n_min_cannot_exceed_n_i(self):
        with pytest.raises(ContractError):
            keep_probability(1, 2, 1.0)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=0, max_value=10000),
        st.integers(min_value=1, max_value=10000),
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.05, max_value=6.0),
    )
    def test_monotonicity_property(self, n_j, gap, n_min_gap, alpha):
        # strictly more-used tools always keep strictly less probability
        n_i = n_j + gap
        n_min = max(0, n_j - n_min_gap)
        assert keep_probability(n_i, n_min, alpha) < keep_probability(n_j, n_min, alpha)


class TestLedger:
    def test_counts_only_increase(self, tmp_path):
        ledger = ToolUsageLedger(tmp_path / "ledger.json")
        ledger.record("s", ["a", "a", "b"])
        assert ledger.counts("s") == {"a": 2, "b": 1}
        ledger.record("s", ["a"])
        assert ledger.counts("s") == {"a": 3, "b": 1}

    def test_round_trip_exactly(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = ToolUsageLedger(path)
        ledger.record("s1", ["a", "b", "b"])
        ledger.record("s2", ["c"])
        reloaded = ToolUsageLedger(path)
        assert reloaded.counts("s1") == {"a": 1, "b": 2}
        assert reloaded.counts("s2") == {"c": 1}
        assert reloaded.entropy_history("s1") == ledger.entropy_history("s1")

    @pytest.mark.parametrize("seed", range(8))
    def test_reopened_ledger_matches_one_that_never_closed(self, tmp_path, seed):
        rng = random.Random(seed)
        tools = ["t5", "t3", "t0", "t4", "t1", "t2"]
        records = [
            (rng.choice(["s1", "s2"]), [rng.choice(tools) for _ in range(rng.randint(1, 3))])
            for _ in range(12)
        ]
        whole = ToolUsageLedger(tmp_path / "whole.jsonl")
        for scope, used in records:
            whole.record(scope, used)
        cut = rng.randint(1, len(records) - 1)
        first = ToolUsageLedger(tmp_path / "split.jsonl")
        for scope, used in records[:cut]:
            first.record(scope, used)
        split = ToolUsageLedger(tmp_path / "split.jsonl")
        for scope, used in records[cut:]:
            split.record(scope, used)
        reopened = ToolUsageLedger(tmp_path / "split.jsonl")
        for ledger in (split, reopened):
            for scope in ("s1", "s2"):
                assert ledger.counts(scope) == whole.counts(scope)
                assert ledger.entropy_history(scope) == whole.entropy_history(scope)

    def test_log_has_one_line_per_update_with_tools(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ToolUsageLedger(path)
        ledger.record("s", ["b", "a"])
        ledger.record("s", [])
        ledger.record("t", ["a"])
        assert path.read_text() == '{"scope":"s","tools":["b","a"]}\n{"scope":"t","tools":["a"]}\n'
        assert ToolUsageLedger(path).entropy_history("s") == ledger.entropy_history("s") == [math.log(2)]

    def test_entropy_values(self):
        ledger = ToolUsageLedger()
        assert ledger.entropy("empty") is None
        ledger.record("uniform", ["a", "b", "c", "d"])
        assert ledger.entropy("uniform") == pytest.approx(math.log(4), abs=1e-12)
        ledger.record("single", ["x"])
        assert ledger.entropy("single") == 0.0
        ledger.record("skew", ["a"] * 3 + ["b"])
        # -(0.75 ln 0.75 + 0.25 ln 0.25)
        assert ledger.entropy("skew") == pytest.approx(0.5623, abs=1e-4)

    def test_top_k_share(self):
        ledger = ToolUsageLedger()
        assert ledger.top_k_share("empty", 5) is None
        for tool, count in zip("abcdefg", [10, 5, 3, 2, 1, 1, 1]):
            ledger.record("s", [tool] * count)
        assert ledger.top_k_share("s", 5) == pytest.approx(21 / 23, rel=1e-12)
        ledger.record("one", ["only"])
        assert ledger.top_k_share("one", 5) == 1.0
        for tool in "abcdefghij":
            ledger.record("uniform10", [tool])
        assert ledger.top_k_share("uniform10", 5) == pytest.approx(0.5)

    def test_top_k_share_decreases_toward_uniform(self):
        # fixed total, increasingly uniform splits
        splits = [[20, 1, 1, 1, 1, 1, 1], [14, 2, 2, 2, 2, 2, 2], [4, 4, 4, 4, 4, 3, 3]]
        shares = []
        for i, split in enumerate(splits):
            ledger = ToolUsageLedger()
            for tool, count in zip("abcdefg", split):
                ledger.record("s", [tool] * count)
            shares.append(ledger.top_k_share("s", 5))
        assert shares == sorted(shares, reverse=True)


class TestRecordUsage:
    def test_substantive_counting(self, registry):
        registry.record_usage("s", ["ses", "ses", "value_at"])
        assert registry.ledger.counts("s") == {"ses": 2, "value_at": 1}

    def test_orchestration_and_exploration_never_counted(self, registry):
        registry.record_usage("s", ["spawn_subagent", "evaluate_against_gt"])
        assert registry.ledger.counts("s") == {}

    def test_unknown_tool_goes_to_audit_bucket(self, registry):
        registry.record_usage("s", ["not_a_tool"])
        assert registry.ledger.counts("s") == {"unknown": 1}

    def test_empty_usage_changes_nothing(self, registry):
        registry.record_usage("s", [])
        assert registry.ledger.counts("s") == {}


class TestCoverage:
    def test_full_and_empty_prefixes(self):
        reg = _registry(list("abcdef"))
        assert reg.coverage_rate("s", [set("abcdef")]) == 1.0
        assert reg.coverage_rate("s", []) == 0.0
        assert reg.coverage_rate("s", [{"a"}, {"b", "c"}]) == pytest.approx(0.5)

    def test_empty_universe_is_contract_error(self):
        reg = ToolRegistry([], ledger=ToolUsageLedger())
        with pytest.raises(ContractError):
            reg.coverage_rate("s", [{"a"}])


class TestVisibleSubsets:
    def test_all_protected_keeps_full_set(self):
        reg = _registry(list("abc"), protected=list("abc"))
        reg.ledger.record("s", ["a"] * 50)
        assert reg.sample_visible_subset("s", 0, 1, 1.0) == frozenset("abc")

    def test_fresh_scope_keeps_full_set(self):
        reg = _registry(list("abcde"))
        assert reg.sample_visible_subset("s", 0, 1, 1.0) == frozenset("abcde")

    def test_determinism(self):
        reg = _registry(list("abcdef"))
        reg.ledger.record("s", ["a"] * 30 + ["b"] * 5)
        draws = {reg.sample_visible_subset("s", 2, 42, 1.5) for _ in range(10)}
        assert len(draws) == 1
        assert reg.sample_visible_subset("s", 3, 42, 1.5) is not None  # other slots may differ

    def test_dominant_tool_suppressed_cold_tools_kept(self):
        reg = _registry(list("abc"))
        reg.ledger.record("s", ["a"] * 50)
        retained_a = 0
        for seed in range(1000):
            subset = reg.sample_visible_subset("s", 0, seed, 2.0)
            assert "b" in subset and "c" in subset
            if "a" in subset:
                retained_a += 1
        # keep(a) = (1/51)^2 ~ 0.04%; allow generous slack on 1000 draws
        assert retained_a <= 5

    def test_competitor_floor(self):
        reg = _registry(list("ab"))
        reg.ledger.record("s", ["a"] * 100 + ["b"] * 100)
        for seed in range(50):
            subset = reg.sample_visible_subset("s", 0, seed, 6.0)
            assert len(subset) >= 2

    def test_extra_protected_hint_is_included(self):
        reg = _registry(list("abc"))
        reg.ledger.record("s", ["a"] * 100)
        for seed in range(50):
            subset = reg.sample_visible_subset("s", 0, seed, 4.0, extra_protected=("a",))
            assert "a" in subset

    def test_protection_scope_globs(self):
        descriptors = [
            ToolDescriptor(
                tool_id="a", category=ToolCategory.FORECASTING, protected_in=("synth_*",)
            ),
            ToolDescriptor(tool_id="b", category=ToolCategory.FORECASTING),
            ToolDescriptor(tool_id="c", category=ToolCategory.FORECASTING),
        ]
        reg = ToolRegistry(descriptors, ledger=ToolUsageLedger())
        reg.ledger.record("synth_forecast_short", ["a"] * 200)
        reg.ledger.record("weather_forecast_short", ["a"] * 200)
        synth_kept = sum(
            "a" in reg.sample_visible_subset("synth_forecast_short", 0, s, 5.0) for s in range(50)
        )
        weather_kept = sum(
            "a" in reg.sample_visible_subset("weather_forecast_short", 0, s, 5.0) for s in range(50)
        )
        assert synth_kept == 50  # never dropped where the glob matches
        assert weather_kept < 10  # heavily suppressed elsewhere


class TestRegistryFile:
    def test_round_trip(self, tmp_path, registry):
        path = tmp_path / "registry.json"
        registry.save_registry(path)
        loaded = load_registry(path)
        assert loaded.tool_ids() == registry.tool_ids()
        for tool_id in registry.tool_ids():
            a, b = registry.descriptor(tool_id), loaded.descriptor(tool_id)
            assert a.category == b.category
            assert a.protected_in == b.protected_in
