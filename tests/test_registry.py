from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from timeclaw.errors import ContractError
from timeclaw.registry import (
    ToolCategory,
    ToolDescriptor,
    ToolRegistry,
    ToolUsageLedger,
    keep_probability,
)
from timeclaw.util import stable_rng


def _registry(tools, protected=()):
    descriptors = [
        ToolDescriptor(
            tool_id=t,
            category=ToolCategory.FORECASTING,
            protected_in=("*",) if t in protected else (),
        )
        for t in tools
    ]
    return ToolRegistry(descriptors)


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
    def test_counts_only_increase(self):
        ledger = ToolUsageLedger()
        ledger.record("s", ["a", "a", "b"])
        assert ledger.counts("s") == {"a": 2, "b": 1}
        ledger.record("s", ["a"])
        assert ledger.counts("s") == {"a": 3, "b": 1}

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


class TestCoverage:
    def test_full_and_empty_prefixes(self):
        reg = _registry(list("abcdef"))
        assert reg.coverage_rate("s", [set("abcdef")]) == 1.0
        assert reg.coverage_rate("s", []) == 0.0
        assert reg.coverage_rate("s", [{"a"}, {"b", "c"}]) == pytest.approx(0.5)

    def test_empty_universe_is_contract_error(self):
        reg = ToolRegistry([])
        with pytest.raises(ContractError):
            reg.coverage_rate("s", [{"a"}])


class TestVisibleSubsets:
    def test_all_protected_keeps_full_set(self):
        reg = _registry(list("abc"), protected=list("abc"))
        assert reg.sample_visible_subset({"a": 50}, "s", 0, 1, 1.0) == frozenset("abc")

    def test_fresh_scope_keeps_full_set(self):
        reg = _registry(list("abcde"))
        assert reg.sample_visible_subset({}, "s", 0, 1, 1.0) == frozenset("abcde")

    def test_determinism(self):
        reg = _registry(list("abcdef"))
        counts = {"a": 30, "b": 5}
        draws = {reg.sample_visible_subset(counts, "s", 2, 42, 1.5) for _ in range(10)}
        assert len(draws) == 1
        assert reg.sample_visible_subset(counts, "s", 3, 42, 1.5) is not None  # other slots may differ

    def test_dominant_tool_suppressed_cold_tools_kept(self):
        reg = _registry(list("abc"))
        retained_a = 0
        for seed in range(1000):
            subset = reg.sample_visible_subset({"a": 50}, "s", 0, seed, 2.0)
            assert "b" in subset and "c" in subset
            if "a" in subset:
                retained_a += 1
        # keep(a) = (1/51)^2 ~ 0.04%; allow generous slack on 1000 draws
        assert retained_a <= 5

    def test_competitor_floor(self):
        reg = _registry(list("ab"))
        for seed in range(50):
            subset = reg.sample_visible_subset({"a": 100, "b": 100}, "s", 0, seed, 6.0)
            assert len(subset) >= 2

    def test_extra_protected_hint_is_included(self):
        reg = _registry(list("abc"))
        for seed in range(50):
            subset = reg.sample_visible_subset({"a": 100}, "s", 0, seed, 4.0, extra_protected=("a",))
            assert "a" in subset

    def test_protection_scope_globs(self):
        descriptors = [
            ToolDescriptor(
                tool_id="a", category=ToolCategory.FORECASTING, protected_in=("synth_*",)
            ),
            ToolDescriptor(tool_id="b", category=ToolCategory.FORECASTING),
            ToolDescriptor(tool_id="c", category=ToolCategory.FORECASTING),
        ]
        reg = ToolRegistry(descriptors)
        synth_kept = sum(
            "a" in reg.sample_visible_subset({"a": 200}, "synth_forecast_short", 0, s, 5.0) for s in range(50)
        )
        weather_kept = sum(
            "a" in reg.sample_visible_subset({"a": 200}, "weather_forecast_short", 0, s, 5.0) for s in range(50)
        )
        assert synth_kept == 50  # never dropped where the glob matches
        assert weather_kept < 10  # heavily suppressed elsewhere

    def test_an_added_tool_competes_in_the_next_draw(self):
        reg = _registry(list("ab"))
        assert reg.sample_visible_subset({"a": 5}, "s", 0, 1, 1.0) <= frozenset("ab")
        reg.add(ToolDescriptor(tool_id="c", category=ToolCategory.FORECASTING))
        reg.add(ToolDescriptor(tool_id="d", category=ToolCategory.ANALYSIS, protected_in=("s",)))
        draws = [reg.sample_visible_subset({"a": 5}, "s", 0, seed, 1.0) for seed in range(20)]
        assert all({"c", "d"} <= subset for subset in draws)  # c is never used: keep(c) = 1

    @settings(max_examples=60, deadline=None)
    @given(
        uses=st.lists(st.sampled_from("abcdef"), max_size=40),
        protected=st.lists(st.sampled_from("abcdef"), max_size=2),
        hinted=st.lists(st.sampled_from("abcdefz"), max_size=2),
        alpha=st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_draws_equal_the_per_slot_reference(self, uses, protected, hinted, alpha):
        descriptors = [
            ToolDescriptor(
                tool_id=t,
                category=ToolCategory.FORECASTING if t in "abcd" else ToolCategory.ANALYSIS,
                protected_in=("sc*",) if t in protected else (),
            )
            for t in "abcdef"
        ]
        reg = ToolRegistry(descriptors)
        counts = Counter(uses)
        for scope in ("scope", "other"):
            for slot in range(3):
                assert reg.sample_visible_subset(counts, scope, slot, 7, alpha, extra_protected=hinted) == (
                    _reference_subset(reg, counts, scope, slot, 7, alpha, hinted)
                )


def _reference_subset(reg, counts, scope, slot, seed, alpha, extra_protected):
    """The dropout draw as it was written before its set-up was kept per
    scope: protected set and competing sets worked out again for every slot."""
    rng = stable_rng("visible", seed, scope, slot)
    descriptors = dict(reg._tools)
    protected = {
        t for t, d in descriptors.items() if d.substantive and (d.protected_for(scope) or t in set(extra_protected))
    }
    kept = set(protected)
    survivors, all_competitors = [], []
    for _category, competitors in sorted(reg.competing_sets(scope).items()):
        competitors = [t for t in competitors if t not in protected]
        if not competitors:
            continue
        all_competitors.extend(competitors)
        n_min = min(counts.get(t, 0) for t in competitors)
        for tool_id in competitors:
            if rng.random() < keep_probability(counts.get(tool_id, 0), n_min, alpha):
                kept.add(tool_id)
                survivors.append(tool_id)
    if len(survivors) < 2 and all_competitors:
        for tool_id in sorted((t for t in all_competitors if t not in kept), key=lambda t: (counts.get(t, 0), t)):
            if len(survivors) >= 2:
                break
            kept.add(tool_id)
            survivors.append(tool_id)
    return frozenset(kept)
