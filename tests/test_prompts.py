from __future__ import annotations

import math
from pathlib import Path

import pytest

from timeclaw import prompts
from timeclaw.core import SealedAnswer, TaskInstance, TaskType, TextBlock
from timeclaw.errors import ContractError
from timeclaw.orchestrator import BranchSlot
from timeclaw.store import MemoryRule

FRAMES = Path(__file__).parent / "data" / "frames"


def _rule(injectable=True, **kwargs):
    defaults = dict(
        rule_id="r0001",
        kind="tool_preference",
        summary="Prefer seasonal_naive for seasonal samples.",
        applicability={"seasonal": True, "task_subtype": "forecast"},
        preferred_tools=("seasonal_naive",),
        avoided_tools=("naive",),
        rationale="it wins comparisons",
        evidence=("s#note0001",),
        confidence=0.7,
        injectable=injectable,
        seq=1,
    )
    defaults.update(kwargs)
    return MemoryRule(**defaults)


class _Selection:
    def __init__(self, rules):
        self.rules = rules
        self.skills_text = "1. When seasonal: prefer seasonal_naive."
        self.skills_decision_text = "- start from seasonal_naive"
        self.tool_notes = {"seasonal_naive": "- strong on daily cycles"}


def _golden_instance():
    return TaskInstance(
        id="golden1",
        series=tuple(float(v) for v in [10, 12, 11, 13, 10, 12, 11, 13]),
        task_type=TaskType.FORECAST,
        horizon=4,
        scope="synth_forecast_short",
        ground_truth=SealedAnswer([11.0, 13.0, 10.0, 12.0]),
    )


def _golden_fp():
    return prompts.fingerprint(_golden_instance())


def _slots():
    return [
        BranchSlot(
            slot=0,
            goal="produce one forecast candidate anchored on seasonal_naive",
            hint="seasonal_naive",
            visible_tools=frozenset({"naive", "seasonal_naive", "drift"}),
            prior_guided=True,
        ),
        BranchSlot(
            slot=1,
            goal="produce one forecast candidate anchored on drift",
            hint="drift",
            visible_tools=frozenset({"naive", "drift", "ses"}),
            alternative=True,
        ),
    ]


class TestFingerprint:
    def test_constant_series(self):
        inst = TaskInstance(
            id="c", series=(5.0,) * 10, task_type=TaskType.FORECAST, horizon=2, scope="s_f_s"
        )
        fp = prompts.fingerprint(inst)
        assert fp.std == 0.0
        assert fp.trend_class == "stable"
        assert fp.dominant_period is None
        assert not fp.seasonal

    def test_alternating_series_period_two(self):
        inst = TaskInstance(
            id="a",
            series=tuple(float(1 if i % 2 == 0 else 2) for i in range(20)),
            task_type=TaskType.FORECAST,
            horizon=2,
            scope="s_f_s",
        )
        fp = prompts.fingerprint(inst)
        assert fp.dominant_period == 2
        assert fp.seasonal

    def test_hourly_daily_cycle_period_24(self):
        series = tuple(
            20.0 + 5.0 * math.sin(2 * math.pi * t / 24.0) + 0.01 * ((t * 7919) % 13 - 6)
            for t in range(336)
        )
        inst = TaskInstance(
            id="h", series=series, task_type=TaskType.FORECAST, horizon=72, scope="s_f_l"
        )
        fp = prompts.fingerprint(inst)
        assert fp.dominant_period == 24
        assert fp.seasonal
        assert fp.length_band == "medium"

    def test_deterministic(self, seasonal_instance):
        fps = {prompts.fingerprint(seasonal_instance) for _ in range(5)}
        assert len(fps) == 1


class TestMatch:
    def test_field_predicates(self, seasonal_instance):
        fp = prompts.fingerprint(seasonal_instance)
        assert prompts.match({"seasonal": True}, fp)
        assert prompts.match({"task_subtype": "forecast"}, fp)
        assert not prompts.match({"task_subtype": "trend"}, fp)

    def test_empty_conjunction_matches_everything(self, seasonal_instance):
        assert prompts.match({}, prompts.fingerprint(seasonal_instance))

    def test_unknown_predicate_key_never_matches(self, seasonal_instance):
        assert not prompts.match({"moon_phase": "full"}, prompts.fingerprint(seasonal_instance))


class TestGoldenFrames:
    def test_exploration_frame_is_byte_stable(self):
        bundle = prompts.build_exploration_prompt(
            _golden_instance(),
            _golden_fp(),
            _Selection([_rule()]),
            _slots(),
            [
                {"name": n, "description": d}
                for n, d in [
                    ("naive", "repeat last"),
                    ("drift", "slope"),
                    ("seasonal_naive", "period repeat"),
                    ("spawn_subagent", "spawn"),
                    ("evaluate_against_gt", "score"),
                ]
            ],
            soul="# Soul\nBe careful.",
            require_prior_and_alternative=True,
        )
        assert bundle.system_text == (FRAMES / "exploration_system.txt").read_text()
        assert bundle.user_text == (FRAMES / "exploration_user.txt").read_text()

    def test_branch_frame_is_byte_stable(self):
        slot = _slots()[0]
        bundle = prompts.build_branch_prompt(
            _golden_instance(),
            _golden_fp(),
            slot,
            [{"name": n, "description": ""} for n in sorted(slot.visible_tools)],
            selection=_Selection([_rule()]),
            soul="# Soul\nBe careful.",
        )
        assert bundle.user_text == (FRAMES / "branch_user.txt").read_text()

    def test_inference_frame_is_byte_stable(self):
        bundle = prompts.build_inference_prompt(
            _golden_instance(),
            _golden_fp(),
            _Selection([_rule()]),
            [
                {"name": n, "description": d}
                for n, d in [
                    ("naive", "repeat last"),
                    ("drift", "slope"),
                    ("seasonal_naive", "period repeat"),
                ]
            ],
            soul="# Soul\nBe careful.",
        )
        assert bundle.system_text == (FRAMES / "inference_system.txt").read_text()
        assert bundle.user_text == (FRAMES / "inference_user.txt").read_text()

    def test_frame_section_order(self):
        user = (FRAMES / "exploration_user.txt").read_text()
        positions = [
            user.index("## Objective"),
            user.index("## Observation"),
            user.index("### Sample Fingerprint"),
            user.index("## Decision"),
            user.index("### Available Tools"),
        ]
        assert positions == sorted(positions)


class TestExplorationBundle:
    def test_fresh_scope_has_no_memory_but_spawn_guidance(self):
        bundle = prompts.build_exploration_prompt(
            _golden_instance(),
            _golden_fp(),
            None,
            _slots(),
            [{"name": "spawn_subagent", "description": ""}, {"name": "naive", "description": ""}],
        )
        assert "(no injectable memory)" in bundle.system_text
        assert "### Spawn Guidance" in bundle.user_text

    def test_rules_render_in_retrieve_order(self):
        rules = [
            _rule(rule_id="r0002", confidence=0.9, seq=2),
            _rule(rule_id="r0005", confidence=0.6, seq=5),
            _rule(rule_id="r0009", confidence=0.4, seq=9),
        ]
        bundle = prompts.build_exploration_prompt(
            _golden_instance(),
            _golden_fp(),
            _Selection(rules),
            _slots(),
            [{"name": "naive", "description": ""}],
        )
        sys_text = bundle.system_text
        assert sys_text.index("r0002") < sys_text.index("r0005") < sys_text.index("r0009")

    def test_exploration_declares_spawn_and_evaluate(self):
        names = ["spawn_subagent", "evaluate_against_gt", "naive"]
        bundle = prompts.build_exploration_prompt(
            _golden_instance(),
            _golden_fp(),
            None,
            _slots(),
            [{"name": n, "description": ""} for n in names],
        )
        assert "spawn_subagent" in bundle.declared_tool_names()
        assert "evaluate_against_gt" in bundle.declared_tool_names()


class TestInferenceBundle:
    def test_empty_selection_still_valid(self):
        bundle = prompts.build_inference_prompt(
            _golden_instance(), _golden_fp(), None, [{"name": "naive", "description": ""}]
        )
        assert "### Support" in bundle.user_text
        assert "(none)" in bundle.user_text

    def test_focused_tool_notes_only_for_selected_tools(self):
        bundle = prompts.build_inference_prompt(
            _golden_instance(),
            _golden_fp(),
            _Selection([_rule()]),
            [{"name": "naive", "description": ""}],
        )
        assert "- seasonal_naive:" in bundle.user_text
        assert "- drift:" not in bundle.user_text

    def test_a_long_layer_renders_cut(self):
        selection = _Selection([_rule()])
        selection.skills_text = "x" * (prompts.MAX_LAYER_CHARS + 1)
        bundle = prompts.build_inference_prompt(
            _golden_instance(), _golden_fp(), selection, [{"name": "naive", "description": ""}]
        )
        assert "#### Skills\n" + "x" * prompts.MAX_LAYER_CHARS + "\n...[truncated]\n" in bundle.user_text
        assert "x" * (prompts.MAX_LAYER_CHARS + 1) not in bundle.user_text

    def test_exploration_only_tools_cannot_be_declared(self):
        with pytest.raises(ContractError):
            prompts.build_inference_prompt(
                _golden_instance(),
                _golden_fp(),
                None,
                [{"name": "evaluate_against_gt", "description": ""}],
            )
        with pytest.raises(ContractError):
            prompts.build_inference_prompt(
                _golden_instance(),
                _golden_fp(),
                None,
                [{"name": "spawn_subagent", "description": ""}],
            )

    def test_non_injectable_rule_is_a_contract_error(self):
        with pytest.raises(ContractError):
            prompts.build_inference_prompt(
                _golden_instance(),
                _golden_fp(),
                _Selection([_rule(injectable=False)]),
                [{"name": "naive", "description": ""}],
            )

    def test_no_ground_truth_in_any_bundle_text(self):
        inst = _golden_instance()
        bundle = prompts.build_inference_prompt(
            inst,
            prompts.fingerprint(inst),
            _Selection([_rule()]),
            [{"name": "naive", "description": ""}],
        )
        # the target [11.0, 13.0, 10.0, 12.0] must not be rendered anywhere
        for needle in ("[11.0, 13.0, 10.0, 12.0]", "11.0,13.0,10.0,12.0"):
            assert needle not in bundle.user_text
            assert needle not in bundle.system_text


class TestBoundaryEvent:
    def test_boundary_text_flag(self):
        inst = TaskInstance(
            id="b",
            series=tuple(float(v) for v in range(10)),
            task_type=TaskType.FORECAST,
            horizon=2,
            scope="s_f_s",
            timestamps=tuple(f"2024-01-{d:02d}" for d in range(1, 11)),
            text_context=(TextBlock(body="hail", date="2024-01-10"),),
        )
        assert prompts.fingerprint(inst).boundary_event

    def test_mid_window_text_not_boundary(self):
        inst = TaskInstance(
            id="b2",
            series=tuple(float(v) for v in range(10)),
            task_type=TaskType.FORECAST,
            horizon=2,
            scope="s_f_s",
            timestamps=tuple(f"2024-01-{d:02d}" for d in range(1, 11)),
            text_context=(TextBlock(body="hail", date="2024-01-03"),),
        )
        assert not prompts.fingerprint(inst).boundary_event

    @pytest.mark.parametrize(
        "date, expected",
        [
            ("2024-01-09", True),  # 9 of 10 timestamps at or before it: exactly 90%
            ("2024-01-08T12:00", False),  # between the 8th and 9th: 80%
        ],
    )
    def test_ninety_percent_cutoff(self, date, expected):
        inst = TaskInstance(
            id="b3",
            series=tuple(float(v) for v in range(10)),
            task_type=TaskType.FORECAST,
            horizon=2,
            scope="s_f_s",
            timestamps=tuple(f"2024-01-{d:02d}" for d in range(1, 11)),
            text_context=(TextBlock(body="hail", date=date),),
        )
        assert prompts.fingerprint(inst).boundary_event is expected
