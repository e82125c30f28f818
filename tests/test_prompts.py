"""Prompt assembly: sample fingerprints, applicability predicates and the
golden frames in ``tests/data/frames/``, which pin every prompt byte. After
an intended frame change, regenerate them with::

    PYTHONPATH=src python tests/test_prompts.py
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

import pytest

from timeclaw import policy, prompts
from timeclaw.core import SealedAnswer, TaskInstance, TaskType, TextBlock
from timeclaw.corpus import FamilySpec, generate_sample
from timeclaw.errors import ContractError
from timeclaw.gateway import DeclaredTools
from timeclaw.orchestrator import BranchSlot
from timeclaw.store import ExperienceStore, LearningNote, MemoryRule
from timeclaw.util import json_dumps

FRAMES = Path(__file__).parent / "data" / "frames"


def _rule(injectable=True, **kwargs):
    defaults = dict(
        rule_id="r0001",
        kind="tool_preference",
        applicability={"seasonal": True, "task_subtype": "forecast"},
        preferred_tools=("seasonal_naive",),
        avoided_tools=("naive",),
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


def _slot_tools(slots):
    return [DeclaredTools({"name": n, "description": ""} for n in sorted(s.visible_tools)) for s in slots]


def golden_bundles() -> tuple[list[prompts.PromptBundle], prompts.PromptBundle]:
    """The golden episode's branch prompts, one per slot, and the golden
    inference prompt."""
    branches = prompts.build_exploration_prompt(
        _golden_instance(),
        _golden_fp(),
        _Selection([_rule()]),
        _slots(),
        _slot_tools(_slots()),
        soul="# Soul\nBe careful.",
    )
    inference = prompts.build_inference_prompt(
        _golden_instance(),
        _golden_fp(),
        _Selection([_rule()]),
        DeclaredTools(
            {"name": n, "description": d}
            for n, d in [
                ("naive", "repeat last"),
                ("drift", "slope"),
                ("seasonal_naive", "period repeat"),
            ]
        ),
        soul="# Soul\nBe careful.",
    )
    return branches, inference


def render_frames() -> dict[str, str]:
    """The golden exploration and inference prompts, by frame file name. An
    exploration episode's prompts are its branches': the branch frame is
    slot 0's, and the exploration system message is the one they share."""
    branches, inference = golden_bundles()
    branch = branches[0]
    return {
        "exploration_system.txt": branch.system_text,
        "branch_user.txt": branch.user_text,
        "inference_system.txt": inference.system_text,
        "inference_user.txt": inference.user_text,
    }


class TestGoldenFrames:
    def _assert_stable(self, *names):
        frames = render_frames()
        for name in names:
            assert frames[name] == (FRAMES / name).read_text(encoding="utf-8"), f"{name} drifted from its golden"

    def test_exploration_frame_is_byte_stable(self):
        self._assert_stable("exploration_system.txt")

    def test_branch_frame_is_byte_stable(self):
        self._assert_stable("branch_user.txt")

    def test_inference_frame_is_byte_stable(self):
        self._assert_stable("inference_system.txt", "inference_user.txt")

    def test_frame_section_order(self):
        user = (FRAMES / "branch_user.txt").read_text(encoding="utf-8")
        positions = [
            user.index("## Objective"),
            user.index("## Observation"),
            user.index("### Sample Fingerprint"),
            user.index("## Decision"),
            user.index("### Branch Goal"),
        ]
        assert positions == sorted(positions)


class TestEachFactOnce:
    """The user text states each fact once: no ``- key = `` key twice, and
    no tool the exchange already declares in its schemas."""

    @staticmethod
    def _bundles():
        branches, inference = golden_bundles()
        return {**{f"branch {i}": b for i, b in enumerate(branches)}, "inference": inference}

    def test_no_key_is_stated_twice(self):
        for frame, bundle in self._bundles().items():
            keys = re.findall(r"^- (\w+) = ", bundle.user_text, flags=re.MULTILINE)
            assert keys and len(keys) == len(set(keys)), (frame, sorted(k for k in keys if keys.count(k) > 1))

    def test_no_line_restates_a_declared_tool(self):
        for frame, bundle in self._bundles().items():
            tool_lines = {f"- {t['name']}: {t.get('description', '')}" for t in bundle.declared_tools}
            assert tool_lines and not tool_lines & set(bundle.user_text.splitlines()), frame


def _policy_instances():
    """A forecast, an indicator and a trend-label instance, each with its
    own horizon and period."""
    families = [
        FamilySpec(name="f", kind="seasonal", learn_count=1, eval_count=0, horizon=12, period=12),
        FamilySpec(name="i", kind="indicator", learn_count=1, eval_count=0, length=96, horizon=7, period=7),
        FamilySpec(name="t", kind="trend_label", learn_count=1, eval_count=0, horizon=20, period=24),
    ]
    return [generate_sample(family, "learning", 0, seed=3)[0] for family in families]


class TestPolicyInputs:
    def test_the_policies_read_each_instance_s_own_values(self):
        """The lines the offline model parses survive in every frame, each
        carrying the instance's own value; only a branch prompt names a
        hint."""
        instances = _policy_instances()
        assert len({i.horizon for i in instances}) == len(instances) and any(i.label_space for i in instances)
        periods = set()
        for instance, fp in zip(instances, prompts.fingerprints(instances)):
            slots = _slots()
            branches = prompts.build_exploration_prompt(instance, fp, None, slots, _slot_tools(slots))
            inference = prompts.build_inference_prompt(instance, fp, None, DeclaredTools([{"name": "naive"}]))
            period = fp.dominant_period if fp.period_significant else None
            for text in [b.user_text for b in branches] + [inference.user_text]:
                assert policy._horizon(text) == instance.horizon
                assert policy._required_final_type(text) == instance.task_type.value
                assert policy._label_space(text) == list(instance.label_space or ())
                assert policy._dominant_period(text) == period
            assert [policy._hint(b.user_text) for b in branches] == [s.hint for s in slots]
            assert policy._hint(inference.user_text) is None
            periods.add(period)
        assert len(periods - {None}) > 1


class TestExplorationBundle:
    def test_an_episode_s_prompts_are_its_slots_branch_prompts(self):
        selection, slots = _Selection([_rule()]), _slots()
        bundles = prompts.build_exploration_prompt(
            _golden_instance(), _golden_fp(), selection, slots, _slot_tools(slots), soul="# Soul"
        )
        assert [(b.system_text, b.user_text, b.declared_tools) for b in bundles] == [
            (b.system_text, b.user_text, b.declared_tools)
            for b in (
                prompts.build_branch_prompt(_golden_instance(), _golden_fp(), slot, tools, selection, soul="# Soul")
                for slot, tools in zip(slots, _slot_tools(slots))
            )
        ]

    def test_each_slot_gets_one_prompt_and_its_own_tool_list(self):
        slots = _slots()
        with pytest.raises(ValueError):
            prompts.build_exploration_prompt(_golden_instance(), _golden_fp(), None, slots, _slot_tools(slots[:1]))
        bundles = prompts.build_exploration_prompt(_golden_instance(), _golden_fp(), None, slots, _slot_tools(slots))
        assert [b.declared_tools.names for b in bundles] == [tuple(sorted(s.visible_tools)) for s in slots]

    def test_fresh_scope_has_no_memory_but_each_slot_s_goal(self):
        bundles = prompts.build_exploration_prompt(_golden_instance(), _golden_fp(), None, _slots(), _slot_tools(_slots()))
        for slot, bundle in zip(_slots(), bundles):
            assert "(no injectable memory)" in bundle.system_text
            assert f"### Branch Goal\n- slot = {slot.slot}\n- goal = {slot.goal}\n- hint = {slot.hint}\n" in bundle.user_text

    def test_rules_render_in_retrieve_order(self):
        rules = [
            _rule(rule_id="r0002", confidence=0.9, seq=2),
            _rule(rule_id="r0005", confidence=0.6, seq=5),
            _rule(rule_id="r0009", confidence=0.4, seq=9),
        ]
        for bundle in prompts.build_exploration_prompt(
            _golden_instance(), _golden_fp(), _Selection(rules), _slots(), _slot_tools(_slots())
        ):
            sys_text = bundle.system_text
            assert sys_text.index("r0002") < sys_text.index("r0005") < sys_text.index("r0009")

    def test_no_prompt_asks_for_a_spawn_or_an_evaluation(self):
        for bundle in prompts.build_exploration_prompt(
            _golden_instance(), _golden_fp(), _Selection([_rule()]), _slots(), _slot_tools(_slots())
        ):
            assert "spawn" not in bundle.user_text.lower()
            assert "evaluat" not in bundle.user_text.lower()


class TestInferenceBundle:
    def test_empty_selection_still_valid(self):
        bundle = prompts.build_inference_prompt(
            _golden_instance(), _golden_fp(), None, DeclaredTools([{"name": "naive", "description": ""}])
        )
        assert "(no injectable memory)" in bundle.system_text
        assert "### Output Contract" in bundle.user_text

    def test_a_long_layer_renders_cut(self):
        rules = [_rule(rule_id=f"r{i:04d}", seq=i) for i in range(1, 101)]
        whole = "\n".join(prompts.render_memory_rules([rule]) for rule in rules)
        assert len(whole) > prompts.MAX_LAYER_CHARS
        bundle = prompts.build_inference_prompt(
            _golden_instance(), _golden_fp(), _Selection(rules), DeclaredTools([{"name": "naive", "description": ""}])
        )
        assert "## Memory\n" + whole[: prompts.MAX_LAYER_CHARS] + "\n...[truncated]\n" in bundle.system_text
        assert whole not in bundle.system_text

    def test_exploration_only_tools_cannot_be_declared(self):
        with pytest.raises(ContractError):
            prompts.build_inference_prompt(
                _golden_instance(),
                _golden_fp(),
                None,
                DeclaredTools([{"name": "evaluate_batch_against_gt", "description": ""}]),
            )

    def test_non_injectable_rule_is_a_contract_error(self):
        with pytest.raises(ContractError):
            prompts.build_inference_prompt(
                _golden_instance(),
                _golden_fp(),
                _Selection([_rule(injectable=False)]),
                DeclaredTools([{"name": "naive", "description": ""}]),
            )

    def test_no_ground_truth_in_any_bundle_text(self):
        inst = _golden_instance()
        bundle = prompts.build_inference_prompt(
            inst,
            prompts.fingerprint(inst),
            _Selection([_rule()]),
            DeclaredTools([{"name": "naive", "description": ""}]),
        )
        # the target [11.0, 13.0, 10.0, 12.0] must not be rendered anywhere
        for needle in ("[11.0, 13.0, 10.0, 12.0]", "11.0,13.0,10.0,12.0"):
            assert needle not in bundle.user_text
            assert needle not in bundle.system_text


class TestReinject:
    def test_a_retrieved_rule_renders_in_one_line_of_each_frame(self, tmp_path):
        """Each line that states a rule's stance names its applicability: in
        every frame, system and user text together hold exactly one."""
        fp = _golden_fp()
        when = {"seasonal": fp.seasonal, "task_subtype": fp.task_subtype}
        store = ExperienceStore(tmp_path)
        store.commit_note(
            LearningNote(
                scope="synth_forecast_short",
                instance_id="golden1",
                winner_tools=("seasonal_naive",),
                loser_tools=("naive",),
                metrics={},
                evidence_class="comparative",
                applicability=when,
                eval_evidence=True,
            )
        )
        store.finalize("synth_forecast_short")
        selection = store.retrieve("synth_forecast_short", fp)
        assert [r.injectable for r in selection.rules] == [True]
        tools = DeclaredTools({"name": n, "description": ""} for n in ("naive", "drift", "seasonal_naive"))
        soul = store.soul_text()
        branches = prompts.build_exploration_prompt(_golden_instance(), fp, selection, _slots(), [tools] * 2, soul=soul)
        bundles = {
            **{f"branch {i}": bundle for i, bundle in enumerate(branches)},
            "inference": prompts.build_inference_prompt(_golden_instance(), fp, selection, tools, soul=soul),
        }
        stance = json_dumps(when, sort_keys=True)
        for frame, bundle in bundles.items():
            lines = [line for line in (bundle.system_text + bundle.user_text).splitlines() if stance in line]
            assert len(lines) == 1, (frame, lines)
            assert "prefer: seasonal_naive; avoid: naive" in lines[0] and lines[0] in bundle.system_text


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


if __name__ == "__main__":
    FRAMES.mkdir(parents=True, exist_ok=True)
    for name, text in render_frames().items():
        (FRAMES / name).write_text(text, encoding="utf-8")
        print(f"wrote {FRAMES / name} ({len(text)} chars)", file=sys.stderr)
