"""Checked-in profile golden: every ``SampleFingerprint`` field of a fixed
set of samples, floats as ``repr``, must not drift by a single bit.

Each line of ``data/profiles.jsonl`` holds one sample's corpus record and the
profile an earlier version of ``prompts.fingerprint`` computed for it. The
floats render into the golden prompt frames, the notes and the exchange
digests, so a faster profile must give the same bits. After an intended
profile change, regenerate the golden with::

    PYTHONPATH=src python tests/test_profile_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any

from timeclaw import prompts
from timeclaw.core import TaskInstance, TaskType, TextBlock
from timeclaw.corpus import FamilySpec, generate_sample, parse_record
from timeclaw.util import stable_rng

GOLDEN = Path(__file__).parent / "data" / "profiles.jsonl"

# the four synthetic kinds at a few lengths and periods; gen-corpus writes
# exactly these samples for a spec of these families
FAMILIES = (
    FamilySpec(name="seasonal", kind="seasonal", learn_count=6, eval_count=0),
    FamilySpec(name="seasonal_long", kind="seasonal", learn_count=2, eval_count=0, length=240, period=12),
    FamilySpec(name="trending", kind="trending", learn_count=4, eval_count=0, domain="trend"),
    FamilySpec(name="trending_quiet", kind="trending", learn_count=2, eval_count=0, length=48, noise=0.0),
    FamilySpec(name="trend_label", kind="trend_label", learn_count=4, eval_count=0),
    FamilySpec(name="indicator", kind="indicator", learn_count=4, eval_count=0, length=96, period=7),
)
CORPUS_SEED = 1


def _instance(name: str, series: list[float], **kwargs: Any) -> TaskInstance:
    return TaskInstance(
        id=f"edge:{name}", series=tuple(series), task_type=TaskType.FORECAST, horizon=4, scope="edge", **kwargs
    )


def _edge_instances() -> list[TaskInstance]:
    rng = stable_rng("profile-golden")
    dates = tuple(f"2024-{m:02d}-{d:02d}" for m in (1, 2) for d in range(1, 29))
    return [
        _instance("constant", [5.0] * 50),
        _instance("constant_zero", [0.0] * 9),
        _instance("length1", [2.5]),
        _instance("length2", [1.0, 2.0]),
        _instance("length3", [3.0, 3.0, 4.0]),
        _instance("length4", [1.0, -1.0, 2.0, 0.5]),
        _instance("length5", [0.1, 0.2, 0.3, 0.4, 0.5]),
        _instance("alternating", [1.0, -1.0] * 30),
        _instance("alternating_offset", [10.0, 12.5] * 25 + [11.0]),
        _instance("large_offset", [1e6 + 0.01 * math.sin(2 * math.pi * t / 24) + rng.gauss(0.0, 1e-3) for t in range(120)]),
        _instance("huge_offset", [1e9 + rng.gauss(0.0, 1.0) for _ in range(60)]),
        _instance("spike", [0.0] * 40 + [87.5] + [0.0] * 39),
        _instance("constant_half", [3.0] * 30 + [rng.gauss(0.0, 1.0) for _ in range(30)]),
        _instance("level_shift", [rng.gauss(0.0, 1.0) + (8.0 if t >= 60 else 0.0) for t in range(120)]),
        _instance(
            "boundary_text",
            [rng.gauss(20.0, 2.0) for _ in dates],
            timestamps=dates,
            text_context=(TextBlock(body="holiday closure", date="2024-02-27"),),
        ),
    ]


def golden_instances() -> list[TaskInstance]:
    corpus = [
        generate_sample(family, "learning", i, CORPUS_SEED)[0]
        for family in FAMILIES
        for i in range(family.learn_count)
    ]
    return corpus + _edge_instances()


def profile_fields(fp: prompts.SampleFingerprint) -> dict[str, Any]:
    """Every field of ``fp``; floats as ``repr`` so equality is bit equality."""
    return {k: repr(v) if isinstance(v, float) else v for k, v in dataclasses.asdict(fp).items()}


def render_golden() -> str:
    lines = []
    for inst in golden_instances():
        record = inst.public_dict()
        lines.append(json.dumps({"record": record, "profile": profile_fields(prompts.fingerprint(inst))}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _golden_lines() -> list[dict[str, Any]]:
    return [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def test_profiles_match_golden():
    lines = _golden_lines()
    assert len(lines) == len(golden_instances())
    drifted = {}
    for line in lines:
        got = profile_fields(prompts.fingerprint(parse_record(line["record"])))
        diff = {k: (line["profile"][k], v) for k, v in got.items() if line["profile"].get(k) != v}
        if diff or got.keys() != line["profile"].keys():
            drifted[line["record"]["id"]] = diff
    assert not drifted, f"(golden, now) of each drifted field: {drifted}"


def test_golden_covers_every_profile_outcome():
    """A golden that never exercises a branch of the profile pins nothing there."""
    profiles = [line["profile"] for line in _golden_lines()]
    assert {p["trend_class"] for p in profiles} == {"increasing", "decreasing", "stable"}
    assert {p["period_significant"] for p in profiles} == {True, False}
    assert {p["stationary"] for p in profiles} == {True, False}
    assert {p["boundary_event"] for p in profiles} == {True, False}
    assert any(p["dominant_period"] is None for p in profiles)
    assert any(p["n_anomalies"] > 0 for p in profiles)


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
    sys.exit(0)
