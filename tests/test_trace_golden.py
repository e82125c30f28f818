"""Checked-in trace goldens: the bytes of one exploration episode and one
inference sample, both against the built-in policy mock, must not drift.

``TestTraceDeterminism`` compares two runs of the same code; these goldens
compare against the bytes an earlier version of the engine wrote. After an
intended trace change, regenerate them with::

    PYTHONPATH=src python tests/test_trace_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from timeclaw.core import TaskInstance
from timeclaw.corpus import FamilySpec, generate_sample, reveal_for_scoring
from timeclaw.orchestrator import EpisodeDeps, ExplorationConfig, run_exploration_episode, run_inference
from timeclaw.policy import policy_gateway
from timeclaw.replay import lint, replay
from timeclaw.store import ExperienceStore
from timeclaw.toolkit import builtin_toolkit

GOLDEN = Path(__file__).parent / "data" / "traces"
FAMILY = FamilySpec(
    name="seasonal", kind="seasonal", learn_count=4, eval_count=2, length=96, horizon=24, period=24
)


def _deps(root: Path, policy: str) -> EpisodeDeps:
    toolkit = builtin_toolkit()
    store = ExperienceStore(root / "store")
    return EpisodeDeps(
        toolkit=toolkit,
        gateway=policy_gateway(policy),
        store=store,
        trace_dir=root / policy,
    )


def golden_samples() -> list[TaskInstance]:
    """The golden exploration episode's sample, then the golden inference
    sample: the corpus the goldens replay against."""
    return [generate_sample(FAMILY, role, 0, seed=11)[0] for role in ("learning", "eval")]


def render_traces(root: Path) -> dict[str, bytes]:
    """Run the golden exploration episode, then the golden inference sample
    against the store it wrote; return each trace's bytes by golden name."""
    learn, probe = golden_samples()
    outcome = run_exploration_episode(learn, ExplorationConfig(seed=5), _deps(root, "exploration"))
    result = run_inference(probe, _deps(root, "inference"))
    return {
        "exploration.jsonl": Path(outcome.trace_path).read_bytes(),
        "inference.jsonl": Path(result.trace_path).read_bytes(),
    }


def test_golden_exploration_episode_runs_its_branches_evaluates_and_finishes(tmp_path):
    text = render_traces(tmp_path)["exploration.jsonl"].decode()
    assert '"tool":"evaluate_batch_against_gt"' in text and "spawn" not in text
    # every gateway exchange is a branch's, the engine's evaluate call
    # follows them, and the episode ends at the comparison
    events = [json.loads(line) for line in text.splitlines()[1:]]
    requests = [i for i, e in enumerate(events) if e["kind"] == "gateway_request"]
    assert requests and all(events[i]["branch"] is not None for i in requests)
    [evaluate] = [i for i, e in enumerate(events) if e["kind"] == "tool_call" and e["branch"] is None]
    assert requests[-1] < evaluate


def test_traces_match_checked_in_goldens(tmp_path):
    for name, data in render_traces(tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} drifted from its golden"


def test_checked_in_goldens_replay_and_lint_clean():
    """A golden regenerated from a broken engine must not pass unnoticed:
    every recorded tool call re-executes to the recorded artifact, the
    exploration contract holds, and the inference trace holds no rendering
    of its sample's ground truth."""
    samples = golden_samples()
    truth = [repr(float(v)) for v in reveal_for_scoring(samples[1])]
    for name, mode, forbidden in (("exploration.jsonl", "exploration", []), ("inference.jsonl", "inference", truth)):
        [report] = replay(GOLDEN / name, samples)  # a per-episode trace file is a one-block log
        assert report.clean and report.events, report.to_dict()
        [linted] = lint(GOLDEN / name, forbidden_substrings=forbidden)
        assert linted.clean and linted.mode == mode, linted.to_dict()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in render_traces(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)", file=sys.stderr)
