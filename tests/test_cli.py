from __future__ import annotations

import json
import shutil
import sys

import pytest

from timeclaw.cli import main
from timeclaw.store import ExperienceStore

SPEC = {
    "seed": 11,
    "families": [
        {
            "name": "szn",
            "kind": "seasonal",
            "learn_count": 12,
            "eval_count": 5,
            "length": 96,
            "horizon": 24,
            "period": 24,
        }
    ],
}


@pytest.fixture
def corpus_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


class TestGenCorpus:
    def test_writes_both_roles(self, corpus_dir):
        assert (corpus_dir / "learning.jsonl").exists()
        assert (corpus_dir / "eval.jsonl").exists()

    def test_same_seed_twice_identical(self, corpus_dir, tmp_path):
        spec_path = tmp_path / "spec.json"
        out2 = tmp_path / "corpus2"
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(out2)]) == 0
        assert (corpus_dir / "learning.jsonl").read_text() == (out2 / "learning.jsonl").read_text()


class TestExplore:
    def test_populates_store_and_summary(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        code = main(
            [
                "explore",
                "--corpus",
                str(corpus_dir / "learning.jsonl"),
                "--store",
                str(store),
                "--seed",
                "3",
            ]
        )
        assert code == 0
        summary = json.loads((store.parent / "run_summary.json").read_text())
        assert summary["instances"] == 12
        assert sum(summary["episodes"].values()) == 12
        assert (store / "notes" / "synth_forecast_short.md").exists()
        assert (store / "ledger.jsonl").exists()

    def test_parallel_exploration_keeps_store_consistent(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        code = main(
            [
                "explore",
                "--corpus",
                str(corpus_dir / "learning.jsonl"),
                "--store",
                str(store),
                "--seed",
                "3",
                "--parallel",
                "3",
            ]
        )
        assert code == 0
        from timeclaw.store import ExperienceStore

        notes = ExperienceStore(store).notes("synth_forecast_short")
        assert [n.sequence for n in notes] == list(range(1, len(notes) + 1))
        summary = json.loads((store.parent / "run_summary.json").read_text())
        assert sum(summary["episodes"].values()) == 12

    def test_parallel_exploration_over_two_scopes(self, tmp_path):
        families = [
            {**SPEC["families"][0], "learn_count": 14},
            {"name": "lbl", "kind": "trend_label", "learn_count": 12, "eval_count": 2, "length": 96, "horizon": 24},
        ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 11, "families": families}))
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(tmp_path / "corpus")]) == 0
        store = tmp_path / "store"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a missing lock shows
        try:
            code = main(
                [
                    "explore",
                    "--corpus",
                    str(tmp_path / "corpus" / "learning.jsonl"),
                    "--store",
                    str(store),
                    "--seed",
                    "3",
                    "--parallel",
                    "3",
                ]
            )
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        reopened = ExperienceStore(store)
        assert reopened.scopes() == ["synth_forecast_short", "synth_trend_short"]
        for scope in reopened.scopes():
            notes = reopened.notes(scope)
            assert [n.sequence for n in notes] == list(range(1, len(notes) + 1))
            assert reopened.memory_state(scope).distilled_through == len(notes)
        # the tool cards on disk are the ones the final memory of every scope gives
        rebuilt = tmp_path / "rebuilt"
        shutil.copytree(store, rebuilt)
        for card in (rebuilt / "tools").glob("*.md"):
            card.unlink()
        ExperienceStore(rebuilt)._rebuild_tool_notes()
        cards = sorted(p.name for p in (store / "tools").glob("*.md"))
        assert cards
        assert cards == sorted(p.name for p in (rebuilt / "tools").glob("*.md"))
        for name in cards:
            assert (store / "tools" / name).read_text() == (rebuilt / "tools" / name).read_text()

    def test_script_misses_are_partial_failures_not_crashes(self, corpus_dir, tmp_path):
        empty_script = tmp_path / "empty.json"
        empty_script.write_text("{}")
        code = main(
            [
                "explore",
                "--corpus",
                str(corpus_dir / "learning.jsonl"),
                "--store",
                str(tmp_path / "store"),
                "--mock-script",
                str(empty_script),
            ]
        )
        assert code == 3  # every instance failed, run still completed
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert len(summary["failed_instances"]) == 12

    def test_corpus_without_targets_exits_config_error(self, corpus_dir, tmp_path):
        # the eval corpus has targets; strip them to simulate a bad learning corpus
        lines = []
        for line in (corpus_dir / "eval.jsonl").read_text().splitlines():
            record = json.loads(line)
            record.pop("ground_truth", None)
            lines.append(json.dumps(record))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["explore", "--corpus", str(bad), "--store", str(tmp_path / "s")])
        assert code == 2


class TestInfer:
    def _explore(self, corpus_dir, store):
        assert (
            main(
                [
                    "explore",
                    "--corpus",
                    str(corpus_dir / "learning.jsonl"),
                    "--store",
                    str(store),
                    "--seed",
                    "3",
                ]
            )
            == 0
        )

    def test_predictions_and_untouched_store(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        self._explore(corpus_dir, store)
        out = tmp_path / "preds.jsonl"
        assert (
            main(
                [
                    "infer",
                    "--corpus",
                    str(corpus_dir / "eval.jsonl"),
                    "--store",
                    str(store),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 5
        for r in records:
            assert set(r) >= {"id", "prediction", "tool_chain", "execution_context", "degraded"}
        summary = json.loads((tmp_path / "infer_summary.json").read_text())
        assert summary["store_untouched"] is True
        assert summary["noexp"] is False

    def test_absent_store_is_noexp_path(self, corpus_dir, tmp_path):
        out = tmp_path / "preds.jsonl"
        code = main(
            [
                "infer",
                "--corpus",
                str(corpus_dir / "eval.jsonl"),
                "--store",
                str(tmp_path / "never_created"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "infer_summary.json").read_text())
        assert summary["noexp"] is True


class TestEval:
    def test_perfect_predictions_zero_error(self, corpus_dir, tmp_path):
        from timeclaw.corpus import load_samples, reveal_for_scoring

        eval_path = corpus_dir / "eval.jsonl"
        instances = load_samples(eval_path, "evaluation").instances
        preds = tmp_path / "perfect.jsonl"
        with preds.open("w") as fh:
            for inst in instances:
                fh.write(json.dumps({"id": inst.id, "prediction": reveal_for_scoring(inst)}) + "\n")
        out = tmp_path / "scores.json"
        assert (
            main(["eval", "--predictions", str(preds), "--corpus", str(eval_path), "--out", str(out)])
            == 0
        )
        scores = json.loads(out.read_text())
        scope = scores["scopes"][0]
        assert scope["metrics"]["mae"] == 0.0
        assert scope["effective_n"] == 5

    def test_threshold_excludes_extreme_row(self, corpus_dir, tmp_path):
        from timeclaw.corpus import load_samples, reveal_for_scoring

        eval_path = corpus_dir / "eval.jsonl"
        instances = load_samples(eval_path, "evaluation").instances
        preds = tmp_path / "preds.jsonl"
        with preds.open("w") as fh:
            for i, inst in enumerate(instances):
                truth = reveal_for_scoring(inst)
                pred = [v + 1e7 for v in truth] if i == 0 else truth
                fh.write(json.dumps({"id": inst.id, "prediction": pred}) + "\n")
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(json.dumps({"synth_forecast_short": 100.0}))
        out = tmp_path / "scores.json"
        main(
            [
                "eval",
                "--predictions",
                str(preds),
                "--corpus",
                str(eval_path),
                "--threshold-file",
                str(thresholds),
                "--out",
                str(out),
            ]
        )
        scope = json.loads(out.read_text())["scopes"][0]
        assert scope["raw_n"] == 5
        assert scope["effective_n"] == 4

    def test_five_way_scope_reports_both_granularities(self, tmp_path):
        labels = ["< -4%", "-4% ~ -2%", "-2% ~ +2%", "+2% ~ +4%", "> +4%"]
        corpus = tmp_path / "c.jsonl"
        records = []
        for i, gt in enumerate(labels):
            records.append(
                {
                    "id": f"t{i}",
                    "series": [1.0, 2.0, 3.0],
                    "task_type": "trend",
                    "horizon": 1,
                    "scope": "fin_trend_short",
                    "label_space": labels,
                    "ground_truth": gt,
                }
            )
        corpus.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        preds = tmp_path / "p.jsonl"
        # one off-by-one-bucket error inside the same 3-way group
        answers = [labels[0], labels[0], labels[2], labels[3], labels[4]]
        preds.write_text(
            "\n".join(json.dumps({"id": f"t{i}", "prediction": a}) for i, a in enumerate(answers))
            + "\n"
        )
        out = tmp_path / "scores.json"
        main(["eval", "--predictions", str(preds), "--corpus", str(corpus), "--out", str(out)])
        scope = json.loads(out.read_text())["scopes"][0]
        assert scope["metrics"]["acc_5"] == pytest.approx(0.8)
        assert scope["metrics"]["acc_3"] == pytest.approx(1.0)

    def test_unknown_prediction_ids_listed(self, corpus_dir, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"id": "not-in-corpus", "prediction": [1.0]}) + "\n")
        out = tmp_path / "scores.json"
        main(
            [
                "eval",
                "--predictions",
                str(preds),
                "--corpus",
                str(corpus_dir / "eval.jsonl"),
                "--out",
                str(out),
            ]
        )
        scores = json.loads(out.read_text())
        assert scores["unknown_prediction_ids"] == ["not-in-corpus"]


class TestReportAndSimulate:
    def test_report_counts_match_store(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        main(
            [
                "explore",
                "--corpus",
                str(corpus_dir / "learning.jsonl"),
                "--store",
                str(store),
                "--seed",
                "3",
            ]
        )
        out = tmp_path / "report.json"
        assert main(["report", "--store", str(store), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        scope = report["scopes"]["synth_forecast_short"]
        summary = json.loads((store.parent / "run_summary.json").read_text())
        evidence_episodes = summary["episodes"]["comparative"] + summary["episodes"]["single_execution"]
        assert scope["notes"] == evidence_episodes
        assert scope["entropy_history"]
        seqs = [s["seq"] for s in scope["snapshots"]]
        assert seqs == sorted(seqs)

    def test_fresh_store_reports_zeros(self, tmp_path):
        from timeclaw.store import ExperienceStore

        ExperienceStore(tmp_path / "fresh")
        out = tmp_path / "report.json"
        assert main(["report", "--store", str(tmp_path / "fresh"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["scopes"] == {}

    def test_simulate_dropout_outputs(self, tmp_path):
        out = tmp_path / "diag"
        code = main(["simulate-dropout", "--seeds", "3", "--out", str(out)])
        assert code == 0
        assert (out / "dropout_diag.csv").exists()
        data = json.loads((out / "dropout_diag.json").read_text())
        assert data["prefixes"]
        assert len(data["on"]["coverage"]) == len(data["prefixes"])


class TestReplayCommand:
    def test_replay_clean_trace(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        main(
            [
                "explore",
                "--corpus",
                str(corpus_dir / "learning.jsonl"),
                "--store",
                str(store),
                "--seed",
                "3",
            ]
        )
        traces = sorted((store / "traces").glob("*.jsonl"))
        assert traces
        assert main(["replay", "--trace", str(traces[0])]) == 0
        assert main(["lint", "--trace", str(traces[0])]) == 0
