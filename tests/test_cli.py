from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import sys
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from timeclaw import __version__, cli, prompts
from timeclaw import gateway as gateway_module
from timeclaw import store as store_module
from timeclaw.cli import _build_deps, _build_gateway, build_parser, main
from timeclaw.corpus import load_samples, reveal_for_scoring
from timeclaw.gateway import RemoteGateway
from timeclaw.orchestrator import ExplorationConfig, read_trace, run_exploration_episode
from timeclaw.policy import policy_gateway
from timeclaw.store import ExperienceStore, MemoryState
from timeclaw.util import canonical_json

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


class Killed(BaseException):
    """Stands in for the process dying just before an output's final rename."""


def _kill_at_rename_of(monkeypatch, name):
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise Killed
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


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

    def test_checks_the_written_pools_are_disjoint(self, corpus_dir, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(tmp_path / "again")]) == 0
        assert 'disjointness: {"overlaps":{},"pass":true,"warning":""}' in capsys.readouterr().out

    def test_shared_source_across_pools_exits_2(self, tmp_path, capsys, monkeypatch):
        from timeclaw import corpus

        real = corpus.generate_sample

        def one_source(family, role, index, seed):
            instance, _source, future = real(family, role, index, seed)
            return instance, "station-7", future

        monkeypatch.setattr(corpus, "generate_sample", one_source)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(tmp_path / "corpus")]) == 2
        out, err = capsys.readouterr()
        assert '"pass":false' in out
        assert "share sources" in err


# Every synthetic kind: forecasts, indicators and labels.
MIXED_SPEC = {
    "seed": 4,
    "families": [
        {"name": name, "kind": kind, "domain": domain, "learn_count": 6, "eval_count": 2, "length": 96, "horizon": 24,
         "period": 24}
        for name, kind, domain in (
            ("szn", "seasonal", "synth"), ("trd", "trending", "trend"), ("lab", "trend_label", "synth"),
            ("ind", "indicator", "synth"),
        )
    ],
}


def _truth_renderings(truth):
    numbers = truth.values() if isinstance(truth, dict) else truth if isinstance(truth, list) else ()
    return [canonical_json(truth), json.dumps(truth), *(repr(float(v)) for v in numbers)]


class TestExplore:
    @pytest.fixture
    def mixed_run(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(MIXED_SPEC))
        assert main(["gen-corpus", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "corpus")]) == 0
        learning = tmp_path / "corpus" / "learning.jsonl"
        assert main(["explore", "--corpus", str(learning), "--store", str(tmp_path / "store"), "--seed", "2"]) == 0
        return load_samples(learning, "learning").instances, tmp_path / "store"

    def test_notes_hold_no_rendering_of_any_truth(self, mixed_run):
        instances, store = mixed_run
        shards = {p.name: p.read_text() for p in (store / "notes").glob("*.md")}
        assert len(shards) == 4
        leaks = [
            (inst.id, name)
            for inst in instances
            for needle in _truth_renderings(reveal_for_scoring(inst))
            for name, text in shards.items()
            if needle in text
        ]
        assert not leaks

    def test_an_explored_store_decodes_no_note_at_open(self, mixed_run, monkeypatch):
        _instances, root = mixed_run
        decoded = []
        note_from_block = store_module._note_from_block
        monkeypatch.setattr(
            store_module, "_note_from_block", lambda *args: decoded.append(args) or note_from_block(*args)
        )
        store = ExperienceStore(root)
        assert len(store.scopes()) == 4 and decoded == []
        assert all(store.pending_notes(scope) == [] for scope in store.scopes())
        assert sum(len(store.notes(scope)) for scope in store.scopes()) == len(decoded) == 24

    def test_each_trace_branch_lists_its_tools_once(self, mixed_run):
        _instances, store = mixed_run
        blocks = [block for path in sorted((store / "traces").glob("*.jsonl")) for block in read_trace(path)]
        assert len(blocks) == 24
        for block in blocks:
            episode = block.header["episode"]
            requests: dict = {}
            for e in block.events:
                if e["kind"] == "gateway_request":
                    requests.setdefault(e["branch"], []).append("tools" in e["payload"])
            assert set(requests) == {None, 0, 1}, episode
            for listed in requests.values():
                assert listed[0] and listed.count(True) == 1, episode

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
        from timeclaw.store import ExperienceStore, MemoryState

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
        learning = str(tmp_path / "corpus" / "learning.jsonl")
        store = tmp_path / "parallel" / "store"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a missing lock shows
        try:
            code = main(["explore", "--corpus", learning, "--store", str(store), "--seed", "3", "--parallel", "3"])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        reopened = ExperienceStore(store)
        assert reopened.scopes() == ["synth_forecast_short", "synth_trend_short"]
        for scope in reopened.scopes():
            notes = reopened.notes(scope)
            assert [n.sequence for n in notes] == list(range(1, len(notes) + 1))
            assert reopened.memory_state(scope).distilled_through == len(notes)
        # no card or skills file is stored; the views each scope's last
        # snapshot renders are those its final memory renders
        assert {p.name for p in store.iterdir()} == {"soul.md", "notes", "memory", "snapshots", "traces", "ledger.jsonl"}
        for scope in reopened.scopes():
            memory = reopened.memory_state(scope)
            snapshot = reopened.snapshot_layers(scope, len(reopened.snapshot_timeline(scope)))
            snapped = MemoryState.from_dict(json.loads(snapshot[f"memory/{scope}.json"]))
            assert store_module._tool_cards(snapped) == store_module._tool_cards(memory)
            assert store_module._skills_text(scope, snapped) == store_module._skills_text(scope, memory)
        # In parallel the episode order, so what each scope's memory ends up
        # injecting, is not fixed (ROADMAP item 8): a scope may end with no
        # injectable rule and no card. Run in corpus order, both scopes
        # render cards.
        store = tmp_path / "sequential" / "store"
        assert main(["explore", "--corpus", learning, "--store", str(store), "--seed", "3", "--parallel", "1"]) == 0
        reopened = ExperienceStore(store)
        cards = {scope: sorted(store_module._tool_cards(reopened.memory_state(scope))) for scope in reopened.scopes()}
        assert cards == {"synth_forecast_short": ["seasonal_naive", "ses"], "synth_trend_short": ["autocorrelation", "segment"]}

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

    def test_a_series_int_past_the_float_range_is_a_rejected_line(self, corpus_dir, tmp_path):
        lines = []
        for name in ("learning.jsonl", "eval.jsonl"):
            path = corpus_dir / name
            lines = path.read_text().splitlines()
            record = {**json.loads(lines[0]), "id": "huge"}
            record["series"][0] = 10**400
            path.write_text("".join(line + "\n" for line in [*lines, json.dumps(record)]))
        store = tmp_path / "store"
        assert main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["rejected_lines"] == [{"line": 13, "reason": "series values must be finite numbers"}]
        out = tmp_path / "infer" / "pred.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == len(lines) == 5
        summary = json.loads((out.parent / "infer_summary.json").read_text())
        assert summary["instances"] == 5
        assert summary["rejected_lines"] == [{"line": 6, "reason": "series values must be finite numbers"}]

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

    def test_empty_store_directory_stays_empty(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        assert list(store.iterdir()) == []
        summary = json.loads((out.parent / "infer_summary.json").read_text())
        assert summary["noexp"] is False and summary["store_untouched"] is True

    def test_trace_events_carry_only_branch_kind_and_payload(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        self._explore(corpus_dir, store)
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        for traces in (store / "traces", out.parent / "traces_infer"):
            paths = sorted(traces.glob("*.jsonl"))
            assert paths, traces
            for block in (block for path in paths for block in read_trace(path)):
                assert block.header["episode"] == block.header["instance"]["id"]
                assert block.events
                for event in block.events:
                    assert set(event) == {"branch", "kind", "payload"}, (block.header["episode"], event)

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

    @pytest.mark.parametrize("killed", ["preds.jsonl", "infer_summary.json"])
    def test_a_run_killed_mid_write_leaves_the_previous_output_whole(self, corpus_dir, tmp_path, monkeypatch, killed):
        store = tmp_path / "store"
        self._explore(corpus_dir, store)
        out = tmp_path / "preds.jsonl"
        argv = ["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--out", str(out)]
        assert main([*argv, "--store", str(store)]) == 0
        before = (tmp_path / killed).read_bytes()
        _kill_at_rename_of(monkeypatch, killed)
        with pytest.raises(Killed):
            main([*argv, "--store", str(tmp_path / "absent")])  # noexp: other predictions
        assert (tmp_path / killed).read_bytes() == before
        assert not list(tmp_path.glob(".*.tmp"))


# A whole-file output, the argv that writes it, and an argv that rewrites it
# with other bytes; "{tmp}" is the test's directory.
REWRITTEN_OUTPUTS = {
    "gen-corpus-learning": (
        "corpus/learning.jsonl",
        ["gen-corpus", "--spec", "{tmp}/spec.json", "--out", "{tmp}/corpus"],
        ["gen-corpus", "--spec", "{tmp}/spec.json", "--out", "{tmp}/corpus", "--seed", "12"],
    ),
    "gen-corpus-eval": (
        "corpus/eval.jsonl",
        ["gen-corpus", "--spec", "{tmp}/spec.json", "--out", "{tmp}/corpus"],
        ["gen-corpus", "--spec", "{tmp}/spec.json", "--out", "{tmp}/corpus", "--seed", "12"],
    ),
    "simulate-dropout-csv": (
        "diag/dropout_diag.csv",
        ["simulate-dropout", "--seeds", "3", "--out", "{tmp}/diag"],
        ["simulate-dropout", "--seeds", "2", "--out", "{tmp}/diag"],
    ),
    "simulate-dropout-json": (
        "diag/dropout_diag.json",
        ["simulate-dropout", "--seeds", "3", "--out", "{tmp}/diag"],
        ["simulate-dropout", "--seeds", "2", "--out", "{tmp}/diag"],
    ),
    "record-script": (
        "script.json",
        ["explore", "--corpus", "{tmp}/corpus/learning.jsonl", "--store", "{tmp}/a", "--record-script", "{tmp}/script.json"],
        ["explore", "--corpus", "{tmp}/corpus/learning.jsonl", "--store", "{tmp}/b", "--seed", "4",
         "--record-script", "{tmp}/script.json"],
    ),
}


class TestWholeFileOutputs:
    @pytest.mark.parametrize("output, first, second", list(REWRITTEN_OUTPUTS.values()), ids=list(REWRITTEN_OUTPUTS))
    def test_a_run_killed_mid_write_leaves_the_previous_output_whole(
        self, corpus_dir, tmp_path, monkeypatch, output, first, second
    ):
        def argv(template):
            return [arg.format(tmp=tmp_path) for arg in template]

        path = tmp_path / output
        assert main(argv(first)) == 0
        before = path.read_bytes()
        _kill_at_rename_of(monkeypatch, path.name)
        with pytest.raises(Killed):
            main(argv(second))
        assert path.read_bytes() == before
        assert not list(path.parent.glob(".*.tmp"))
        monkeypatch.undo()
        assert main(argv(second)) == 0
        assert path.read_bytes() != before  # the killed run had other bytes to write


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

    def test_a_prediction_holding_a_line_separator_is_scored(self, corpus_dir, tmp_path):
        eval_path = corpus_dir / "eval.jsonl"
        preds = tmp_path / "preds.jsonl"
        # infer writes its records with canonical_json, which keeps U+2028 and
        # U+0085 raw, as a model's reasoning copied into the context can hold
        preds.write_text(
            "".join(
                canonical_json(
                    {"id": inst.id, "prediction": reveal_for_scoring(inst), "execution_context": {"reasoning": "a\u2028b\u0085c"}}
                )
                + "\n"
                for inst in load_samples(eval_path, "evaluation").instances
            )
        )
        out = tmp_path / "scores.json"
        assert main(["eval", "--predictions", str(preds), "--corpus", str(eval_path), "--out", str(out)]) == 0
        scope = json.loads(out.read_text())["scopes"][0]
        assert (scope["effective_n"], scope["metrics"]["mae"]) == (5, 0.0)

    def test_a_prediction_holding_an_int_past_the_float_range_is_invalid(self, corpus_dir, tmp_path):
        eval_path = corpus_dir / "eval.jsonl"
        instances = load_samples(eval_path, "evaluation").instances
        preds = tmp_path / "preds.jsonl"
        lines = [json.dumps({"id": inst.id, "prediction": reveal_for_scoring(inst)}) for inst in instances[1:]]
        preds.write_text("\n".join([f'{{"id": "{instances[0].id}", "prediction": [1{"0" * 400}]}}', *lines]) + "\n")
        out = tmp_path / "scores.json"
        assert main(["eval", "--predictions", str(preds), "--corpus", str(eval_path), "--out", str(out)]) == 0
        scope = json.loads(out.read_text())["scopes"][0]
        assert (scope["raw_n"], scope["effective_n"]) == (5, 4)

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


# SPEC's family and one of another length: two length groups to profile
TWO_LENGTHS = {
    "seed": 11,
    "families": [
        *SPEC["families"],
        {"name": "szn72", "kind": "seasonal", "learn_count": 4, "eval_count": 3, "length": 72, "horizon": 12,
         "period": 12},
    ],
}


class TestBatchedProfile:
    """explore and infer profile the loaded corpus in one batched pass
    before the first sample, hand each sample its fingerprint, and keep
    none after its sample has run."""

    @pytest.fixture
    def two_lengths(self, tmp_path):
        spec_path = tmp_path / "spec2.json"
        spec_path.write_text(json.dumps(TWO_LENGTHS))
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(tmp_path / "c2")]) == 0
        return tmp_path / "c2"

    def _watch(self, monkeypatch, entry):
        """Record each batched profile and each sample run through ``entry``
        (the CLI's name for run_inference or run_exploration_episode): the
        sample, whether its fingerprint is the one it alone gets, and
        whether the previous sample's fingerprint is still alive."""
        events: list[tuple] = []
        batched, run = prompts.fingerprints, getattr(cli, entry)
        last: list[weakref.ref] = []

        def counted(instances, *args, **kwargs):
            events.append(("profile", [inst.id for inst in instances]))
            return batched(instances, *args, **kwargs)

        def watched(instance, *args, fp, **kwargs):
            gc.collect()
            alive = bool(last) and last[0]() is not None
            events.append(("run", instance.id, fp == batched([instance])[0], alive))
            last[:] = [weakref.ref(fp)]
            return run(instance, *args, fp=fp, **kwargs)

        monkeypatch.setattr(prompts, "fingerprints", counted)
        monkeypatch.setattr(cli, entry, watched)
        return events

    def _check(self, events, corpus_path, role):
        instances = load_samples(corpus_path, role=role).instances
        assert len({len(inst.series) for inst in instances}) == 2
        ids = [inst.id for inst in instances]
        assert events[0] == ("profile", ids)  # one batch, every sample once, before the first
        assert [e[:2] for e in events[1:]] == [("run", i) for i in ids]
        assert all(same for _run, _id, same, _alive in events[1:])
        assert not any(alive for _run, _id, _same, alive in events[1:])

    def test_infer_profiles_each_sample_once_before_the_first(self, two_lengths, tmp_path, monkeypatch):
        events = self._watch(monkeypatch, "run_inference")
        out = tmp_path / "run" / "pred.jsonl"
        assert main(["infer", "--corpus", str(two_lengths / "eval.jsonl"), "--out", str(out)]) == 0
        self._check(events, two_lengths / "eval.jsonl", "evaluation")

    def test_explore_profiles_each_sample_once_before_the_first(self, two_lengths, tmp_path, monkeypatch):
        events = self._watch(monkeypatch, "run_exploration_episode")
        store = tmp_path / "run" / "store"
        assert main(["explore", "--corpus", str(two_lengths / "learning.jsonl"), "--store", str(store)]) == 0
        self._check(events, two_lengths / "learning.jsonl", "learning")


class TestSeriesPastTheFloatRange:
    def test_explore_and_infer_run_a_series_whose_squares_overflow(self, tmp_path):
        """Scaled by 1e200, a seasonal series has squares past the float
        range: every lag is undefined, the std infinite, and both commands
        run it without a failure or a profiling warning."""
        values = [1e200 * (10.0 + 3.0 * math.sin(2 * math.pi * t / 12)) for t in range(60)]
        record = {"id": "big:0", "series": values[:48], "task_type": "forecast", "scope": "big", "horizon": 12,
                  "ground_truth": values[48:]}
        corpus = tmp_path / "big.jsonl"
        corpus.write_text(json.dumps(record) + "\n")
        run = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["explore", "--corpus", str(corpus), "--store", str(run / "store")]) == 0
            assert main(["infer", "--corpus", str(corpus), "--store", str(run / "store"),
                         "--out", str(run / "pred.jsonl")]) == 0
        assert json.loads((run / "run_summary.json").read_text())["failed_instances"] == []
        assert json.loads((run / "infer_summary.json").read_text())["failed_instances"] == []
        assert json.loads((run / "pred.jsonl").read_text())["prediction"]
        assert not [w for w in caught if Path(w.filename).name in ("seriesops.py", "prompts.py")]


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
        # a fresh store is an empty directory: opening a store writes nothing
        (tmp_path / "fresh").mkdir()
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


class TestTornLogs:
    """A store whose append-only logs lost their last bytes (a full disk or a
    power cut mid-append) still opens; a bad record before the tail is an
    error that names the file and the line."""

    LOGS = ("ledger.jsonl", "snapshots/synth_forecast_short.log")

    @staticmethod
    def _explore(corpus_dir, store):
        return main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store), "--seed", "3"])

    @staticmethod
    def _tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    def test_torn_tails_are_dropped_and_read_only_commands_write_nothing(self, corpus_dir, tmp_path, caplog):
        store = tmp_path / "store"
        assert self._explore(corpus_dir, store) == 0
        for rel in self.LOGS:
            (store / rel).write_bytes((store / rel).read_bytes()[:-10])
        before = self._tree(store)
        assert main(["report", "--store", str(store), "--out", str(tmp_path / "report.json")]) == 0
        for rel in self.LOGS:
            assert f"{store / rel}: line " in caplog.text
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        assert json.loads((out.parent / "infer_summary.json").read_text())["store_untouched"] is True
        assert self._tree(store) == before
        assert self._explore(corpus_dir, store) == 0
        caplog.clear()
        assert main(["report", "--store", str(store), "--out", str(tmp_path / "report.json")]) == 0
        assert "torn" not in caplog.text  # the appends cut the torn tails off first

    @pytest.mark.parametrize("rel", LOGS)
    def test_bad_record_before_the_tail_is_an_error_not_a_traceback(self, corpus_dir, tmp_path, capsys, rel):
        store = tmp_path / "store"
        assert self._explore(corpus_dir, store) == 0
        (store / rel).write_bytes(b"X" + (store / rel).read_bytes()[1:])
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 2
        assert f"error: {store / rel}: line 1: bad record" in capsys.readouterr().err
        assert self._explore(corpus_dir, store) == 2
        assert f"error: {store / rel}: line 1: bad record" in capsys.readouterr().err


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


class TestTraceLogs:
    """Each scope's episodes are the blocks of one append-only
    ``traces/<scope>.jsonl``: a block is a header line and event lines
    through the episode's ``outcome`` event."""

    @staticmethod
    def _mixed_corpus(tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(MIXED_SPEC))
        assert main(["gen-corpus", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "corpus")]) == 0
        return tmp_path / "corpus" / "learning.jsonl"

    @staticmethod
    def _block_bytes(block):
        return "".join(canonical_json(line) + "\n" for line in (block.header, *block.events)).encode()

    def test_torn_last_block_is_dropped_then_cut_off(self, corpus_dir, tmp_path, caplog):
        store = tmp_path / "store"
        explore = ["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store), "--seed", "3"]
        assert main(explore) == 0
        [log] = sorted((store / "traces").glob("*.jsonl"))
        blocks = list(read_trace(log))
        assert len(blocks) == 12
        whole = b"".join(self._block_bytes(b) for b in blocks[:-1])
        log.write_bytes(log.read_bytes()[:-10])
        caplog.clear()
        assert [b.header["episode"] for b in read_trace(log)] == [b.header["episode"] for b in blocks[:-1]]
        last = 1 + sum(1 + len(b.events) for b in blocks[:-1])
        assert f"{log}: line {last}: dropped a torn last record" in caplog.text
        assert main(["replay", "--trace", str(log)]) == 0
        assert main(explore) == 0  # its first append cuts the torn block off
        caplog.clear()
        again = list(read_trace(log))
        assert "torn" not in caplog.text
        assert log.read_bytes().startswith(whole)
        assert [b.header["episode"] for b in again] == [b.header["episode"] for b in blocks[:-1] + blocks]

    def test_infer_starts_its_logs_afresh(self, corpus_dir, tmp_path):
        out = tmp_path / "infer" / "preds.jsonl"
        infer = ["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(tmp_path / "absent"), "--out", str(out)]
        assert main(infer) == 0
        [log] = sorted((out.parent / "traces_infer").glob("*.jsonl"))
        first = log.read_bytes()
        assert main(infer) == 0
        assert log.read_bytes() == first
        assert [b.header["episode"] for b in read_trace(log)] == [
            i.id for i in load_samples(corpus_dir / "eval.jsonl", "evaluation").instances
        ]

    def test_parallel_episodes_append_whole_blocks_once_each(self, tmp_path, caplog):
        learning = self._mixed_corpus(tmp_path)
        store = tmp_path / "store"
        assert main(["explore", "--corpus", str(learning), "--store", str(store), "--seed", "2", "--parallel", "2"]) == 0
        logs = sorted((store / "traces").glob("*.jsonl"))
        assert len(logs) == 4
        caplog.clear()
        episodes = [b.header["episode"] for log in logs for b in read_trace(log)]
        assert "torn" not in caplog.text
        assert sorted(episodes) == sorted(i.id for i in load_samples(learning, "learning").instances)

    def test_sequential_log_is_the_episode_traces_in_corpus_order(self, tmp_path):
        learning = self._mixed_corpus(tmp_path)
        store = tmp_path / "store"
        assert main(["explore", "--corpus", str(learning), "--store", str(store), "--seed", "2"]) == 0
        instances = load_samples(learning, "learning").instances
        for log in sorted((store / "traces").glob("*.jsonl")):
            blocks = list(read_trace(log))
            assert [b.header["episode"] for b in blocks] == [i.id for i in instances if i.scope == log.stem]
            assert log.read_bytes() == b"".join(self._block_bytes(b) for b in blocks)
        # the corpus's first episode, run alone, writes its block byte for byte
        first = instances[0]
        deps = _build_deps(tmp_path / "alone" / "store", tmp_path / "alone" / "traces", policy_gateway("exploration"))
        outcome = run_exploration_episode(first, ExplorationConfig(seed=2), deps)
        [block] = read_trace(outcome.trace_path)
        assert self._block_bytes(block) == self._block_bytes(next(read_trace(store / "traces" / f"{first.scope}.jsonl")))


class TestGatewayChoice:
    def test_api_base_from_the_environment_selects_the_remote_backend(self, monkeypatch):
        monkeypatch.setenv("TIMECLAW_API_BASE", "http://127.0.0.1:9/v1")
        args = build_parser().parse_args(["explore", "--corpus", "c.jsonl", "--store", "s"])
        gateway = _build_gateway(args, policy="exploration")
        assert isinstance(gateway, RemoteGateway)
        assert gateway.base_url == "http://127.0.0.1:9/v1"

    def test_a_recorded_or_scripted_run_hashes_each_conversation_once(self, corpus_dir, tmp_path, monkeypatch):
        hashed: list[bytes] = []

        def sha256(data=b""):
            hashed.append(data)
            return hashlib.sha256(data)

        # the exchange digest is the gateway module's only hash
        monkeypatch.setattr(gateway_module, "hashlib", SimpleNamespace(sha256=sha256))
        learning, script = str(corpus_dir / "learning.jsonl"), str(tmp_path / "script.json")
        for run, flag in (("recorded", "--record-script"), ("scripted", "--mock-script")):
            hashed.clear()
            assert main(["explore", "--corpus", learning, "--store", str(tmp_path / run / "store"), flag, script]) == 0
            summary = json.loads((tmp_path / run / "run_summary.json").read_text())
            assert len(hashed) == summary["usage"]["gateway_calls"] > 0


BAD_INPUT = {
    "explore-one-branch-slot": ["explore", "--corpus", "{learning}", "--store", "{store}", "--branch-slots", "1"],
    "explore-zero-steps": ["explore", "--corpus", "{learning}", "--store", "{store}", "--max-steps", "0"],
    "explore-zero-alpha": ["explore", "--corpus", "{learning}", "--store", "{store}", "--alpha", "0"],
    "replay-missing-trace": ["replay", "--trace", "{missing}"],
    "replay-empty-trace": ["replay", "--trace", "{empty}"],
    "replay-non-json-trace": ["replay", "--trace", "{garbage}"],
    "lint-missing-trace": ["lint", "--trace", "{missing}"],
    "lint-empty-trace": ["lint", "--trace", "{empty}"],
    "lint-non-json-trace": ["lint", "--trace", "{garbage}"],
    "replay-list-header": ["replay", "--trace", "{list_header}"],
    "lint-list-header": ["lint", "--trace", "{list_header}"],
    "replay-list-event": ["replay", "--trace", "{list_event}"],
    "lint-list-event": ["lint", "--trace", "{list_event}"],
    "replay-header-without-instance": ["replay", "--trace", "{no_instance}"],
    "lint-header-without-instance": ["lint", "--trace", "{no_instance}"],
    "replay-tool-call-without-tool": ["replay", "--trace", "{call_without_tool}"],
    "lint-candidate-without-valid": ["lint", "--trace", "{candidate_without_valid}"],
    "replay-instance-text-not-blocks": ["replay", "--trace", "{bad_text}"],
    "lint-instance-text-not-blocks": ["lint", "--trace", "{bad_text}"],
    # a header instance value parse_record rejects, not one it crashes on or splits
    "replay-instance-int-past-float-range": ["replay", "--trace", "{huge_int}"],
    "lint-instance-int-past-float-range": ["lint", "--trace", "{huge_int}"],
    "replay-instance-bool-horizon": ["replay", "--trace", "{bool_horizon}"],
    "lint-instance-string-label-space": ["lint", "--trace", "{string_labels}"],
    # --forbidden-file holds JSON that is not an array of strings
    "lint-forbidden-not-a-list": ["lint", "--trace", "{golden_trace}", "--forbidden-file", "{five}"],
    "lint-forbidden-not-strings": ["lint", "--trace", "{golden_trace}", "--forbidden-file", "{numbers}"],
    "replay-no-whole-block": ["replay", "--trace", "{torn_only}"],
    "eval-zero-threshold": ["eval", "--predictions", "{empty}", "--corpus", "{eval}", "--threshold-file", "{threshold}"],
    "simulate-non-numeric-field": ["simulate-dropout", "--scenario", "{scenario}", "--seeds", "1", "--out", "{store}"],
}


class TestBadInput:
    @pytest.mark.parametrize("argv", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
    def test_exits_2_with_an_error_line_not_a_traceback(self, argv, corpus_dir, tmp_path, capsys):
        files = {
            "learning": corpus_dir / "learning.jsonl",
            "eval": corpus_dir / "eval.jsonl",
            "store": tmp_path / "store",
            "missing": tmp_path / "missing.jsonl",
            "empty": tmp_path / "empty.jsonl",
            "garbage": tmp_path / "garbage.jsonl",
            "list_header": tmp_path / "list_header.jsonl",
            "list_event": tmp_path / "list_event.jsonl",
            "no_instance": tmp_path / "no_instance.jsonl",
            "call_without_tool": tmp_path / "call_without_tool.jsonl",
            "candidate_without_valid": tmp_path / "candidate_without_valid.jsonl",
            "bad_text": tmp_path / "bad_text.jsonl",
            "huge_int": tmp_path / "huge_int.jsonl",
            "bool_horizon": tmp_path / "bool_horizon.jsonl",
            "string_labels": tmp_path / "string_labels.jsonl",
            "torn_only": tmp_path / "torn_only.jsonl",
            "threshold": tmp_path / "threshold.json",
            "scenario": tmp_path / "scenario.json",
            "five": tmp_path / "five.json",
            "numbers": tmp_path / "numbers.json",
            "golden_trace": Path(__file__).parent / "data" / "traces" / "inference.jsonl",
        }
        files["empty"].write_text("")
        files["garbage"].write_text("not a trace\n")
        files["list_header"].write_text("[1]\n")
        instance = {"id": "x", "series": [1.0, 2.0], "task_type": "forecast", "scope": "s", "horizon": 1}
        header = {"mode": "inference", "version": __version__, "episode": "x", "instance": instance}
        files["list_event"].write_text(json.dumps(header) + "\n[2]\n")

        def block(head, *events):  # a whole block: the events, then the outcome event
            lines = [head, *({"branch": None, "kind": k, "payload": p} for k, p in events)]
            lines.append({"branch": None, "kind": "outcome", "payload": {}})
            return "".join(json.dumps(line) + "\n" for line in lines)

        files["no_instance"].write_text(block({key: header[key] for key in ("mode", "version", "episode")}))
        files["call_without_tool"].write_text(
            block(header, ("tool_call", {"call_id": "c001", "args": {}, "inputs": ["original"]}))
        )
        candidate = {"type": "candidate", "branch": "x#b0", "substantive_chain": [], "answer": None,
                     "prior_guided": False, "alternative": False}
        files["candidate_without_valid"].write_text(block({**header, "mode": "exploration"}, ("verdict", candidate)))
        files["bad_text"].write_text(block({**header, "instance": {**instance, "text": [5]}}))
        files["huge_int"].write_text(block({**header, "instance": {**instance, "series": [10**400, 2.0]}}))
        files["bool_horizon"].write_text(block({**header, "instance": {**instance, "horizon": True}}))
        trend = {**instance, "task_type": "trend", "label_space": "up"}
        files["string_labels"].write_text(block({**header, "instance": trend}))
        files["torn_only"].write_text(block(header)[:-5])
        files["threshold"].write_text(json.dumps({"synth_forecast_short": 0}))
        files["scenario"].write_text(json.dumps({"episodes": "many"}))
        files["five"].write_text("5")
        files["numbers"].write_text("[5]")
        capsys.readouterr()
        assert main([arg.format(**files) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")
