from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import re
import sys
import time
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from timeclaw import __version__, cli, prompts, util
from timeclaw import gateway as gateway_module
from timeclaw import store as store_module
from timeclaw import toolkit as toolkit_module
from timeclaw.cli import _build_deps, _build_gateway, build_parser, main
from timeclaw.corpus import load_samples, parse_record, reveal_for_scoring
from timeclaw.errors import ContractError
from timeclaw.gateway import RemoteGateway
from timeclaw.orchestrator import ExplorationConfig, read_trace, run_exploration_episode
from timeclaw.policy import policy_gateway
from timeclaw.replay import lint as lint_trace
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
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def test_help_names_every_command():
    """``timeclaw --help`` prints the module docstring, whose first sentence
    lists the commands: it must list each subcommand, and no other."""
    parser = build_parser()
    [commands] = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    listed = parser.description.split(":", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"[\w-]+", listed)) - {"and"} == set(commands)


class TestGenCorpus:
    def test_writes_both_roles(self, corpus_dir):
        assert (corpus_dir / "learning.jsonl").exists()
        assert (corpus_dir / "eval.jsonl").exists()

    def test_same_seed_twice_identical(self, corpus_dir, tmp_path):
        spec_path = tmp_path / "spec.json"
        out2 = tmp_path / "corpus2"
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(out2)]) == 0
        assert (corpus_dir / "learning.jsonl").read_text(encoding="utf-8") == (out2 / "learning.jsonl").read_text(encoding="utf-8")

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
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
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


def _explore_mixed(tmp_path):
    """The store an explore of the MIXED_SPEC corpus writes under ``tmp_path``."""
    (tmp_path / "spec.json").write_text(json.dumps(MIXED_SPEC), encoding="utf-8")
    assert main(["gen-corpus", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "corpus")]) == 0
    learning = tmp_path / "corpus" / "learning.jsonl"
    assert main(["explore", "--corpus", str(learning), "--store", str(tmp_path / "store"), "--seed", "2"]) == 0
    return tmp_path / "store"


class TestExplore:
    @pytest.fixture
    def mixed_run(self, tmp_path):
        store = _explore_mixed(tmp_path)
        return load_samples(tmp_path / "corpus" / "learning.jsonl", "learning").instances, store

    def test_notes_hold_no_rendering_of_any_truth(self, mixed_run):
        instances, store = mixed_run
        shards = {p.name: p.read_text(encoding="utf-8") for p in (store / "notes").glob("*.md")}
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
                    requests.setdefault(e["branch"], []).append("hidden" in e["payload"])
            assert set(requests) == {0, 1}, episode
            for listed in requests.values():
                assert listed[0] and listed.count(True) == 1, episode

    def test_every_tool_call_gives_each_argument_its_schema_requires(self, mixed_run):
        _instances, store = mixed_run
        results = [
            e["payload"]["artifact"]["payload"]
            for path in sorted((store / "traces").glob("*.jsonl"))
            for block in read_trace(path)
            for e in block.events
            if e["kind"] == "tool_result"
        ]
        assert results and [r for r in results if r.get("error") == "schema_violation"] == []

    def test_every_final_from_a_tool_names_a_tool_its_branch_called(self, mixed_run):
        _instances, store = mixed_run
        kinds = set()
        for path in sorted((store / "traces").glob("*.jsonl")):
            for block in read_trace(path):
                called: dict = {}
                named: dict = {}
                for e in block.events:
                    if e["kind"] == "tool_call":
                        called.setdefault(e["branch"], set()).add(e["payload"]["tool"])
                    elif e["kind"] == "gateway_response" and e["payload"]["reply"]["content"]:
                        reasoning = json.loads(e["payload"]["reply"]["content"])["reasoning"]
                        if reasoning != "default label":  # the one final that reads no artifact here
                            tool, kind = reasoning.split()
                            named.setdefault(e["branch"], set()).add(tool)
                            kinds.add(kind)
                for branch, tools in named.items():
                    assert tools <= called[branch], (block.header["episode"], branch)
        assert kinds == {"continuation", "summary", "label"}

    def test_each_committed_note_is_the_note_its_block_holds(self, tmp_path, monkeypatch):
        """commit_note keeps the note it encoded instead of decoding its block
        back, so what it returns, and distills while the store stays open,
        must be what a reopened store decodes from the shard."""
        committed = {}
        commit = ExperienceStore.commit_note

        def kept(store, note):
            stored = commit(store, note)
            committed.setdefault(stored.scope, []).append(stored)
            return stored

        monkeypatch.setattr(ExperienceStore, "commit_note", kept)
        root = _explore_mixed(tmp_path)
        assert sum(map(len, committed.values())) == 24
        assert committed == {scope: ExperienceStore(root).notes(scope) for scope in committed}

    def test_a_run_builds_one_tool_list_per_distinct_tool_set(self, tmp_path, monkeypatch):
        """One DeclaredTools per distinct set a branch sees; inference builds
        its one list."""
        built = []

        new = gateway_module.DeclaredTools.__new__

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(gateway_module.DeclaredTools, "__new__", counted)
        root = _explore_mixed(tmp_path)
        branch_sets = {
            tuple(e["payload"]["hidden"])
            for path in (root / "traces").glob("*.jsonl")
            for block in read_trace(path)
            for e in block.events
            if e["kind"] == "gateway_request" and e["branch"] is not None and "hidden" in e["payload"]
        }
        assert 1 < len(branch_sets) and len(built) == len(branch_sets)
        built.clear()
        infer = ["infer", "--corpus", str(tmp_path / "corpus" / "eval.jsonl"), "--store", str(root)]
        assert main([*infer, "--out", str(tmp_path / "pred.jsonl")]) == 0
        assert len(built) == 1

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
        summary = json.loads((store.parent / "run_summary.json").read_text(encoding="utf-8"))
        assert summary["instances"] == 12
        assert sum(summary["episodes"].values()) == 12
        assert (store / "notes" / "synth_forecast_short.md").exists()
        assert not (store / "ledger.jsonl").exists()
        assert ExperienceStore(store).ledger.counts("synth_forecast_short")

    def test_a_parallel_runs_reopened_store_counts_what_the_run_ended_with(self, corpus_dir, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "_build_deps", lambda *args: built.append(_build_deps(*args)) or built[-1])
        store = tmp_path / "store"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a count outside the commit lock shows
        try:
            code = main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store), "--parallel", "2"])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        [deps] = built
        reopened = ExperienceStore(store)
        assert reopened.scopes() and all(deps.store.ledger.counts(scope) for scope in reopened.scopes())
        for scope in reopened.scopes():
            assert reopened.ledger.counts(scope) == deps.store.ledger.counts(scope)
            assert reopened.ledger.entropy_history(scope) == deps.store.ledger.entropy_history(scope)

    def test_an_older_stores_ledger_file_is_ignored_and_left_as_found(self, corpus_dir, tmp_path):
        old, fresh = tmp_path / "old" / "store", tmp_path / "fresh" / "store"
        old.mkdir(parents=True)
        found = b'{"scope":"synth_forecast_short","tools":["naive","naive"]}\n'
        (old / "ledger.jsonl").write_bytes(found)
        for store in (old, fresh):
            assert main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store)]) == 0
        assert (old / "ledger.jsonl").read_bytes() == found
        tree = TestTornLogs._tree(old)
        del tree["ledger.jsonl"]
        assert tree == TestTornLogs._tree(fresh)

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
        summary = json.loads((store.parent / "run_summary.json").read_text(encoding="utf-8"))
        assert sum(summary["episodes"].values()) == 12

    @staticmethod
    def _two_scope_corpus(tmp_path):
        """A learning corpus of two scopes whose lines are shuffled with a
        fixed seed, so the scopes' samples interleave."""
        families = [
            {**SPEC["families"][0], "learn_count": 14},
            {"name": "lbl", "kind": "trend_label", "learn_count": 12, "eval_count": 2, "length": 96, "horizon": 24},
        ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 11, "families": families}), encoding="utf-8")
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(tmp_path / "corpus")]) == 0
        learning = tmp_path / "corpus" / "learning.jsonl"
        lines = learning.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(4).shuffle(lines)
        learning.write_text("".join(lines), encoding="utf-8")
        return learning

    def test_parallel_exploration_over_two_scopes(self, tmp_path):
        learning = str(self._two_scope_corpus(tmp_path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a missing lock or an order race shows
        try:
            for n in (1, 2, 4):
                store = tmp_path / f"p{n}" / "store"
                code = main(["explore", "--corpus", learning, "--store", str(store), "--seed", "3", "--parallel", str(n)])
                assert code == 0
        finally:
            sys.setswitchinterval(interval)
        # each scope's episodes run in corpus order at every --parallel: the
        # same store, the same trace logs and the same summary
        assert len({ExperienceStore(tmp_path / f"p{n}" / "store").tree_digest() for n in (1, 2, 4)}) == 1
        logs = {
            n: {p.name: p.read_bytes() for p in (tmp_path / f"p{n}" / "store" / "traces").iterdir()} for n in (1, 2, 4)
        }
        assert len(logs[1]) == 2 and logs[1] == logs[2] == logs[4]
        summaries = {}
        for n in (1, 2, 4):
            summary = json.loads((tmp_path / f"p{n}" / "run_summary.json").read_text(encoding="utf-8"))
            assert summary["config"].pop("parallel") == n
            summary.pop("store")
            summaries[n] = summary
        assert summaries[1] == summaries[2] == summaries[4]
        store = tmp_path / "p4" / "store"
        reopened = ExperienceStore(store)
        assert reopened.scopes() == ["synth_forecast_short", "synth_trend_short"]
        for scope in reopened.scopes():
            notes = reopened.notes(scope)
            assert [n.sequence for n in notes] == list(range(1, len(notes) + 1))
            assert reopened.memory_state(scope).distilled_through == len(notes)
        # no memory, card or skills file is stored; each scope's last
        # snapshot holds its final memory's content, so retrieval from it
        # selects what retrieval from the reopened store selects
        assert {p.name for p in store.iterdir()} == {"soul.md", "notes", "snapshots", "traces"}
        instances = load_samples(learning, "learning").instances
        for scope in reopened.scopes():
            memory = reopened.memory_state(scope)
            snapshot = reopened.snapshot_layers(scope, len(reopened.snapshot_timeline(scope)))
            snapped = MemoryState.from_dict(json.loads(snapshot[f"memory/{scope}.json"]))
            assert snapped.content_fingerprint() == memory.content_fingerprint()
            for fp in prompts.fingerprints([inst for inst in instances if inst.scope == scope]):
                selection = reopened.retrieve(scope, fp)
                assert [r.to_dict() for r in store_module._select(snapped, fp).rules] == [r.to_dict() for r in selection.rules]
        # and both scopes' memories hold injectable rules, which name these tools
        named = {
            scope: sorted({t for r in reopened.memory_state(scope).rules if r.injectable for t in (*r.preferred_tools, *r.avoided_tools)})
            for scope in reopened.scopes()
        }
        assert named == {
            "synth_forecast_short": ["moving_average", "naive", "seasonal_naive", "ses"],
            "synth_trend_short": ["autocorrelation", "stationarity_check", "value_at", "window_stats"],
        }

    @pytest.mark.parametrize("across_scopes", [False, True])
    def test_a_failed_episode_fails_its_sample_only(self, across_scopes, tmp_path, monkeypatch):
        learning = self._two_scope_corpus(tmp_path)
        instances = load_samples(learning, "learning").instances
        by_scope: dict[str, list[str]] = {}
        for inst in instances:
            by_scope.setdefault(inst.scope, []).append(inst.id)
        first, second = by_scope.values()
        if across_scopes:
            # the scopes run in the order they first appear; their failures
            # are listed in corpus order, where these two come the other way
            doomed = {first[-1], second[0]}
            assert [inst.id for inst in instances if inst.id in doomed] == [second[0], first[-1]]
        else:
            doomed = {second[len(second) // 2]}  # a sample in the middle of a scope
        run = cli.run_exploration_episode

        def failing(instance, *args, **kwargs):
            if instance.id in doomed:
                raise ContractError("the backend went away")
            return run(instance, *args, **kwargs)

        monkeypatch.setattr(cli, "run_exploration_episode", failing)
        store = tmp_path / "run" / "store"
        assert main(["explore", "--corpus", str(learning), "--store", str(store), "--parallel", "2"]) == 3
        summary = json.loads((tmp_path / "run" / "run_summary.json").read_text(encoding="utf-8"))
        assert summary["failed_instances"] == [
            f"{inst.id}: the backend went away" for inst in instances if inst.id in doomed
        ]
        reopened = ExperienceStore(store)
        noted = set()
        for scope in reopened.scopes():
            notes = reopened.notes(scope)
            assert [n.sequence for n in notes] == list(range(1, len(notes) + 1))
            noted |= {n.instance_id for n in notes}
        assert noted == {inst.id for inst in instances} - doomed

    def test_script_misses_are_partial_failures_not_crashes(self, corpus_dir, tmp_path):
        empty_script = tmp_path / "empty.json"
        empty_script.write_text("{}", encoding="utf-8")
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
        summary = json.loads((tmp_path / "run_summary.json").read_text(encoding="utf-8"))
        assert len(summary["failed_instances"]) == 12

    def test_a_series_int_past_the_float_range_is_a_rejected_line(self, corpus_dir, tmp_path):
        lines = []
        for name in ("learning.jsonl", "eval.jsonl"):
            path = corpus_dir / name
            lines = path.read_text(encoding="utf-8").splitlines()
            record = {**json.loads(lines[0]), "id": "huge"}
            record["series"][0] = 10**400
            path.write_text("".join(line + "\n" for line in [*lines, json.dumps(record)]), encoding="utf-8")
        store = tmp_path / "store"
        assert main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text(encoding="utf-8"))
        assert summary["rejected_lines"] == [{"line": 13, "reason": "series values must be finite numbers"}]
        out = tmp_path / "infer" / "pred.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == len(lines) == 5
        summary = json.loads((out.parent / "infer_summary.json").read_text(encoding="utf-8"))
        assert summary["instances"] == 5
        assert summary["rejected_lines"] == [{"line": 6, "reason": "series values must be finite numbers"}]

    def test_corpus_without_targets_exits_config_error(self, corpus_dir, tmp_path):
        # the eval corpus has targets; strip them to simulate a bad learning corpus
        lines = []
        for line in (corpus_dir / "eval.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("ground_truth", None)
            lines.append(json.dumps(record))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 5
        for r in records:
            assert set(r) >= {"id", "prediction", "tool_chain", "execution_context", "degraded"}
        summary = json.loads((tmp_path / "infer_summary.json").read_text(encoding="utf-8"))
        assert summary["store_untouched"] is True
        assert summary["noexp"] is False

    def test_the_summary_counts_the_gateway_calls_and_tokens_of_its_traces(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        self._explore(corpus_dir, store)
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        responses = [
            e["payload"]
            for log in sorted((out.parent / "traces_infer").glob("*.jsonl"))
            for block in read_trace(log)
            for e in block.events
            if e["kind"] == "gateway_response"
        ]
        usage = json.loads((out.parent / "infer_summary.json").read_text(encoding="utf-8"))["usage"]
        assert usage == {"gateway_calls": len(responses), "tokens": sum(sum(r["usage"].values()) for r in responses)}
        assert usage["gateway_calls"] >= 5 and usage["tokens"] > 0

    def test_empty_store_directory_stays_empty(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        assert list(store.iterdir()) == []
        summary = json.loads((out.parent / "infer_summary.json").read_text(encoding="utf-8"))
        assert summary["noexp"] is False and summary["store_untouched"] is True

    def test_trace_events_carry_only_branch_kind_and_payload(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        self._explore(corpus_dir, store)
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        for traces, corpus in ((store / "traces", "learning.jsonl"), (out.parent / "traces_infer", "eval.jsonl")):
            samples = {i.id: i for i in load_samples(corpus_dir / corpus, "evaluation").instances}
            paths = sorted(traces.glob("*.jsonl"))
            assert paths, traces
            for block in (block for path in paths for block in read_trace(path)):
                assert block.header["sample"] == samples[block.header["episode"]].digest
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
        summary = json.loads((tmp_path / "infer_summary.json").read_text(encoding="utf-8"))
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

    def _untouched_after(self, corpus_dir, tmp_path, monkeypatch, meddle):
        """``store_untouched`` of an infer whose gateway, at its first call,
        runs ``meddle`` on a notes shard of the explored store it reads."""
        store = tmp_path / "store"
        self._explore(corpus_dir, store)
        shard = store / "notes" / "synth_forecast_short.md"
        policy = cli.policy_gateway

        class Meddling(gateway_module.Gateway):
            def __init__(self, inner):
                self.inner, self.meddled = inner, False

            def complete(self, exchange):
                if not self.meddled:
                    meddle(shard)
                    self.meddled = True
                return self.inner.complete(exchange)

        monkeypatch.setattr(cli, "policy_gateway", lambda name: Meddling(policy(name)))
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        return json.loads((out.parent / "infer_summary.json").read_text(encoding="utf-8"))["store_untouched"]

    def test_a_byte_appended_to_a_notes_shard_mid_run_is_seen(self, corpus_dir, tmp_path, monkeypatch):
        def append(shard):
            with shard.open("ab") as fh:
                fh.write(b"\n")

        assert self._untouched_after(corpus_dir, tmp_path, monkeypatch, append) is False

    def test_a_same_size_rewrite_with_its_mtime_restored_is_seen(self, corpus_dir, tmp_path, monkeypatch):
        def rewrite(shard):
            # file times tick at the kernel clock's granularity: let a tick
            # pass since the shard's last change, so the rewrite's ctime differs
            time.sleep(0.05)
            before = shard.stat()
            data = shard.read_bytes()
            with shard.open("r+b") as fh:
                fh.write(b"%" if data.startswith(b"#") else b"#")
            os.utime(shard, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = shard.stat()
            assert shard.read_bytes() != data
            assert (after.st_size, after.st_mtime_ns, after.st_ino) == (before.st_size, before.st_mtime_ns, before.st_ino)

        assert self._untouched_after(corpus_dir, tmp_path, monkeypatch, rewrite) is False


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
        with preds.open("w", encoding="utf-8") as fh:
            for inst in instances:
                fh.write(json.dumps({"id": inst.id, "prediction": reveal_for_scoring(inst)}) + "\n")
        out = tmp_path / "scores.json"
        assert (
            main(["eval", "--predictions", str(preds), "--corpus", str(eval_path), "--out", str(out)])
            == 0
        )
        scores = json.loads(out.read_text(encoding="utf-8"))
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
            ), encoding="utf-8"
        )
        out = tmp_path / "scores.json"
        assert main(["eval", "--predictions", str(preds), "--corpus", str(eval_path), "--out", str(out)]) == 0
        scope = json.loads(out.read_text(encoding="utf-8"))["scopes"][0]
        assert (scope["effective_n"], scope["metrics"]["mae"]) == (5, 0.0)

    def test_a_prediction_holding_an_int_past_the_float_range_is_invalid(self, corpus_dir, tmp_path):
        eval_path = corpus_dir / "eval.jsonl"
        instances = load_samples(eval_path, "evaluation").instances
        preds = tmp_path / "preds.jsonl"
        lines = [json.dumps({"id": inst.id, "prediction": reveal_for_scoring(inst)}) for inst in instances[1:]]
        preds.write_text(
            "\n".join([f'{{"id": "{instances[0].id}", "prediction": [1{"0" * 400}]}}', *lines]) + "\n", encoding="utf-8"
        )
        out = tmp_path / "scores.json"
        assert main(["eval", "--predictions", str(preds), "--corpus", str(eval_path), "--out", str(out)]) == 0
        scope = json.loads(out.read_text(encoding="utf-8"))["scopes"][0]
        assert (scope["raw_n"], scope["effective_n"]) == (5, 4)

    def test_threshold_excludes_extreme_row(self, corpus_dir, tmp_path):
        from timeclaw.corpus import load_samples, reveal_for_scoring

        eval_path = corpus_dir / "eval.jsonl"
        instances = load_samples(eval_path, "evaluation").instances
        preds = tmp_path / "preds.jsonl"
        with preds.open("w", encoding="utf-8") as fh:
            for i, inst in enumerate(instances):
                truth = reveal_for_scoring(inst)
                pred = [v + 1e7 for v in truth] if i == 0 else truth
                fh.write(json.dumps({"id": inst.id, "prediction": pred}) + "\n")
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(json.dumps({"synth_forecast_short": 100.0}), encoding="utf-8")
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
        scope = json.loads(out.read_text(encoding="utf-8"))["scopes"][0]
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
        corpus.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        preds = tmp_path / "p.jsonl"
        # one off-by-one-bucket error inside the same 3-way group
        answers = [labels[0], labels[0], labels[2], labels[3], labels[4]]
        preds.write_text(
            "\n".join(json.dumps({"id": f"t{i}", "prediction": a}) for i, a in enumerate(answers))
            + "\n", encoding="utf-8"
        )
        out = tmp_path / "scores.json"
        main(["eval", "--predictions", str(preds), "--corpus", str(corpus), "--out", str(out)])
        scope = json.loads(out.read_text(encoding="utf-8"))["scopes"][0]
        assert scope["metrics"]["acc_5"] == pytest.approx(0.8)
        assert scope["metrics"]["acc_3"] == pytest.approx(1.0)

    def test_a_ground_truth_that_is_no_answer_is_a_rejected_line_and_an_extra_field_is_ignored(
        self, corpus_dir, tmp_path
    ):
        # a forecast truth holding a string is a rejected line for explore
        # and eval alike; an indicator truth with a field besides max, min and
        # diff is a valid answer, scored over those three
        series = [float(v % 5) for v in range(24)]
        bad = {"id": "bad-gt", "series": series, "task_type": "forecast", "horizon": 3,
               "scope": "synth_forecast_short", "ground_truth": [13, "x", 15]}
        extra = {"id": "ind-mean", "series": series, "task_type": "indicator", "horizon": 3,
                 "scope": "synth_indicator_short", "ground_truth": {"max": 3, "min": 1, "diff": 2, "mean": 2}}
        reject = {"reason": "ground_truth is not a valid answer (non_numeric_element)"}
        for name in ("learning.jsonl", "eval.jsonl"):
            path = corpus_dir / name
            path.write_text(path.read_text(encoding="utf-8") + json.dumps(bad) + "\n" + json.dumps(extra) + "\n",
                            encoding="utf-8")
        store = tmp_path / "store"
        assert main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text(encoding="utf-8"))
        assert summary["rejected_lines"] == [{"line": 13, **reject}]
        assert (summary["instances"], summary["failed_instances"]) == (13, [])

        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps(p) + "\n" for p in (
            {"id": "bad-gt", "prediction": [13.0, 14.0, 15.0]},
            {"id": "ind-mean", "prediction": {"max": 3.0, "min": 1.0, "diff": 2.0}},
        )), encoding="utf-8")
        out = tmp_path / "scores.json"
        assert main(["eval", "--predictions", str(preds), "--corpus", str(corpus_dir / "eval.jsonl"), "--out", str(out)]) == 0
        scores = json.loads(out.read_text(encoding="utf-8"))
        assert scores["rejected_lines"] == [{"line": 6, **reject}]
        assert scores["unknown_prediction_ids"] == ["bad-gt"]
        [indicator] = [s for s in scores["scopes"] if s["scope"] == "synth_indicator_short"]
        assert (indicator["metrics"]["mse"], indicator["effective_n"]) == (0.0, 1)

    def test_unknown_prediction_ids_listed(self, corpus_dir, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"id": "not-in-corpus", "prediction": [1.0]}) + "\n", encoding="utf-8")
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
        scores = json.loads(out.read_text(encoding="utf-8"))
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
        spec_path.write_text(json.dumps(TWO_LENGTHS), encoding="utf-8")
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
    @staticmethod
    def _corpus(tmp_path):
        values = [1e200 * (10.0 + 3.0 * math.sin(2 * math.pi * t / 12)) for t in range(60)]
        record = {"id": "big:0", "series": values[:48], "task_type": "forecast", "scope": "big", "horizon": 12,
                  "ground_truth": values[48:]}
        corpus = tmp_path / "big.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return corpus

    def test_explore_and_infer_run_a_series_whose_squares_overflow(self, tmp_path):
        """Scaled by 1e200, a seasonal series has squares past the float
        range: every lag is undefined, the std infinite, and both commands
        run it without a failure or a profiling warning."""
        corpus = self._corpus(tmp_path)
        run = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["explore", "--corpus", str(corpus), "--store", str(run / "store")]) == 0
            assert main(["infer", "--corpus", str(corpus), "--store", str(run / "store"),
                         "--out", str(run / "pred.jsonl")]) == 0
        assert json.loads((run / "run_summary.json").read_text(encoding="utf-8"))["failed_instances"] == []
        assert json.loads((run / "infer_summary.json").read_text(encoding="utf-8"))["failed_instances"] == []
        assert json.loads((run / "pred.jsonl").read_text(encoding="utf-8"))["prediction"]
        assert not [w for w in caught if Path(w.filename).name in ("seriesops.py", "prompts.py")]

    def test_explore_scores_its_candidates_without_a_warning(self, tmp_path):
        """The candidates' squared errors pass the float range too: their
        MSE is inf, and no RuntimeWarning is raised on the way."""
        corpus = self._corpus(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["explore", "--corpus", str(corpus), "--store", str(tmp_path / "store")]) == 0
        [block] = read_trace(tmp_path / "store" / "traces" / "big.jsonl")
        [reports] = [e["payload"]["artifact"]["payload"]["reports"] for e in block.events
                     if e["kind"] == "tool_result" and "reports" in e["payload"]["artifact"]["payload"]]
        assert reports and all(r["report"]["rmse"] == math.inf for r in reports.values())


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
        report = json.loads(out.read_text(encoding="utf-8"))
        scope = report["scopes"]["synth_forecast_short"]
        summary = json.loads((store.parent / "run_summary.json").read_text(encoding="utf-8"))
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
        assert json.loads(out.read_text(encoding="utf-8"))["scopes"] == {}

    def test_simulate_dropout_outputs(self, tmp_path):
        out = tmp_path / "diag"
        code = main(["simulate-dropout", "--seeds", "3", "--out", str(out)])
        assert code == 0
        assert (out / "dropout_diag.csv").exists()
        data = json.loads((out / "dropout_diag.json").read_text(encoding="utf-8"))
        assert data["prefixes"]
        assert len(data["on"]["coverage"]) == len(data["prefixes"])


class TestTornLogs:
    """A store whose append-only logs lost their last bytes (a full disk or a
    power cut mid-append) still opens; a bad record before the tail is an
    error that names the file and the line."""

    LOGS = ("notes/synth_forecast_short.md", "snapshots/synth_forecast_short.log")

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
        assert json.loads((out.parent / "infer_summary.json").read_text(encoding="utf-8"))["store_untouched"] is True
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

    def test_a_shard_that_lost_a_distilled_note_is_refused(self, corpus_dir, tmp_path, capsys):
        # its next note would reuse a number the memory's evidence names
        store = tmp_path / "store"
        assert self._explore(corpus_dir, store) == 0
        opened = ExperienceStore(store)
        [scope, *_] = [s for s in opened.scopes() if opened.memory_state(s).distilled_through == len(opened.notes(s))]
        count = len(opened.notes(scope))
        shard = store / "notes" / f"{scope}.md"
        shard.write_bytes(shard.read_bytes()[:-10])
        before = self._tree(store)
        infer = ["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(tmp_path / "p.jsonl")]
        for argv in (["report", "--store", str(store)], infer):
            capsys.readouterr()
            assert main(argv) == 2
            assert f"error: {shard} holds {count - 1} notes, but its memory is distilled through note {count}" in (
                capsys.readouterr().err
            )
        assert self._explore(corpus_dir, store) == 2
        assert f"error: {shard} holds {count - 1} notes" in capsys.readouterr().err
        assert self._tree(store) == before


class TestOutOfMemory:
    def test_a_tool_out_of_memory_exits_2_and_leaves_only_whole_blocks(self, corpus_dir, tmp_path, monkeypatch, capsys, caplog):
        """A MemoryError in a tool is neither a finding (exit 1) nor a
        traceback: explore prints an error line and exits 2, and the episode
        it cut off appends no part of its trace block or note."""
        calls = []
        drift = toolkit_module._fc_drift

        def starved(args, inputs, instance):
            calls.append(instance.id)
            if len(calls) == 3:
                raise MemoryError  # raised, not provoked by allocating
            return drift(args, inputs, instance)

        monkeypatch.setattr(toolkit_module, "_fc_drift", starved)
        store = tmp_path / "store"
        capsys.readouterr()
        assert main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store), "--seed", "3"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert len(calls) == 3
        caplog.clear()
        reopened = ExperienceStore(store)
        logs = sorted((store / "traces").glob("*.jsonl"))
        episodes = {path.stem: [block.header["episode"] for block in read_trace(path)] for path in logs}
        assert "torn" not in caplog.text and sum(map(len, episodes.values())) >= 1
        for scope, ran in episodes.items():
            assert ran == [note.instance_id for note in reopened.notes(scope)]
            assert calls[-1] not in ran
        assert all(path.read_bytes().endswith(b"}\n") for path in logs)



def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


def _tree_with_dirs(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestDescriptors:
    """A command releases the descriptor of every log it appended to before
    it returns, whether or not the logs' objects are ever collected."""

    @pytest.fixture(autouse=True)
    def uncollected(self, monkeypatch):
        # a descriptor left to the collector counts as left open
        monkeypatch.setattr(util.AppendLog, "__del__", lambda self: None)

    @staticmethod
    def _explore(corpus_dir, store, *extra):
        return main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store), *extra])

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_explore(self, corpus_dir, tmp_path, parallel):
        before = _open_descriptors()
        assert self._explore(corpus_dir, tmp_path / "store", "--parallel", parallel) == 0
        assert _open_descriptors() == before
        assert list((tmp_path / "store" / "traces").glob("*.jsonl"))

    def test_explore_that_exits_2_on_a_bad_notes_record(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._explore(corpus_dir, store) == 0
        shard = store / "notes" / "synth_forecast_short.md"
        shard.write_bytes(b"X" + shard.read_bytes()[1:])
        before = _open_descriptors()
        assert self._explore(corpus_dir, store) == 2
        assert _open_descriptors() == before
        assert "bad record" in capsys.readouterr().err

    @pytest.mark.parametrize("explored", [True, False], ids=["explored-store", "empty-store"])
    def test_infer_and_report_leave_the_store_as_they_found_it(self, corpus_dir, tmp_path, explored):
        store = tmp_path / "store"
        if explored:
            assert self._explore(corpus_dir, store) == 0
        else:
            store.mkdir()
        tree = _tree_with_dirs(store)
        before = _open_descriptors()
        out = tmp_path / "infer" / "preds.jsonl"
        assert main(["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        assert _open_descriptors() == before
        assert list((out.parent / "traces_infer").glob("*.jsonl"))
        assert main(["report", "--store", str(store), "--out", str(tmp_path / "report.json")]) == 0
        assert _open_descriptors() == before
        assert _tree_with_dirs(store) == tree


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
        assert main(["replay", "--trace", str(traces[0]), "--corpus", str(corpus_dir / "learning.jsonl")]) == 0
        assert main(["lint", "--trace", str(traces[0])]) == 0

    def test_replay_refuses_a_corpus_without_the_traced_samples(self, corpus_dir, tmp_path, capsys):
        """A trace replays only against the samples it names: not against
        another corpus, nor one in which a value moved by one ulp, nor, for
        exploration, one without the ground truth."""
        learning = corpus_dir / "learning.jsonl"
        assert main(["explore", "--corpus", str(learning), "--store", str(tmp_path / "store")]) == 0
        [log] = sorted((tmp_path / "store" / "traces").glob("*.jsonl"))
        records = [json.loads(line) for line in learning.read_text(encoding="utf-8").splitlines()]
        moved = [{**records[0], "series": [math.nextafter(records[0]["series"][0], math.inf), *records[0]["series"][1:]]},
                 *records[1:]]
        corpora = {
            "eval": corpus_dir / "eval.jsonl",
            "moved": tmp_path / "moved.jsonl",
            "no_truth": tmp_path / "no_truth.jsonl",
        }
        corpora["moved"].write_text("".join(json.dumps(r) + "\n" for r in moved), encoding="utf-8")
        corpora["no_truth"].write_text("".join(json.dumps({k: v for k, v in r.items() if k != "ground_truth"}) + "\n"
                                               for r in records), encoding="utf-8")
        errors = {}
        for name, corpus in corpora.items():
            capsys.readouterr()
            assert main(["replay", "--trace", str(log), "--corpus", str(corpus)]) == 2, name
            errors[name] = capsys.readouterr().err
        assert "is not in the corpus" in errors["eval"]
        assert "the corpus sample has digest" in errors["moved"]
        assert "no ground truth" in errors["no_truth"]
        assert main(["replay", "--trace", str(log), "--corpus", str(learning)]) == 0

    def test_a_0_7_0_trace_lints_but_does_not_replay(self, corpus_dir, tmp_path, capsys):
        """0.7.0 ended each exploration episode with one more main exchange,
        a closing summary whose answer type lint no longer reads: an old
        store's traces lint clean, and replay refuses them by version."""
        learning = corpus_dir / "learning.jsonl"
        assert main(["explore", "--corpus", str(learning), "--store", str(tmp_path / "store")]) == 0
        [log] = sorted((tmp_path / "store" / "traces").glob("*.jsonl"))
        lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        retagged = tmp_path / "retagged.jsonl"
        retagged.write_text(
            "".join(canonical_json({**r, "version": "0.7.0"} if "version" in r else r) + "\n" for r in lines),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["replay", "--trace", str(retagged), "--corpus", str(learning)]) == 2
        [error] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert "'0.7.0'" in error and repr(__version__) in error

        # each block as 0.7.0 wrote it: the closing exchange before the
        # verdicts, and its reply's answer type in the outcome
        summary = {"answer_type": "learning_summary", "answer": {"insight": "", "recommendation": ""}}
        closing = [
            {"branch": None, "kind": "gateway_request", "payload": {"digest": "0" * 16}},
            {"branch": None, "kind": "gateway_response",
             "payload": {"reply": {"content": json.dumps(summary), "tool_calls": []}, "usage": {}}},
        ]
        old, closed = [], False
        for r in lines:
            if "version" in r:
                r, closed = {**r, "version": "0.7.0"}, False
            elif r["kind"] == "verdict" and not closed:
                old.extend(closing)
                closed = True
            elif r["kind"] == "outcome":
                r = {**r, "payload": {**r["payload"], "final_type": summary["answer_type"]}}
            old.append(r)
        old_log = tmp_path / "old.jsonl"
        old_log.write_text("".join(canonical_json(r) + "\n" for r in old), encoding="utf-8")
        assert len(old) == len(lines) + 2 * sum(1 for r in lines if "version" in r)
        assert main(["lint", "--trace", str(old_log)]) == 0

    def test_a_0_8_0_trace_lints_but_does_not_replay(self, corpus_dir, tmp_path, capsys):
        """0.8.0 asked the main agent, in a second main exchange, to request
        the evaluation that the engine now runs itself: an old store's
        traces lint clean, and replay refuses them by version."""
        learning = corpus_dir / "learning.jsonl"
        assert main(["explore", "--corpus", str(learning), "--store", str(tmp_path / "store")]) == 0
        [log] = sorted((tmp_path / "store" / "traces").glob("*.jsonl"))
        lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        # each block as 0.8.0 wrote it: the exchange whose reply requested the
        # evaluate call just before that call
        old = []
        for r in lines:
            if "version" in r:
                r = {**r, "version": "0.8.0"}
            elif r["kind"] == "tool_call" and r["branch"] is None:
                request = {"args": r["payload"]["args"], "tool": r["payload"]["tool"]}
                old += [
                    {"branch": None, "kind": "gateway_request", "payload": {"digest": "0" * 16}},
                    {"branch": None, "kind": "gateway_response",
                     "payload": {"reply": {"content": "", "tool_calls": [request]}, "usage": {}}},
                ]
            old.append(r)
        old_log = tmp_path / "old.jsonl"
        old_log.write_text("".join(canonical_json(r) + "\n" for r in old), encoding="utf-8")
        assert len(old) == len(lines) + 2 * sum(1 for r in lines if "version" in r)
        assert main(["lint", "--trace", str(old_log)]) == 0
        capsys.readouterr()
        assert main(["replay", "--trace", str(old_log), "--corpus", str(learning)]) == 2
        [error] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert "'0.8.0'" in error and repr(__version__) in error

    def test_a_0_9_0_trace_lints_but_does_not_replay(self, corpus_dir, tmp_path, capsys):
        """0.9.0 opened each exploration episode with a main exchange whose
        reply spawned the branches the engine had already assigned: an old
        store's traces lint clean, and replay refuses them by version."""
        learning = corpus_dir / "learning.jsonl"
        assert main(["explore", "--corpus", str(learning), "--store", str(tmp_path / "store")]) == 0
        [log] = sorted((tmp_path / "store" / "traces").glob("*.jsonl"))
        lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        # each block as 0.9.0 wrote it: the spawn exchange right after the header
        spawn = {"args": {"n_tasks": 2}, "tool": "spawn_subagent"}
        opening = [
            {"branch": None, "kind": "gateway_request", "payload": {"digest": "0" * 16, "tools": ["spawn_subagent"]}},
            {"branch": None, "kind": "gateway_response",
             "payload": {"reply": {"content": "", "tool_calls": [spawn]}, "usage": {}}},
        ]
        old = []
        for r in lines:
            old += [{**r, "version": "0.9.0"}, *opening] if "version" in r else [r]
        old_log = tmp_path / "old.jsonl"
        old_log.write_text("".join(canonical_json(r) + "\n" for r in old), encoding="utf-8")
        assert len(old) == len(lines) + 2 * sum(1 for r in lines if "version" in r)
        assert main(["lint", "--trace", str(old_log)]) == 0
        capsys.readouterr()
        assert main(["replay", "--trace", str(old_log), "--corpus", str(learning)]) == 2
        [error] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert "'0.9.0'" in error and repr(__version__) in error

    def test_a_repeated_id_is_a_rejected_line_so_replay_runs_clean(self, corpus_dir, tmp_path):
        """A line that repeats line 1's id with another series is rejected,
        so explore and replay both read line 1's sample under that id."""
        records = [json.loads(line) for line in (corpus_dir / "learning.jsonl").read_text(encoding="utf-8").splitlines()]
        repeat = {**records[0], "series": [records[0]["series"][0] + 1.0, *records[0]["series"][1:]]}
        learning = tmp_path / "repeat.jsonl"
        learning.write_text("".join(json.dumps(r) + "\n" for r in [*records[:3], repeat]), encoding="utf-8")
        assert main(["explore", "--corpus", str(learning), "--store", str(tmp_path / "run" / "store")]) == 0
        summary = json.loads((tmp_path / "run" / "run_summary.json").read_text(encoding="utf-8"))
        assert summary["instances"] == 3
        assert summary["rejected_lines"] == [{"line": 4, "reason": f"id {records[0]['id']!r} repeats line 1"}]
        logs = sorted((tmp_path / "run" / "store" / "traces").glob("*.jsonl"))
        assert logs
        for log in logs:
            assert main(["replay", "--trace", str(log), "--corpus", str(learning)]) == 0


class TestTraceLogs:
    """Each scope's episodes are the blocks of one append-only
    ``traces/<scope>.jsonl``: a block is a header line and event lines
    through the episode's ``outcome`` event."""

    @staticmethod
    def _mixed_corpus(tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(MIXED_SPEC), encoding="utf-8")
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
        assert main(["replay", "--trace", str(log), "--corpus", str(corpus_dir / "learning.jsonl")]) == 0
        assert main(explore) == 0  # its first append cuts the torn block off
        caplog.clear()
        again = list(read_trace(log))
        assert "torn" not in caplog.text
        assert log.read_bytes().startswith(whole)
        assert [b.header["episode"] for b in again] == [b.header["episode"] for b in blocks[:-1] + blocks]

    def test_headers_name_their_samples_by_digest_and_hold_no_series_value(self, tmp_path):
        learning = self._mixed_corpus(tmp_path)
        store, out = tmp_path / "store", tmp_path / "infer" / "preds.jsonl"
        assert main(["explore", "--corpus", str(learning), "--store", str(store), "--seed", "2"]) == 0
        assert main(["infer", "--corpus", str(learning.parent / "eval.jsonl"), "--store", str(store), "--out", str(out)]) == 0
        headers = 0
        for traces, corpus in ((store / "traces", learning), (out.parent / "traces_infer", learning.parent / "eval.jsonl")):
            samples = {i.id: i for i in load_samples(corpus, "evaluation").instances}
            for log in sorted(traces.glob("*.jsonl")):
                lines = log.read_text(encoding="utf-8").split("\n")
                line = 0
                for block in read_trace(log):
                    sample = samples[block.header["episode"]]
                    assert lines[line] == canonical_json(block.header)
                    assert block.header["sample"] == sample.digest
                    assert not [v for v in sample.series if repr(v) in lines[line]]
                    assert "ground_truth" not in block.header
                    line += 1 + len(block.events)
                    headers += 1
        assert headers == 24 + 8

    def test_lint_judges_every_block_as_the_runtime_did(self, tmp_path):
        """The runtime judges the contract on the answers it holds; lint
        reads each from its branch's final message."""
        learning = self._mixed_corpus(tmp_path)
        store = tmp_path / "store"
        assert main(["explore", "--corpus", str(learning), "--store", str(store), "--seed", "2"]) == 0
        judged = []
        for log in sorted((store / "traces").glob("*.jsonl")):
            for block, linted in zip(read_trace(log), lint_trace(log), strict=True):
                [recorded] = [e["payload"] for e in block.events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
                assert {"satisfied": linted.contract.satisfied, "violations": list(linted.contract.violations)} == {
                    "satisfied": recorded["satisfied"], "violations": recorded["violations"]}
                judged.append(recorded["satisfied"])
        assert len(judged) == 24

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

    @pytest.mark.parametrize("command", ["explore", "infer"])
    def test_the_remote_backend_is_asked_for_the_model_given(self, command, corpus_dir, tmp_path, monkeypatch, stub_server):
        stub_server.mode = "ok"
        monkeypatch.delenv(gateway_module.MODEL_ENV, raising=False)
        if command == "explore":
            argv = ["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(tmp_path / "run" / "store")]
        else:
            argv = ["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--out", str(tmp_path / "run" / "pred.jsonl")]
        sent = []
        for flags, env in (([], None), (["--model", "m7"], None), ([], "m8"), (["--model", "m7"], "m8")):
            if env is not None:
                monkeypatch.setenv(gateway_module.MODEL_ENV, env)
            stub_server.requests.clear()
            assert main([*argv, "--api-base", stub_server.url, *flags]) == 0
            assert stub_server.requests
            sent.append({json.loads(body)["model"] for _method, _path, _headers, body in stub_server.requests})
        # the flag, else TIMECLAW_MODEL, else "default"
        assert sent == [{"default"}, {"m7"}, {"m8"}, {"m7"}]

    def test_the_explore_summary_names_the_model_asked_for(self, corpus_dir, tmp_path, monkeypatch, stub_server):
        stub_server.mode = "ok"
        monkeypatch.delenv(gateway_module.MODEL_ENV, raising=False)
        learning = str(corpus_dir / "learning.jsonl")
        script = str(tmp_path / "script.json")
        runs = {
            "m1": ["--api-base", stub_server.url, "--model", "m1"],
            "m2": ["--api-base", stub_server.url, "--model", "m2"],
            "unnamed": ["--api-base", stub_server.url],
            "recorded": ["--api-base", stub_server.url, "--model", "m1", "--record-script", script],
            "mock": [],
            "scripted": ["--mock-script", script],
        }
        summaries = {}
        for run, flags in runs.items():
            assert main(["explore", "--corpus", learning, "--store", str(tmp_path / run / "store"), *flags]) == 0
            summary = json.loads((tmp_path / run / "run_summary.json").read_text(encoding="utf-8"))
            summaries[run] = {k: v for k, v in summary.items() if k != "store"}
        assert {run: s["config"]["model"] for run, s in summaries.items()} == {
            "m1": "m1", "m2": "m2", "unnamed": "default", "recorded": "m1", "mock": None, "scripted": None,
        }
        assert summaries["m1"] != summaries["m2"]
        # the digest covers the exploration config only
        assert summaries["m1"]["config_digest"] == summaries["m2"]["config_digest"]

    def test_a_recorded_or_scripted_run_hashes_each_message_once(self, corpus_dir, tmp_path, monkeypatch):
        """Each message's text is hashed once, however many later turns
        resend it: a run feeds SHA-256 its distinct message text plus a
        constant per message sent and per call, where hashing each turn's
        whole body would feed it every earlier message again."""
        fed: list[int] = []

        def sha256(data=b""):
            h = hashlib.sha256(data)
            fed.append(len(data))
            return SimpleNamespace(
                update=lambda more: (fed.append(len(more)), h.update(more)), digest=h.digest, hexdigest=h.hexdigest
            )

        # the exchange digest is the gateway module's only hash
        monkeypatch.setattr(gateway_module, "hashlib", SimpleNamespace(sha256=sha256))
        sent: list[gateway_module.ChatExchange] = []

        def capture(complete):
            def wrapped(gateway, exchange):
                sent.append(exchange)
                return complete(gateway, exchange)

            return wrapped

        for backend in (gateway_module.PolicyGateway, gateway_module.ScriptedGateway):
            monkeypatch.setattr(backend, "complete", capture(backend.complete))
        learning, script = str(corpus_dir / "learning.jsonl"), str(tmp_path / "script.json")
        for run, flag in (("recorded", "--record-script"), ("scripted", "--mock-script")):
            fed.clear()
            sent.clear()
            assert main(["explore", "--corpus", learning, "--store", str(tmp_path / run / "store"), flag, script]) == 0
            summary = json.loads((tmp_path / run / "run_summary.json").read_text(encoding="utf-8"))
            assert len(sent) == summary["usage"]["gateway_calls"] > 0
            distinct = {(m.role, m.content) for ex in sent for m in ex.messages}
            text = sum(len(role.encode()) + len(content.encode()) for role, content in distinct)
            messages_sent = sum(len(ex.messages) for ex in sent)
            tools = sum(len(canonical_json(ex.declared_tools.names).encode()) for ex in sent)
            assert 0 < sum(fed) <= text + 64 * messages_sent + 64 * len(sent) + tools
        assert (
            ExperienceStore(tmp_path / "recorded" / "store").tree_digest()
            == ExperienceStore(tmp_path / "scripted" / "store").tree_digest()
        )


    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda reply: "oops",
            lambda reply: {**reply, "content": 5},
            lambda reply: {**reply, "tool_calls": [{"args": {}}]},
            lambda reply: {**reply, "tool_calls": [{"tool": "ses", "args": [1]}]},
            # JSON's escape of a lone surrogate, which no UTF-8 text holds
            lambda reply: {**reply, "content": "\ud800 thinking"},
        ],
        ids=["entry-a-string", "content-a-number", "call-without-tool", "args-a-list", "content-a-lone-surrogate"],
    )
    def test_a_corrupted_recorded_script_is_refused_not_a_traceback(self, corrupt, corpus_dir, tmp_path, capsys):
        """Every entry of a recorded script is looked up, so each corruption
        would reach the reply parser; the script is refused when it loads."""
        argv = ["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--out", str(tmp_path / "pred.jsonl")]
        script = tmp_path / "script.json"
        assert main([*argv, "--record-script", str(script)]) == 0
        recorded = json.loads(script.read_text(encoding="utf-8"))
        script.write_text(json.dumps({digest: corrupt(reply) for digest, reply in recorded.items()}), encoding="utf-8")
        capsys.readouterr()
        assert main([*argv, "--mock-script", str(script)]) == 2
        assert capsys.readouterr().err.startswith("error: replay script entry")


BAD_INPUT = {
    "explore-one-branch-slot": ["explore", "--corpus", "{learning}", "--store", "{store}", "--branch-slots", "1"],
    "explore-zero-steps": ["explore", "--corpus", "{learning}", "--store", "{store}", "--max-steps", "0"],
    "explore-zero-alpha": ["explore", "--corpus", "{learning}", "--store", "{store}", "--alpha", "0"],
    "explore-zero-parallel": ["explore", "--corpus", "{learning}", "--store", "{store}", "--parallel", "0"],
    "explore-negative-parallel": ["explore", "--corpus", "{learning}", "--store", "{store}", "--parallel", "-4"],
    "infer-zero-steps": ["infer", "--corpus", "{eval}", "--out", "{pred}", "--max-steps", "0"],
    "infer-negative-steps": ["infer", "--corpus", "{eval}", "--store", "{store}", "--out", "{pred}", "--max-steps", "-2"],
    "replay-missing-trace": ["replay", "--trace", "{missing}", "--corpus", "{eval}"],
    "replay-empty-trace": ["replay", "--trace", "{empty}", "--corpus", "{eval}"],
    "replay-non-json-trace": ["replay", "--trace", "{garbage}", "--corpus", "{eval}"],
    "replay-missing-corpus": ["replay", "--trace", "{golden_trace}", "--corpus", "{missing}"],
    "lint-missing-trace": ["lint", "--trace", "{missing}"],
    "lint-empty-trace": ["lint", "--trace", "{empty}"],
    "lint-non-json-trace": ["lint", "--trace", "{garbage}"],
    "replay-list-header": ["replay", "--trace", "{list_header}", "--corpus", "{eval}"],
    "lint-list-header": ["lint", "--trace", "{list_header}"],
    "replay-list-event": ["replay", "--trace", "{list_event}", "--corpus", "{eval}"],
    "lint-list-event": ["lint", "--trace", "{list_event}"],
    # a header that does not name its sample
    "replay-header-without-instance": ["replay", "--trace", "{no_instance}", "--corpus", "{x_corpus}"],
    "lint-header-without-instance": ["lint", "--trace", "{no_instance}"],
    "replay-tool-call-without-tool": ["replay", "--trace", "{call_without_tool}", "--corpus", "{x_corpus}"],
    "lint-candidate-without-valid": ["lint", "--trace", "{candidate_without_valid}"],
    "replay-event-branch-a-list": ["replay", "--trace", "{list_branch}", "--corpus", "{x_corpus}"],
    "lint-event-branch-a-list": ["lint", "--trace", "{list_branch}"],
    # the sample a header names is a value parse_record rejects, not one it
    # crashes on or splits, so the corpus does not hold it
    "replay-instance-text-not-blocks": ["replay", "--trace", "{inference_x}", "--corpus", "{bad_text}"],
    "replay-instance-int-past-float-range": ["replay", "--trace", "{inference_x}", "--corpus", "{huge_int}"],
    "replay-instance-bool-horizon": ["replay", "--trace", "{inference_x}", "--corpus", "{bool_horizon}"],
    "replay-instance-string-label-space": ["replay", "--trace", "{inference_x}", "--corpus", "{string_labels}"],
    # the header's sample is not a digest
    "lint-header-sample-an-object": ["lint", "--trace", "{sample_object}"],
    "lint-header-sample-a-number": ["lint", "--trace", "{sample_number}"],
    "lint-header-sample-null": ["lint", "--trace", "{sample_null}"],
    # the corpus lacks the sample, holds another one under its id, or, for
    # an exploration block, holds it without a ground truth that is an answer
    "replay-sample-not-in-corpus": ["replay", "--trace", "{inference_x}", "--corpus", "{eval}"],
    "replay-sample-changed-in-corpus": ["replay", "--trace", "{inference_x}", "--corpus", "{x_changed}"],
    "replay-exploration-sample-without-ground-truth": ["replay", "--trace", "{exploration_x}", "--corpus", "{x_corpus}"],
    "replay-exploration-ground-truth-not-an-answer": ["replay", "--trace", "{exploration_x}", "--corpus", "{x_label_truth}"],
    # --forbidden-file holds JSON that is not an array of strings
    "lint-forbidden-not-a-list": ["lint", "--trace", "{golden_trace}", "--forbidden-file", "{five}"],
    "lint-forbidden-not-strings": ["lint", "--trace", "{golden_trace}", "--forbidden-file", "{numbers}"],
    "replay-no-whole-block": ["replay", "--trace", "{torn_only}", "--corpus", "{eval}"],
    "eval-zero-threshold": ["eval", "--predictions", "{empty}", "--corpus", "{eval}", "--threshold-file", "{threshold}"],
    "eval-string-threshold": ["eval", "--predictions", "{empty}", "--corpus", "{eval}", "--threshold-file", "{string_threshold}", "--out", "{scores}"],
    "eval-bool-threshold": ["eval", "--predictions", "{empty}", "--corpus", "{eval}", "--threshold-file", "{true}", "--out", "{scores}"],
    "eval-thresholds-a-list": ["eval", "--predictions", "{empty}", "--corpus", "{eval}", "--threshold-file", "{numbers}", "--out", "{scores}"],
    "eval-prediction-a-list": ["eval", "--predictions", "{numbers}", "--corpus", "{eval}", "--out", "{scores}"],
    "eval-prediction-id-a-number": ["eval", "--predictions", "{number_id}", "--corpus", "{eval}", "--out", "{scores}"],
    "simulate-non-numeric-field": ["simulate-dropout", "--scenario", "{scenario}", "--seeds", "1", "--out", "{store}"],
    "simulate-zero-seeds": ["simulate-dropout", "--seeds", "0", "--out", "{store}"],
    # a --mock-script that is not an object of replies
    "explore-mock-script-a-list": ["explore", "--corpus", "{learning}", "--store", "{store}", "--mock-script", "{numbers}"],
    "infer-mock-script-entry-a-string": ["infer", "--corpus", "{eval}", "--out", "{pred}", "--mock-script", "{oops}"],
    "explore-mock-script-call-without-tool": ["explore", "--corpus", "{learning}", "--store", "{store}",
                                              "--mock-script", "{call_without_tool_script}"],
    "infer-mock-script-content-a-number": ["infer", "--corpus", "{eval}", "--out", "{pred}", "--mock-script", "{content_5}"],
    # an input file that is not UTF-8, at each file argument
    "explore-corpus-not-utf-8": ["explore", "--corpus", "{not_utf8}", "--store", "{store}"],
    "explore-mock-script-not-utf-8": ["explore", "--corpus", "{learning}", "--store", "{store}", "--mock-script", "{not_utf8}"],
    "infer-corpus-not-utf-8": ["infer", "--corpus", "{not_utf8}", "--out", "{pred}"],
    "infer-mock-script-not-utf-8": ["infer", "--corpus", "{eval}", "--out", "{pred}", "--mock-script", "{not_utf8}"],
    "eval-predictions-not-utf-8": ["eval", "--predictions", "{not_utf8}", "--corpus", "{eval}", "--out", "{scores}"],
    "eval-corpus-not-utf-8": ["eval", "--predictions", "{empty}", "--corpus", "{not_utf8}", "--out", "{scores}"],
    "eval-threshold-file-not-utf-8": ["eval", "--predictions", "{empty}", "--corpus", "{eval}",
                                      "--threshold-file", "{not_utf8}", "--out", "{scores}"],
    "simulate-scenario-not-utf-8": ["simulate-dropout", "--scenario", "{not_utf8}", "--seeds", "1", "--out", "{store}"],
    "replay-corpus-not-utf-8": ["replay", "--trace", "{golden_trace}", "--corpus", "{not_utf8}"],
    "lint-forbidden-file-not-utf-8": ["lint", "--trace", "{golden_trace}", "--forbidden-file", "{not_utf8}"],
    "report-soul-not-utf-8": ["report", "--store", "{soul_not_utf8}"],
    "infer-soul-not-utf-8": ["infer", "--corpus", "{eval}", "--store", "{soul_not_utf8}", "--out", "{pred}"],
    "explore-soul-not-utf-8": ["explore", "--corpus", "{learning}", "--store", "{soul_not_utf8}"],
    # a predictions line that is not JSON, and JSON nested past the recursion limit
    "eval-prediction-not-json": ["eval", "--predictions", "{garbage}", "--corpus", "{eval}", "--out", "{scores}"],
    "eval-prediction-nested-too-deep": ["eval", "--predictions", "{deep}", "--corpus", "{eval}", "--out", "{scores}"],
    "lint-forbidden-nested-too-deep": ["lint", "--trace", "{golden_trace}", "--forbidden-file", "{deep}"],
    "lint-trace-line-nested-too-deep": ["lint", "--trace", "{deep_trace}"],
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
            "list_branch": tmp_path / "list_branch.jsonl",
            "inference_x": tmp_path / "inference_x.jsonl",
            "exploration_x": tmp_path / "exploration_x.jsonl",
            "sample_object": tmp_path / "sample_object.jsonl",
            "sample_number": tmp_path / "sample_number.jsonl",
            "sample_null": tmp_path / "sample_null.jsonl",
            "x_corpus": tmp_path / "x_corpus.jsonl",
            "x_changed": tmp_path / "x_changed.jsonl",
            "x_label_truth": tmp_path / "x_label_truth.jsonl",
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
            "pred": tmp_path / "pred.jsonl",
            "oops": tmp_path / "oops.json",
            "call_without_tool_script": tmp_path / "call_without_tool_script.json",
            "content_5": tmp_path / "content_5.json",
            "string_threshold": tmp_path / "string_threshold.json",
            "scores": tmp_path / "scores.json",
            "true": tmp_path / "true.json",
            "number_id": tmp_path / "number_id.jsonl",
            "not_utf8": tmp_path / "not_utf8.json",
            "soul_not_utf8": tmp_path / "soul_not_utf8",
            "deep": tmp_path / "deep.json",
            "deep_trace": tmp_path / "deep_trace.jsonl",
        }
        files["empty"].write_text("", encoding="utf-8")
        files["garbage"].write_text("not a trace\n", encoding="utf-8")
        files["list_header"].write_text("[1]\n", encoding="utf-8")
        instance = {"id": "x", "series": [1.0, 2.0], "task_type": "forecast", "scope": "s", "horizon": 1}
        header = {"mode": "inference", "version": __version__, "episode": "x", "sample": parse_record(instance).digest}
        files["list_event"].write_text(json.dumps(header) + "\n[2]\n", encoding="utf-8")

        def corpus(*records):
            return "".join(json.dumps(record) + "\n" for record in records)

        def block(head, *events):  # a whole block: the events, then the outcome event
            lines = [head, *({"branch": None, "kind": k, "payload": p} for k, p in events)]
            lines.append({"branch": None, "kind": "outcome", "payload": {}})
            return "".join(json.dumps(line) + "\n" for line in lines)

        files["no_instance"].write_text(block({key: header[key] for key in ("mode", "version", "episode")}), encoding="utf-8")
        files["call_without_tool"].write_text(
            block(header, ("tool_call", {"call_id": "c001", "args": {}, "inputs": ["original"]})), encoding="utf-8"
        )
        candidate = {"type": "candidate", "branch": "x#b0", "substantive_chain": [], "answer": None,
                     "prior_guided": False, "alternative": False}
        files["candidate_without_valid"].write_text(
            block({**header, "mode": "exploration"}, ("verdict", candidate)), encoding="utf-8"
        )
        files["list_branch"].write_text(
            block(header, ("gateway_request", {"digest": "d"})).replace("null", "[0]", 1), encoding="utf-8"
        )
        files["inference_x"].write_text(block(header), encoding="utf-8")
        files["exploration_x"].write_text(block({**header, "mode": "exploration"}), encoding="utf-8")
        files["sample_object"].write_text(block({**header, "sample": {**instance, "text": [5]}}), encoding="utf-8")
        files["sample_number"].write_text(block({**header, "sample": 10**400}), encoding="utf-8")
        files["sample_null"].write_text(block({**header, "sample": None}), encoding="utf-8")
        files["x_corpus"].write_text(corpus(instance), encoding="utf-8")
        files["x_changed"].write_text(corpus({**instance, "series": [1.0, 2.0000000000000004]}), encoding="utf-8")
        files["x_label_truth"].write_text(corpus({**instance, "ground_truth": "up"}), encoding="utf-8")
        files["bad_text"].write_text(corpus({**instance, "text": [5]}), encoding="utf-8")
        files["huge_int"].write_text(corpus({**instance, "series": [10**400, 2.0]}), encoding="utf-8")
        files["bool_horizon"].write_text(corpus({**instance, "horizon": True}), encoding="utf-8")
        files["string_labels"].write_text(corpus({**instance, "task_type": "trend", "label_space": "up"}), encoding="utf-8")
        files["torn_only"].write_text(block(header)[:-5], encoding="utf-8")
        files["threshold"].write_text(json.dumps({"synth_forecast_short": 0}), encoding="utf-8")
        files["scenario"].write_text(json.dumps({"episodes": "many"}), encoding="utf-8")
        files["five"].write_text("5", encoding="utf-8")
        files["numbers"].write_text("[5]", encoding="utf-8")
        files["oops"].write_text(json.dumps({"d": "oops"}), encoding="utf-8")
        files["call_without_tool_script"].write_text(
            json.dumps({"d": {"content": "", "tool_calls": [{"args": {}}]}}), encoding="utf-8"
        )
        files["content_5"].write_text(json.dumps({"d": {"content": 5}}), encoding="utf-8")
        files["string_threshold"].write_text(json.dumps({"synth_forecast_short": "x"}), encoding="utf-8")
        files["true"].write_text(json.dumps({"synth_forecast_short": True}), encoding="utf-8")
        files["number_id"].write_text(json.dumps({"id": 7, "prediction": [1.0]}) + "\n", encoding="utf-8")
        files["not_utf8"].write_bytes(b"\xff\xfe{}")
        files["soul_not_utf8"].mkdir()
        (files["soul_not_utf8"] / "soul.md").write_bytes(b"\xff\xfe{}")
        files["deep"].write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        files["deep_trace"].write_bytes(files["deep"].read_bytes() + files["golden_trace"].read_bytes())
        before = _tree_with_dirs(tmp_path)
        capsys.readouterr()
        assert main([arg.format(**files) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert _tree_with_dirs(tmp_path) == before  # no output directory, store or file left behind

    @pytest.mark.parametrize("command", ["report", "explore"])
    @pytest.mark.parametrize(
        "layer",
        [
            b'{"rules": 5}\n',
            b'{"rules": [{"rule_id": "r1"}]}\n',
            b"not json\n",
            json.dumps({"rules": [{"rule_id": "r1", "kind": "tool_preference", "applicability": {}, "preferred_tools": [],
                                   "avoided_tools": [], "evidence": ["n1"], "confidence": 2.0, "injectable": True,
                                   "seq": 1}]}).encode() + b"\n",
        ],
        ids=["rules-a-number", "rule-without-kind", "not-json", "rule-confidence-past-one"],
    )
    def test_a_memory_layer_that_does_not_decode_is_an_error_naming_its_log(
        self, layer, command, corpus_dir, tmp_path, capsys
    ):
        # the record frames whole, so only decoding its layer finds it bad
        store = tmp_path / "store"
        log = store / "snapshots" / "s.log"
        log.parent.mkdir(parents=True)
        header = {"seq": 1, "digest": "d", "notes": 0, "layers": {"memory/s.json": len(layer)}}
        log.write_bytes(json.dumps(header).encode() + b"\n" + layer)
        before = _tree_with_dirs(tmp_path)
        argv = {"report": ["report"], "explore": ["explore", "--corpus", str(corpus_dir / "learning.jsonl")]}[command]
        capsys.readouterr()
        assert main([*argv, "--store", str(store)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {log}: ")
        assert _tree_with_dirs(tmp_path) == before

    @pytest.mark.parametrize("flag", ["--out", "--trace-dir"])
    def test_infer_refuses_an_output_inside_its_store(self, corpus_dir, tmp_path, capsys, flag):
        # a trace dir inside the store would start the store's trace logs afresh
        store = tmp_path / "store"
        assert main(["explore", "--corpus", str(corpus_dir / "learning.jsonl"), "--store", str(store), "--seed", "3"]) == 0
        inside = {"--out": store / "preds.jsonl", "--trace-dir": store / "traces"}[flag]
        argv = ["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--store", str(store),
                "--out", str(tmp_path / "infer" / "preds.jsonl"), flag, str(inside)]
        before = _tree_with_dirs(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} {inside} lies inside the store")
        assert _tree_with_dirs(tmp_path) == before

    def test_eval_refuses_a_repeated_prediction_id(self, corpus_dir, tmp_path, capsys):
        instances = load_samples(corpus_dir / "eval.jsonl", "evaluation").instances
        records = [{"id": inst.id, "prediction": reveal_for_scoring(inst)} for inst in instances]
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps(r) + "\n" for r in [*records, records[1]]), encoding="utf-8")
        scores = tmp_path / "scores.json"
        capsys.readouterr()
        assert main(["eval", "--predictions", str(preds), "--corpus", str(corpus_dir / "eval.jsonl"), "--out", str(scores)]) == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: line {len(records) + 1}: id {instances[1].id!r} repeats line 2\n"
        )
        assert not scores.exists()

    def test_lint_searches_a_log_whose_torn_tail_is_not_utf_8(self, tmp_path, capsys):
        # read_trace drops the torn tail, so lint judges the blocks before it
        golden = Path(__file__).parent / "data" / "traces" / "inference.jsonl"
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(golden.read_bytes() + b'{"mode": "\xff\xfe')
        needles = ["prediction_valid", "in no log"]
        (tmp_path / "needles.json").write_text(json.dumps(needles), encoding="utf-8")
        capsys.readouterr()
        assert main(["lint", "--trace", str(torn), "--forbidden-file", str(tmp_path / "needles.json")]) == 1
        episodes = json.loads(capsys.readouterr().out)["episodes"]
        assert episodes == [report.to_dict() for report in lint_trace(golden, needles)]
        assert [leak["needle_head"] for leak in episodes[0]["leaks"]] == ["prediction_valid"]


FAMILY = {"name": "szn", "kind": "seasonal", "learn_count": 2, "eval_count": 1}
MALFORMED_SPECS = {
    "length-null": {"families": [{**FAMILY, "length": None}]},
    "length-a-string": {"families": [{**FAMILY, "length": "x"}]},
    "length-zero": {"families": [{**FAMILY, "length": 0}]},
    "horizon-zero": {"families": [{**FAMILY, "horizon": 0}]},
    "period-zero": {"families": [{**FAMILY, "period": 0}]},
    "noise-nan": {"families": [{**FAMILY, "noise": "nan"}]},
    "seed-a-string": {"seed": "x", "families": [FAMILY]},
    "family-a-list": {"families": [[FAMILY]]},
    "families-an-object": {"families": FAMILY},
    "spec-an-array": [FAMILY],
    "spec-not-utf-8": b"\xff\xfe{}",
    "family-without-a-name": {"families": [{key: value for key, value in FAMILY.items() if key != "name"}]},
}
MALFORMED_SCENARIOS = {
    "measure-every-zero": {"measure_every": 0},
    "top-k-zero": {"top_k": 0},
    "alpha-zero": {"alpha": 0},
    "n-tools-zero": {"n_tools": 0},
    "selection-bias-inf": {"selection_bias": "inf"},
    "protected-a-number": {"protected": 5},
    "scenario-an-array": [{"n_tools": 4}],
    "alpha-misspelt": {"aplha": 1e-6},
    "deleted-noise-knob": {"noise": 0.1},
}


class TestMalformedSpecs:
    """A spec or scenario that cannot run is refused with an error line and
    exit 2 before anything is written."""

    @pytest.mark.parametrize("spec", list(MALFORMED_SPECS.values()), ids=list(MALFORMED_SPECS))
    def test_gen_corpus_refuses_and_writes_nothing(self, spec, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        out = tmp_path / "corpus"
        capsys.readouterr()
        assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", list(MALFORMED_SCENARIOS.values()), ids=list(MALFORMED_SCENARIOS))
    def test_simulate_dropout_refuses_and_writes_nothing(self, scenario, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        out = tmp_path / "diag"
        capsys.readouterr()
        assert main(["simulate-dropout", "--scenario", str(path), "--seeds", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestStoreRoot:
    @pytest.mark.parametrize("command", ["explore", "infer", "report"])
    def test_a_store_that_is_a_file_is_refused(self, command, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        store.write_text("not a store\n", encoding="utf-8")
        argv = {
            "explore": ["explore", "--corpus", str(corpus_dir / "learning.jsonl")],
            "infer": ["infer", "--corpus", str(corpus_dir / "eval.jsonl"), "--out", str(tmp_path / "run" / "pred.jsonl")],
            "report": ["report"],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--store", str(store)]) == 2
        assert capsys.readouterr().err.startswith(f"error: store {store} is not a directory")
        assert store.read_text(encoding="utf-8") == "not a store\n"
        assert not (tmp_path / "run").exists()
