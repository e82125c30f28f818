"""Operator entry points: explore, infer, eval, simulate-dropout, report,
and gen-corpus.

Every command is deterministic under (--seed, scripted/policy mock); run
summaries carry the seed and config digest for provenance. Exit codes:
0 success, 1 findings (a replay divergence or a lint violation), 2
configuration error or malformed input, 3 partial (some instances failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__, corpus as corpus_mod, metrics, prompts, simulate
from .core import CLASSIFICATION_TYPES, TaskInstance, validate_answer
from .errors import ContractError, CorpusError, LogError, TimeclawError
from .gateway import API_BASE_ENV, Gateway, RecordingGateway, RemoteGateway, ScriptedGateway
from .orchestrator import (
    EpisodeDeps,
    ExplorationConfig,
    run_exploration_episode,
    run_inference,
)
from .policy import policy_gateway
from .registry import LEDGER_FILE, ToolRegistry, ToolUsageLedger, load_registry
from .replay import lint as lint_trace, replay as replay_trace
from .store import ExperienceStore
from .toolkit import builtin_toolkit
from .util import canonical_json, write_atomic

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


def _api_base(args: argparse.Namespace) -> Optional[str]:
    return args.api_base or os.environ.get(API_BASE_ENV)


def _build_gateway(args: argparse.Namespace, policy: str) -> Gateway:
    """The scripted mock, a remote backend, or the built-in ``policy``."""
    api_base = _api_base(args)
    if args.mock_script:
        gateway: Gateway = ScriptedGateway.from_file(Path(args.mock_script))
    elif api_base:
        gateway = RemoteGateway(base_url=api_base, api_key=args.api_key)
    else:
        gateway = policy_gateway(policy)
    if args.record_script:
        gateway = RecordingGateway(gateway)
    return gateway


def _save_recorded_script(gateway: Gateway, args: argparse.Namespace) -> None:
    if isinstance(gateway, RecordingGateway):
        gateway.save(Path(args.record_script))


def _build_deps(
    store_root: Optional[Path],
    trace_dir: Optional[Path],
    gateway: Gateway,
    registry_path: Optional[str] = None,
) -> EpisodeDeps:
    toolkit = builtin_toolkit()
    ledger = ToolUsageLedger(store_root / LEDGER_FILE if store_root is not None else None)
    if registry_path:
        registry = load_registry(Path(registry_path), ledger=ledger)
    else:
        registry = ToolRegistry(toolkit.descriptors(), ledger=ledger)
    store = ExperienceStore(store_root) if store_root is not None else None
    return EpisodeDeps(
        registry=registry, toolkit=toolkit, gateway=gateway, store=store, trace_dir=trace_dir
    )


def _write_summary(out_dir: Path, name: str, summary: dict[str, Any]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    write_atomic(path, json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return path


def cmd_explore(args: argparse.Namespace) -> int:
    store_root = Path(args.store)
    # the summary lives beside the store, not inside it, so store trees stay
    # byte-comparable across run roots
    out_dir = Path(args.out) if args.out else store_root.parent
    trace_dir = Path(args.trace_dir) if args.trace_dir else store_root / "traces"
    try:
        config = ExplorationConfig(
            branch_slots=args.branch_slots, max_steps=args.max_steps, alpha=args.alpha, seed=args.seed
        )
        load = corpus_mod.load_samples(Path(args.corpus), role="learning")
        gateway = _build_gateway(args, policy="exploration")
        deps = _build_deps(store_root, trace_dir, gateway, args.registry)
    except (CorpusError, ContractError, LogError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    counts = {"comparative": 0, "single_execution": 0, "failure": 0}
    usage = {"tokens": 0, "gateway_calls": 0}
    failed_instances: list[str] = []
    summary_lock = threading.Lock()

    def run_one(instance: TaskInstance, fp: prompts.SampleFingerprint) -> None:
        outcome = run_exploration_episode(instance, config, deps, fp=fp)
        with summary_lock:
            counts[outcome.evidence_class.value] += 1
            usage["tokens"] += outcome.tokens_used
            usage["gateway_calls"] += outcome.gateway_calls

    parallel = max(1, args.parallel)
    # at --parallel 1 the one worker runs the episodes in corpus order. Every
    # sample is profiled in one batched pass first; a fingerprint is held by
    # its pool work item only, which is dropped once its episode has run.
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        futures = {
            pool.submit(run_one, inst, fp): inst
            for inst, fp in zip(load.instances, prompts.fingerprints(load.instances))
        }
        for future, inst in futures.items():
            try:
                future.result()
            except TimeclawError as exc:
                failed_instances.append(f"{inst.id}: {exc}")

    stages_flushed: dict[str, list[str]] = {}
    if deps.store is not None:
        for scope in deps.store.scopes():
            stages = deps.store.finalize(scope)
            if stages:
                stages_flushed[scope] = stages

    _save_recorded_script(gateway, args)
    summary = {
        "command": "explore",
        "version": __version__,
        "seed": config.seed,
        "config_digest": config.digest(),
        "config": {
            "branch_slots": config.branch_slots,
            "max_steps": config.max_steps,
            "alpha": config.alpha,
            "parallel": parallel,
            "gateway": args.mock_script or _api_base(args) or "exploration",
        },
        "episodes": counts,
        "usage": usage,
        "instances": len(load.instances),
        "rejected_lines": load.rejects,
        "failed_instances": failed_instances,
        "finalize_flush": stages_flushed,
        "store": str(store_root),
    }
    path = _write_summary(out_dir, "run_summary.json", summary)
    print(f"explore: {len(load.instances)} episode(s), summary at {path}")
    return EXIT_PARTIAL if failed_instances else EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    store_root = Path(args.store) if args.store else None
    noexp = store_root is None or not store_root.exists()
    if noexp:
        store_root = None
    out_path = Path(args.out)
    trace_dir = Path(args.trace_dir) if args.trace_dir else out_path.parent / "traces_infer"
    try:
        load = corpus_mod.load_samples(Path(args.corpus), role="evaluation")
        gateway = _build_gateway(args, policy="inference")
        deps = _build_deps(store_root, trace_dir, gateway, args.registry)
    except (CorpusError, ContractError, LogError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    digest_before = deps.store.tree_digest() if deps.store else None
    results = []
    failed: list[str] = []
    # every sample is profiled in one batched pass before the first; each
    # fingerprint is popped for its sample and not kept after it
    profiled = prompts.fingerprints(load.instances)[::-1]
    for instance in load.instances:
        try:
            results.append(run_inference(instance, deps, max_steps=args.max_steps, fp=profiled.pop()))
        except TimeclawError as exc:
            failed.append(f"{instance.id}: {exc}")
    digest_after = deps.store.tree_digest() if deps.store else None
    _save_recorded_script(gateway, args)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out_path, "".join(canonical_json(r.to_dict()) + "\n" for r in results))
    summary = {
        "command": "infer",
        "version": __version__,
        "instances": len(load.instances),
        "rejected_lines": load.rejects,
        "predictions": len(results),
        "degraded": sum(1 for r in results if r.degraded),
        "noexp": noexp,
        "store_untouched": digest_before == digest_after,
        "failed_instances": failed,
        "out": str(out_path),
    }
    _write_summary(out_path.parent, "infer_summary.json", summary)
    print(f"infer: {len(results)} prediction(s) -> {out_path} (noexp={noexp})")
    return EXIT_PARTIAL if failed else EXIT_OK


def _score_scope(
    instances: Sequence[TaskInstance],
    predictions: dict[str, Any],
    scope: str,
    threshold: Optional[float],
) -> dict[str, Any]:
    rows: list[Any] = []
    rows3: list[Any] = []
    five_way = False
    supervision = "mae"
    for inst in instances:
        supervision = metrics.supervision_metric(inst.task_type.value, scope)
        pred = predictions.get(inst.id)
        if pred is None:
            rows.append(metrics.Unscorable("missing_prediction"))
            continue
        if not inst.has_ground_truth:
            rows.append(metrics.Unscorable("missing_ground_truth"))
            continue
        truth = corpus_mod.reveal_for_scoring(inst)
        if not validate_answer(pred, inst).valid:
            rows.append(metrics.Unscorable("invalid_prediction"))
            continue
        rows.append(metrics.answer_report(pred, truth, inst.task_type.value))
        if inst.task_type in CLASSIFICATION_TYPES and inst.label_space and len(inst.label_space) == 5:
            five_way = True
            rows3.append(
                metrics.label_report(
                    metrics.map_5way_to_3way(pred, inst.label_space),
                    metrics.map_5way_to_3way(truth, inst.label_space),
                )
            )
    policy = metrics.SummaryPolicy(supervision_metric=supervision, threshold=threshold)
    result = metrics.summarize(rows, policy, scope=scope).to_dict()
    if five_way:
        acc5 = result["metrics"].pop("accuracy", None)
        if acc5 is not None:
            result["metrics"]["acc_5"] = acc5
        result3 = metrics.summarize(rows3, metrics.SummaryPolicy(supervision_metric="accuracy"), scope=scope)
        if "accuracy" in result3.metrics:
            result["metrics"]["acc_3"] = result3.metrics["accuracy"]
    return result


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        load = corpus_mod.load_samples(Path(args.corpus), role="evaluation")
        thresholds: dict[str, float] = {}
        if args.threshold_file:
            thresholds = json.loads(Path(args.threshold_file).read_text())
        predictions: dict[str, Any] = {}
        # only "\n" ends a record: str.splitlines also splits at the U+2028
        # and U+0085 that canonical_json writes raw inside strings
        for line in Path(args.predictions).read_text().split("\n"):
            if line.strip():
                record = json.loads(line)
                predictions[record["id"]] = record.get("prediction")
        by_scope: dict[str, list[TaskInstance]] = {}
        for inst in load.instances:
            by_scope.setdefault(inst.scope, []).append(inst)
        reports = [
            _score_scope(insts, predictions, scope, thresholds.get(scope))
            for scope, insts in sorted(by_scope.items())
        ]
    except (CorpusError, ContractError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    corpus_ids = {i.id for i in load.instances}
    unknown_ids = sorted(set(predictions) - corpus_ids)
    out = {
        "command": "eval",
        "version": __version__,
        "scopes": reports,
        "unknown_prediction_ids": unknown_ids,
    }
    out_path = Path(args.out) if args.out else Path("scores.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out_path, json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"eval: {len(reports)} scope report(s) -> {out_path}")
    return EXIT_OK


def cmd_simulate_dropout(args: argparse.Namespace) -> int:
    try:
        scenario_dict = json.loads(Path(args.scenario).read_text()) if args.scenario else {}
        scenario = simulate.scenario_from_dict(scenario_dict)
    except (OSError, ValueError, TypeError) as exc:  # ValueError covers bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seeds = list(range(int(args.seeds)))
    result = simulate.compare_over_seeds(scenario, seeds)
    paths = simulate.write_outputs(result, Path(args.out))
    reduction = result.mean_top_share_reduction()
    print(
        f"simulate-dropout: {len(seeds)} seed(s), mean top-{scenario.top_k} share reduction "
        f"{reduction * 100:.1f} pp -> {paths['csv']}"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    store_root = Path(args.store)
    if not store_root.exists():
        print(f"error: store {store_root} does not exist", file=sys.stderr)
        return EXIT_CONFIG
    try:
        store = ExperienceStore(store_root)
        ledger = ToolUsageLedger(store_root / LEDGER_FILE)
    except (ContractError, LogError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = store.report()
    for scope in report:
        report[scope]["entropy_history"] = ledger.entropy_history(scope)
    out = {"command": "report", "version": __version__, "scopes": report}
    text = json.dumps(out, indent=1, sort_keys=True)
    if args.out:
        write_atomic(Path(args.out), text + "\n")
    print(text)
    return EXIT_OK


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    try:
        summary = corpus_mod.generate_synthetic_corpus(
            Path(args.spec), Path(args.out), seed=args.seed
        )
        # the pools as written: no evaluation source may also teach
        learn, evaluate = (
            corpus_mod.load_samples(Path(summary["files"][role]), role).manifest
            for role in ("learning", "evaluation")
        )
    except (CorpusError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    check = corpus_mod.disjointness_check(learn, evaluate)
    print(f"gen-corpus: {summary['counts']} -> {args.out}")
    print(f"disjointness: {canonical_json(check)}")
    if not check["pass"]:
        print("error: the learning and evaluation pools share sources", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _print_episode_reports(trace: str, reports: Sequence[Any]) -> int:
    out = {"trace": trace, "episodes": [r.to_dict() for r in reports]}
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK if all(r.clean for r in reports) else EXIT_FINDINGS


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        reports = replay_trace(Path(args.trace))
    except (TimeclawError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _print_episode_reports(args.trace, reports)


def cmd_lint(args: argparse.Namespace) -> int:
    try:
        forbidden: list[str] = []
        if args.forbidden_file:
            forbidden = json.loads(Path(args.forbidden_file).read_text())
            if not isinstance(forbidden, list) or not all(isinstance(s, str) for s in forbidden):
                raise ContractError(f"{args.forbidden_file}: not a JSON array of strings")
        reports = lint_trace(Path(args.trace), forbidden_substrings=forbidden)
    except (TimeclawError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _print_episode_reports(args.trace, reports)


def _add_gateway_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mock-script", help="digest-keyed replay script (JSON)")
    p.add_argument("--api-base", help="OpenAI-compatible base URL (or TIMECLAW_API_BASE)")
    p.add_argument("--api-key", help="API key (or TIMECLAW_API_KEY)")
    p.add_argument("--record-script", help="record every exchange into a replay script at PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="timeclaw", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="run exploration episodes over a learning corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--registry", help="tool registry JSON (default: built-in toolkit)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0, help="dropout strength (> 0)")
    p.add_argument("--branch-slots", type=int, default=2)
    p.add_argument("--max-steps", type=int, default=6)
    p.add_argument("--parallel", type=int, default=1, help="episodes run at once")
    p.add_argument("--trace-dir")
    p.add_argument("--out", help="directory for run_summary.json (default: the store's parent)")
    _add_gateway_flags(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("infer", help="run inference with reinjected experience")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", help="experience store root (absent store = noexp ablation)")
    p.add_argument("--registry")
    p.add_argument("--max-steps", type=int, default=6)
    p.add_argument("--trace-dir")
    p.add_argument("--out", required=True, help="predictions JSONL path; infer_summary.json and traces_infer/ go beside it")
    _add_gateway_flags(p)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against an evaluation corpus")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--threshold-file", help="JSON {scope: threshold}")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate-dropout", help="tool-prior-collapse diagnostics")
    p.add_argument("--scenario", help="scenario JSON (default: built-in biased scenario)")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate_dropout)

    p = sub.add_parser("report", help="audit a store: notes, rules, conflicts, snapshots")
    p.add_argument("--store", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="synthetic-spec JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("replay", help="re-execute a trace log and report divergences per episode")
    p.add_argument("--trace", required=True)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("lint", help="contract and leak checks on each episode of a trace log")
    p.add_argument("--trace", required=True)
    p.add_argument("--forbidden-file", help="JSON array of forbidden substrings")
    p.set_defaults(fn=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
