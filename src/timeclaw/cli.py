"""Operator entry points: explore, infer, eval, simulate-dropout, report,
and gen-corpus.

Every command is deterministic under (--seed, scripted/policy mock); run
summaries carry the seed and config digest for provenance. Exit codes:
0 success, 2 configuration error, 3 partial (some instances failed).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__, corpus as corpus_mod, metrics, simulate
from .core import CLASSIFICATION_TYPES, TaskInstance, validate_answer
from .errors import ContractError, CorpusError, TimeclawError
from .gateway import Gateway, RecordingGateway, RemoteGateway, ScriptedGateway
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
from .util import canonical_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


def _load_config_file(path: Optional[str]) -> dict[str, Any]:
    if not path:
        return {}
    return json.loads(Path(path).read_text())


def _merged(args: argparse.Namespace, config: dict[str, Any], key: str, default: Any) -> Any:
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _build_gateway(args: argparse.Namespace, default_policy: str) -> Gateway:
    if getattr(args, "mock_script", None):
        gateway: Gateway = ScriptedGateway.from_file(Path(args.mock_script))
    elif getattr(args, "api_base", None):
        gateway = RemoteGateway(base_url=args.api_base, api_key=getattr(args, "api_key", None))
    else:
        gateway = policy_gateway(getattr(args, "policy", None) or default_policy)
    if getattr(args, "record_script", None):
        gateway = RecordingGateway(gateway)
    return gateway


def _save_recorded_script(gateway: Gateway, args: argparse.Namespace) -> None:
    if isinstance(gateway, RecordingGateway) and getattr(args, "record_script", None):
        gateway.save(Path(args.record_script))


def _build_deps(
    store_root: Optional[Path],
    trace_dir: Optional[Path],
    gateway: Gateway,
    registry_path: Optional[str] = None,
    auto_snapshot: bool = True,
) -> EpisodeDeps:
    toolkit = builtin_toolkit()
    ledger = ToolUsageLedger(store_root / LEDGER_FILE if store_root is not None else None)
    if registry_path:
        registry = load_registry(Path(registry_path), ledger=ledger)
    else:
        registry = ToolRegistry(toolkit.descriptors(), ledger=ledger)
    store = (
        ExperienceStore(store_root, auto_snapshot=auto_snapshot) if store_root is not None else None
    )
    return EpisodeDeps(
        registry=registry, toolkit=toolkit, gateway=gateway, store=store, trace_dir=trace_dir
    )


def _write_summary(out_dir: Path, name: str, summary: dict[str, Any]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return path


def cmd_explore(args: argparse.Namespace) -> int:
    config_file = _load_config_file(args.config)
    seed = int(_merged(args, config_file, "seed", 0))
    config = ExplorationConfig(
        branch_slots=int(_merged(args, config_file, "branch-slots", 2)),
        max_steps=int(_merged(args, config_file, "max-steps", 6)),
        alpha=float(_merged(args, config_file, "alpha", 1.0)),
        seed=seed,
    )
    store_root = Path(args.store)
    # the summary lives beside the store, not inside it, so store trees stay
    # byte-comparable across run roots
    out_dir = Path(args.out) if args.out else store_root.parent
    trace_dir = Path(args.trace_dir) if args.trace_dir else store_root / "traces"
    try:
        load = corpus_mod.load_samples(Path(args.corpus), role="learning")
        gateway = _build_gateway(args, default_policy="exploration")
        deps = _build_deps(store_root, trace_dir, gateway, args.registry, not args.no_snapshot)
    except (CorpusError, ContractError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    counts = {"comparative": 0, "single_execution": 0, "failure": 0}
    usage = {"tokens": 0, "gateway_calls": 0}
    failed_instances: list[str] = []
    summary_lock = threading.Lock()

    def run_one(instance: TaskInstance) -> None:
        outcome = run_exploration_episode(instance, config, deps)
        with summary_lock:
            counts[outcome.evidence_class.value] += 1
            usage["tokens"] += outcome.tokens_used
            usage["gateway_calls"] += outcome.gateway_calls

    parallel = max(1, int(_merged(args, config_file, "parallel", 1)))
    if parallel == 1:
        for instance in load.instances:
            try:
                run_one(instance)
            except TimeclawError as exc:
                failed_instances.append(f"{instance.id}: {exc}")
    else:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            futures = {pool.submit(run_one, inst): inst for inst in load.instances}
            for future, inst in futures.items():
                try:
                    future.result()
                except TimeclawError as exc:
                    failed_instances.append(f"{inst.id}: {exc}")

    stages_flushed: dict[str, list[str]] = {}
    if deps.store is not None and not args.no_finalize:
        for scope in deps.store.scopes():
            stages = deps.store.finalize(scope)
            if stages:
                stages_flushed[scope] = stages

    _save_recorded_script(gateway, args)
    summary = {
        "command": "explore",
        "version": __version__,
        "seed": seed,
        "config_digest": config.digest(),
        "config": {
            "branch_slots": config.branch_slots,
            "min_valid_candidates": config.min_valid_candidates,
            "max_steps": config.max_steps,
            "alpha": config.alpha,
            "require_prior_and_alternative": config.require_prior_and_alternative,
            "parallel": parallel,
            "gateway": args.mock_script or args.api_base or (args.policy or "exploration"),
            "finalize": not args.no_finalize,
            "snapshot": not args.no_snapshot,
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
    config_file = _load_config_file(args.config)
    store_root = Path(args.store) if args.store else None
    noexp = store_root is None or not store_root.exists()
    if noexp:
        store_root = None
    out_path = Path(args.out)
    trace_dir = Path(args.trace_dir) if args.trace_dir else out_path.parent / "traces_infer"
    try:
        load = corpus_mod.load_samples(Path(args.corpus), role="evaluation")
        gateway = _build_gateway(args, default_policy="inference")
        deps = _build_deps(store_root, trace_dir, gateway, args.registry)
    except (CorpusError, ContractError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    digest_before = deps.store.tree_digest() if deps.store else None
    max_steps = int(_merged(args, config_file, "max-steps", 6))
    results = []
    failed: list[str] = []
    for instance in load.instances:
        try:
            results.append(run_inference(instance, deps, max_steps=max_steps))
        except TimeclawError as exc:
            failed.append(f"{instance.id}: {exc}")
    digest_after = deps.store.tree_digest() if deps.store else None
    _save_recorded_script(gateway, args)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w") as fh:
        for r in results:
            fh.write(canonical_json(r.to_dict()) + "\n")
    summary = {
        "command": "infer",
        "version": __version__,
        "instances": len(load.instances),
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
        for line in Path(args.predictions).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                predictions[record["id"]] = record.get("prediction")
    except (CorpusError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    corpus_ids = {i.id for i in load.instances}
    unknown_ids = sorted(set(predictions) - corpus_ids)
    by_scope: dict[str, list[TaskInstance]] = {}
    for inst in load.instances:
        by_scope.setdefault(inst.scope, []).append(inst)
    reports = [
        _score_scope(insts, predictions, scope, thresholds.get(scope))
        for scope, insts in sorted(by_scope.items())
    ]
    out = {
        "command": "eval",
        "version": __version__,
        "scopes": reports,
        "unknown_prediction_ids": unknown_ids,
    }
    out_path = Path(args.out) if args.out else Path("scores.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"eval: {len(reports)} scope report(s) -> {out_path}")
    return EXIT_OK


def cmd_simulate_dropout(args: argparse.Namespace) -> int:
    try:
        scenario_dict = json.loads(Path(args.scenario).read_text()) if args.scenario else {}
        scenario = simulate.scenario_from_dict(scenario_dict)
    except (OSError, json.JSONDecodeError) as exc:
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
    store = ExperienceStore(store_root)
    ledger = ToolUsageLedger(store_root / LEDGER_FILE)
    report = store.report()
    for scope in report:
        report[scope]["entropy_history"] = ledger.entropy_history(scope)
    out = {"command": "report", "version": __version__, "scopes": report}
    text = json.dumps(out, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    try:
        summary = corpus_mod.generate_synthetic_corpus(
            Path(args.spec), Path(args.out), seed=args.seed
        )
    except (CorpusError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"gen-corpus: {summary['counts']} -> {args.out}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        report = replay_trace(Path(args.trace))
    except TimeclawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    return EXIT_OK if report.clean else EXIT_PARTIAL


def cmd_lint(args: argparse.Namespace) -> int:
    forbidden: list[str] = []
    if args.forbidden_file:
        forbidden = json.loads(Path(args.forbidden_file).read_text())
    report = lint_trace(Path(args.trace), forbidden_substrings=forbidden)
    print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    return EXIT_OK if report.clean else EXIT_PARTIAL


def _add_gateway_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mock-script", help="digest-keyed replay script (JSON)")
    p.add_argument("--policy", help="built-in deterministic policy name")
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
    p.add_argument("--config", help="configuration file (JSON)")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--branch-slots", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--parallel", type=int)
    p.add_argument("--trace-dir")
    p.add_argument("--out", help="directory for run_summary.json (default: store)")
    p.add_argument("--no-finalize", action="store_true", help="skip the tail distillation flush")
    p.add_argument("--no-snapshot", action="store_true", help="skip automatic snapshots")
    _add_gateway_flags(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("infer", help="run inference with reinjected experience")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", help="experience store root (absent store = noexp ablation)")
    p.add_argument("--registry")
    p.add_argument("--config")
    p.add_argument("--max-steps", type=int)
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

    p = sub.add_parser("replay", help="re-execute a trace and report divergences")
    p.add_argument("--trace", required=True)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("lint", help="contract and leak checks on a trace")
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
