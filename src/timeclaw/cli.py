"""Operator entry points: explore, infer, eval, simulate-dropout, report,
gen-corpus, replay and lint.

Every command is deterministic under (--seed, scripted/policy mock); run
summaries carry the seed and config digest for provenance. Exit codes:
0 success, 1 findings (a replay divergence or a lint violation), 2
configuration error, malformed input or an OS error (see ``main``), 3
partial (some instances failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__, corpus as corpus_mod, metrics, prompts, simulate
from .core import CLASSIFICATION_TYPES, EvidenceClass, TaskInstance, validate_answer
from .errors import ContractError, CorpusError, TimeclawError
from .gateway import API_BASE_ENV, Gateway, RecordingGateway, RemoteGateway, ScriptedGateway
from .orchestrator import (
    EpisodeDeps,
    ExplorationConfig,
    run_exploration_episode,
    run_inference,
)
from .policy import policy_gateway
from .replay import lint as lint_trace, replay as replay_trace
from .store import ExperienceStore
from .toolkit import builtin_toolkit
from .util import canonical_json, parse_json, read_json, read_lines, write_atomic

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
        gateway = RemoteGateway(base_url=api_base, api_key=args.api_key, model=args.model)
    else:
        gateway = policy_gateway(policy)
    if args.record_script:
        gateway = RecordingGateway(gateway)
    return gateway


def _save_recorded_script(gateway: Gateway, args: argparse.Namespace) -> None:
    if isinstance(gateway, RecordingGateway):
        gateway.save(Path(args.record_script))


def _build_deps(store_root: Optional[Path], trace_dir: Path, gateway: Gateway) -> EpisodeDeps:
    store = ExperienceStore(store_root) if store_root is not None else None
    return EpisodeDeps(toolkit=builtin_toolkit(), gateway=gateway, store=store, trace_dir=trace_dir)


def _write_summary(out_dir: Path, name: str, summary: dict[str, Any]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    write_atomic(path, json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return path


def _episodes_by_scope(
    instances: Sequence[TaskInstance],
) -> dict[str, list[tuple[TaskInstance, prompts.SampleFingerprint]]]:
    """Each scope's samples with their fingerprints, in corpus order, the
    scopes in the order they first appear. Every sample is profiled in one
    batched pass."""
    scopes: dict[str, list[tuple[TaskInstance, prompts.SampleFingerprint]]] = {}
    for inst, fp in zip(instances, prompts.fingerprints(instances)):
        scopes.setdefault(inst.scope, []).append((inst, fp))
    return scopes


def _explore_scope(
    episodes: list[tuple[TaskInstance, prompts.SampleFingerprint]],
    config: ExplorationConfig,
    deps: EpisodeDeps,
) -> tuple[Counter[str], dict[str, str]]:
    """Run one scope's episodes in corpus order, one after another. Each is
    popped before it runs, so its fingerprint is dropped once its episode
    has run. Returns the scope's totals (episodes by evidence class, tokens,
    gateway calls) and its failures by sample id."""
    totals: Counter[str] = Counter()
    failed: dict[str, str] = {}
    episodes.reverse()
    while episodes:
        instance, fp = episodes.pop()
        try:
            outcome = run_exploration_episode(instance, config, deps, fp=fp)
        except TimeclawError as exc:
            failed[instance.id] = f"{instance.id}: {exc}"
            continue
        totals[outcome.evidence_class.value] += 1
        totals["tokens"] += outcome.tokens_used
        totals["gateway_calls"] += outcome.gateway_calls
    return totals, failed


def cmd_explore(args: argparse.Namespace) -> int:
    store_root = Path(args.store)
    # the summary lives beside the store, not inside it, so store trees stay
    # byte-comparable across run roots
    out_dir = Path(args.out) if args.out else store_root.parent
    trace_dir = Path(args.trace_dir) if args.trace_dir else store_root / "traces"
    config = ExplorationConfig(
        branch_slots=args.branch_slots, max_steps=args.max_steps, alpha=args.alpha, seed=args.seed
    )
    if args.parallel < 1:
        raise ContractError("parallel must be >= 1")
    load = corpus_mod.load_samples(Path(args.corpus), role="learning")
    gateway = _build_gateway(args, policy="exploration")
    deps = _build_deps(store_root, trace_dir, gateway)

    try:
        # One pool task per scope, which runs the scope's episodes in corpus
        # order: all state that depends on episode order is a scope's own, so
        # the store, traces and summary are the same bytes at every
        # --parallel.
        scopes = _episodes_by_scope(load.instances)
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            runs = [pool.submit(_explore_scope, episodes, config, deps) for episodes in scopes.values()]
        totals: Counter[str] = Counter()
        failed: dict[str, str] = {}
        for run in runs:
            scope_totals, scope_failed = run.result()
            totals += scope_totals
            failed.update(scope_failed)
        failed_instances = [failed[inst.id] for inst in load.instances if inst.id in failed]

        stages_flushed: dict[str, list[str]] = {}
        if deps.store is not None:
            for scope in deps.store.scopes():
                stages = deps.store.finalize(scope)
                if stages:
                    stages_flushed[scope] = stages
    finally:
        deps.close()

    _save_recorded_script(gateway, args)
    backend = gateway.inner if isinstance(gateway, RecordingGateway) else gateway
    summary = {
        "command": "explore",
        "version": __version__,
        "seed": config.seed,
        "config_digest": config.digest(),
        "config": {
            "branch_slots": config.branch_slots,
            "max_steps": config.max_steps,
            "alpha": config.alpha,
            "parallel": args.parallel,
            "gateway": args.mock_script or _api_base(args) or "exploration",
            "model": backend.model if isinstance(backend, RemoteGateway) else None,
        },
        "episodes": {cls.value: totals[cls.value] for cls in EvidenceClass},
        "usage": {key: totals[key] for key in ("tokens", "gateway_calls")},
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
    if args.max_steps < 1:
        raise ContractError("max_steps must be >= 1")
    store_root = Path(args.store) if args.store else None
    noexp = store_root is None or not store_root.exists()
    if noexp:
        store_root = None
    out_path = Path(args.out)
    trace_dir = Path(args.trace_dir) if args.trace_dir else out_path.parent / "traces_infer"
    if args.store:
        # infer reads its store and writes nothing into it
        for flag, path in (("--out", out_path), ("--trace-dir", trace_dir)):
            if path.resolve().is_relative_to(Path(args.store).resolve()):
                raise ContractError(f"{flag} {path} lies inside the store {args.store}")
    load = corpus_mod.load_samples(Path(args.corpus), role="evaluation")
    gateway = _build_gateway(args, policy="inference")
    deps = _build_deps(store_root, trace_dir, gateway)

    results = []
    failed: list[str] = []
    try:
        listing_before = deps.store.listing() if deps.store else None
        # every sample is profiled in one batched pass before the first; each
        # fingerprint is popped for its sample and not kept after it
        profiled = prompts.fingerprints(load.instances)[::-1]
        for instance in load.instances:
            try:
                results.append(run_inference(instance, deps, max_steps=args.max_steps, fp=profiled.pop()))
            except TimeclawError as exc:
                failed.append(f"{instance.id}: {exc}")
        listing_after = deps.store.listing() if deps.store else None
    finally:
        deps.close()
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
        "usage": {
            "tokens": sum(r.tokens_used for r in results),
            "gateway_calls": sum(r.gateway_calls for r in results),
        },
        "noexp": noexp,
        "store_untouched": listing_before == listing_after,
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
    load = corpus_mod.load_samples(Path(args.corpus), role="evaluation")
    thresholds: dict[str, float] = {}
    if args.threshold_file:
        thresholds = read_json(Path(args.threshold_file))
        if not isinstance(thresholds, dict):
            raise ContractError(f"{args.threshold_file}: not a JSON object of thresholds by scope")
    predictions: dict[str, Any] = {}
    first_line: dict[str, int] = {}  # by id
    for line_no, line in enumerate(read_lines(Path(args.predictions)), start=1):
        if line.strip():
            record = parse_json(line, f"{args.predictions}: line {line_no}")
            if not isinstance(record, dict) or not isinstance(record.get("id"), str):
                raise ContractError(f"{args.predictions}: line {line_no} is not an object with a string id")
            first = first_line.setdefault(record["id"], line_no)
            if first != line_no:
                raise ContractError(f"{args.predictions}: line {line_no}: id {record['id']!r} repeats line {first}")
            predictions[record["id"]] = record.get("prediction")
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
        "unknown_prediction_ids": sorted(set(predictions) - {i.id for i in load.instances}),
    }
    out_path = Path(args.out) if args.out else Path("scores.json")
    _write_summary(out_path.parent, out_path.name, out)
    print(f"eval: {len(reports)} scope report(s) -> {out_path}")
    return EXIT_OK


def cmd_simulate_dropout(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ContractError("--seeds must be at least 1")
    scenario = simulate.scenario_from_dict(read_json(Path(args.scenario)) if args.scenario else {})
    seeds = list(range(args.seeds))
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
        raise ContractError(f"store {store_root} does not exist")
    store = ExperienceStore(store_root)
    report = store.report()
    for scope in report:
        report[scope]["entropy_history"] = store.ledger.entropy_history(scope)
    out = {"command": "report", "version": __version__, "scopes": report}
    text = json.dumps(out, indent=1, sort_keys=True)
    if args.out:
        write_atomic(Path(args.out), text + "\n")
    print(text)
    return EXIT_OK


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    summary = corpus_mod.generate_synthetic_corpus(Path(args.spec), Path(args.out), seed=args.seed)
    # the pools as written: no evaluation source may also teach
    learn, evaluate = (
        corpus_mod.load_samples(Path(summary["files"][role]), role).manifest
        for role in ("learning", "evaluation")
    )
    check = corpus_mod.disjointness_check(learn, evaluate)
    print(f"gen-corpus: {summary['counts']} -> {args.out}")
    print(f"disjointness: {canonical_json(check)}")
    if not check["pass"]:
        raise CorpusError("the learning and evaluation pools share sources")
    return EXIT_OK


def _print_episode_reports(trace: str, reports: Sequence[Any]) -> int:
    out = {"trace": trace, "episodes": [r.to_dict() for r in reports]}
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK if all(r.clean for r in reports) else EXIT_FINDINGS


def cmd_replay(args: argparse.Namespace) -> int:
    # an evaluation-role load: an inference log's samples need no ground
    # truth, and replay checks an exploration block's itself
    samples = corpus_mod.load_samples(Path(args.corpus), role="evaluation").instances
    return _print_episode_reports(args.trace, replay_trace(Path(args.trace), samples))


def cmd_lint(args: argparse.Namespace) -> int:
    forbidden: list[str] = []
    if args.forbidden_file:
        forbidden = read_json(Path(args.forbidden_file))
        if not isinstance(forbidden, list) or not all(isinstance(s, str) for s in forbidden):
            raise ContractError(f"{args.forbidden_file}: not a JSON array of strings")
    return _print_episode_reports(args.trace, lint_trace(Path(args.trace), forbidden_substrings=forbidden))


def _add_gateway_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mock-script", help="digest-keyed replay script (JSON)")
    p.add_argument("--api-base", help="OpenAI-compatible base URL (or TIMECLAW_API_BASE)")
    p.add_argument("--api-key", help="API key (or TIMECLAW_API_KEY)")
    p.add_argument("--model", help="model name the backend is asked for (or TIMECLAW_MODEL; default: default)")
    p.add_argument("--record-script", help="record every exchange into a replay script at PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="timeclaw", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="run exploration episodes over a learning corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0, help="dropout strength (> 0)")
    p.add_argument("--branch-slots", type=int, default=2)
    p.add_argument("--max-steps", type=int, default=6)
    p.add_argument("--parallel", type=int, default=1, help="scopes explored at once")
    p.add_argument("--trace-dir")
    p.add_argument("--out", help="directory for run_summary.json (default: the store's parent)")
    _add_gateway_flags(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("infer", help="run inference with reinjected experience")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", help="experience store root (absent store = noexp ablation)")
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
    p.add_argument("--corpus", required=True, help="the corpus the traced run read: each episode's sample")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("lint", help="contract and leak checks on each episode of a trace log")
    p.add_argument("--trace", required=True)
    p.add_argument("--forbidden-file", help="JSON array of forbidden substrings")
    p.set_defaults(fn=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the one input boundary, where an engine or OS error prints ``error: ...``."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TimeclawError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
