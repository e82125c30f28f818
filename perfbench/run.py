"""The timeclaw benchmark.

    python3 perfbench/run.py --workload explore_mixed --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One invocation generates the workload's seeded corpus, then runs
``timeclaw explore`` or ``timeclaw infer`` in-process through ``cli.main``,
one command after another (``--parallel 1``), until ``--seconds`` are spent.
Each command gets a fresh run directory and repeats the same seeded work.

With ``--trace 0`` the only instrument is a timer around each
``run_exploration_episode`` / ``run_inference`` call, followed by a run of a
fixed reference workload that measures the CPU's current speed; timings are
reported at a reference speed (see ``speed``). The last line of standard
output is a JSON object with the end-to-end metrics. With
``--trace 1`` untraced and traced commands alternate: the traced ones wrap the
public functions of each layer (see ``spans.LAYERS``), and the JSON carries
the per-layer metrics and the tracing overhead.

Correctness is checked outside the timed region: no failed instances,
evidence classes that add up, gapless notes, clean ``timeclaw lint`` on a
sample of traces, valid predictions, an untouched store at inference, and
byte-identical stores from every same-seed command. ``--smoke`` runs every
workload once, traced and untraced, on a corpus a tenth the size, and exits
non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "timeclaw" / "__init__.py").is_file():
    sys.exit(f"perfbench: no timeclaw sources under {SRC}")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import speed  # noqa: E402
from timeclaw import cli, corpus as corpus_mod, policy  # noqa: E402
from timeclaw.core import TaskType, validate_answer  # noqa: E402
from timeclaw.errors import ContractError  # noqa: E402
from timeclaw.store import ExperienceStore  # noqa: E402
from workloads import QUALITY_SCOPE, WORKLOADS, SleepGateway, Workload  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
LINT_SAMPLE = 8
TAIL_Q = 0.9
MIN_BEYOND_TAIL = 10
MIB = float(1 << 20)
TOOL_ERROR_CODES = ("schema_violation", "insufficient_history", "out_of_range", "contract", "unknown_tool")


def items_beyond(n: int, q: float) -> int:
    """How many of n samples lie above their nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[len(values) - items_beyond(len(values), q) - 1]


def run_cli(argv: Sequence[str]) -> tuple[int, str]:
    """Run one timeclaw command in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, err.getvalue()


def tree_size(root: Path, sub: str = "") -> tuple[int, int]:
    """(bytes, files) of every file under root/sub."""
    files = [p for p in (root / sub).rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


@dataclass
class Inputs:
    corpus: Path
    store: Optional[Path]  # the explored store infer reads
    store_digest: Optional[str]
    setup_s: list[float]  # at reference speed
    items: int


@dataclass
class Rep:
    dir: Path
    traced: bool
    wall_s: float  # at reference speed
    raw_wall_s: float  # wall-clock, probes excluded
    rc: int
    stderr: str
    meter: speed.Meter
    layers: dict[str, spans.LayerTotals] = field(default_factory=dict)
    span_log: list[spans.Span] = field(default_factory=list)
    output: str = ""  # explore: the store's tree digest; infer: the predictions


class Bench:
    """One benchmark run of one workload: set-up, measured commands, checks
    and metrics. Failed checks collect in ``problems``."""

    def __init__(self, workload: Workload, seed: int, work: Path, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    # -- set-up ------------------------------------------------------------

    def explore_argv(self, learning: Path, run_dir: Path) -> list[str]:
        return ["explore", "--corpus", str(learning), "--store", str(run_dir / "store"),
                "--seed", str(self.seed), "--parallel", "1"]

    def infer_argv(self, eval_corpus: Path, store: Path, run_dir: Path) -> list[str]:
        return ["infer", "--corpus", str(eval_corpus), "--store", str(store),
                "--out", str(run_dir / "pred.jsonl")]

    def setup(self) -> Inputs:
        """Generate the corpus (and, for infer, explore the store it reads) at
        least SETUP_REPEATS times and for SETUP_MIN_S; setup_s is the median
        and every copy must match the first."""
        times: list[float] = []
        digests: set[str] = set()
        first = self.work / "setup0"
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            out = self.work / f"setup{len(times)}"
            meter = speed.Meter()
            meter.start()
            corpus_mod.generate_synthetic_corpus(self.workload.spec(self.smoke), out / "corpus", seed=self.seed)
            if self.workload.command == "infer":
                with mock.patch.object(cli, "run_exploration_episode", meter.wrap(cli.run_exploration_episode)):
                    rc, err = run_cli(self.explore_argv(out / "corpus" / "learning.jsonl", out / "explored"))
                self.check(rc == 0, f"set-up explore exited {rc}: {err.strip()}")
            times.append(meter.stop())
            if self.workload.command == "infer":
                digests.add(ExperienceStore(out / "explored" / "store").tree_digest())
            if out != first:
                for name in ("learning.jsonl", "eval.jsonl"):
                    self.check((first / "corpus" / name).read_bytes() == (out / "corpus" / name).read_bytes(),
                               f"same-seed corpus generation differs in {name}")
                shutil.rmtree(out)
        self.check(len(digests) <= 1, "same-seed set-up explores gave different stores")
        if self.workload.command == "explore":
            items = len(corpus_mod.load_samples(first / "corpus" / "learning.jsonl", role="learning").instances)
            return Inputs(first / "corpus", None, None, times, items)
        items = len(corpus_mod.load_samples(first / "corpus" / "eval.jsonl", role="evaluation").instances)
        return Inputs(first / "corpus", first / "explored" / "store", min(digests), times, items)

    # -- measured commands ---------------------------------------------------

    def run_rep(self, inputs: Inputs, index: int, traced: bool) -> Rep:
        run_dir = self.work / f"rep{index}"
        gateways: list[SleepGateway] = []
        meter = speed.Meter(waited=lambda: sum(g.slept_s for g in gateways))
        tracer = spans.Tracer()

        def sleeping_gateway(name: str) -> SleepGateway:
            gateways.append(SleepGateway(policy.policy_gateway(name), self.workload.gateway_delay_s))
            return gateways[-1]

        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
            if self.workload.gateway_delay_s is not None:
                stack.enter_context(mock.patch.object(cli, "policy_gateway", sleeping_gateway))
            if self.workload.command == "explore":
                stack.enter_context(mock.patch.object(
                    cli, "run_exploration_episode", meter.wrap(cli.run_exploration_episode)))
                argv = self.explore_argv(inputs.corpus / "learning.jsonl", run_dir)
            else:
                stack.enter_context(mock.patch.object(cli, "run_inference", meter.wrap(cli.run_inference)))
                argv = self.infer_argv(inputs.corpus / "eval.jsonl", inputs.store, run_dir)
            meter.start()
            rc, err = run_cli(argv)
            meter.stop()
        rep = Rep(run_dir, traced, meter.scaled_s, meter.wall_s, rc, err, meter)
        if traced:
            rep.span_log = tracer.spans
            rep.layers = spans.layer_totals(tracer.spans)
            # the probes after items ran inside cli.main, outside every other span
            rep.layers["cli"].self_s -= meter.item_probe_s
        return rep

    def measure(self, inputs: Inputs, seconds: float, trace: bool) -> list[Rep]:
        """Repeat the command until ``seconds`` have passed; with tracing,
        untraced and traced commands alternate."""
        modes = (False, True) if trace else (False,)
        reps: list[Rep] = []
        start = time.perf_counter()
        while True:
            for traced in modes:
                rep = self.run_rep(inputs, len(reps), traced)
                self.check_rep(rep, inputs)
                if reps:  # keep only the first run directory on disk
                    shutil.rmtree(rep.dir)
                reps.append(rep)
            if time.perf_counter() - start >= seconds:
                return reps

    # -- correctness ---------------------------------------------------------

    def check_rep(self, rep: Rep, inputs: Inputs) -> None:
        """Per-command checks, run after the timed region."""
        tag = f"{'traced' if rep.traced else 'untraced'} {self.workload.command} in {rep.dir.name}"
        self.check(rep.rc == 0, f"{tag} exited {rep.rc}: {rep.stderr.strip()}")
        self.check(len(rep.meter.raw) == inputs.items,
                   f"{tag} timed {len(rep.meter.raw)} of {inputs.items} items")
        if self.workload.command == "explore":
            self.check_explore_summary(rep.dir, inputs.items, tag)
            rep.output = ExperienceStore(rep.dir / "store").tree_digest()
        else:
            self.check_predictions(rep.dir, inputs.corpus / "eval.jsonl", tag)
            rep.output = (rep.dir / "pred.jsonl").read_text()

    def check_explore_summary(self, run_dir: Path, items: int, tag: str) -> None:
        summary = json.loads((run_dir / "run_summary.json").read_text())
        self.check(not summary["failed_instances"], f"{tag}: failed {summary['failed_instances'][:3]}")
        self.check(summary["instances"] == items, f"{tag}: {summary['instances']} of {items} instances")
        self.check(sum(summary["episodes"].values()) == items,
                   f"{tag}: evidence classes {summary['episodes']} do not sum to {items}")

    def check_predictions(self, run_dir: Path, eval_corpus: Path, tag: str) -> None:
        summary = json.loads((run_dir / "infer_summary.json").read_text())
        self.check(not summary["failed_instances"], f"{tag}: failed {summary['failed_instances'][:3]}")
        self.check(summary["store_untouched"] is True, f"{tag}: inference changed the store")
        instances = {i.id: i for i in corpus_mod.load_samples(eval_corpus, role="evaluation").instances}
        predictions = [json.loads(line) for line in (run_dir / "pred.jsonl").read_text().splitlines()]
        self.check(summary["predictions"] == len(predictions) == len(instances),
                   f"{tag}: {len(predictions)} predictions for {len(instances)} instances")
        invalid = [p["id"] for p in predictions
                   if p["id"] not in instances or not validate_answer(p["prediction"], instances[p["id"]]).valid]
        self.check(not invalid, f"{tag}: invalid predictions {invalid[:3]}")

    def check_lint(self, trace_dir: Path) -> None:
        traces = sorted(trace_dir.glob("*.jsonl"))
        self.check(bool(traces), f"no traces in {trace_dir}")
        for path in traces[:: max(1, len(traces) // LINT_SAMPLE)][:LINT_SAMPLE]:
            rc, _ = run_cli(["lint", "--trace", str(path)])
            self.check(rc == 0, f"timeclaw lint flags {path.name}")

    def check_store(self, reps: Sequence[Rep], inputs: Inputs) -> Path:
        """Cross-command checks; returns the store whose quality is scored."""
        self.check(len({r.output for r in reps}) == 1,
                   f"same-seed {self.workload.command} commands gave different results")
        if self.workload.command == "infer":
            self.check(ExperienceStore(inputs.store).tree_digest() == inputs.store_digest,
                       "infer commands changed the explored store")
            self.check_lint(reps[0].dir / "traces_infer")
            return inputs.store
        store = reps[0].dir / "store"
        explored = ExperienceStore(store)
        for scope in explored.scopes():
            try:
                explored.notes(scope)  # raises on a malformed or gapped shard
            except (ContractError, ValueError) as exc:
                self.problems.append(f"notes of {scope} do not load: {exc}")
        self.check_lint(store / "traces")
        # an uninstrumented explore without the backend delay must write the
        # same bytes as every measured command
        rc, err = run_cli(self.explore_argv(inputs.corpus / "learning.jsonl", self.work / "plain"))
        self.check(rc == 0, f"uninstrumented explore exited {rc}: {err.strip()}")
        self.check(ExperienceStore(self.work / "plain" / "store").tree_digest() == reps[0].output,
                   "uninstrumented explore wrote a different store than the measured ones")
        return store

    def forecast_mae(self, reps: Sequence[Rep], store: Path, inputs: Inputs) -> dict[str, float]:
        """MAE from `timeclaw eval` for each forecast scope of the eval pool."""
        eval_corpus = inputs.corpus / "eval.jsonl"
        run_dir = reps[0].dir
        if self.workload.command == "explore":
            run_dir = self.work / "quality"
            rc, err = run_cli(self.infer_argv(eval_corpus, store, run_dir))
            self.check(rc == 0, f"quality infer exited {rc}: {err.strip()}")
            self.check_predictions(run_dir, eval_corpus, "quality infer")
        rc, err = run_cli(["eval", "--predictions", str(run_dir / "pred.jsonl"),
                           "--corpus", str(eval_corpus), "--out", str(run_dir / "scores.json")])
        self.check(rc == 0, f"eval exited {rc}: {err.strip()}")
        forecast = {i.scope for i in corpus_mod.load_samples(eval_corpus, role="evaluation").instances
                    if i.task_type == TaskType.FORECAST}
        scores = json.loads((run_dir / "scores.json").read_text())["scopes"]
        return {s["scope"]: s["metrics"]["mae"] for s in scores if s["scope"] in forecast and s["effective_n"]}

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, reps: Sequence[Rep], inputs: Inputs, store: Path, quality: float) -> dict[str, tuple[float, str]]:
        plain = [r for r in reps if not r.traced]
        # an item's latency is its median over the run's commands, which runs
        # the same items in the same order; every command is sized to leave
        # MIN_BEYOND_TAIL items beyond p90
        self.check(self.smoke or items_beyond(inputs.items, TAIL_Q) >= MIN_BEYOND_TAIL,
                   f"{inputs.items} items per command leave fewer than {MIN_BEYOND_TAIL} beyond p90")
        latencies = [statistics.median(item) for item in zip(*(r.meter.items() for r in plain))]
        wall_clock = [statistics.median(item) for item in zip(*(r.meter.raw for r in plain))]
        print(f"{self.workload.name} wall-clock items_per_s = "
              f"{statistics.median(inputs.items / r.raw_wall_s for r in plain):.6g} 1/s, item_p50_ms = "
              f"{percentile(wall_clock, 0.5) * 1e3:.6g} ms, speed factor = "
              f"{statistics.median(k for r in plain for k in r.meter.factors):.4g}, blocked_frac = "
              f"{blocked_frac(plain):.4g}")
        return {
            "setup_s": (statistics.median(inputs.setup_s), "s"),
            "items_per_s": (statistics.median(inputs.items / r.wall_s for r in plain), "1/s"),
            "item_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
            "item_p90_ms": (percentile(latencies, TAIL_Q) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "store_mb": (tree_size(store)[0] / MIB, "MB"),
            "quality_mae": (quality, "series_unit"),
        }

    def per_layer(self, reps: Sequence[Rep], inputs: Inputs, store: Path) -> dict[str, tuple[float, str]]:
        traced = [r for r in reps if r.traced]
        plain = [r for r in reps if not r.traced]
        first = traced[0].layers
        self.check(all(set(r.layers) == set(first) and all(r.layers[k].calls == first[k].calls for k in first)
                       for r in traced), "traced commands made different numbers of layer calls")
        empty = spans.LayerTotals()

        def calls(layer: str) -> int:
            return first.get(layer, empty).calls

        def self_s(layer: str) -> float:
            return statistics.median(r.layers.get(layer, empty).self_s for r in traced)

        def count(layer: str, key: str) -> int:
            return sum(n for k, n in first.get(layer, empty).counts.items() if k == key or k.startswith(key + ":"))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}
        for layer in ("prompts.fingerprint", "seriesops.dominant_period", "prompts.build", "gateway.complete",
                      "toolkit.invoke", "orchestrator.trace_event", "registry.ledger_record",
                      "store.record_episode", "store.commit_note", "store.notes", "store.memory_state",
                      "store.distill", "store.snapshot", "store.retrieve", "store.tree_digest"):
            m[f"{layer}.calls"] = (calls(layer), "count")
            m[f"{layer}.self_s"] = (self_s(layer), "s")
        for layer in ("gateway.exchange_digest", "orchestrator.item", "registry.sample_visible_subset",
                      "corpus.load_samples"):
            m[f"{layer}.self_s"] = (self_s(layer), "s")
        m["cli.other.self_s"] = (self_s("cli"), "s")
        m["prompts.fingerprint.calls_per_item"] = (calls("prompts.fingerprint") / inputs.items, "1/item")
        m["gateway.calls_per_item"] = (calls("gateway.complete") / inputs.items, "1/item")
        m["gateway.tokens_per_item"] = (count("gateway.complete", "tokens") / inputs.items, "tokens/item")
        m["gateway.errors"] = (count("gateway.complete", "raised"), "count")
        tool_errors = count("toolkit.invoke", "error")
        m["toolkit.invoke.error_frac"] = (ratio(tool_errors, calls("toolkit.invoke")), "ratio")
        for code in TOOL_ERROR_CODES:
            m[f"toolkit.invoke.errors.{code}"] = (count("toolkit.invoke", f"error:{code}"), "count")
        m["toolkit.invoke.errors.other"] = (
            tool_errors - sum(m[f"toolkit.invoke.errors.{c}"][0] for c in TOOL_ERROR_CODES), "count")
        fired = count("store.distill", "fired")
        m["store.distill.fired_frac"] = (ratio(fired, calls("store.distill")), "ratio")
        m["store.rebuild_frac"] = (ratio(count("store.distill", "rebuilt"), fired), "ratio")
        # every same-seed command wrote the same store (check_store), so any copy will do
        m["blocked_frac"] = (blocked_frac(plain), "ratio")
        m["store.snapshot_mb"] = (tree_size(store, "snapshots")[0] / MIB, "MB")
        m["store.files"] = (tree_size(store)[1], "count")
        traced_wall = statistics.median(r.wall_s for r in traced)
        m["trace.overhead_frac"] = (traced_wall / statistics.median(r.wall_s for r in plain) - 1.0, "ratio")
        # per command, the self times of all spans must add up to the wall time
        # the benchmark measured around cli.main
        unaccounted = statistics.median(
            (r.raw_wall_s - sum(t.self_s for t in r.layers.values())) / r.raw_wall_s for r in traced)
        m["trace.unaccounted_frac"] = (unaccounted, "ratio")
        self.check(abs(unaccounted) <= max(abs(m["trace.overhead_frac"][0]), 0.01),
                   f"spans leave {unaccounted:.2%} of the traced wall time unaccounted")
        return m


def blocked_frac(reps: Sequence[Rep]) -> float:
    """Median share of a command's wall time spent neither on the CPU nor in
    the modelled backend wait; the timings leave it out."""
    return statistics.median(r.meter.blocked_s / r.meter.wall_s for r in reps)


def write_spans(path: Path, reps: Sequence[Rep]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for n, rep in enumerate(r for r in reps if r.traced):
            for i, s in enumerate(rep.span_log):
                fh.write(json.dumps({"command": n, "id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "item": s.item, "counts": s.counts}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict[str, Any]:
    """One benchmark run; returns the result object printed as the last line."""
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(WORKLOADS[name], seed, work, smoke)
    speed.warm_up()
    try:
        inputs = bench.setup()
        reps = bench.measure(inputs, seconds, trace)
        store = bench.check_store(reps, inputs)
        maes = bench.forecast_mae(reps, store, inputs)
        bench.check(QUALITY_SCOPE in maes, f"no scored predictions in {QUALITY_SCOPE}")
        for scope, mae in sorted(maes.items()):
            print(f"{name} forecast MAE of {scope} = {mae:.6g}")
        if trace:
            metrics = bench.per_layer(reps, inputs, store)
            write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl", reps)
        else:
            metrics = bench.end_to_end(reps, inputs, store, maes.get(QUALITY_SCOPE, math.nan))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = inputs.items * len(reps)
    correct = not bench.problems
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once on a tiny corpus")
    args = parser.parse_args(argv)
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_workload(name, args.seed, 0.0, trace, smoke=True)
                ok = ok and result["correct"]
                print(json.dumps({"workload": name, "trace": int(trace), **result}, sort_keys=True))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']} items)")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
