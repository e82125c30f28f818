"""The benchmark's workloads: seeded synthetic corpora and how each is run.

Every pool uses length-120 series with horizon 24, the README's seasonal
spec. The benchmark seed is the only source of variation between runs of a
workload; the program sees nothing but the generated corpus files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from timeclaw.gateway import AssistantReply, ChatExchange, Gateway

# quality_mae scores the seasonal forecast scope that every workload shares.
# The small trending scope is printed but not gated: whether distillation
# leaves it an injectable rule flips with the seed (MAE about 0.3 or 1.1-2.0),
# so across seeds its MAE is bimodal and no bound could hold it.
QUALITY_SCOPE = "synth_forecast_short"

# Per-call delay that models a remote backend: about 7.2 gateway calls per
# episode make gateway wait at least 70% of explore_remote's episode time.
REMOTE_DELAY_S = 0.015


class SleepGateway(Gateway):
    """Sleeps a fixed time per call, then answers from the inner gateway."""

    def __init__(self, inner: Gateway, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s
        self.slept_s = 0.0  # measured time asleep, over all calls

    def complete(self, exchange: ChatExchange) -> AssistantReply:
        t0 = time.perf_counter()
        time.sleep(self.delay_s)
        self.slept_s += time.perf_counter() - t0
        return self.inner.complete(exchange)


def family(name: str, kind: str, learn: int, evaluate: int, domain: str = "synth") -> dict[str, Any]:
    return {
        "name": name,
        "kind": kind,
        "learn_count": learn,
        "eval_count": evaluate,
        "length": 120,
        "horizon": 24,
        "period": 24,
        "domain": domain,
    }


# Skewed four-scope pool: one big seasonal scope and three small ones. The
# small counts are not multiples of ten, so finalize flushes a tail in each,
# and only 11 of 142 episodes (7.7%) distill. That keeps the p90 rank off the
# boundary between ordinary and distilling episodes, where it would jump
# between the two groups from one run to the next.
MIXED_POOL = (
    family("seasonal", "seasonal", 85, 70),
    family("trending", "trending", 19, 10, domain="trend"),
    family("trend_label", "trend_label", 19, 10),
    family("indicator", "indicator", 19, 10),
)

REMOTE_POOL = (
    family("seasonal", "seasonal", 88, 70),
    family("trend_label", "trend_label", 12, 10),
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "explore" or "infer": the timeclaw command that is timed
    pool: tuple[dict[str, Any], ...]
    gateway_delay_s: Optional[float] = None

    def spec(self, smoke: bool) -> dict[str, Any]:
        """The gen-corpus spec; smoke mode keeps a tenth of every family."""
        families = [
            {**f, "learn_count": max(2, f["learn_count"] // 10), "eval_count": max(2, f["eval_count"] // 10)}
            if smoke
            else dict(f)
            for f in self.pool
        ]
        return {"families": families}


WORKLOADS = {
    w.name: w
    for w in (
        # CPU-bound: fingerprinting, prompt assembly and the store's re-parse,
        # snapshot and ledger rewrites do the work.
        Workload("explore_mixed", "explore", MIXED_POOL),
        # The same engine waiting on a slow backend: CPU-layer changes should
        # not move it; branch-level parallelism should.
        Workload("explore_remote", "explore", REMOTE_POOL, gateway_delay_s=REMOTE_DELAY_S),
        # Read-only: retrieval, inference prompts and the two whole-store tree
        # digests, against a store explored from the mixed pool during set-up.
        Workload("infer_store", "infer", MIXED_POOL),
    )
}
