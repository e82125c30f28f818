from __future__ import annotations

import csv
import json
from pathlib import Path

from timeclaw.simulate import DropoutScenario, compare_over_seeds, write_outputs


class TestCollapseSimulation:
    def test_biased_scenario_directional(self):
        result = compare_over_seeds(DropoutScenario(episodes=60), [0, 1, 2, 3, 4])
        assert all(
            on <= off + 1e-12
            for on, off in zip(result.on["top_share"], result.off["top_share"])
        )
        assert result.on["coverage"][-1] >= result.off["coverage"][-1]
        assert result.on["entropy"][-1] >= result.off["entropy"][-1]

    def test_tiny_alpha_on_approximates_off(self):
        result = compare_over_seeds(
            DropoutScenario(alpha=0.0001, episodes=60), [0, 1, 2, 3, 4]
        )
        diffs = [
            abs(on - off)
            for on, off in zip(result.on["top_share"], result.off["top_share"])
        ]
        assert max(diffs) <= 0.02  # keep probabilities ~1: dropout is a no-op

    def test_all_protected_pool_is_exactly_off(self):
        scenario = DropoutScenario(
            episodes=40, protected=tuple(f"tool_{i:02d}" for i in range(10))
        )
        result = compare_over_seeds(scenario, [0, 1, 2])
        assert result.on["top_share"] == result.off["top_share"]
        assert result.on["coverage"] == result.off["coverage"]
        assert result.on["entropy"] == result.off["entropy"]

    def test_outputs_are_written(self, tmp_path):
        result = compare_over_seeds(DropoutScenario(episodes=20), [0, 1])
        paths = write_outputs(result, tmp_path)
        with open(paths["csv"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "prefix"
        assert len(rows) - 1 == len(result.prefixes)
        data = json.loads(Path(paths["json"]).read_text())
        assert "mean_top_share_reduction" in data
