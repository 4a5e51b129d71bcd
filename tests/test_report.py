"""Comparison table arithmetic and serialization."""

import math

import numpy as np
import pytest

from gcnpart.report import (
    RunSummary,
    compare,
    comparison_to_csv,
    comparison_to_dict,
    geometric_mean,
    summarize_run,
)
from gcnpart.runtime import EpochMetrics


def run(dataset, partitioner, words, msgs, balance=0.005):
    return RunSummary(
        dataset=dataset,
        partitioner=partitioner,
        avg_words=words,
        max_words=words * 1.5,
        avg_msgs=msgs,
        max_msgs=msgs / 2,
        balance_ratio=balance,
    )


class TestCompare:
    def test_half_volume_normalizes_to_half(self):
        cmp = compare([run("d", "rp", 10, 8), run("d", "hp", 5, 4)])
        hp = next(r for r in cmp.rows if r.partitioner == "hp")
        assert hp.avg_volume_norm == 0.5
        assert hp.avg_msgs_norm == 0.5

    def test_identical_metrics_normalize_to_one(self):
        cmp = compare([run("d", "rp", 7, 3), run("d", "gp", 7, 3), run("d", "hp", 7, 3)])
        for r in cmp.rows:
            assert r.avg_volume_norm == 1.0
            assert r.max_volume_norm == 1.0
            assert r.avg_msgs_norm == 1.0
            assert r.max_msgs_norm == 1.0

    def test_rp_normalizes_to_exactly_one(self):
        cmp = compare([run("d", "rp", 11, 13)])
        row = cmp.rows[0]
        assert row.avg_volume_norm == 1.0

    def test_two_dataset_geometric_mean(self):
        runs = [
            run("a", "rp", 8, 8),
            run("a", "hp", 2, 8),  # norm 0.25
            run("b", "rp", 8, 8),
            run("b", "hp", 8, 8),  # norm 1.0
        ]
        cmp = compare(runs)
        assert cmp.geomeans["hp"]["avg_volume_norm"] == pytest.approx(0.5, rel=1e-12)

    def test_hp_gp_ratio_row(self):
        runs = [
            run("a", "rp", 8, 8),
            run("a", "gp", 4, 4),
            run("a", "hp", 2, 2),
        ]
        cmp = compare(runs)
        assert cmp.hp_gp_ratio["avg_volume_norm"] == pytest.approx(0.5, rel=1e-12)

    def test_missing_rp_baseline_rejected(self):
        with pytest.raises(ValueError, match="RP baseline"):
            compare([run("d", "hp", 5, 4)])

    def test_zero_baseline_zero_value_is_one(self):
        cmp = compare([run("d", "rp", 0, 0), run("d", "hp", 0, 0)])
        for r in cmp.rows:
            assert r.avg_volume_norm == 1.0


class TestGeometricMean:
    def test_matches_log_mean_form(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.1, 5.0, size=20)
        want = math.exp(np.mean(np.log(xs)))
        assert geometric_mean(xs) == pytest.approx(want, rel=1e-12)

    def test_permutation_invariant(self):
        xs = [0.25, 1.0, 4.0, 2.0]
        assert geometric_mean(xs) == pytest.approx(geometric_mean(list(reversed(xs))), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestSummaries:
    def _metrics(self, words, msgs):
        return EpochMetrics(
            total_words=words * 4,
            max_words_per_proc=words * 2,
            avg_words_per_proc=float(words),
            total_msgs=msgs,
            max_msgs_per_proc=msgs,
            loss=1.0,
        )

    def test_summarize_averages_epochs(self):
        s = summarize_run("d", "hp", [self._metrics(10, 4), self._metrics(20, 8)], 0.003)
        assert s.avg_words == 15.0
        assert s.avg_msgs == 6.0

    def test_summarize_requires_epochs(self):
        with pytest.raises(ValueError):
            summarize_run("d", "hp", [], 0.0)


class TestSerialization:
    def _cmp(self):
        return compare(
            [run("d", "rp", 10, 8), run("d", "gp", 6, 6), run("d", "hp", 5, 4)]
        )

    def test_csv_has_documented_header_and_rows(self):
        text = comparison_to_csv(self._cmp())
        lines = text.strip().split("\n")
        assert lines[0] == (
            "dataset,partitioner,avg_volume_norm,max_volume_norm,"
            "avg_msgs_norm,max_msgs_norm,balance_ratio"
        )
        # 3 rows + 3 geomean rows + hp/gp ratio
        assert len(lines) == 1 + 3 + 3 + 1

    def test_dict_round_trips_through_json(self):
        import json

        doc = comparison_to_dict(self._cmp())
        parsed = json.loads(json.dumps(doc))
        assert parsed["hp_gp_ratio"]["avg_volume_norm"] == pytest.approx(5 / 6)
