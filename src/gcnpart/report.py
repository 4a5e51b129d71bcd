"""Comparative tables over partitioner runs, normalized against RP.

One row per (dataset, partitioner) with per-processor volume and message
averages/maxima divided by the random-partitioning baseline's values,
plus geometric means across datasets and the HP/GP ratio row. Timing is
left out: the CLI writes the simulated wallclock to timing.json.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .runtime import EpochMetrics

@dataclass(frozen=True)
class RunSummary:
    """One partitioner's measured run on one dataset (epoch averages)."""

    dataset: str
    partitioner: str
    avg_words: float
    max_words: float
    avg_msgs: float
    max_msgs: float
    balance_ratio: float


def summarize_run(
    dataset: str, partitioner: str, epochs: list[EpochMetrics], balance_ratio: float
) -> RunSummary:
    if not epochs:
        raise ValueError("no epoch metrics to summarize")
    return RunSummary(
        dataset=dataset,
        partitioner=partitioner,
        avg_words=float(np.mean([m.avg_words_per_proc for m in epochs])),
        max_words=float(np.mean([m.max_words_per_proc for m in epochs])),
        # total is p times the per-proc average, so RP-normalized ratios agree
        avg_msgs=float(np.mean([m.total_msgs for m in epochs])),
        max_msgs=float(np.mean([m.max_msgs_per_proc for m in epochs])),
        balance_ratio=balance_ratio,
    )


@dataclass(frozen=True)
class ComparisonRow:
    dataset: str
    partitioner: str
    avg_volume_norm: float
    max_volume_norm: float
    avg_msgs_norm: float
    max_msgs_norm: float
    balance_ratio: float


CSV_HEADER = [f.name for f in fields(ComparisonRow)]
NORM_COLUMNS = tuple(CSV_HEADER[2:-1])  # the RP-normalized columns


def _ratio(value: float, baseline: float) -> float:
    if baseline > 0:
        return value / baseline
    return 1.0 if value == 0 else math.inf


def geometric_mean(xs) -> float:
    xs = [float(x) for x in xs]
    if not xs:
        raise ValueError("geometric mean of nothing")
    if any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


@dataclass(frozen=True)
class Comparison:
    rows: tuple
    geomeans: dict  # partitioner -> column -> geometric mean across datasets
    hp_gp_ratio: "dict | None"


def compare(runs: list[RunSummary]) -> Comparison:
    """Normalize every run against the RP run of the same dataset."""
    baselines = {r.dataset: r for r in runs if r.partitioner == "rp"}
    datasets = sorted({r.dataset for r in runs})
    missing = [d for d in datasets if d not in baselines]
    if missing:
        raise ValueError(f"missing RP baseline for dataset(s): {', '.join(missing)}")
    rows = []
    for r in sorted(runs, key=lambda r: (r.dataset, r.partitioner)):
        base = baselines[r.dataset]
        rows.append(
            ComparisonRow(
                dataset=r.dataset,
                partitioner=r.partitioner,
                avg_volume_norm=_ratio(r.avg_words, base.avg_words),
                max_volume_norm=_ratio(r.max_words, base.max_words),
                avg_msgs_norm=_ratio(r.avg_msgs, base.avg_msgs),
                max_msgs_norm=_ratio(r.max_msgs, base.max_msgs),
                balance_ratio=r.balance_ratio,
            )
        )
    geomeans: dict = {}
    for part in sorted({r.partitioner for r in rows}):
        part_rows = [r for r in rows if r.partitioner == part]
        geomeans[part] = {
            col: geometric_mean([getattr(r, col) for r in part_rows]) for col in NORM_COLUMNS
        }
    hp_gp = None
    if "hp" in geomeans and "gp" in geomeans:
        hp_gp = {col: geomeans["hp"][col] / geomeans["gp"][col] for col in NORM_COLUMNS}
    return Comparison(tuple(rows), geomeans, hp_gp)


def comparison_to_csv(cmp: Comparison) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in cmp.rows:
        writer.writerow([r.dataset, r.partitioner] + [repr(getattr(r, c)) for c in CSV_HEADER[2:]])
    means = [(("geomean", part), cols) for part, cols in sorted(cmp.geomeans.items())]
    if cmp.hp_gp_ratio is not None:
        means.append((("geomean_ratio", "hp/gp"), cmp.hp_gp_ratio))
    for label, cols in means:
        writer.writerow(list(label) + [repr(cols[c]) for c in NORM_COLUMNS] + [""])
    return buf.getvalue()


def comparison_to_dict(cmp: Comparison) -> dict:
    return {
        "rows": [asdict(r) for r in cmp.rows],
        "geomeans": cmp.geomeans,
        "hp_gp_ratio": cmp.hp_gp_ratio,
    }
