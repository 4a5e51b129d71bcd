"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs a tiny instance of every workload through the same code path as a
real run, checks that every metric of BENCHMARK.json is emitted with its
unit, and that the correctness checks fire on corrupted reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import experiment
import run
from tracer import Tracer
from workloads import WORKLOADS, Grid, RingChords

SPEC = run.load_spec(run.ROOT)

TINY = {
    "fm-grid": replace(WORKLOADS["fm-grid"], graph=Grid(12, 12), p=2),
    # Tiles need a side of at least 21 vertices to meet the 1% balance cap.
    "fullbatch-large": replace(WORKLOADS["fullbatch-large"], graph=Grid(44, 44), p=4, tiles=(2, 2)),
    "minibatch-directed": replace(
        WORKLOADS["minibatch-directed"], graph=RingChords(120, 2), batch_size=30, batches=4
    ),
}


def test_spec_names_every_workload_and_direction():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher") and m["unit"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_has_a_source():
    buckets = {b for _, _, b, _ in experiment.LAYERS} | {"cli.self"}
    counts = {c for *_, counters in experiment.LAYERS for c in (counters or {})}
    for m in SPEC["per_layer"]:
        name = m["name"]
        bucket = run.self_time_bucket(name)
        assert (
            bucket in buckets or name in counts or name in run.CUTS or name == run.TRACE_OVERHEAD
        ), name


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_emits_every_metric(name, trace):
    result, env = run.measure(TINY[name], seed=5, seconds=0.1, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_ROUNDS * TINY[name].instances
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    assert env["seed"] == 5 and env["nproc"] >= 1 and env["src_sha256"]


def _report(name: str, trace: int = 0) -> bytes:
    path = run.ROOT / ".perfbench" / f"{name}-5-{trace}" / "0" / "out" / "report.json"
    if not path.exists():
        run.measure(TINY[name], seed=5, seconds=0.1, trace=bool(trace))
    return path.read_bytes()


def _corrupt(raw: bytes, edit) -> bytes:
    doc = json.loads(raw)
    edit(doc)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_checks_fire_on_corrupted_reports():
    workload = TINY["fm-grid"]
    raw = _report("fm-grid")
    assert run.check_report(raw, raw, workload) == []

    def wrong_words(doc):
        doc["runs"][1]["epochs"][0]["total_words"] += 1

    def unbalanced(doc):
        part = doc["runs"][0]["partition"]
        part["part_weights"][0] += sum(part["part_weights"])

    problems = run.check_report(_corrupt(raw, wrong_words), None, workload)
    assert any("predicts" in p for p in problems)
    problems = run.check_report(_corrupt(raw, unbalanced), None, workload)
    assert any("exceed the cap" in p for p in problems)
    same_doc = _corrupt(raw, lambda doc: None)
    assert run.check_report(same_doc, raw + b" ", workload) == [
        "report.json differs from the first report of this run"
    ]


def test_directed_prediction_is_not_checked():
    raw = _report("minibatch-directed")
    doc = json.loads(raw)
    assert any(
        e["total_words"] != r["cuts"]["predicted_volume_words"]
        for r in doc["runs"] for e in r["epochs"]
    )
    assert run.check_report(raw, raw, TINY["minibatch-directed"]) == []


def test_self_time_sum_check_fires_on_an_unreported_bucket():
    names = [m["name"] for m in SPEC["per_layer"]]
    sample = {"experiment_s": 1.0, "self_s": {"cli.self": 0.5, "partition.hp": 0.5},
              "counts": {}, "cuts": {}}
    assert run.self_sum_problem(sample, names) is None
    sample["self_s"]["unreported.bucket"] = 0.5
    sample["experiment_s"] = 1.5
    assert run.self_sum_problem(sample, names) is not None


def test_tracer_nests_spans_and_restores():
    class Owner:
        @classmethod
        def build(cls, n):
            return [n] * n

    original = Owner.__dict__["build"]
    tracer = Tracer()
    tracer.wrap(Owner, "build", "inner", {"built": lambda a, r: len(r)}, keep=True)
    assert tracer.call("outer", lambda: Owner.build(3)) == [3, 3, 3]
    assert tracer.counts["built"] == 3 and tracer.kept["inner"] == [3, 3, 3]
    assert [s[3] for s in tracer.spans] == [-1, 0]
    selfs, totals = tracer.self_times(), tracer.totals()
    assert selfs["outer"] + selfs["inner"] == pytest.approx(totals["outer"])
    tracer.restore()
    assert Owner.__dict__["build"] is original


def test_inputs_follow_the_seed(tmp_path):
    for workload in TINY.values():
        a, b, c = (tmp_path / x for x in "abc")
        for d, seed in ((a, 1), (b, 1), (c, 2)):
            d.mkdir(exist_ok=True)
            workload.write_inputs(seed, d)
        graph = f"{workload.name}.txt"
        assert (a / graph).read_bytes() == (b / graph).read_bytes()
        assert (a / graph).read_bytes() != (c / graph).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fm-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json", "perfbench"]
