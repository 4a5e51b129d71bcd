"""gcnpart benchmark: one seeded workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload fm-grid --seed 1 --seconds 40 --trace 0

Each experiment is one complete ``gcnpart.cli.main`` run in a fresh Python
process (see experiment.py). A workload has a few instances, each with its
own inputs derived from --seed; the run cycles through them in rounds
until --seconds is used up (see measure). Mixing instances keeps the
seed-to-seed difference in FM work from dominating the spread between
runs. Every report.json is checked (see check_report); a failed check or a
failed process counts as a failed operation and contributes no timing.

The last stdout line is the result object; the line before it is the
environment stamp. The same result, with every per-experiment sample,
goes to .perfbench/<workload>-<seed>-<trace>/result.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the run's experiments). --trace 1 alternates untraced and traced
experiments and reports the per-layer metrics (medians over the traced
ones) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_ROUNDS = 2
EXPERIMENT_TIMEOUT_S = 150.0
# Traced runs: the per-layer self times must add up to the traced
# experiment_s within this share of it, so that no span goes unreported.
SELF_SUM_TOLERANCE = 0.01
# Per-layer metrics that are not a span's self time or a count.
TRACE_OVERHEAD = "trace.overhead_s"
CUTS = ("partition.gp_cut", "partition.hp_cut", "partition.shp_cut")


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_report(raw: bytes, reference: bytes | None, workload: Workload) -> list[str]:
    """Problems with one report.json; empty when every check passes.

    (a) where workload.check_prediction: every epoch's measured total_words
        equals the partitioner's predicted_volume_words, as integers;
    (b) the bytes equal the reference (the first report of the run);
    (c) every partition meets the balance cap: its largest part weight is
        at most (1 + epsilon) times the average, tested exactly on the
        integer part weights. The float balance_ratio is only required to
        agree with them: at a part weight exactly on the cap it reads
        0.010000000000000009 for epsilon 0.01.
    """
    problems = []
    if reference is not None and raw != reference:
        problems.append("report.json differs from the first report of this run")
    doc = json.loads(raw)
    epsilon = doc["config"]["epsilon"]
    cap = 1 + Fraction(repr(epsilon))
    pids = [r["partitioner"] for r in doc["runs"]]
    if pids != list(workload.partitioners):
        problems.append(f"partitioners {pids}, expected {list(workload.partitioners)}")
    if not doc["comparison"]:
        problems.append("report has no RP comparison")
    for run in doc["runs"]:
        pid = run["partitioner"]
        weights = run["partition"]["part_weights"]
        ratio = Fraction(max(weights) * len(weights), sum(weights))
        if ratio > cap:
            problems.append(f"{pid}: part weights {weights} exceed the cap for epsilon {epsilon}")
        if abs(run["partition"]["balance_ratio"] - float(ratio - 1)) > 1e-12:
            problems.append(f"{pid}: balance_ratio disagrees with part weights {weights}")
        if len(run["epochs"]) != workload.epochs:
            problems.append(f"{pid}: {len(run['epochs'])} epochs, expected {workload.epochs}")
        if workload.check_prediction:
            predicted = run["cuts"]["predicted_volume_words"]
            for i, epoch in enumerate(run["epochs"]):
                if epoch["total_words"] != predicted:
                    problems.append(
                        f"{pid}: epoch {i} moved {epoch['total_words']} words, "
                        f"the hypergraph model predicts {predicted}"
                    )
    return problems


def quality(reports: list[bytes]) -> dict[str, float]:
    """Geometric means, over the instances' non-RP partitioners, of the
    RP-normalized words and messages per epoch."""
    others = [
        cols
        for raw in reports
        for pid, cols in json.loads(raw)["comparison"]["geomeans"].items()
        if pid != "rp"
    ]
    return {
        metric: math.exp(statistics.fmean(math.log(cols[col]) for cols in others))
        for metric, col in (("volume_vs_rp", "avg_volume_norm"), ("msgs_vs_rp", "avg_msgs_norm"))
    }


def run_experiment(argv: list[str], out: Path, trace: bool, spans: Path | None) -> dict:
    """One experiment in a child process; raises RuntimeError on failure."""
    spec = {"argv": argv + ["--out", str(out)], "out": str(out), "trace": trace,
            "spans": str(spans) if spans else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "experiment.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=EXPERIMENT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"experiment exceeded {EXPERIMENT_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"experiment process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if result["rc"] != 0:
        raise RuntimeError(f"gcnpart exited {result['rc']}: {proc.stderr.strip()[-2000:]}")
    return result


def end_to_end(samples: list[dict], workload: Workload, reports: list[bytes]) -> dict[str, float]:
    epochs_run = workload.epochs * len(workload.partitioners)
    med = lambda key: statistics.median(s[key] for s in samples)  # noqa: E731
    return {
        "experiment_s": med("experiment_s"),
        "setup_s": med("setup_s"),
        "partition_s": med("partition_s"),
        "epoch_s": statistics.median(s["train_s"] / epochs_run for s in samples),
        "peak_rss_mb": med("peak_rss_mb"),
        **quality(reports),
    }


def self_time_bucket(name: str) -> str | None:
    """The span bucket whose self time a per-layer metric reports, if any."""
    if name == "report.s":
        return "report"
    if name.endswith("_s") and name != TRACE_OVERHEAD:
        return name[:-2]
    return None


def layer_value(name: str, sample: dict) -> float:
    """A per-layer metric from one traced sample: a bucket's self time, a
    cut or a count. A layer the workload never enters reads 0."""
    bucket = self_time_bucket(name)
    if bucket is not None:
        return sample["self_s"].get(bucket, 0.0)
    if name in CUTS:
        return sample["cuts"][name]
    return sample["counts"].get(name, 0)


def per_layer(traced: list[dict], untraced: list[dict], names: list[str]) -> dict[str, float]:
    out = {
        name: statistics.median(layer_value(name, s) for s in traced)
        for name in names if name != TRACE_OVERHEAD
    }
    out[TRACE_OVERHEAD] = statistics.median(s["experiment_s"] for s in traced) - statistics.median(
        s["experiment_s"] for s in untraced
    )
    return out


def self_sum_problem(sample: dict, names: list[str]) -> str | None:
    """The reported self times must account for the traced experiment_s."""
    total = sum(layer_value(n, sample) for n in names if self_time_bucket(n))
    if abs(total - sample["experiment_s"]) > SELF_SUM_TOLERANCE * sample["experiment_s"]:
        return f"self times sum to {total:.4f} s, traced experiment took {sample['experiment_s']:.4f} s"
    return None


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "seed": seed,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path = ROOT):
    """Run the workload for `seconds`; return the result object and the
    environment stamp.

    Experiments cycle through the workload's instances in rounds; a round
    runs every instance once. They continue while another experiment is
    expected to fit in `seconds`, after at least MIN_ROUNDS full rounds, so
    that every instance runs at least twice and its reports can be
    compared. With trace, odd rounds are traced and even rounds are not.
    """
    spec = load_spec(root)
    work = root / ".perfbench" / f"{workload.name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    instances = []
    for k, instance_seed in enumerate(workload.instance_seeds(seed)):
        (work / str(k)).mkdir(parents=True)
        instances.append((work / str(k), workload.write_inputs(instance_seed, work / str(k))))

    references: dict[int, bytes] = {}
    untraced, traced, failures = [], [], []
    attempted = 0
    layer_names = [m["name"] for m in spec["per_layer"]]
    deadline = perf_counter() + seconds
    longest = 0.0
    while attempted < MIN_ROUNDS * len(instances) or perf_counter() + longest < deadline:
        k = attempted % len(instances)
        inst, argv = instances[k]
        traced_now = trace and (attempted // len(instances)) % 2 == 1
        attempted += 1
        t0 = perf_counter()
        out = inst / "out"
        try:
            sample = run_experiment(argv, out, traced_now, inst / "spans.json" if traced_now else None)
            raw = (out / "report.json").read_bytes()
            problems = check_report(raw, references.get(k), workload)
            if traced_now and not problems:
                problems = [p for p in [self_sum_problem(sample, layer_names)] if p]
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            problems = [str(exc)]
        longest = max(longest, perf_counter() - t0)
        if problems:
            failures.append(problems)
            print(f"experiment {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            continue
        references.setdefault(k, raw)
        (traced if traced_now else untraced).append(sample)

    metrics = {}
    if trace and traced and untraced:
        values = per_layer(traced, untraced, layer_names)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    elif not trace and untraced and len(references) == len(instances):
        values = end_to_end(untraced, workload, list(references.values()))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload.name,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(root, seed),
        "result": result,
        "failures": failures,
        "untraced": untraced,
        "traced": traced,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return result, detail["environment"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gcnpart" / "cli.py").is_file():
        print(f"perfbench: no gcnpart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, env = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
