"""Run one gcnpart experiment in this process and print its timings.

Usage: python3 experiment.py '<json spec>'

The spec holds the CLI argv, the output directory and whether to trace;
gcnpart is imported from the ``src`` directory beside this one.
The experiment goes through the public entry point ``gcnpart.cli.main``. Spans
come from rebinding, from outside the program, the names each calling
module imported:

* untraced: only the stage boundaries the end-to-end metrics need (the
  partitioner calls and ``train_epochs``), a handful of spans per run;
* traced: every layer boundary in LAYERS, for per-layer self times and
  counts.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
from tracer import Tracer  # noqa: E402

from gcnpart import cli, graphio, models, partition, report, runtime  # noqa: E402
from gcnpart.runtime import SimNetwork  # noqa: E402
from gcnpart.sparse import CsrMatrix  # noqa: E402


def _one(args, result) -> int:
    return 1


# (owner, attribute, bucket, counters): the untraced run wraps only these.
STAGES = [
    (cli, "random_partition", "partition.rp", None),
    (cli, "partition_graph_fm", "partition.gp", None),
    (cli, "partition_hypergraph_fm", "partition.hp", None),
    (cli, "partition_stochastic", "partition.shp", None),
    (graphio, "read_partition", "partition.file", None),
    (cli, "train_epochs", "runtime.train_self", None),
]
PARTITION_BUCKETS = tuple(b for _, _, b, _ in STAGES if b.startswith("partition."))

_plan_counts = {
    "comm.plan_calls": _one,
    "comm.plan_rows": lambda a, r: sum(len(ids) for row in r.send for ids in row),
}
_induced_counts = {"models.induced_pattern_calls": _one}

LAYERS = STAGES + [
    (graphio, "load_graph", "graphio.load", {"graphio.stored_entries": lambda a, r: r.nnz}),
    (runtime, "spmm", "sparse.spmm", {"sparse.spmm_calls": _one, "sparse.spmm_nnz": lambda a, r: a[0].nnz}),
    (CsrMatrix, "__post_init__", "sparse.csr_build", {"sparse.csr_build_calls": _one}),
    (CsrMatrix, "from_coo", "sparse.from_coo", None),
    (cli, "transpose_sparse", "sparse.transpose", None),
    (runtime, "transpose_sparse", "sparse.transpose", None),
    (cli, "normalize_adjacency", "sparse.normalize", None),
    (runtime, "normalize_adjacency", "sparse.normalize", None),
    (runtime, "gather_rows", "sparse.gather_rows", {"sparse.gather_rows_words": lambda a, r: r.size}),
    (cli, "build_graph_model", "models.graph_model", None),
    (cli, "build_hypergraph_model", "models.hypergraph_model", {"models.pins": lambda a, r: sum(map(len, r.nets))}),
    (models, "induced_pattern", "models.induced_pattern", _induced_counts),
    (runtime, "induced_pattern", "models.induced_pattern", _induced_counts),
    (partition, "build_stochastic_hypergraph", "models.stochastic_hypergraph", {"models.stochastic_nets": lambda a, r: r.n_nets}),
    (cli, "evaluate_graph_cut", "models.cut_eval", None),
    (cli, "evaluate_hypergraph_cut", "models.cut_eval", None),
    (cli, "predicted_total_volume", "models.cut_eval", None),
    (cli, "build_comm_plan", "comm.plan", _plan_counts),
    (runtime, "build_comm_plan", "comm.plan", _plan_counts),
    (cli, "scatter", "runtime.scatter", {"runtime.scatter_calls": _one}),
    (runtime, "scatter", "runtime.scatter", {"runtime.scatter_calls": _one}),
    (SimNetwork, "send", "runtime.send", {"runtime.send_calls": _one, "runtime.send_words": lambda a, r: a[3].size}),
    (SimNetwork, "recv", "runtime.recv", None),
    (runtime, "allreduce_sum", "runtime.allreduce", None),
    (SimNetwork, "records", "runtime.records", {"runtime.log_records": lambda a, r: len(a[0].log)}),
    (report, "summarize_run", "report", None),
    (report, "compare", "report", None),
    (report, "comparison_to_dict", "report", None),
    (report, "comparison_to_csv", "report", None),
]

# Results kept for the shp cut on its own (stochastic) model.
KEEP = ("partition.shp", "models.stochastic_hypergraph")


def _cuts(out_dir: Path, kept: dict) -> dict:
    doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    cuts = {r["partitioner"]: r["cuts"] for r in doc["runs"]}
    out = {
        "partition.gp_cut": cuts["gp"]["graph_cut"] if "gp" in cuts else 0.0,
        "partition.hp_cut": cuts["hp"]["hypergraph_cut"] if "hp" in cuts else 0.0,
        "partition.shp_cut": 0.0,
    }
    if "partition.shp" in kept:
        merged, pi = kept["models.stochastic_hypergraph"], kept["partition.shp"]
        out["partition.shp_cut"] = models.evaluate_hypergraph_cut(merged, pi).cut_value
    return out


def run(spec: dict) -> dict:
    tracer = Tracer()
    for owner, attr, bucket, counters in LAYERS if spec["trace"] else STAGES:
        tracer.wrap(owner, attr, bucket, counters, keep=spec["trace"] and bucket in KEEP)
    start = perf_counter()
    try:
        rc = tracer.call("cli.self", cli.main, spec["argv"])
    finally:
        experiment_s = perf_counter() - start
        tracer.restore()
    out = {
        "rc": rc,
        "experiment_s": experiment_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rc != 0:
        return out
    if spec["trace"]:
        out["self_s"] = tracer.self_times()
        out["counts"] = dict(tracer.counts)
        out["cuts"] = _cuts(Path(spec["out"]), tracer.kept)
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    else:
        totals = tracer.totals()
        root_start = tracer.spans[0][1]
        out["setup_s"] = tracer.first_start(PARTITION_BUCKETS) - root_start
        out["partition_s"] = sum(totals.get(b, 0.0) for b in PARTITION_BUCKETS)
        out["train_s"] = totals.get("runtime.train_self", 0.0)
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
