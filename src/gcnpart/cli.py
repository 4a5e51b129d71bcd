"""Experiment driver: load a graph, partition it with one or more
strategies, plan communication, train the simulated distributed GCN, and
emit comparison reports.

Reports are byte-identical for identical config+seed: report.json and
report.csv contain no timing; wallclock goes to a separate timing.json
marked informational. Verbosity is controlled only by the GCNPART_LOG
environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import graphio, report
from .comm import build_comm_plan  # noqa: F401  perfbench traces cli.build_comm_plan
from .gcn import LabelSet, init_model
from .models import (
    MiniBatchSpec,
    Partition,
    build_graph_model,
    build_hypergraph_model,
    evaluate_graph_cut,
    evaluate_hypergraph_cut,
    predicted_total_volume,
)
from .partition import (
    PartitionConfig,
    partition_graph_fm,
    partition_hypergraph_fm,
    partition_stochastic,
    random_partition,
)
from .runtime import FullBatch, MiniBatch, SimNetwork, scatter, train_epochs
from .sparse import is_symmetric, normalize_adjacency
from .sparse import transpose_sparse  # noqa: F401  perfbench traces cli.transpose_sparse

SCHEMA_VERSION = 1
PARTITIONERS = ("rp", "gp", "hp", "shp", "file")

log = logging.getLogger("gcnpart")


@dataclass
class ExperimentConfig:
    graph: str
    fmt: str = "edge_list"
    directed: bool = False
    p: int = 4
    partitioners: tuple[str, ...] = ("rp", "hp")
    partition_file: str | None = None
    epsilon: float = 0.01
    layers: int = 2
    dims: tuple[int, ...] = (8, 8, 4)
    epochs: int = 5
    mode: str = "full"
    batch_size: int | None = None
    batches: int = 8
    seed: int = 0
    out: str = "out"
    emit_plan: bool = False
    scheduler: str = "round"
    learning_rate: float = 0.1

    def validate(self) -> None:
        if self.fmt not in graphio.FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if len(self.dims) != self.layers + 1:
            raise ValueError(
                f"dims lists {len(self.dims)} entries but layers={self.layers} "
                f"needs {self.layers + 1} (d_0..d_L)"
            )
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        unknown = [x for x in self.partitioners if x not in PARTITIONERS]
        if unknown:
            raise ValueError(f"unknown partitioner(s): {', '.join(unknown)}")
        if "file" in self.partitioners and not self.partition_file:
            raise ValueError("--partition-file is required with --partitioner file")
        if self.mode not in ("full", "mini"):
            raise ValueError(f"unknown mode {self.mode!r}")
        needs_batch = self.mode == "mini" or "shp" in self.partitioners
        if needs_batch and not self.batch_size:
            raise ValueError("--batch-size is required for mini-batch mode and shp")
        if needs_batch and self.batches < 1:
            raise ValueError(f"--batches must be >= 1 for mini-batch mode and shp, got {self.batches}")
        if self.seed is None:
            raise ValueError("--seed is mandatory (runs carry no wall-clock entropy)")


def parse_args(argv=None) -> ExperimentConfig:
    ap = argparse.ArgumentParser(
        prog="gcnpart",
        description="simulated distributed GCN training with partitioning models",
    )
    ap.add_argument("--graph", required=True, help="path to the input graph")
    ap.add_argument("--format", default="edge_list", choices=graphio.FORMATS)
    ap.add_argument("--directed", action="store_true")
    ap.add_argument("-p", type=int, default=4, help="number of simulated processors")
    ap.add_argument(
        "--partitioner",
        default="rp,hp",
        help="comma-separated subset of rp,gp,hp,shp,file",
    )
    ap.add_argument("--partition-file", default=None)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--layers", type=int, default=2)
    ap.add_argument("--dims", default="8,8,4", help="comma-separated d_0..d_L")
    ap.add_argument("--epochs", type=int, default=5)
    ap.add_argument("--mode", default="full", choices=("full", "mini"))
    ap.add_argument("--batch-size", type=int, default=None)
    ap.add_argument("--batches", type=int, default=8)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--emit-plan", action="store_true")
    ap.add_argument("--out", default="out", help="output directory for reports")
    ap.add_argument("--scheduler", default="round", choices=("round", "threads"))
    ap.add_argument("--learning-rate", type=float, default=0.1)
    ns = ap.parse_args(argv)
    return ExperimentConfig(
        graph=ns.graph,
        fmt=ns.format,
        directed=ns.directed,
        p=ns.p,
        partitioners=tuple(x.strip() for x in ns.partitioner.split(",") if x.strip()),
        partition_file=ns.partition_file,
        epsilon=ns.epsilon,
        layers=ns.layers,
        dims=tuple(int(x) for x in ns.dims.split(",")),
        epochs=ns.epochs,
        mode=ns.mode,
        batch_size=ns.batch_size,
        batches=ns.batches,
        seed=ns.seed,
        out=ns.out,
        emit_plan=ns.emit_plan,
        scheduler=ns.scheduler,
        learning_rate=ns.learning_rate,
    )


def synth_features(n: int, d0: int, seed: int) -> np.ndarray:
    """Seeded standard-normal vertex features."""
    rng = np.random.default_rng([int(seed), 0xFEA7])
    return rng.standard_normal((n, d0))


def synth_labels(n: int, n_classes: int, seed: int, fraction: float = 0.1) -> LabelSet:
    """Seeded random classes on a seeded 10% vertex subset."""
    rng = np.random.default_rng([int(seed), 0x1AB5])
    count = max(1, round(fraction * n))
    ids = np.sort(rng.choice(n, size=count, replace=False))
    return LabelSet(ids, rng.integers(0, n_classes, size=count), n_classes)


def _build_partition(
    pid: str, cfg: ExperimentConfig, weights, model_matrix, graph_model, hyper_model
) -> Partition:
    """weights (Â's row nnz) place RP and file partitions; the models and
    SHP's model_matrix are built from Â, symmetrized for directed runs."""
    pcfg = PartitionConfig(p=cfg.p, epsilon=cfg.epsilon, seed=cfg.seed)
    if pid == "rp":
        return random_partition(weights, pcfg)
    if pid == "gp":
        return partition_graph_fm(graph_model, pcfg)
    if pid == "hp":
        return partition_hypergraph_fm(hyper_model, pcfg)
    if pid == "shp":
        return partition_stochastic(
            model_matrix, MiniBatchSpec(cfg.batch_size), cfg.batches, pcfg
        )
    if pid == "file":
        pi = graphio.read_partition(cfg.partition_file, weights, cfg.epsilon)
        if pi.p != cfg.p:
            raise ValueError(f"partition file has p={pi.p}, config says p={cfg.p}")
        return pi
    raise ValueError(f"unknown partitioner {pid!r}")


def run_experiment(cfg: ExperimentConfig) -> dict:
    cfg.validate()
    a_raw = graphio.load_graph(cfg.graph, cfg.fmt, directed=cfg.directed)
    if not cfg.directed and not is_symmetric(a_raw):  # unit values: a pattern check
        raise ValueError(
            "graph pattern is asymmetric; pass --directed (backpropagation "
            "needs the transposed operand for directed inputs)"
        )
    n = a_raw.n_rows
    if cfg.p > n:
        raise ValueError(f"p={cfg.p} exceeds the graph's {n} vertices")
    if cfg.batch_size and cfg.batch_size > n:
        raise ValueError(f"batch size {cfg.batch_size} exceeds the graph's {n} vertices")
    dataset = Path(cfg.graph).stem
    log.info("loaded %s: %d vertices, %d stored entries", dataset, n, a_raw.nnz)

    a_hat = normalize_adjacency(a_raw, add_self_loops=True)
    model_matrix = a_hat
    if cfg.directed:  # both phases' models are built on the unit pattern of Â + Â^T
        model_matrix = graphio.pattern_from_pairs(
            n, np.stack([np.repeat(np.arange(n), a_hat.row_nnz()), a_hat.col_indices], axis=1), directed=False)
    graph_model = build_graph_model(model_matrix)
    hyper_model = build_hypergraph_model(model_matrix)
    weights = a_hat.row_nnz()
    h0 = synth_features(n, cfg.dims[0], cfg.seed)
    labels = synth_labels(n, cfg.dims[-1], cfg.seed)
    model = init_model(cfg.dims, cfg.seed, learning_rate=cfg.learning_rate)

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs_json = []
    summaries = []
    timing = {}
    for pid in cfg.partitioners:
        log.info("partitioning with %s", pid)
        pi = _build_partition(pid, cfg, weights, model_matrix, graph_model, hyper_model)
        if not pi.is_balanced():
            raise RuntimeError(f"{pid} produced an unbalanced partition")
        states = scatter(a_hat, h0, pi, model)
        plan = states[0].plan_fwd
        gcut = evaluate_graph_cut(graph_model, pi)
        hcut = evaluate_hypergraph_cut(hyper_model, pi)
        predicted = predicted_total_volume(hyper_model, pi, cfg.dims)

        net = SimNetwork(cfg.p)
        if cfg.mode == "full":
            mode = FullBatch()
        else:
            mode = MiniBatch(
                spec=MiniBatchSpec(cfg.batch_size),
                batches_per_epoch=cfg.batches,
                seed=cfg.seed,
                adjacency=a_raw,
            )
        metrics = train_epochs(states, net, labels, cfg.epochs, mode, scheduler=cfg.scheduler)
        balance = pi.balance_ratio()
        if metrics:
            summaries.append(report.summarize_run(dataset, pid, metrics, balance))
        timing[pid] = {
            "wallclock_s": float(sum(m.wallclock for m in metrics)),
            "note": "informational; simulated timing only",
        }
        runs_json.append(
            {
                "partitioner": pid,
                "p": cfg.p,
                "partition": {
                    "balance_ratio": balance,
                    "part_weights": [int(w) for w in pi.part_weights],
                },
                "cuts": {
                    "graph_cut": gcut.cut_value,
                    "hypergraph_cut": hcut.cut_value,
                    "predicted_volume_words": predicted,
                },
                "plan": plan.to_report(),
                "epochs": [
                    {
                        "loss": m.loss,
                        "total_words": m.total_words,
                        "max_words_per_proc": m.max_words_per_proc,
                        "avg_words_per_proc": m.avg_words_per_proc,
                        "total_msgs": m.total_msgs,
                        "max_msgs_per_proc": m.max_msgs_per_proc,
                    }
                    for m in metrics
                ],
            }
        )
        if cfg.emit_plan:
            plan_path = out_dir / f"plan_{pid}.json"
            plan_path.write_text(
                json.dumps(plan.to_report(), indent=2, sort_keys=True) + "\n"
            )

    comparison = None
    if "rp" in cfg.partitioners and summaries:
        cmp = report.compare(summaries)
        comparison = report.comparison_to_dict(cmp)
        (out_dir / "report.csv").write_text(report.comparison_to_csv(cmp))

    doc = {
        "schema_version": SCHEMA_VERSION,
        "dataset": dataset,
        "config": asdict(cfg),
        "runs": runs_json,
        "comparison": comparison,
    }
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    (out_dir / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> int:
    level = os.environ.get("GCNPART_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"gcnpart: config error: {exc}", file=sys.stderr)
        return 2
    try:
        run_experiment(cfg)
    except Exception as exc:
        print(f"gcnpart: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
