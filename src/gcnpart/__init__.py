"""Deterministic simulator for communication-efficient distributed GCN
training: sparse kernels, a serial reference GCN, graph/hypergraph/
stochastic partitioning models and partitioners, exact point-to-point
communication planning, and a simulated multi-processor runtime with full
communication accounting."""

from .comm import CommPlan, build_comm_plan, plan_volume
from .gcn import (
    ForwardTrace,
    GcnModel,
    LabelSet,
    apply_update,
    backprop,
    feedforward,
    init_model,
    nll_loss_and_grad,
    train_serial,
)
from .models import (
    CutReport,
    Hypergraph,
    MiniBatchSpec,
    Partition,
    build_graph_model,
    build_hypergraph_model,
    build_stochastic_hypergraph,
    evaluate_graph_cut,
    evaluate_hypergraph_cut,
    hoeffding_min_nets,
    predicted_total_volume,
    sample_batches,
)
from .partition import (
    BalanceInfeasibleError,
    PartitionConfig,
    partition_graph_fm,
    partition_hypergraph_fm,
    partition_stochastic,
    random_partition,
)
from .runtime import (
    CommError,
    EpochMetrics,
    FullBatch,
    MiniBatch,
    ProcState,
    SimNetwork,
    allreduce_sum,
    parallel_backprop,
    parallel_feedforward,
    scatter,
    train_epochs,
)
from .sparse import (
    CsrMatrix,
    RowBlock,
    dmm,
    gather_rows,
    hadamard,
    normalize_adjacency,
    spmm,
    transpose_sparse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
