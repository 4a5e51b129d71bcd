"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

1. serial/parallel equivalence (weights, losses, predictions)
2. cut-equals-volume, exact integer word counts
3. graph-model overestimation vs the hypergraph model
4. balance constraint at 1% on every partitioner output
5. partitioner quality: HP beats RP; FM near exhaustive optimum
6. net-count bound values and monotonicity
7. SHP beats or ties HP on held-out mini-batches
8. message-count ceilings per layer and phase
9. determinism: byte-identical reports, scheduler agreement
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gcnpart import (
    CsrMatrix,
    Hypergraph,
    MiniBatchSpec,
    Partition,
    PartitionConfig,
    SimNetwork,
    build_comm_plan,
    build_graph_model,
    build_hypergraph_model,
    build_stochastic_hypergraph,
    evaluate_graph_cut,
    evaluate_hypergraph_cut,
    hoeffding_min_nets,
    init_model,
    normalize_adjacency,
    partition_graph_fm,
    partition_hypergraph_fm,
    partition_stochastic,
    plan_volume,
    random_partition,
    sample_batches,
    scatter,
    train_epochs,
    train_serial,
    transpose_sparse,
)
from gcnpart.cli import main as cli_main
from gcnpart.models import induced_pattern, net_connectivity
from gcnpart.partition import partition_hypergraph_fm as hp_fm

from helpers import (
    brute_force_best_bipartition,
    figure_instance_overcount,
    grid_graph,
    hypergraph_from_nets,
    random_directed,
    random_labels,
    random_undirected,
    two_community_graph,
)


@contextmanager
def criterion(num: int, title: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} {title}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE {num} {title}: PASS ({elapsed:.1f}s)")


def test_criterion_1_serial_parallel_equivalence():
    with criterion(1, "serial/parallel equivalence", budget_s=30.0):
        ps = [1, 2, 4, 8]
        for case in range(20):
            seed = 100 + case
            rng = np.random.default_rng([seed, 1])
            n = int(rng.integers(16, 65))
            L = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(2, 7)) for _ in range(L + 1))
            p = ps[case % 4]
            directed = case % 3 == 2
            raw = (
                random_directed(n, 0.15, seed) if directed else random_undirected(n, 0.2, seed)
            )
            a_hat = normalize_adjacency(raw)
            a_back = transpose_sparse(a_hat) if directed else a_hat
            h0 = rng.standard_normal((n, dims[0]))
            labels = random_labels(n, dims[-1], max(2, n // 6), seed)
            model = init_model(dims, seed=seed)

            serial_model, serial_losses, serial_trace = train_serial(
                model, a_hat, a_back, h0, labels, epochs=3
            )
            pi = random_partition(
                a_hat.row_nnz(), PartitionConfig(p=p, seed=seed, epsilon=0.5)
            )
            net = SimNetwork(p)
            states = scatter(a_hat, h0, pi, model, directed=directed)
            metrics = train_epochs(states, net, labels, 3)

            np.testing.assert_allclose(
                [m.loss for m in metrics], serial_losses, rtol=1e-8
            )
            for st in states:
                for ws, wp in zip(serial_model.weights, st.weights):
                    np.testing.assert_allclose(wp, ws, rtol=1e-8, atol=1e-12)
            # class predictions from the final weights are identical
            from gcnpart import parallel_feedforward

            parallel_feedforward(states, net)
            rows = np.concatenate([st.global_rows for st in states])
            outputs = np.vstack([st.h[L] for st in states])[np.argsort(rows)]
            assert np.array_equal(
                outputs.argmax(axis=1), serial_trace.h[L].argmax(axis=1)
            )


def test_criterion_2_cut_equals_volume():
    with criterion(2, "cut-equals-volume theorem", budget_s=10.0):
        for case in range(20):
            seed = 200 + case
            rng = np.random.default_rng([seed, 2])
            n = int(rng.integers(12, 40))
            L = int(rng.integers(1, 4))
            d = int(rng.integers(2, 6))
            dims = (d,) * (L + 1)  # uniform widths make the 2x phrasing exact
            p = int(rng.choice([2, 4]))
            a_hat = normalize_adjacency(random_undirected(n, 0.2, seed))
            h0 = rng.standard_normal((n, d))
            labels = random_labels(n, d, max(2, n // 6), seed)
            model = init_model(dims, seed=seed)
            pi = random_partition(
                a_hat.row_nnz(), PartitionConfig(p=p, seed=seed, epsilon=0.5)
            )
            net = SimNetwork(p)
            states = scatter(a_hat, h0, pi, model)
            metrics = train_epochs(states, net, labels, 1)
            cut = int(
                evaluate_hypergraph_cut(build_hypergraph_model(a_hat), pi).cut_value
            )
            measured = metrics[0].total_words
            assert measured == 2 * cut * sum(dims[1:])
            assert measured == cut * (sum(dims[:-1]) + sum(dims[1:]))


def test_criterion_3_graph_model_overestimation():
    with criterion(3, "graph-model overestimation", budget_s=5.0):
        # the documented instance: 3 cut edges at the hub, true transfers 2
        a_hat, assignment = figure_instance_overcount()
        h = build_hypergraph_model(a_hat)
        g = build_graph_model(a_hat)
        pi = Partition.from_assignment(assignment, h.vertex_weight, 3, 1e9)
        hub = 3
        incident_cut = sum(
            1 for (u, v) in g.edges if hub in (u, v) and assignment[u] != assignment[v]
        )
        assert incident_cut == 3
        lam = net_connectivity(h, pi)
        assert lam[hub] - 1 == 2
        plan = build_comm_plan(a_hat, pi)
        hub_transfers = sum(
            1 for m in range(3) for n in range(3) if hub in plan.send[m][n]
        )
        assert hub_transfers == 2

        strict = 0
        for case in range(50):
            seed = 300 + case
            directed = case % 2 == 1
            raw = (
                random_directed(12, 0.18, seed)
                if directed
                else random_undirected(12, 0.22, seed)
            )
            a = normalize_adjacency(raw)
            hm = build_hypergraph_model(a)
            gm = build_graph_model(a)
            rng = np.random.default_rng([seed, 3])
            asg = rng.integers(0, 3, size=12)
            while len(np.unique(asg)) < 3:
                asg = rng.integers(0, 3, size=12)
            pic = Partition.from_assignment(asg, hm.vertex_weight, 3, 1e9)
            hyper = evaluate_hypergraph_cut(hm, pic).cut_value
            graph_vol = 2 * evaluate_graph_cut(gm, pic).cut_value
            assert hyper <= graph_vol
            if hyper < graph_vol:
                strict += 1
        assert strict >= 1


GRAPHS_FOR_QUALITY = None


def _quality_graphs():
    global GRAPHS_FOR_QUALITY
    if GRAPHS_FOR_QUALITY is None:
        GRAPHS_FOR_QUALITY = {
            "grid32": normalize_adjacency(grid_graph(32, 32)),
            "community": normalize_adjacency(two_community_graph(16, seed=40)),
        }
    return GRAPHS_FOR_QUALITY


def test_criterion_4_balance_constraint():
    with criterion(4, "balance constraint at 1%", budget_s=120.0):
        for name, a_hat in _quality_graphs().items():
            g = build_graph_model(a_hat)
            h = build_hypergraph_model(a_hat)
            w = h.vertex_weight
            for p in (4, 8, 16):
                for seed in (1, 2):
                    cfg = PartitionConfig(p=p, seed=seed)
                    outputs = {
                        "rp": random_partition(w, cfg),
                        "gp": partition_graph_fm(g, cfg),
                        "hp": partition_hypergraph_fm(h, cfg),
                    }
                    if p == 8 and seed == 0:
                        outputs["shp"] = partition_stochastic(
                            a_hat, MiniBatchSpec(a_hat.n_rows // 4), 12, cfg
                        )
                    cap = 1.01 * w.sum() / p
                    for tag, pi in outputs.items():
                        assert np.all(pi.part_weights <= cap), (name, tag, p, seed)
                        assert len(np.unique(pi.assignment)) == p


def test_criterion_5_partitioner_quality():
    with criterion(5, "partitioner quality vs RP and brute force", budget_s=60.0):
        for name, a_hat in _quality_graphs().items():
            g = build_graph_model(a_hat)
            h = build_hypergraph_model(a_hat)
            w = h.vertex_weight
            for p in (4, 8, 16):
                for seed in (1, 2):
                    cfg = PartitionConfig(p=p, seed=seed)
                    pi_rp = random_partition(w, cfg)
                    pi_hp = partition_hypergraph_fm(h, cfg)
                    vol_rp = plan_volume(build_comm_plan(a_hat, pi_rp), 1)
                    vol_hp = plan_volume(build_comm_plan(a_hat, pi_hp), 1)
                    assert vol_hp.total_words < vol_rp.total_words, (name, p, seed)
                    assert vol_hp.total_msgs < vol_rp.total_msgs, (name, p, seed)
                    # the graph-model partitioner also lands well under RP
                    pi_gp = partition_graph_fm(g, cfg)
                    cut_gp = evaluate_graph_cut(g, pi_gp).cut_value
                    cut_rp = evaluate_graph_cut(g, pi_rp).cut_value
                    assert cut_gp < cut_rp, (name, p, seed)

        # flat FM lands within +2 of the exhaustive optimum on tiny instances
        for seed in range(5):
            rng = np.random.default_rng([seed, 50])
            n = 10
            nets = tuple(
                np.sort(rng.choice(n, size=int(rng.integers(2, 5)), replace=False))
                for _ in range(12)
            )
            hg = hypergraph_from_nets(n, nets, np.ones(12), np.ones(n, dtype=np.int64))
            cfg = PartitionConfig(p=2, seed=seed)
            got = evaluate_hypergraph_cut(hg, hp_fm(hg, cfg)).cut_value
            best = brute_force_best_bipartition(nets, hg.vertex_weight, cfg.epsilon)
            assert got <= best + 2, (seed, got, best)


def test_criterion_6_hoeffding_bound():
    with criterion(6, "net-count bound", budget_s=5.0):
        assert hoeffding_min_nets(2, 0.1, 0.5) == 70
        assert hoeffding_min_nets(27, 0.1, 0.5) == 46857
        rng = np.random.default_rng(60)
        for _ in range(100):
            p = int(rng.integers(2, 30))
            theta = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.05, 0.95))
            base = hoeffding_min_nets(p, theta, delta)
            assert hoeffding_min_nets(p + 1, theta, delta) >= base
            assert hoeffding_min_nets(p, min(1.0, theta * 1.5), delta) <= base
            assert hoeffding_min_nets(p, theta, min(0.99, delta * 1.5)) <= base


def test_criterion_7_shp_vs_hp_on_batches():
    with criterion(7, "SHP <= HP expected batch volume", budget_s=120.0):
        rng = np.random.default_rng(2024)
        n, p, batch_size, b = 256, 8, 64, 200
        rows, cols = [], []
        for i in range(n):  # ring plus random chords
            rows.append(i)
            cols.append((i + 1) % n)
        for _ in range(3 * n):
            u, v = rng.integers(0, n, 2)
            if u != v:
                rows.append(int(u))
                cols.append(int(v))
        rr = np.array(rows + cols)
        cc = np.array(cols + rows)
        a_hat = normalize_adjacency(CsrMatrix.from_coo(n, n, rr, cc))
        spec = MiniBatchSpec(batch_size)
        cfg = PartitionConfig(p=p, seed=10)
        pi_hp = partition_hypergraph_fm(build_hypergraph_model(a_hat), cfg)
        pi_shp = partition_stochastic(a_hat, spec, b, cfg)

        held_out = sample_batches(n, spec, b, seed=777)

        def expected_volume(pi):
            total = 0
            for batch in held_out:
                sub = induced_pattern(a_hat, batch)
                hb = build_hypergraph_model(sub)
                own = pi.assignment[batch]
                lam = np.array([len(np.unique(own[pins])) for pins in hb.nets])
                total += int((lam - 1).sum())
            return total

        v_shp = expected_volume(pi_shp)
        v_hp = expected_volume(pi_hp)
        assert v_shp <= v_hp, (v_shp, v_hp)


def test_criterion_8_message_count_ceiling():
    with criterion(8, "message-count ceiling", budget_s=30.0):
        for seed in (80, 81, 82):
            rng = np.random.default_rng([seed, 8])
            n, L, p = 40, 3, 8
            dims = (4,) * (L + 1)
            directed = seed % 2 == 1
            raw = (
                random_directed(n, 0.15, seed) if directed else random_undirected(n, 0.2, seed)
            )
            a_hat = normalize_adjacency(raw)
            h0 = rng.standard_normal((n, dims[0]))
            labels = random_labels(n, dims[-1], 8, seed)
            model = init_model(dims, seed=seed)
            pi = random_partition(
                a_hat.row_nnz(), PartitionConfig(p=p, seed=seed, epsilon=0.5)
            )
            net = SimNetwork(p)
            states = scatter(a_hat, h0, pi, model, directed=directed)
            train_epochs(states, net, labels, 2)
            for epoch in (0, 1):
                recs = net.records(epoch=epoch)
                for phase in ("fwd", "bwd"):
                    for layer in range(1, L + 1):
                        sub = [r for r in recs if r.phase == phase and r.layer == layer]
                        pair_counts: dict = {}
                        src_counts: dict = {}
                        for r in sub:
                            pair_counts[(r.src, r.dst)] = pair_counts.get((r.src, r.dst), 0) + 1
                            src_counts[r.src] = src_counts.get(r.src, 0) + 1
                        assert all(c == 1 for c in pair_counts.values())
                        assert all(c <= p - 1 for c in src_counts.values())


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism", budget_s=60.0):
        # byte-identical reports for identical config+seed
        a = grid_graph(10, 10)
        lines = []
        row_of = np.repeat(np.arange(a.n_rows), a.row_nnz())
        for i, j in zip(row_of, a.col_indices):
            if i < j:
                lines.append(f"{i} {j}")
        graph = tmp_path / "grid.txt"
        graph.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = [
            "--graph", str(graph), "-p", "4", "--partitioner", "rp,gp,hp",
            "--layers", "2", "--dims", "5,6,3", "--epochs", "3",
            "--seed", "17", "--out", str(out),
        ]
        assert cli_main(argv) == 0
        report1 = (out / "report.json").read_bytes()
        csv1 = (out / "report.csv").read_bytes()
        assert cli_main(argv) == 0
        assert (out / "report.json").read_bytes() == report1
        assert (out / "report.csv").read_bytes() == csv1

        # multi-worker and round-based schedulers agree bit-exactly
        seed = 90
        rng = np.random.default_rng([seed, 9])
        n, dims, p = 32, (4, 5, 3), 4
        a_hat = normalize_adjacency(random_undirected(n, 0.2, seed))
        h0 = rng.standard_normal((n, dims[0]))
        labels = random_labels(n, dims[-1], 8, seed)
        model = init_model(dims, seed=seed)
        pi = random_partition(a_hat.row_nnz(), PartitionConfig(p=p, seed=seed, epsilon=0.5))
        results = []
        for scheduler in ("round", "threads"):
            net = SimNetwork(p)
            states = scatter(a_hat, h0, pi, model)
            metrics = train_epochs(states, net, labels, 3, scheduler=scheduler)
            results.append(
                ([m.loss for m in metrics], [w.copy() for w in states[0].weights])
            )
        assert results[0][0] == results[1][0]
        for wa, wb in zip(results[0][1], results[1][1]):
            assert np.array_equal(wa, wb)
