"""Partitioner checks: balance is exact, FM gains are exact, small
instances are compared against exhaustive search, and structured instances
beat random placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnpart import (
    BalanceInfeasibleError,
    CsrMatrix,
    Hypergraph,
    MiniBatchSpec,
    Partition,
    PartitionConfig,
    UGraph,
    build_graph_model,
    build_hypergraph_model,
    build_stochastic_hypergraph,
    evaluate_graph_cut,
    evaluate_hypergraph_cut,
    normalize_adjacency,
    partition_graph_fm,
    partition_hypergraph_fm,
    partition_stochastic,
    random_partition,
)
from gcnpart.partition import (
    FM_PASSES,
    HypergraphBisection,
    _fm_passes,
    _graph_nets,
    _hypergraph_nets,
)

from helpers import (
    brute_force_best_bipartition,
    brute_force_best_graph_bipartition,
    grid_graph,
    random_undirected,
    two_community_graph,
)


def clique_pair_graph():
    """Two disjoint 4-cliques with unit vertex weights."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    e = np.array(edges)
    return UGraph(8, e, np.ones(len(e)), np.ones(8, dtype=np.int64))


class TestPartitionConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PartitionConfig(p=0)
        with pytest.raises(ValueError):
            PartitionConfig(p=2, epsilon=-0.1)


class TestRandomPartition:
    def test_single_part(self):
        pi = random_partition(np.ones(5, dtype=np.int64), PartitionConfig(p=1))
        assert np.array_equal(pi.assignment, np.zeros(5, dtype=np.int64))

    def test_n_equals_p_unit_weights_is_permutation(self):
        pi = random_partition(np.ones(6, dtype=np.int64), PartitionConfig(p=6, seed=2))
        assert sorted(pi.assignment) == list(range(6))
        assert pi.balance_ratio() == 0.0

    def test_seeded_rerun_bit_identical(self):
        w = np.random.default_rng(0).integers(1, 6, size=40).astype(np.int64)
        cfg = PartitionConfig(p=4, seed=9, epsilon=0.05)
        a = random_partition(w, cfg)
        b = random_partition(w, cfg)
        assert np.array_equal(a.assignment, b.assignment)

    def test_balance_holds_exactly(self):
        for seed in range(5):
            w = grid_graph(10, 10)
            weights = normalize_adjacency(w).row_nnz()
            pi = random_partition(weights, PartitionConfig(p=4, seed=seed))
            cap = 1.01 * weights.sum() / 4
            assert np.all(pi.part_weights <= cap)

    def test_single_heavy_vertex_infeasible(self):
        weights = np.array([100, 1, 1, 1], dtype=np.int64)
        with pytest.raises(BalanceInfeasibleError):
            random_partition(weights, PartitionConfig(p=2, seed=0, epsilon=0.01))

    def test_p_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            random_partition(np.ones(3, dtype=np.int64), PartitionConfig(p=4))


class TestGraphFm:
    def test_two_cliques_split_cleanly(self):
        g = clique_pair_graph()
        pi = partition_graph_fm(g, PartitionConfig(p=2, seed=1))
        assert evaluate_graph_cut(g, pi).cut_value == 0
        # exhaustive check: 0 really is optimal
        assert brute_force_best_graph_bipartition(g.edges, g.vertex_weight, 0.01) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_path_of_four_cuts_one(self, seed):
        edges = np.array([(0, 1), (1, 2), (2, 3)])
        g = UGraph(4, edges, np.ones(3), np.ones(4, dtype=np.int64))
        pi = partition_graph_fm(g, PartitionConfig(p=2, seed=seed))
        assert evaluate_graph_cut(g, pi).cut_value == 1
        assert brute_force_best_graph_bipartition(edges, g.vertex_weight, 0.01) == 1

    def test_single_part_no_cut(self):
        g = clique_pair_graph()
        pi = partition_graph_fm(g, PartitionConfig(p=1))
        assert evaluate_graph_cut(g, pi).cut_value == 0

    def test_power_of_two_required(self):
        g = clique_pair_graph()
        with pytest.raises(ValueError, match="power of two"):
            partition_graph_fm(g, PartitionConfig(p=3))


class TestHypergraphFm:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_identity_hypergraph_never_cut(self, p):
        h = build_hypergraph_model(CsrMatrix.identity(8))
        pi = partition_hypergraph_fm(h, PartitionConfig(p=p, seed=0))
        assert evaluate_hypergraph_cut(h, pi).cut_value == 0

    def test_two_disjoint_blocks_split_cleanly(self):
        # block-diagonal pattern: two fully-connected 4-vertex blocks
        rows, cols = [], []
        for base in (0, 4):
            for i in range(4):
                for j in range(4):
                    rows.append(base + i)
                    cols.append(base + j)
        a = CsrMatrix.from_coo(8, 8, rows, cols)
        h = build_hypergraph_model(a)
        pi = partition_hypergraph_fm(h, PartitionConfig(p=2, seed=3))
        assert evaluate_hypergraph_cut(h, pi).cut_value == 0
        assert brute_force_best_bipartition(h.nets, h.vertex_weight, 0.01) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_within_two_of_exhaustive_optimum(self, seed):
        rng = np.random.default_rng([seed, 55])
        nets = tuple(
            np.sort(rng.choice(8, size=rng.integers(2, 5), replace=False))
            for _ in range(10)
        )
        h = Hypergraph(8, nets, np.ones(10), np.ones(8, dtype=np.int64))
        cfg = PartitionConfig(p=2, seed=seed)
        pi = partition_hypergraph_fm(h, cfg)
        got = evaluate_hypergraph_cut(h, pi).cut_value
        best = brute_force_best_bipartition(nets, h.vertex_weight, cfg.epsilon)
        assert got <= best + 2


class TestStochasticPartitioner:
    def test_single_full_batch_equals_hp_pipeline(self):
        a_hat = normalize_adjacency(random_undirected(16, 0.25, 4))
        cfg = PartitionConfig(p=2, seed=6)
        via_stochastic = partition_stochastic(a_hat, MiniBatchSpec(16), 1, cfg)
        via_hp = partition_hypergraph_fm(build_hypergraph_model(a_hat), cfg)
        assert np.array_equal(via_stochastic.assignment, via_hp.assignment)

    def test_zero_batches_rejected(self):
        a_hat = normalize_adjacency(random_undirected(8, 0.3, 1))
        with pytest.raises(ValueError):
            partition_stochastic(a_hat, MiniBatchSpec(4), 0, PartitionConfig(p=2))

    def test_seeded_deterministic_and_competitive_on_merged(self):
        a_hat = normalize_adjacency(random_undirected(32, 0.15, ber := 8))
        spec = MiniBatchSpec(12)
        cfg = PartitionConfig(p=2, seed=5)
        pi1 = partition_stochastic(a_hat, spec, 10, cfg)
        pi2 = partition_stochastic(a_hat, spec, 10, cfg)
        assert np.array_equal(pi1.assignment, pi2.assignment)
        merged = build_stochastic_hypergraph(a_hat, spec, 10, cfg.seed)
        hp = partition_hypergraph_fm(build_hypergraph_model(a_hat), cfg)
        shp_cut = evaluate_hypergraph_cut(merged, pi1).cut_value
        hp_cut = evaluate_hypergraph_cut(merged, hp).cut_value
        assert shp_cut <= hp_cut


def recomputed_cut(nets, side) -> float:
    """Connectivity-1 cut of a bisection, straight from the pin lists."""
    total = 0.0
    for j, c in enumerate(nets.costs):
        sides = {int(side[u]) for u in nets.pins[nets.offsets[j] : nets.offsets[j + 1]]}
        if len(sides) == 2:
            total += c
    return total


def assert_exact_under_moves(nets, side, moves):
    """Each move changes the cut by exactly the moved vertex's gain, the
    cut matches a recount, gains match a fresh engine, and move(v) twice
    restores side, gains and cut (the FM rollback contract)."""
    eng = HypergraphBisection(nets, side)
    for v in moves:
        v = int(v)
        side0, gains0, cut0 = eng.side.copy(), eng.gains.copy(), eng.cut()
        eng.move(v)
        assert eng.cut() == cut0 - gains0[v]
        assert eng.cut() == recomputed_cut(nets, eng.side)
        fresh = HypergraphBisection(nets, eng.side)
        assert np.array_equal(eng.gains, fresh.gains)
        assert fresh.cut() == eng.cut()
        eng.move(v)
        assert np.array_equal(eng.side, side0)
        assert np.array_equal(eng.gains, gains0)
        assert eng.cut() == cut0
        eng.move(v)


@st.composite
def bisection_instances(draw):
    """A hypergraph mixing 2-pin and wider nets with integer costs, a
    random split and a random move sequence."""
    n = draw(st.integers(2, 12))
    pin_sets = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 6)), max_size=20)
    )
    nets = tuple(np.array(sorted(s), dtype=np.int64) for s in pin_sets)
    costs = draw(st.lists(st.integers(1, 3), min_size=len(nets), max_size=len(nets)))
    h = Hypergraph(n, nets, np.array(costs, dtype=np.float64), np.ones(n, dtype=np.int64))
    side = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    moves = draw(st.lists(st.integers(0, n - 1), max_size=30))
    return _hypergraph_nets(h), side, moves


class TestFmEngineExactness:
    @pytest.mark.parametrize("seed", range(4))
    def test_graph_gains_and_cut_stay_exact_under_random_moves(self, seed):
        # the graph model's edges as 2-pin nets: connectivity-1 cut == edge cut
        rng = np.random.default_rng([seed, 31])
        g = build_graph_model(normalize_adjacency(random_undirected(12, 0.3, seed)))
        side = rng.integers(0, 2, size=12).astype(np.int8)
        nets = _graph_nets(g)
        pi = Partition.from_assignment(side, g.vertex_weight, 2, 1.0)
        assert recomputed_cut(nets, side) == evaluate_graph_cut(g, pi).cut_value
        assert_exact_under_moves(nets, side, rng.integers(0, 12, size=40))

    @pytest.mark.parametrize("seed", range(4))
    def test_hypergraph_gains_and_cut_stay_exact_under_random_moves(self, seed):
        rng = np.random.default_rng([seed, 32])
        h = build_hypergraph_model(normalize_adjacency(random_undirected(10, 0.3, seed)))
        side = rng.integers(0, 2, size=10).astype(np.int8)
        assert_exact_under_moves(_hypergraph_nets(h), side, rng.integers(0, 10, size=40))

    @settings(deadline=None, max_examples=150)
    @given(bisection_instances())
    def test_gains_and_cut_stay_exact_on_random_hypergraphs(self, instance):
        assert_exact_under_moves(*instance)

    def test_fm_pass_never_ends_above_start(self):
        # rollback contract: refined bisections never exceed the pass's start
        rng = np.random.default_rng(44)
        a = normalize_adjacency(random_undirected(20, 0.2, 17))
        h = build_hypergraph_model(a)
        side = rng.integers(0, 2, size=20).astype(np.int8)
        eng = HypergraphBisection(_hypergraph_nets(h), side)
        weights = h.vertex_weight.astype(float)
        start = eng.cut()
        _fm_passes(eng, weights, cap=weights.sum(), min_count=1, max_passes=4)
        assert eng.cut() <= start


def reference_fm_passes(engine, weights, cap, min_count, max_passes: int) -> None:
    """The FM pass that lazy gain heaps replaced, kept as an oracle: each
    move is a masked argmax over all vertices (highest legal gain, lowest
    id on ties), and the tail past the best prefix is undone one move at a
    time."""
    n = engine.n
    side_w = np.array(
        [float(weights[engine.side == 0].sum()), float(weights[engine.side == 1].sum())]
    )
    side_n = np.array([int((engine.side == 0).sum()), int((engine.side == 1).sum())])
    cap_move = max(cap, float(side_w.sum()) / 2.0 + float(weights.max(initial=0.0)))

    def flip(v: int) -> None:
        s = int(engine.side[v])
        engine.move(v)
        side_w[s] -= weights[v]
        side_w[1 - s] += weights[v]
        side_n[s] -= 1
        side_n[1 - s] += 1

    def balanced() -> bool:
        return bool(max(side_w[0], side_w[1]) <= cap and min(side_n[0], side_n[1]) >= min_count)

    for _ in range(max_passes):
        start_cut = engine.cut()
        best_cut = start_cut
        best_len = 0
        moves: list[int] = []
        unlocked = np.ones(n, dtype=bool)
        while True:
            src = engine.side
            legal = unlocked & (side_w[1 - src] + weights <= cap_move) & (side_n[src] >= 2)
            v = int(np.argmax(np.where(legal, engine.gains, -np.inf)))
            if not legal[v]:
                break
            flip(v)
            unlocked[v] = False
            moves.append(v)
            if engine.cut() < best_cut - 1e-9 and balanced():
                best_cut = engine.cut()
                best_len = len(moves)
        for v in reversed(moves[best_len:]):
            flip(v)
        if not (best_cut < start_cut - 1e-9):
            break


@st.composite
def fm_instances(draw):
    """A random hypergraph with mixed vertex weights 1-6, a random split
    and a cap within a few units of half the weight, so that moving a
    heavy vertex is often illegal while a light one still fits."""
    n = draw(st.integers(2, 24))
    pin_sets = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=min(n, 6)), max_size=40)
    )
    nets = tuple(np.array(sorted(s), dtype=np.int64) for s in pin_sets)
    costs = draw(st.lists(st.integers(1, 3), min_size=len(nets), max_size=len(nets)))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    h = Hypergraph(n, nets, np.array(costs, dtype=np.float64), np.array(weights, dtype=np.int64))
    side = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    weights = h.vertex_weight.astype(np.float64)
    cap = float(weights.sum()) / 2.0 + draw(st.integers(-2, 6))
    min_count = draw(st.integers(1, 2))
    passes = draw(st.integers(1, FM_PASSES))
    return _hypergraph_nets(h), weights, side, cap, min_count, passes


def assert_engine_matches_fresh(eng, nets):
    fresh = HypergraphBisection(nets, eng.side)
    assert eng._counts == fresh._counts
    assert eng._idsums == fresh._idsums
    assert eng.gains == fresh.gains
    assert eng.cut() == fresh.cut()


class TestFmPasses:
    @settings(deadline=None, max_examples=300)
    @given(fm_instances())
    def test_heap_selection_matches_masked_argmax(self, instance):
        nets, weights, side, cap, min_count, passes = instance
        ref = HypergraphBisection(nets, side)
        reference_fm_passes(ref, weights, cap, min_count, passes)
        eng = HypergraphBisection(nets, side)
        _fm_passes(eng, weights, cap, min_count, passes)
        assert np.array_equal(eng.side, ref.side)
        assert eng.cut() == ref.cut()

    @settings(deadline=None, max_examples=150)
    @given(fm_instances(), st.lists(st.integers(0, 23), max_size=6))
    def test_engine_state_after_passes_matches_fresh_build(self, instance, moves):
        # rollback by reassignment leaves counts, id sums, gains and cut as
        # a fresh build would, and later incremental moves keep them so
        nets, weights, side, cap, min_count, passes = instance
        eng = HypergraphBisection(nets, side)
        _fm_passes(eng, weights, cap, min_count, passes)
        assert_engine_matches_fresh(eng, nets)
        for v in moves:
            eng.move(v % nets.n)
            assert_engine_matches_fresh(eng, nets)

    def test_move_reports_every_gain_change(self):
        rng = np.random.default_rng(7)
        h = build_hypergraph_model(normalize_adjacency(random_undirected(16, 0.3, 5)))
        eng = HypergraphBisection(_hypergraph_nets(h), rng.integers(0, 2, size=16))
        for v in rng.integers(0, 16, size=30):
            before = list(eng.gains)
            changed = set(eng.move(int(v)))
            assert {u for u in range(16) if eng.gains[u] != before[u]} <= changed


class TestPartitionerQuality:
    # p=16 on a 16x16 grid puts the 1% cap below one vertex weight (a
    # knife-edge instance); the acceptance suite runs p=16 on 32x32 where
    # the budget is meaningful
    @pytest.mark.parametrize("p", [4, 8])
    def test_structured_instances_beat_random(self, p):
        a_hat = normalize_adjacency(grid_graph(16, 16))
        g = build_graph_model(a_hat)
        h = build_hypergraph_model(a_hat)
        for seed in (0, 1):
            cfg = PartitionConfig(p=p, seed=seed)
            cut_rp_g = evaluate_graph_cut(g, random_partition(h.vertex_weight, cfg)).cut_value
            cut_rp_h = evaluate_hypergraph_cut(h, random_partition(h.vertex_weight, cfg)).cut_value
            cut_gp = evaluate_graph_cut(g, partition_graph_fm(g, cfg)).cut_value
            cut_hp = evaluate_hypergraph_cut(h, partition_hypergraph_fm(h, cfg)).cut_value
            assert cut_gp < cut_rp_g
            assert cut_hp < cut_rp_h

    def test_every_partitioner_balances_exactly(self):
        graphs = {
            "grid": normalize_adjacency(grid_graph(12, 12)),
            "community": normalize_adjacency(two_community_graph(8, seed=3)),
        }
        for name, a_hat in graphs.items():
            g = build_graph_model(a_hat)
            h = build_hypergraph_model(a_hat)
            w = h.vertex_weight
            for p in (2, 4, 8):
                for seed in (0, 1):
                    cfg = PartitionConfig(p=p, seed=seed)
                    for pi in (
                        random_partition(w, cfg),
                        partition_graph_fm(g, cfg),
                        partition_hypergraph_fm(h, cfg),
                    ):
                        cap = (1 + cfg.epsilon) * w.sum() / p
                        assert np.all(pi.part_weights <= cap), (name, p, seed)
                        assert len(np.unique(pi.assignment)) == p
