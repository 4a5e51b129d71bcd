"""Partitioner checks: balance is exact, FM gains are exact, small
instances are compared against exhaustive search, and structured instances
beat random placement."""

import hashlib

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
    MATCH_NET_LIMIT,
    HypergraphBisection,
    _contract,
    _fm_passes,
    _graph_nets,
    _match,
    _merge_identical_nets,
)

from helpers import (
    brute_force_best_bipartition,
    chung_lu_graph,
    brute_force_best_graph_bipartition,
    grid_graph,
    hypergraph_from_nets,
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
        h = hypergraph_from_nets(8, nets, np.ones(10), np.ones(8, dtype=np.int64))
        cfg = PartitionConfig(p=2, seed=seed)
        pi = partition_hypergraph_fm(h, cfg)
        got = evaluate_hypergraph_cut(h, pi).cut_value
        best = brute_force_best_bipartition(nets, h.vertex_weight, cfg.epsilon)
        assert got <= best + 2


    def test_power_law_graph_with_hub_nets(self):
        # a seeded Chung-Lu graph: hub columns give nets far wider than
        # MATCH_NET_LIMIT, which coarsening skips but refinement still cuts
        a_hat = normalize_adjacency(chung_lu_graph(1500, 4.0, 2.1, seed=3))
        h = build_hypergraph_model(a_hat)
        assert max(len(pins) for pins in h.nets) > MATCH_NET_LIMIT
        cfg = PartitionConfig(p=4, seed=0)
        pi = partition_hypergraph_fm(h, cfg)
        assert pi.is_balanced()
        assert len(np.unique(pi.assignment)) == 4
        rp = random_partition(h.vertex_weight, cfg)
        assert evaluate_hypergraph_cut(h, pi).cut_value < evaluate_hypergraph_cut(h, rp).cut_value


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


def recomputed_cut(h, side) -> float:
    """Connectivity-1 cut of a bisection, straight from the pin lists."""
    total = 0.0
    for j, c in enumerate(h.net_cost):
        sides = {int(side[u]) for u in h.pins[h.offsets[j] : h.offsets[j + 1]]}
        if len(sides) == 2:
            total += c
    return total


def assert_exact_under_moves(h, side, moves):
    """Each move changes the cut by exactly the moved vertex's gain, the
    cut matches a recount, gains match a fresh engine, and move(v) twice
    restores side, gains and cut (the FM rollback contract)."""
    eng = HypergraphBisection(h, side)
    for v in moves:
        v = int(v)
        side0, gains0, cut0 = eng.side.copy(), eng.gains.copy(), eng.cut()
        eng.move(v)
        assert eng.cut() == cut0 - gains0[v]
        assert eng.cut() == recomputed_cut(h, eng.side)
        fresh = HypergraphBisection(h, eng.side)
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
    h = hypergraph_from_nets(
        n, nets, np.array(costs, dtype=np.float64), np.ones(n, dtype=np.int64)
    )
    side = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    moves = draw(st.lists(st.integers(0, n - 1), max_size=30))
    return h, side, moves


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
        assert_exact_under_moves(h, side, rng.integers(0, 10, size=40))

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
        eng = HypergraphBisection(h, side)
        weights = h.vertex_weight.astype(float)
        start = eng.cut()
        _fm_passes(eng, weights, cap=weights.sum(), min_count=1, max_passes=4)
        assert eng.cut() <= start


def reference_fm_passes(engine, weights, cap, min_count, max_passes: int) -> None:
    """The FM pass that lazy gain heaps replaced, kept as an oracle: each
    move is a masked argmax over all vertices (highest legal gain, lowest
    id on ties), and the tail past the best prefix is undone one move at a
    time. Like _fm_passes, a pass ends after max(100, n // 20) moves
    without a new best prefix."""
    n = engine.n
    window = max(100, n // 20)
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
        while len(moves) - best_len < window:
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
    h = hypergraph_from_nets(
        n, nets, np.array(costs, dtype=np.float64), np.array(weights, dtype=np.int64)
    )
    side = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    weights = h.vertex_weight.astype(np.float64)
    cap = float(weights.sum()) / 2.0 + draw(st.integers(-2, 6))
    min_count = draw(st.integers(1, 2))
    passes = draw(st.integers(1, FM_PASSES))
    return h, weights, side, cap, min_count, passes


def assert_engine_matches_fresh(eng, h):
    fresh = HypergraphBisection(h, eng.side)
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
            eng.move(v % nets.n_vertices)
            assert_engine_matches_fresh(eng, nets)

    @pytest.mark.parametrize("seed", range(4))
    def test_windowed_passes_match_reference_on_large_instances(self, seed):
        # n far above the 100-move window, so passes end by the window rule
        rng = np.random.default_rng([seed, 77])
        n = int(rng.integers(300, 700))
        h = build_hypergraph_model(normalize_adjacency(random_undirected(n, 4.0 / n, seed)))
        weights = rng.integers(1, 7, size=n).astype(np.float64)
        side = rng.integers(0, 2, size=n).astype(np.int8)
        cap = float(weights.sum()) / 2.0 + float(rng.integers(0, 6))
        ref = HypergraphBisection(h, side)
        reference_fm_passes(ref, weights, cap, 1, FM_PASSES)
        eng = HypergraphBisection(h, side)
        _fm_passes(eng, weights, cap, 1, FM_PASSES)
        assert np.array_equal(eng.side, ref.side)
        assert eng.cut() == ref.cut()

    @settings(deadline=None, max_examples=100)
    @given(fm_instances(), st.integers(8, 400))
    def test_bucketed_weight_classes_keep_the_fit_test(self, instance, spread):
        # weights of 8 and more share classes; every move must still fit
        nets, weights, side, cap, min_count, passes = instance
        slack = cap - float(weights.sum()) / 2.0
        weights = weights * spread // 6 + 1
        cap = float(weights.sum()) / 2.0 + slack * spread
        cap_move = max(cap, float(weights.sum()) / 2.0 + float(weights.max()))
        eng = HypergraphBisection(nets, side)
        move = eng.move

        def checked_move(v):
            s = int(eng.side[v])
            assert float(weights[eng.side != s].sum()) + weights[v] <= cap_move
            return move(v)

        eng.move = checked_move
        _fm_passes(eng, weights, cap, min_count, passes)
        eng.move = move
        assert_engine_matches_fresh(eng, nets)

    def test_move_reports_every_gain_change(self):
        rng = np.random.default_rng(7)
        h = build_hypergraph_model(normalize_adjacency(random_undirected(16, 0.3, 5)))
        eng = HypergraphBisection(h, rng.integers(0, 2, size=16))
        for v in rng.integers(0, 16, size=30):
            before = list(eng.gains)
            changed = set(eng.move(int(v)))
            assert {u for u in range(16) if eng.gains[u] != before[u]} <= changed


@st.composite
def coarsening_instances(draw):
    """Random nets (some repeated, some single-pin), integer costs and
    weights, a seeded matching under a random cluster-weight cap, and a
    random split of the clusters."""
    n = draw(st.integers(1, 30))
    pin_sets = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 7)), max_size=40)
    )
    pin_sets += draw(st.lists(st.sampled_from(pin_sets), max_size=10)) if pin_sets else []
    nets = tuple(np.array(sorted(s), dtype=np.int64) for s in pin_sets)
    costs = draw(st.lists(st.integers(1, 4), min_size=len(nets), max_size=len(nets)))
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=np.float64)
    h = hypergraph_from_nets(n, nets, np.array(costs, dtype=np.float64), weights.astype(np.int64))
    max_w = float(draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    cluster_of = _match(h, max_w, rng)
    coarse_side = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8
    )[: int(cluster_of.max()) + 1]
    return h, weights, max_w, cluster_of, coarse_side


def pin_lists(h: Hypergraph) -> list[tuple]:
    bounds = zip(h.offsets[:-1], h.offsets[1:])
    return [tuple(h.pins[lo:hi]) for lo, hi in bounds]


class TestCoarsening:
    @settings(deadline=None, max_examples=300)
    @given(coarsening_instances())
    def test_coarse_cut_equals_fine_cut_of_projection(self, inst):
        nets, weights, _, cluster_of, coarse_side = inst
        coarse = _contract(nets, cluster_of)
        fine_side = coarse_side[cluster_of]
        assert recomputed_cut(coarse, coarse_side) == recomputed_cut(nets, fine_side)
        assert HypergraphBisection(coarse, coarse_side).cut() == recomputed_cut(nets, fine_side)

    @settings(deadline=None, max_examples=300)
    @given(coarsening_instances())
    def test_cluster_weights_sum_to_fine_weights(self, inst):
        nets, weights, max_w, cluster_of, _ = inst
        coarse_w = _contract(nets, cluster_of).vertex_weight
        assert coarse_w.sum() == weights.sum()
        for c, w in enumerate(coarse_w):
            members = np.flatnonzero(cluster_of == c)
            assert w == weights[members].sum()
            # a matching: pairs within the cap, or single vertices
            assert len(members) == 1 or (len(members) == 2 and w <= max_w)
        # cluster ids ascend with each cluster's least vertex
        firsts = [int(np.flatnonzero(cluster_of == c)[0]) for c in range(len(coarse_w))]
        assert firsts == sorted(firsts)

    @settings(deadline=None, max_examples=300)
    @given(coarsening_instances())
    def test_merging_identical_nets_keeps_every_cut(self, inst):
        nets, weights, _, _, _ = inst
        merged = _merge_identical_nets(nets)
        lists = pin_lists(merged)
        assert len(set(lists)) == len(lists)
        assert all(len(pins) >= 2 for pins in lists)
        assert merged.net_cost.sum() == sum(
            c for c, pins in zip(nets.net_cost, pin_lists(nets)) if len(pins) >= 2
        )
        rng = np.random.default_rng(len(lists))
        for _ in range(5):
            side = rng.integers(0, 2, size=nets.n_vertices).astype(np.int8)
            assert recomputed_cut(merged, side) == recomputed_cut(nets, side)


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

    # Cuts of the flat-FM recursive bisection that the multilevel V-cycle
    # replaced (every bisection refined by unbounded FM passes on its full
    # vertex set), at p=8 and seeds 0, 1, 2. Single instances spread by
    # about 10% from seed to seed under either partitioner, so the guard is
    # on the sum over the three seeds.
    FLAT_FM_CUTS = {
        "grid32": {"gp": (132, 133, 134), "hp": (213, 224, 226)},
        "community": {"gp": (89, 72, 72), "hp": (139, 147, 141)},
    }

    def test_multilevel_cuts_within_five_percent_of_flat_fm(self):
        graphs = {
            "grid32": normalize_adjacency(grid_graph(32, 32)),
            "community": normalize_adjacency(two_community_graph(16, seed=40)),
        }
        for name, a_hat in graphs.items():
            g = build_graph_model(a_hat)
            h = build_hypergraph_model(a_hat)
            cuts = {"gp": [], "hp": []}
            for seed in range(3):
                cfg = PartitionConfig(p=8, seed=seed)
                gp, hp = partition_graph_fm(g, cfg), partition_hypergraph_fm(h, cfg)
                cuts["gp"].append(evaluate_graph_cut(g, gp).cut_value)
                cuts["hp"].append(evaluate_hypergraph_cut(h, hp).cut_value)
            for kind, flat in self.FLAT_FM_CUTS[name].items():
                assert sum(cuts[kind]) <= 1.05 * sum(flat), (name, kind, cuts[kind], flat)

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


# sha256 over the assignments (little-endian int64) at p = 2, 4, 8 and
# seeds 0, 1, 2, in that order, recorded before the partitioners moved onto
# the CSR Hypergraph type. A change that alters partitions on purpose
# updates these and says so.
PINNED_DIGESTS = {
    ("grid12", "gp"): "c4e1828464173c971181e0c79daffac0d245121743c6b4faa81affb05d3e2fdf",
    ("grid12", "hp"): "8a89a7b7e33b49db517e80fa6b4fcc81c786eb486a04f0be4ad1e81f6beaf5a9",
    ("grid12", "shp"): "17856f4adb10662f1a44c7982b691af0e1463650d0f86ef8abfc89bf732ee3a1",
    ("grid16", "gp"): "1fd753ba947125abacd8b654e57a3bf802637c22742c9137afa56c70a080041c",
    ("grid16", "hp"): "43a9069bdb93b9b229ecbd62ee7312b0a6906c3cf472d296926b7c3c3630436b",
    ("grid16", "shp"): "244d07bd887b5e50b1e2edfce68dfb0f1272062355e66cafc59827a5edeaa7e6",
    ("community8", "gp"): "8065ea646f8b5f48cc56e1065d9aae396f987d3bc9dfaaed0d33998dddd631c3",
    ("community8", "hp"): "125c271f633539c62adb6115112d4d7b78fe70b2a4b611979e49f321a42747a8",
    ("community8", "shp"): "ed59bd172cc3cbfa992a20e2fe894cb166d39ec6e0772d62c4edf8a9ca5ab0b9",
}


def test_partitions_pinned():
    """GP, HP and SHP assignments are byte-identical to the recorded ones,
    so refactors of the partitioners prove "partitions unchanged" here."""
    graphs = {
        "grid12": grid_graph(12, 12),
        "grid16": grid_graph(16, 16),
        "community8": two_community_graph(8, seed=3),
    }
    got = {}
    for name, a in graphs.items():
        a_hat = normalize_adjacency(a)
        g, h = build_graph_model(a_hat), build_hypergraph_model(a_hat)
        runs = {
            "gp": lambda cfg: partition_graph_fm(g, cfg),
            "hp": lambda cfg: partition_hypergraph_fm(h, cfg),
            "shp": lambda cfg: partition_stochastic(a_hat, MiniBatchSpec(a_hat.n_rows // 4), 8, cfg),
        }
        for tag, run in runs.items():
            digest = hashlib.sha256()
            for p in (2, 4, 8):
                for seed in range(3):
                    assignment = run(PartitionConfig(p=p, seed=seed)).assignment
                    digest.update(assignment.astype("<i8").tobytes())
            got[name, tag] = digest.hexdigest()
    assert got == PINNED_DIGESTS
