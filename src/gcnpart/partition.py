"""Balanced p-way partitioners: random placement and multilevel recursive
bisection.

Every bisection partitioner minimizes the same objective with the same
engine: the connectivity-1 cut of a ``models.Hypergraph``, whose pins are
stored in CSR form (net j pins ``pins[offsets[j]:offsets[j+1]]``); every
restricted and coarsened level is one too. The graph model is one as
well, with a 2-pin net per undirected edge, whose connectivity-1 cut is
exactly the edge cut; every partitioner hands its model over as it is.

Recursive bisection restricts the pins to the vertices being split once per
level (p restricted to powers of two; arbitrary p comes in via external
partition files). Each bisection is a multilevel V-cycle (Catalyurek &
Aykanat, IEEE TPDS 1999; Karypis et al., DAC 1997):

* coarsen: seeded heavy-connectivity matching pairs vertices, clusters
  are contracted, single-pin nets dropped and identical nets merged by
  summing their costs (both exact for the connectivity-1 cut), until about
  COARSEN_TO vertices remain, a level shrinks by less than 10% or no two
  vertices fit in one cluster. A cluster outweighs neither the window of
  balanced side weights nor the heaviest vertex, whichever is more;
* split the coarsest level: the best of RESTARTS seeded BFS region-growing
  splits, each refined by Fiduccia-Mattheyses passes;
* uncoarsen: project the split onto each finer level and refine it with
  FM passes.

An FM pass makes best-gain moves under the balance cap, every vertex at
most once, and rolls back to its best prefix; it ends early after
max(100, n // 20) moves without a new best prefix. Per-net side pin counts
make move gains the exact change of the cut. Moves come from lazy gain
heaps, one per (side, vertex-weight class), with weights bucketed by their
leading bits so coarse levels keep few classes, and a pass is rolled back
by one reassignment of its best side vector.

A side of a bisection toward q leaf parts may hold at most q * (1+eps) *
W_avg (its true leaf budget); the bisection itself is held to an even
share of that ratio per remaining level (_side_cap), which leaves slack for
the levels below. A final k-way weight repair mops up borderline leaves and
the result is verified against the global cap. The repair is also all of
random placement's balancing (_final_repair): it moves the lightest vertex
of the heaviest over-cap part to the lightest part while that lowers the
total overweight, and otherwise takes the first improving move or swap of
a full search. A move costs O(p) Python work and one heap step, not a
scan of the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
import itertools
import numpy as np

from .models import (
    Hypergraph,
    MiniBatchSpec,
    Partition,
    balance_cap,
    build_stochastic_hypergraph,
)
from .sparse import CsrMatrix, check_key_range, ranges, stable_argsort, unique_keys

FM_PASSES = 8  # refinement passes per bisection; a pass that gains nothing ends them
RESTARTS = 3  # BFS seeds tried on the coarsest level; best refined cut wins
COARSEN_TO = 100  # coarsening stops at about this many vertices...
MIN_SHRINK = 0.9  # ...or once a level keeps more than this share of them
MATCH_NET_LIMIT = 64  # wider nets are ignored by matching
WEIGHT_CLASS_BITS = 3  # leading bits of a vertex weight that pick its FM class


class BalanceInfeasibleError(ValueError):
    """Raised when no assignment can satisfy the balance constraint."""


@dataclass(frozen=True)
class PartitionConfig:
    p: int
    epsilon: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not self.epsilon >= 0:  # NaN too
            raise ValueError("epsilon must be >= 0")


# ---------------------------------------------------------------------------
# levels and the bisection engine


def _restrict(h: Hypergraph, keep: np.ndarray) -> Hypergraph:
    """The hypergraph induced by the ascending vertex ids `keep`, renumbered
    0..len(keep)-1. Nets left with fewer than two pins cannot be cut and
    are dropped; the order of nets and of pins within a net is kept."""
    local = np.full(h.n_vertices, -1, dtype=np.int64)
    local[keep] = np.arange(len(keep), dtype=np.int64)
    pins = local[h.pins]
    kept = pins >= 0
    net_of_pin = h.net_of_pin()
    sizes = np.bincount(net_of_pin[kept], minlength=h.n_nets)
    cuttable = sizes >= 2
    offsets = np.concatenate(([0], np.cumsum(sizes[cuttable])))
    return Hypergraph(len(keep), offsets, pins[kept & cuttable[net_of_pin]],
                      h.net_cost[cuttable], h.vertex_weight[keep])


class HypergraphBisection:
    """Connectivity-1 cut state for a 2-way split of a (sub)hypergraph.

    For two parts the connectivity-1 cut is the cost sum over nets with
    pins on both sides. Per-net side pin counts give O(pins) gain
    maintenance under move(), and per-net side sums of pin ids name the
    lone pin on a side without scanning the net. move() is its own inverse
    and reports the vertices whose gain it changed, so a caller can keep
    its own gain index current. Gains stay exact as long as sums of net
    costs are exact in float64 (integer costs, as every model here has),
    which also makes assign() reproduce incremental state exactly.

    The state is plain Python lists, built once per engine: each net's
    pins, each vertex's nets (ascending), and the sides, which move()
    flips in place; ``side`` hands out an int8 copy of them.
    """

    def __init__(self, h: Hypergraph, side: np.ndarray):
        self.n = h.n_vertices
        self._h = h
        self._costs = h.net_cost.tolist()
        offsets, pins = h.offsets.tolist(), h.pins.tolist()
        self._net_pins = [pins[a:b] for a, b in zip(offsets, offsets[1:])]
        net_of_pin = h.net_of_pin()
        vtx_offsets = np.cumsum(np.bincount(h.pins, minlength=self.n)).tolist()
        vtx_nets = net_of_pin[stable_argsort(h.pins, self.n)].tolist()
        self._vtx_nets = [vtx_nets[a:b] for a, b in zip([0] + vtx_offsets, vtx_offsets)]
        self._neighbors: dict[int, list[int]] = {}
        # per pin: its net's slot for side 0 (side 1 is the next), id, cost, size
        self._pin_slot = 2 * net_of_pin
        self._pin_id = h.pins.astype(np.float64)
        self._pin_cost = h.net_cost[net_of_pin]
        self._pin_size = h.net_sizes()[net_of_pin]
        self.assign(side)

    @property
    def side(self) -> np.ndarray:
        return np.array(self._side, dtype=np.int8)

    def assign(self, side) -> None:
        """Put every vertex on the given side and rebuild counts, gains and cut."""
        side = np.asarray(side, dtype=np.int8)
        self._side = side.tolist()
        slot = self._pin_slot + side[self._h.pins]
        counts = np.bincount(slot, minlength=2 * self._h.n_nets)
        idsums = np.bincount(slot, weights=self._pin_id, minlength=len(counts)).astype(np.int64)
        self._counts = (counts[0::2].tolist(), counts[1::2].tolist())
        self._idsums = (idsums[0::2].tolist(), idsums[1::2].tolist())
        self._cut = float(self._h.net_cost[(counts[0::2] > 0) & (counts[1::2] > 0)].sum())
        # moving a pin uncuts its net when the pin is alone on its side and
        # the other side has pins; it cuts the net when the other side is
        # empty and the pin's own side has more pins
        own = counts[slot]
        per_pin = self._pin_cost * ((own < self._pin_size).astype(np.float64) - (own > 1))
        self.gains = np.bincount(self._h.pins, weights=per_pin, minlength=self.n).tolist()

    def cut(self) -> float:
        return self._cut

    def neighbors(self, v: int) -> list[int]:
        """The distinct vertices sharing a net with v, ascending (kept, as
        every restart's BFS asks again)."""
        found = self._neighbors.get(v)
        if found is None:
            net_pins = self._net_pins
            found = set()
            for j in self._vtx_nets[v]:
                found.update(net_pins[j])
            found.discard(v)
            found = self._neighbors[v] = sorted(found)
        return found

    def move(self, v: int) -> list[int]:
        """Move v to the other side and return the vertices whose gain
        changed (possibly with repeats, and including v itself)."""
        gains, side, net_pins, costs = self.gains, self._side, self._net_pins, self._costs
        sv = side[v]
        ov = 1 - sv
        count_from, count_to = self._counts[sv], self._counts[ov]
        idsum_from, idsum_to = self._idsums[sv], self._idsums[ov]
        changed = [v]
        gain_v = gains[v]
        self._cut -= gain_v
        for j in self._vtx_nets[v]:
            c = costs[j]
            f = count_from[j] - 1
            t = count_to[j]
            if t == 0:  # the net turns cut: every other pin gains c
                net = net_pins[j]
                for u in net:  # v's own entry is overwritten below
                    gains[u] += c
                changed += net
            elif t == 1:  # the lone pin on the target side can no longer uncut it
                u = idsum_to[j]
                gains[u] -= c
                changed.append(u)
            count_from[j] = f
            count_to[j] = t + 1
            idsum_from[j] -= v
            idsum_to[j] += v
            if f == 0:  # the net turns uncut: every other pin loses c
                net = net_pins[j]
                for u in net:
                    gains[u] -= c
                changed += net
            elif f == 1:  # the one pin left behind can now uncut it
                u = idsum_from[j]
                gains[u] += c
                changed.append(u)
        side[v] = ov
        gains[v] = -gain_v
        return changed


# ---------------------------------------------------------------------------
# bisection driver


def _grow_bfs(engine, weights: np.ndarray, rng, min_count: int, target: float) -> np.ndarray:
    """Side 0 grown from a seeded vertex until its weight is closest to
    target; everything else on side 1.

    Visits jump to the lowest unvisited vertex when a component is
    exhausted (a pointer that only moves up finds it). The state is kept
    in Python lists; only the result is an array.
    """
    n = len(weights)
    weight_of = weights.tolist()
    side = [1] * n
    visited = [False] * n
    seed = int(rng.integers(0, n))
    queue = deque([seed])
    visited[seed] = True
    lowest = 0  # every vertex below it is visited
    acc = 0.0
    taken = 0
    while True:
        if not queue:
            while lowest < n and visited[lowest]:
                lowest += 1
            if lowest == n:
                break
            queue.append(lowest)
            visited[lowest] = True
        v = queue.popleft()
        w = weight_of[v]
        closer = abs(acc + w - target) < abs(acc - target)
        if not closer and taken >= min_count:
            break
        side[v] = 0
        acc += w
        taken += 1
        for u in engine.neighbors(v):
            if not visited[u]:
                visited[u] = True
                queue.append(u)
        if taken >= n - min_count:
            break
    return np.array(side, dtype=np.int8)


def _repair_sides(side, weights, cap, min_count) -> None:
    """Shift weight off the heavy side while either side exceeds the cap.

    Each move picks the heavy-side vertex whose weight is closest to half
    the imbalance (ties to the lower id), which strictly reduces the
    heavier side. Best effort: stops when no single move helps (the final
    k-way repair and balance check decide whether that was fatal).
    """
    w = [float(weights[side == 0].sum()), float(weights[side == 1].sum())]
    while max(w) > cap:
        heavy = 0 if w[0] >= w[1] else 1
        members = np.flatnonzero(side == heavy)
        if len(members) <= min_count:
            return
        diff = w[heavy] - w[1 - heavy]
        # any 0 < w(v) < diff reduces the heavy side without flipping roles
        score = np.abs(weights[members] - diff / 2.0)
        v = int(members[np.lexsort((members, score))][0])
        if not (0 < weights[v] < diff):
            return
        side[v] = 1 - heavy
        w[heavy] -= weights[v]
        w[1 - heavy] += weights[v]


def _weight_classes(weights: np.ndarray) -> tuple[list[float], list[int]]:
    """Each vertex weight rounded down to its leading WEIGHT_CLASS_BITS bits,
    as ascending class floors and a class id per vertex.

    Weights below 2**WEIGHT_CLASS_BITS keep one class each; above that a
    class spans at most a quarter of its floor (four classes per doubling),
    so the number of classes grows with the log of the weight range, not
    with the count of distinct (coarse) weights."""
    bits = np.frexp(weights)[1]  # bit length of each (integer) weight
    shift = np.maximum(bits - WEIGHT_CLASS_BITS, 0)
    floors, class_of = np.unique((weights.astype(np.int64) >> shift) << shift, return_inverse=True)
    return floors.astype(np.float64).tolist(), class_of.tolist()


def _fm_passes(engine, weights, cap, min_count, max_passes: int) -> None:
    """Best-gain passes with rollback to the best balanced prefix.

    Each step moves the unlocked vertex of highest gain (lowest id on ties)
    whose side keeps at least one other vertex and whose target side stays
    within cap_move. Moves may overshoot the cap by one vertex weight
    mid-pass (the classic loosening; a strictly capped balanced split would
    admit no move at all), but only prefixes meeting the cap and the side
    minimum count are eligible as pass results, so each pass ends balanced
    and never above its starting cut. A pass ends after max(100, n // 20)
    moves without a new best prefix.

    Candidates sit in lazy min-heaps of (-gain, id), one per (side, weight
    class); after each move, every unlocked vertex whose gain it changed
    gets one fresh entry (a per-pass stamp list drops the repeats that
    engine.move reports). A step walks each side's classes in ascending
    floor while the floor fits the target side, drops stale tops (locked,
    or a gain changed since the push), skips a class whose valid top does
    not fit, and takes the least top over the rest. While every class holds
    one weight (all weights below 2**WEIGHT_CLASS_BITS) that is exactly the
    highest legal gain.

    The moves past the best prefix are undone by one engine.assign().
    Vertex weights and net costs are integers in every model here, so the
    float64 sums it rebuilds equal the incremental ones exactly.
    """
    n = engine.n
    window = max(100, n // 20)
    side_arr = engine.side
    side_w = [float(weights[side_arr == 0].sum()), float(weights[side_arr == 1].sum())]
    side_n = [int((side_arr == 0).sum()), int((side_arr == 1).sum())]
    cap_move = max(cap, (side_w[0] + side_w[1]) / 2.0 + float(weights.max(initial=0.0)))
    weight_of = weights.tolist()
    floors, class_of = _weight_classes(weights)
    move = engine.move
    locked = n + 1  # a stamp above every move number of a pass

    for _ in range(max_passes):
        start_cut = best_cut = engine._cut
        best_len = count = 0
        limit = window
        best_w, best_n = side_w[:], side_n[:]
        moves: list[int] = []
        # stamp[u] is the number of the last move that pushed u, or `locked`
        stamp = [0] * n
        gains = engine.gains
        side = engine._side  # unlocked vertices keep their side all pass
        heaps = [[[] for _ in floors] for _ in (0, 1)]
        home = [heaps[s][c] for s, c in zip(side, class_of)]
        for v, g in enumerate(gains):
            home[v].append((-g, v))
        for heap in heaps[0] + heaps[1]:
            heapify(heap)
        classes = [list(zip(floors, heaps[0])), list(zip(floors, heaps[1]))]
        while count < limit:
            best = None
            for s in (0, 1):
                if side_n[s] < 2:
                    continue
                room = cap_move - side_w[1 - s]
                for floor, heap in classes[s]:
                    if floor > room:
                        break
                    while heap:
                        key, u = top = heap[0]
                        if stamp[u] == locked or key != -gains[u]:
                            heappop(heap)
                            continue
                        if weight_of[u] <= room and (best is None or top < best):
                            best = top
                        break
            if best is None:
                break
            v = best[1]
            s, w = side[v], weight_of[v]
            stamp[v] = locked
            count += 1
            for u in move(v):
                if stamp[u] < count:
                    stamp[u] = count
                    heappush(home[u], (-gains[u], u))
            side_w[s] -= w
            side_w[1 - s] += w
            side_n[s] -= 1
            side_n[1 - s] += 1
            moves.append(v)
            cut = engine._cut
            if cut < best_cut - 1e-9 and max(side_w) <= cap and min(side_n) >= min_count:
                best_cut = cut
                best_len = count
                limit = count + window
                best_w, best_n = side_w[:], side_n[:]
        if count > best_len:
            side_w, side_n = best_w, best_n
            best_side = side[:]
            for v in moves[best_len:]:
                best_side[v] = 1 - best_side[v]
            engine.assign(best_side)
        if not (best_cut < start_cut - 1e-9):
            break


# ---------------------------------------------------------------------------
# coarsening


def _select_nets(h: Hypergraph, which: np.ndarray, costs: np.ndarray) -> Hypergraph:
    """Nets `which`, in that order, with new costs."""
    starts = h.offsets[which]
    sizes = h.offsets[which + 1] - starts
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return Hypergraph(h.n_vertices, offsets, h.pins[ranges(starts, sizes)], costs, h.vertex_weight)


def _merge_identical_nets(h: Hypergraph) -> Hypergraph:
    """Drop nets with fewer than two pins and merge nets whose (sorted) pin
    lists are equal into one net carrying their summed cost. Both are exact
    for the connectivity-1 cut of every split.

    Nets are grouped by size, then refined one pin position at a time;
    step k regroups the nets with more than k pins by (group, k-th pin).
    The merged nets come out in group order."""
    sizes = h.net_sizes()
    cuttable = np.flatnonzero(sizes >= 2)
    h = _select_nets(h, cuttable, h.net_cost[cuttable])
    sizes = sizes[cuttable]
    _, group = np.unique(sizes, return_inverse=True)
    top = sizes.max(initial=0)
    order = stable_argsort(top - sizes, top + 1)  # descending size, stable
    longer = len(sizes) - np.cumsum(np.bincount(sizes))  # nets with more than k pins
    fresh = len(sizes)  # regrouped nets take ids above every id in use
    for k, m in enumerate(longer[:-1]):
        idx = order[:m]
        _, regroup = np.unique(group[idx] * h.n_vertices + h.pins[h.offsets[idx] + k],
                               return_inverse=True)
        group[idx] = fresh + regroup
        fresh += m
    _, first, merged = np.unique(group, return_index=True, return_inverse=True)
    return _select_nets(h, first, np.bincount(merged, weights=h.net_cost))


def _match(h: Hypergraph, max_w: float, rng) -> np.ndarray:
    """Heavy-connectivity matching: cluster id per vertex.

    Vertices are visited in a seeded order; an unmatched vertex u pairs
    with the unmatched neighbour v of highest rating (lowest id on ties)
    among those keeping the pair's weight within max_w. The rating is the
    connectivity, the sum of cost / (|net| - 1) over their shared nets,
    divided by w(u) * w(v), so that light vertices pair first and cluster
    weights stay even (the heavy-edge rating of KaHyPar, Schlag et al.,
    ALENEX 2016). Nets of more than MATCH_NET_LIMIT pins are ignored here:
    they add quadratically many pairs and hardly any connectivity. Cluster
    ids ascend with each cluster's least vertex.

    Each vertex's candidates are ordered by one sort of a unique int64 key
    (u, rank of -rating among the distinct ratings, v's place among u's
    candidates), the order a three-key lexsort by (u, -rating, v) gives."""
    n = h.n_vertices
    weights = h.vertex_weight.astype(np.float64)
    sizes = h.net_sizes()
    net_of_pin = h.net_of_pin()
    reps = np.where(sizes <= MATCH_NET_LIMIT, sizes, 0)[net_of_pin]
    a = np.repeat(np.arange(len(h.pins)), reps)  # every (pin, pin of its net)
    b = np.repeat(h.offsets[net_of_pin], reps) + ranges(0, reps)
    a, b = a[a != b], b[a != b]
    u, v = h.pins[a], h.pins[b]
    fits = weights[u] + weights[v] <= max_w
    score = (h.net_cost / np.maximum(sizes - 1, 1))[net_of_pin[a[fits]]]
    pair, merged = np.unique(u[fits] * n + v[fits], return_inverse=True)
    u, v = pair // n, pair % n
    score = np.bincount(merged, weights=score) / (weights[u] * weights[v])
    # pairs ascend by u, then v, so slot ascends with v among u's candidates
    ratings, rank = np.unique(-score, return_inverse=True)
    starts = np.searchsorted(u, np.arange(n + 1))
    width = int(np.diff(starts).max(initial=0))
    check_key_range(n, len(ratings), width)
    slot = np.arange(len(u)) - starts[u]
    cand = v[np.argsort((u * len(ratings) + rank) * width + slot)].tolist()
    starts = starts.tolist()
    mate = list(range(n))
    matched = [False] * n
    for x in rng.permutation(n).tolist():
        if matched[x]:
            continue
        matched[x] = True
        for y in cand[starts[x] : starts[x + 1]]:
            if not matched[y]:
                matched[y] = True
                mate[x], mate[y] = y, x
                break
    _, cluster_of = np.unique(np.minimum(np.arange(n), mate), return_inverse=True)
    return cluster_of


def _contract(h: Hypergraph, cluster_of: np.ndarray) -> Hypergraph:
    """The hypergraph over clusters: pins renamed, repeated pins dropped,
    then single-pin nets dropped and identical nets merged; a cluster
    weighs the sum of its vertices."""
    n_coarse = int(cluster_of.max()) + 1
    pin_key = unique_keys(h.net_of_pin() * n_coarse + cluster_of[h.pins])
    sizes = np.bincount(pin_key // n_coarse, minlength=h.n_nets)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    weights = np.bincount(cluster_of, weights=h.vertex_weight, minlength=n_coarse)
    return _merge_identical_nets(
        Hypergraph(n_coarse, offsets, pin_key % n_coarse, h.net_cost, weights.astype(np.int64))
    )


# ---------------------------------------------------------------------------
# multilevel bisection


def _initial_split(h: Hypergraph, cap, min_count, rng) -> np.ndarray:
    """The best of RESTARTS seeded BFS splits, each repaired and refined:
    a balanced split beats an unbalanced one, then the lowest cut wins."""
    weights = h.vertex_weight.astype(np.float64)
    total = float(weights.sum())
    engine = HypergraphBisection(h, np.ones(h.n_vertices, dtype=np.int8))
    best_side = None
    best_key = None
    for _ in range(RESTARTS):
        side = _grow_bfs(engine, weights, rng, min_count, total / 2.0)
        _repair_sides(side, weights, cap, min_count)
        engine.assign(side)
        _fm_passes(engine, weights, cap, min_count, FM_PASSES)
        w0 = float(weights[engine.side == 0].sum())
        unbalanced = max(w0, total - w0) > cap
        key = (unbalanced, engine.cut())
        if best_key is None or key < (best_key[0], best_key[1] - 1e-9):
            best_side = engine.side
            best_key = key
    return best_side


def _bisect(h: Hypergraph, cap: float, min_count: int, rng) -> np.ndarray:
    """Side per vertex of one bisection by a multilevel V-cycle.

    Coarsen by matching until about COARSEN_TO vertices remain, a level
    keeps more than MIN_SHRINK of its vertices or no two vertices fit in
    one cluster; split the coarsest level;
    then project the split onto each finer level and refine it with FM.
    A cluster weighs at most 2 * cap - total, the width of the window of
    balanced side weights (or the heaviest vertex, if that is more), so a
    balanced split stays reachable on every level by filling one side
    cluster by cluster."""
    max_w = max(float(h.vertex_weight.max()), 2.0 * cap - float(h.vertex_weight.sum()))
    levels = [(h, None)]
    while h.n_vertices > COARSEN_TO:
        lightest = np.partition(h.vertex_weight.astype(np.float64), 1)
        if lightest[0] + lightest[1] > max_w:
            # _match would pair nothing; its visit order is still drawn so
            # that the rng stream, and every split after this one, stay put
            rng.permutation(h.n_vertices)
            break
        cluster_of = _match(h, max_w, rng)
        n_coarse = int(cluster_of.max()) + 1
        if n_coarse > MIN_SHRINK * h.n_vertices:
            break
        h = _contract(h, cluster_of)
        levels.append((h, cluster_of))
    side = _initial_split(h, cap, min_count, rng)
    for (h, _), (_, cluster_of) in zip(levels[-2::-1], levels[:0:-1]):
        engine = HypergraphBisection(h, side[cluster_of])
        _fm_passes(engine, h.vertex_weight.astype(np.float64), cap, min_count, FM_PASSES)
        side = engine.side
    return side


def _side_cap(weights: np.ndarray, p_sub: int, cap_leaf: float) -> float:
    """The weight cap of each side when splitting toward p_sub parts.

    A side's true leaf budget is (p_sub / 2) * cap_leaf. Its ratio r to
    half the weight is spread evenly over the log2(p_sub) bisections still
    to come: this one may use r ** (1 / log2(p_sub)) and leaves the rest as
    slack for the sides' own splits (where a split that used all of r
    would leave its children none, so no clusters and no moves but exact
    halves). At p_sub = 2 it is the true budget."""
    half = float(weights.sum()) / 2.0
    budget = (p_sub // 2) * cap_leaf
    if budget <= half:
        return budget
    return half * (budget / half) ** (1.0 / (p_sub.bit_length() - 1))


def _recursive_bisect(
    ids: np.ndarray, h: Hypergraph, p_sub: int, part_base: int, assignment, cap_leaf, rng
) -> None:
    """Split global vertices `ids` into p_sub parts; `h` is the hypergraph
    they induce, renumbered 0..len(ids)-1."""
    if p_sub == 1:
        assignment[ids] = part_base
        return
    if len(ids) < p_sub:
        raise BalanceInfeasibleError("fewer vertices than parts in a bisection")
    side = _bisect(h, _side_cap(h.vertex_weight, p_sub, cap_leaf), p_sub // 2, rng)
    for s, base in ((0, part_base), (1, part_base + p_sub // 2)):
        keep = np.flatnonzero(side == s)
        _recursive_bisect(ids[keep], _restrict(h, keep), p_sub // 2, base, assignment,
                          cap_leaf, rng)


def _final_repair(assignment, weights, p: int, epsilon: float) -> np.ndarray:
    """Greedy k-way weight repair; raises BalanceInfeasibleError if balance
    stays infeasible.

    Empty parts are filled first, each with the lightest vertex of a part
    that keeps another. Then, while a part is above the cap, it applies the
    first move that strictly lowers the total overweight (delta_violation <
    0): over-cap parts heaviest first, their vertices lightest first,
    target parts lightest first, ties to the lower id throughout; if no
    single move helps, the first such exchange of a heavy vertex of an
    over-cap part for a lighter one elsewhere.

    The first candidate (the heaviest part's lightest vertex to the
    lightest part) almost always wins, for O(p) Python work and one heap
    step: part weights and counts are Python numbers, and each part's
    vertices come in (weight, id) order from one sort, read through a
    cursor that skips vertices that left, plus a heap of vertices that
    arrived. When it is not legal (a one-vertex part, the part itself as
    target, or no lower overweight), the full search runs."""
    assignment = assignment.copy()
    weights = np.asarray(weights, dtype=np.int64)
    pw = np.bincount(assignment, weights=weights.astype(np.float64), minlength=p)
    counts = np.bincount(assignment, minlength=p)
    cap = balance_cap(weights.sum(), p, epsilon)

    # every part must end non-empty
    while (counts == 0).any():
        empty = int(np.argmax(counts == 0))
        movable = np.flatnonzero(counts[assignment] >= 2)
        if len(movable) == 0:
            raise BalanceInfeasibleError("cannot populate every part")
        v = int(movable[np.lexsort((movable, weights[movable]))][0])
        counts[assignment[v]] -= 1
        pw[assignment[v]] -= weights[v]
        assignment[v] = empty
        counts[empty] += 1
        pw[empty] += weights[v]

    parts = range(p)
    part_w, size, weight_of = pw.tolist(), counts.tolist(), weights.tolist()
    # part m's vertices at the start are listed[cursor[m]:ends[m]], by (weight, id):
    # one stable sort of the key part * span + weight - low
    low = int(weights.min())
    span = int(weights.max()) - low + 1
    check_key_range(p, span)
    listed = stable_argsort(assignment * span + (weights - low), p * span).tolist()
    ends = np.cumsum(counts)
    cursor, ends = (ends - counts).tolist(), ends.tolist()
    stamp = [0] * len(weight_of)  # the number of the move that last placed a vertex
    arrived = [[] for _ in parts]  # per part, a heap of (weight, id, stamp)
    moves = itertools.count(1)

    def place(v: int, t: int) -> None:
        stamp[v] = k = next(moves)
        heappush(arrived[t], (weight_of[v], v, k))
        assignment[v] = t

    def lightest(m: int) -> int:
        """m's vertex of least (weight, id)."""
        i, end = cursor[m], ends[m]
        while i < end and stamp[listed[i]]:
            i += 1
        cursor[m] = i
        heap = arrived[m]
        while heap and stamp[heap[0][1]] != heap[0][2]:
            heappop(heap)
        if i < end and not (heap and heap[0] < (weight_of[listed[i]], listed[i])):
            return listed[i]
        return heap[0][1]

    def members(m: int) -> list[int]:
        """m's vertices in (weight, id) order."""
        stay = [v for v in listed[cursor[m] : ends[m]] if not stamp[v]]
        came = [v for _, v, k in arrived[m] if stamp[v] == k]
        return sorted(stay + came, key=lambda v: (weight_of[v], v))

    def delta_violation(m: int, t: int, shift: float) -> float:
        """Violation change when `shift` weight leaves part m for part t. A
        part that stays above the cap changes by exactly the shift, so a move
        between two such parts is no gain, without rounding."""
        dm = max(part_w[m] - shift, cap) - max(part_w[m], cap)
        dt = max(part_w[t] + shift, cap) - max(part_w[t], cap)
        return dm + dt

    def move(v: int, m: int, t: int) -> None:
        part_w[m] -= weight_of[v]
        part_w[t] += weight_of[v]
        size[m] -= 1
        size[t] += 1
        place(v, t)

    def search() -> bool:
        """Apply the first improving move in full order, else the first
        improving exchange (for chunky weights where single moves are
        stuck): heaviest vertices of over-cap parts first, each for a
        lighter vertex of a target part, lightest first."""
        over = sorted((m for m in parts if part_w[m] > cap), key=lambda m: -part_w[m])
        targets = sorted(parts, key=part_w.__getitem__)
        group = cache(members)
        for m in over:
            if size[m] < 2:
                continue
            for v in group(m):
                for t in targets:
                    if t != m and delta_violation(m, t, float(weight_of[v])) < 0:
                        move(v, m, t)
                        return True
        for m in over:
            for v in sorted(group(m), key=lambda v: (-weight_of[v], v)):
                for t in targets:
                    if t == m:
                        continue
                    for u in group(t):
                        shift = weight_of[v] - weight_of[u]
                        if shift <= 0:
                            break
                        if delta_violation(m, t, float(shift)) < 0:
                            part_w[m] -= shift
                            part_w[t] += shift
                            place(v, t)
                            place(u, m)
                            return True
        return False

    while True:
        m = max(parts, key=part_w.__getitem__)
        if not part_w[m] > cap:
            return assignment
        t = min(parts, key=part_w.__getitem__)
        if size[m] >= 2 and t != m:
            v = lightest(m)
            if delta_violation(m, t, float(weight_of[v])) < 0:
                move(v, m, t)
                continue
        if not search():
            raise BalanceInfeasibleError("balance repair cannot make progress")


def require_power_of_two(p: int) -> None:
    if p & (p - 1):
        raise ValueError(
            f"internal partitioners use recursive bisection and need p to be a "
            f"power of two (got {p}); use an external partition file for other p"
        )


def random_partition(weights, cfg: PartitionConfig) -> Partition:
    """Seeded uniform assignment plus greedy weight repair."""
    weights = np.asarray(weights, dtype=np.int64)
    n = len(weights)
    if cfg.p > n:
        raise ValueError(f"p={cfg.p} exceeds vertex count {n}")
    if cfg.p == 1:
        return Partition.from_assignment(np.zeros(n, dtype=np.int64), weights, 1, cfg.epsilon)
    rng = np.random.default_rng([int(cfg.seed), 0x5250])
    assignment = rng.integers(0, cfg.p, size=n).astype(np.int64)
    assignment = _final_repair(assignment, weights, cfg.p, cfg.epsilon)
    return Partition.from_assignment(assignment, weights, cfg.p, cfg.epsilon)


def _partition_by_bisection(h: Hypergraph, cfg: PartitionConfig, tag: int) -> Partition:
    n = h.n_vertices
    if cfg.p > n:
        raise ValueError(f"p={cfg.p} exceeds vertex count {n}")
    weights = h.vertex_weight
    if cfg.p == 1:
        return Partition.from_assignment(np.zeros(n, dtype=np.int64), weights, 1, cfg.epsilon)
    require_power_of_two(cfg.p)
    cap_leaf = balance_cap(weights.sum(), cfg.p, cfg.epsilon)
    rng = np.random.default_rng([int(cfg.seed), tag])
    assignment = np.full(n, -1, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    _recursive_bisect(ids, _restrict(h, ids), cfg.p, 0, assignment, cap_leaf, rng)
    pi = Partition.from_assignment(assignment, weights, cfg.p, cfg.epsilon)
    if not pi.is_balanced():
        assignment = _final_repair(assignment, weights, cfg.p, cfg.epsilon)
        pi = Partition.from_assignment(assignment, weights, cfg.p, cfg.epsilon)
        if not pi.is_balanced():
            raise BalanceInfeasibleError("partition violates the balance constraint")
    return pi


def partition_graph_fm(g: Hypergraph, cfg: PartitionConfig) -> Partition:
    """Recursive bisection minimizing the edge cut of the graph model, which
    is the connectivity-1 cut of its 2-pin nets."""
    return _partition_by_bisection(g, cfg, 0x4750)


def partition_hypergraph_fm(h: Hypergraph, cfg: PartitionConfig) -> Partition:
    """Recursive bisection minimizing the connectivity-1 cut."""
    return _partition_by_bisection(h, cfg, 0x4850)


def partition_stochastic(
    a: CsrMatrix, sampler: MiniBatchSpec, b: int, cfg: PartitionConfig
) -> Partition:
    """Partition the merged hypergraph of b sampled batches (SHP).

    Vertices that no batch sampled carry no nets and are placed by weight
    alone.
    """
    if b < 1:
        raise ValueError("stochastic partitioning needs at least one batch")
    merged = build_stochastic_hypergraph(a, sampler, b, cfg.seed)
    return partition_hypergraph_fm(merged, cfg)
