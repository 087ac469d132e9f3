"""Independent set solver tests against brute-force subset enumeration."""

import math
import random

import networkx as nx
import numpy as np
import pytest

from turanpin.graphs import (
    Graph,
    complete_bipartite,
    components,
    cycle_graph,
    is_triangle_free,
    iter_bits,
    path_graph,
    star_graph,
)
from turanpin.bounds import shearer_floor
from turanpin.randmodels import derive_rng, triangle_free_process
from turanpin.mis import (
    DEFAULT_NODE_BUDGET,
    MisResult,
    _min_degree_greedy,
    clique_cover_bound,
    greedy_independent_set,
    max_independent_set,
)


def brute_alpha(g):
    """Exhaustive check of all 2^n subsets, vectorized over numpy."""
    n = g.n
    if n == 0:
        return 0
    masks = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(1 << n, dtype=bool)
    for v in range(n):
        has_v = (masks >> v) & 1 == 1
        hits_nbr = (masks & np.uint32(g.adj[v])) != 0
        ok &= ~(has_v & hits_nbr)
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n):
        sizes += ((masks >> v) & 1).astype(np.uint8)
    return int(sizes[ok].max())


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def reference_greedy(adj, cand, tie_break):
    """Min-degree greedy that recounts every candidate's degree on each pick."""
    mask = 0
    while cand:
        verts = list(iter_bits(cand))
        degs = [(adj[v] & cand).bit_count() for v in verts]
        dmin = min(degs)
        ties = [v for v, d in zip(verts, degs) if d == dmin]
        v = ties[tie_break(len(ties))]
        mask |= 1 << v
        cand &= ~((1 << v) | adj[v])
    return mask


def reference_mis(g, budget):
    """The branch and bound that rescans for degree <= 1 vertices after every take.

    Returns the ``MisResult`` fields as a tuple.
    """
    adj = g.adj
    nodes = 0
    exhausted = False
    total_size = total_mask = 0
    for comp in components(g):
        best_mask = reference_greedy(adj, comp, lambda k: 0)
        best_size = best_mask.bit_count()
        stack = [(comp, 0, 0)]
        while stack:
            if nodes >= budget:
                exhausted = True
                break
            cand, cur_size, cur_mask = stack.pop()
            nodes += 1
            while cand:
                again = False
                scan = cand
                while scan:
                    low = scan & -scan
                    scan ^= low
                    nb = adj[low.bit_length() - 1] & cand
                    k = nb.bit_count()
                    if k == 0:
                        cand ^= low
                        cur_mask |= low
                        cur_size += 1
                    elif k == 1:
                        cand &= ~(low | nb)
                        cur_mask |= low
                        cur_size += 1
                        again = True
                        break
                if not again:
                    break
            if not cand:
                if cur_size > best_size:
                    best_size, best_mask = cur_size, cur_mask
                continue
            if cur_size + clique_cover_bound(adj, cand) <= best_size:
                continue
            v = max(iter_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
            bit = 1 << v
            stack.append((cand ^ bit, cur_size, cur_mask))
            stack.append((cand & ~(bit | adj[v]), cur_size + 1, cur_mask | bit))
        total_size += best_size
        total_mask |= best_mask
    upper = clique_cover_bound(adj, (1 << g.n) - 1) if exhausted else total_size
    return (total_size, total_mask, not exhausted, nodes, exhausted, upper)


def reference_corpus(seed, count):
    """Random graphs with n < 40: dense ones with triangles, sparse ones with many components."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, 40)
        p = rng.random() if rng.random() < 0.5 else rng.uniform(0, 0.15)
        yield random_graph(n, p, rng)


PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    + [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


class TestExactSolver:
    def test_c5(self):
        r = max_independent_set(cycle_graph(5))
        assert r.size == 2 and r.exact and not r.budget_exhausted

    def test_empty(self):
        for n in (0, 1, 6, 40):
            r = max_independent_set(Graph.empty(n))
            assert r.size == n and r.exact

    def test_petersen(self):
        # alpha known to be 4; confirmed by the brute oracle too
        r = max_independent_set(PETERSEN)
        assert r.size == 4 and r.exact
        assert brute_alpha(PETERSEN) == 4

    def test_agrees_with_brute_force_corpus(self):
        rng = random.Random(1601)
        for i in range(200):
            n = rng.randrange(1, 17)
            g = random_graph(n, rng.random(), rng)
            r = max_independent_set(g)
            assert r.exact
            assert r.size == brute_alpha(g), f"instance {i}"

    def test_witness_is_independent_and_sized(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_graph(rng.randrange(1, 14), rng.random(), rng)
            r = max_independent_set(g)
            assert r.witness.bit_count() == r.size
            for v in iter_bits(r.witness):
                assert g.adj[v] & r.witness == 0

    def test_result_interval(self):
        r = max_independent_set(cycle_graph(9))
        assert r.as_interval() == (4, 4)


class TestBudget:
    def test_exhaustion_brackets_truth(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randrange(4, 15)
            g = random_graph(n, rng.uniform(0.1, 0.5), rng)
            truth = brute_alpha(g)
            r = max_independent_set(g, budget=rng.randrange(1, 5))
            assert r.size <= truth <= r.upper_bound
            assert r.witness.bit_count() == r.size

    def test_exhaustion_is_flagged_not_raised(self):
        r = max_independent_set(cycle_graph(7), budget=1)
        assert r.budget_exhausted and not r.exact
        assert r.nodes_explored == 1

    def test_nodes_explored_counted(self):
        r = max_independent_set(PETERSEN)
        assert 0 < r.nodes_explored <= 10_000

    def test_exhausted_count_equals_budget(self):
        g = random_graph(60, 0.1, random.Random(5))
        r = max_independent_set(g, budget=50)  # the full search takes 99 nodes
        assert r.budget_exhausted and r.nodes_explored == 50

    def test_exhaustion_leaves_later_components_at_greedy_seed(self):
        # lowest-index min-degree greedy takes 2 vertices of `small`; alpha is 3
        small = [(0, 1), (0, 5), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5)]
        big = random_graph(40, 0.15, random.Random(6))  # connected, 59 search nodes
        edges = list(big.edges()) + [(u + off, v + off) for off in (40, 46) for u, v in small]
        g = Graph.from_edges(52, edges)
        assert len(components(g)) == 3
        full = max_independent_set(g)
        r = max_independent_set(g, budget=20)
        assert full.exact and r.budget_exhausted and r.nodes_explored == 20
        for off in (40, 46):
            comp = 0b111111 << off
            assert (full.witness & comp).bit_count() == 3
            assert (r.witness & comp).bit_count() == 2


def exhaustive_alpha(g):
    """Alpha by plain take-or-drop branching, memoised on the candidate set; no bounds."""
    adj = g.adj
    memo = {0: 0}

    def alpha(cand):
        if cand not in memo:
            v = max(iter_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
            nb = adj[v] & cand
            take = 1 + alpha(cand & ~((1 << v) | nb))
            # a vertex of degree <= 1 is in some maximum set
            memo[cand] = take if nb.bit_count() <= 1 else max(take, alpha(cand & ~(1 << v)))
        return memo[cand]

    return alpha((1 << g.n) - 1)


def same_tree_corpus():
    # long degree-1 chains exercise the peel order; padding adds components
    extra = [cycle_graph(31, n=40), path_graph(25).padded(33), PETERSEN.padded(14)]
    return [*reference_corpus(4104, 400), *extra]


class TestSameSearchTree:
    """The matching bound prunes other nodes than the reference's clique cover, on the same branching.

    So a search that finishes keeps the reference's set and witness, and
    one that runs out of budget still brackets alpha.
    """

    def test_matches_rescanning_reference(self):
        triangles = split = 0
        for g in same_tree_corpus():
            triangles += not is_triangle_free(g)
            split += len(components(g)) > 1
            r = max_independent_set(g)
            assert (r.size, r.witness, r.exact) == reference_mis(g, DEFAULT_NODE_BUDGET)[:3], g.adj
        assert triangles >= 50 and split >= 50

    def test_small_budgets_bracket_alpha(self):
        for g in same_tree_corpus():
            alpha = exhaustive_alpha(g)
            cover = clique_cover_bound(g.adj, (1 << g.n) - 1)
            for budget in (1, 2, 3, 7, 50):
                r = max_independent_set(g, budget)
                assert r.size <= alpha <= r.upper_bound, (g.adj, budget)
                assert r.witness.bit_count() == r.size
                assert all(g.adj[v] & r.witness == 0 for v in iter_bits(r.witness))
                assert r.nodes_explored <= budget and r.exact != r.budget_exhausted
                if r.exact:
                    assert r.size == r.upper_bound == alpha
                else:
                    assert r.upper_bound <= cover  # never wider than the cover alone

    def test_exhausted_bound_uses_root_matching(self):
        # a relabelled 9-cycle: the greedy cover has 6 cliques, |C9| - nu = 5
        perm = [5, 2, 7, 1, 8, 4, 3, 6, 0]
        g = Graph.from_edges(9, [(perm[i], perm[(i + 1) % 9]) for i in range(9)])
        assert clique_cover_bound(g.adj, (1 << 9) - 1) == 6
        r = max_independent_set(g, budget=1)
        assert r.budget_exhausted and r.as_interval() == (4, 5)

    def test_triangle_free_alpha_matches_networkx(self):
        for s in range(60):
            n = 10 + s % 31
            g = triangle_free_process(n, (7 * s) % (2 * n) + 5, derive_rng(77, s)).graph
            h = nx.empty_graph(n)
            h.add_edges_from(g.edges())
            clique, size = nx.max_weight_clique(nx.complement(h), weight=None)  # alpha = omega(complement)
            r = max_independent_set(g)
            assert r.exact and r.size == size == len(clique), s


class TestCliqueCover:
    def test_upper_bounds_alpha(self):
        rng = random.Random(4)
        for _ in range(150):
            g = random_graph(rng.randrange(1, 13), rng.random(), rng)
            assert clique_cover_bound(g.adj, (1 << g.n) - 1) >= brute_alpha(g)

    def test_empty_graph(self):
        assert clique_cover_bound(Graph.empty(5).adj, 0b11111) == 5


class TestGreedy:
    def test_empty_takes_everything(self):
        rng = np.random.default_rng(0)
        assert greedy_independent_set(Graph.empty(4), rng) == 0b1111

    def test_bipartite_takes_large_side(self):
        # min-degree rule always starts on the bigger side and keeps it
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = greedy_independent_set(complete_bipartite(3, 2), rng)
            assert m == 0b00111

    def test_c5_maximal_sets_have_size_two(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert greedy_independent_set(cycle_graph(5), rng).bit_count() == 2

    def test_output_is_maximal_independent(self):
        pyrng = random.Random(7)
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_graph(pyrng.randrange(1, 15), pyrng.random(), pyrng)
            m = greedy_independent_set(g, rng)
            for v in iter_bits(m):
                assert g.adj[v] & m == 0
            # maximality: every vertex outside sees the set
            for v in range(g.n):
                if not (m >> v) & 1:
                    assert g.adj[v] & m != 0


class TestGreedyMatchesReference:
    """The bucket greedy makes the rescanning greedy's picks and RNG draws."""

    def test_random_ties_same_mask_and_draws(self):
        seeds = random.Random(77)
        for g in reference_corpus(5, 400):
            seed = seeds.randrange(2**32)
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            mask = greedy_independent_set(g, ours)
            assert mask == reference_greedy(g.adj, (1 << g.n) - 1, lambda k: int(ref.integers(k)))
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_lowest_index_ties_on_subsets(self):
        rng = random.Random(8)
        for g in reference_corpus(6, 300):
            cand = rng.getrandbits(g.n) if g.n else 0
            assert _min_degree_greedy(g.adj, cand, lambda k: 0) == reference_greedy(g.adj, cand, lambda k: 0)


class TestShearerFloor:
    def test_anchor_values(self):
        assert shearer_floor(7, 0) == 7
        assert shearer_floor(8, 1) == 4.0

    def test_c5_value(self):
        assert shearer_floor(5, 2) == pytest.approx(5 * (2 * math.log(2) - 1), rel=1e-14)
        assert max_independent_set(cycle_graph(5)).size >= shearer_floor(5, 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            shearer_floor(5, -1)

    def test_floor_holds_on_triangle_free_corpus(self):
        # exact guarantee, no tolerance: alpha >= n * psi(2e/n) for triangle-free g
        rng = random.Random(9)
        done = 0
        while done < 150:
            n = rng.randrange(1, 15)
            g = random_graph(n, rng.uniform(0, 0.35), rng)
            if not is_triangle_free(g):
                continue
            done += 1
            r = max_independent_set(g)
            assert r.exact
            floor = shearer_floor(n, 2 * g.edge_count / n if n else 0)
            assert r.size >= floor or math.isclose(r.size, floor)

    def test_star_is_tightish(self):
        # stars have many leaves; the floor must stay below leaf count
        g = star_graph(9)
        floor = shearer_floor(10, 2 * 9 / 10)
        assert max_independent_set(g).size == 9 >= floor
