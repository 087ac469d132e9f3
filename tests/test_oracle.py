"""Oracle tests: brute-force cross-checks at tiny n, structural laws above."""

import itertools
import json
import random
import sys

import networkx as nx
import pytest

from turanpin.bounds import GammaUndefinedError, lower_bound, upper_bound
from turanpin.construct import pin_bipartite_completion
from turanpin.graphs import (
    Graph,
    count_cherries,
    cycle_graph,
    is_triangle_free,
    path_graph,
    star_graph,
    subgraph_of,
)
from turanpin.mis import max_independent_set
from turanpin.oracle import (
    BudgetExhaustedError,
    canonical_key,
    duplication_seed,
    enumerate_pinned,
    exact_ex,
    iter_worst_case_rows,
    worst_case_ex,
)


def brute_ex(p):
    """Max edges over all triangle-free supergraphs, by subset enumeration."""
    n = p.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    free = [e for e in pairs if not p.has_edge(*e)]
    best = -1
    for r in range(len(free), -1, -1):
        if p.edge_count + r <= best:
            break
        for combo in itertools.combinations(free, r):
            g = p.with_edges(combo)
            if is_triangle_free(g):
                best = max(best, g.edge_count)
                break
    return best


def random_triangle_free(n, rng, density=0.3):
    g = Graph.empty(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for e in pairs:
        if rng.random() < density:
            h = g.with_edges([e])
            if is_triangle_free(h):
                g = h
    return g


class TestExactValues:
    def test_mantel_baseline(self):
        for n in range(2, 11):
            r = exact_ex(Graph.empty(n))
            assert r.proved and r.value == (n * n) // 4

    def test_c5_is_maximal(self):
        r = exact_ex(cycle_graph(5))
        assert r.value == 5 and r.proved

    def test_star_k14_on_five(self):
        r = exact_ex(star_graph(4))
        assert r.value == 4 and r.proved

    def test_star_formula_above_half(self):
        # m(n - m) whenever the star center out-degrees the bipartite bound
        for n, m in [(7, 4), (8, 5), (9, 6), (9, 7)]:
            r = exact_ex(star_graph(m, n=n))
            assert r.proved and r.value == m * (n - m)

    def test_single_edge_n6(self):
        assert exact_ex(Graph.from_edges(6, [(0, 1)])).value == 9

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randrange(2, 7)
            p = random_triangle_free(n, rng)
            r = exact_ex(p)
            assert r.proved
            assert r.value == brute_ex(p)

    def test_brouwer_non_bipartite_values(self):
        # Brouwer (1981): a non-bipartite triangle-free graph on n >= 5
        # vertices has at most (n-1)^2/4 + 1 edges, attained by blowing up C5
        for n in (5, 6, 7, 10, 20, 40):
            r = exact_ex(cycle_graph(5, n=n), budget=3000)
            assert r.value == (n - 1) ** 2 // 4 + 1
            assert r.proved or n > 7

    def test_rejects_triangled_pin(self):
        with pytest.raises(ValueError):
            exact_ex(cycle_graph(3))


class TestWitness:
    def test_witness_attains_value(self):
        rng = random.Random(42)
        for _ in range(30):
            p = random_triangle_free(rng.randrange(2, 9), rng)
            r = exact_ex(p)
            assert r.witness.edge_count == r.value
            assert is_triangle_free(r.witness)
            assert subgraph_of(p, r.witness)

    def test_budget_exhaustion_keeps_validity(self):
        # a padded C7 needs 113 nodes to prove; a padded C5 meets Brouwer's cap at 0
        p = cycle_graph(7, n=10)
        r = exact_ex(p, budget=20)
        assert not r.proved and r.nodes == 20
        assert is_triangle_free(r.witness) and subgraph_of(p, r.witness)
        assert r.value == r.witness.edge_count
        full = exact_ex(p)
        assert full.proved and r.value <= full.value


class TestStructuralLaws:
    def test_value_at_least_pin_edges_and_maximality(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randrange(3, 8)
            p = random_triangle_free(n, rng)
            r = exact_ex(p)
            assert r.value >= p.edge_count
            maximal = all(
                not is_triangle_free(p.with_edges([(u, v)]))
                for u in range(n)
                for v in range(u + 1, n)
                if not p.has_edge(u, v)
            )
            assert (r.value == p.edge_count) == maximal

    def test_monotone_under_pin_growth(self):
        rng = random.Random(44)
        for _ in range(25):
            n = rng.randrange(3, 8)
            p = random_triangle_free(n, rng, density=0.2)
            extra = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not p.has_edge(u, v) and is_triangle_free(p.with_edges([(u, v)]))
            ]
            if not extra:
                continue
            bigger = p.with_edges([extra[rng.randrange(len(extra))]])
            assert exact_ex(p).value >= exact_ex(bigger).value

    def test_two_sided_bounds_respected(self):
        rng = random.Random(45)
        for _ in range(30):
            n = rng.randrange(4, 9)
            p = random_triangle_free(n, rng)
            r = exact_ex(p)
            alpha = max_independent_set(p).size
            assert r.value <= upper_bound(p, alpha)
            try:
                lb = lower_bound(p)
            except GammaUndefinedError:
                continue
            assert lb <= r.value + 1e-9

    def test_embedding_invariance(self):
        # pad the support into [n] two different labeled ways; values agree
        rng = random.Random(46)
        for _ in range(10):
            p = random_triangle_free(4, rng)
            direct = p.padded(7)
            shift = Graph.from_edges(7, [(u + 3, v + 3) for u, v in p.edges()])
            assert exact_ex(direct).value == exact_ex(shift).value


class TestSeeds:
    def test_duplication_preserves_structure(self):
        rng = random.Random(47)
        for _ in range(40):
            p = random_triangle_free(rng.randrange(2, 9), rng).padded(rng.randrange(9, 12))
            s = duplication_seed(p)
            assert is_triangle_free(s) and subgraph_of(p, s)

    def test_duplication_blows_up_cycle(self):
        # doubling all five vertices alone gives 20; compounding clones beat it
        p = cycle_graph(5, n=10)
        s = duplication_seed(p)
        assert s.edge_count >= 20
        assert is_triangle_free(s) and subgraph_of(p, s)


def atlas_triangle_free():
    """Every triangle-free graph of networkx's atlas (up to 7 vertices)."""
    for h in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        if is_triangle_free(g):
            yield h, g


def brute_bipartite_completion(p):
    """Max |L| * |R| over all vertex splits with no pin edge inside a side."""
    n = p.n
    best = 0
    for left in range(1 << n):
        if all((left >> u & 1) != (left >> v & 1) for u, v in p.edges()):
            best = max(best, left.bit_count() * (n - left.bit_count()))
    return best


class TestCaps:
    def check_completion(self, p, bipartite):
        g = pin_bipartite_completion(p)
        assert (g is None) == (not bipartite)
        if g is not None:
            assert subgraph_of(p, g) and is_triangle_free(g)
            assert g.edge_count == brute_bipartite_completion(p)

    def test_bipartite_completion_matches_brute_force(self):
        rng = random.Random(51)
        for _ in range(150):
            p = random_triangle_free(rng.randrange(1, 9), rng, density=rng.choice([0.1, 0.3, 0.6]))
            h = nx.Graph(list(p.edges()))
            h.add_nodes_from(range(p.n))
            self.check_completion(p, nx.is_bipartite(h))

    def test_bipartite_completion_on_atlas(self):
        for h, g in atlas_triangle_free():
            for n in (g.n, 8):
                self.check_completion(g.padded(n), nx.is_bipartite(h))

    def test_brouwer_cap_on_atlas(self):
        for h, g in atlas_triangle_free():
            if not nx.is_bipartite(h):
                assert g.edge_count <= (g.n - 1) ** 2 // 4 + 1

    def test_padded_c5_proved_at_zero_nodes(self):
        for n in range(5, 41):
            r = exact_ex(cycle_graph(5, n=n))
            assert r.proved and r.nodes == 0
            assert r.value == (n - 1) ** 2 // 4 + 1

    def test_six_edge_table_at_twelve_proved(self):
        r = worst_case_ex(6, 12, budget=100_000)
        assert len(r.rows) == 80 and all(row.proved for row in r.rows)

    def test_oracle_runs_no_mis_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("exact_ex ran an MIS search")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "turanpin":
                for fn in ("max_independent_set", "construct_admissible"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, forbidden)
        rng = random.Random(52)
        for _ in range(30):
            p = random_triangle_free(rng.randrange(2, 9), rng)
            r = exact_ex(p)
            assert r.proved and r.value == brute_ex(p)


class TestCanonicalKey:
    def test_permutation_invariant(self):
        rng = random.Random(49)
        for _ in range(60):
            n = rng.randrange(1, 9)
            g = random_triangle_free(n, rng, density=0.4)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_key(g) == canonical_key(h)

    def test_agrees_with_networkx_isomorphism(self):
        rng = random.Random(50)
        gs = [random_triangle_free(6, rng, density=0.35) for _ in range(40)]
        for a in gs:
            for b in gs:
                na = nx.Graph(list(a.edges()))
                na.add_nodes_from(range(a.n))
                nb = nx.Graph(list(b.edges()))
                nb.add_nodes_from(range(b.n))
                assert (canonical_key(a) == canonical_key(b)) == nx.is_isomorphic(na, nb)

    def test_component_size_guard(self):
        with pytest.raises(ValueError):
            canonical_key(path_graph(14))


class TestEnumerate:
    def brute_classes(self, m):
        # independent enumeration: all labeled graphs on <= 2m vertices with
        # <= m edges, filtered, deduplicated through networkx isomorphism
        found = []
        kmax = 2 * m
        pairs = [(u, v) for u in range(kmax) for v in range(u + 1, kmax)]
        for size in range(1, m + 1):
            for combo in itertools.combinations(pairs, size):
                g = Graph.from_edges(kmax, list(combo))
                if not is_triangle_free(g):
                    continue
                used = sorted({x for e in combo for x in e})
                relabel = {x: i for i, x in enumerate(used)}
                h = nx.Graph([(relabel[u], relabel[v]) for u, v in combo])
                if any(nx.is_isomorphic(h, f) for f in found):
                    continue
                found.append(h)
        return found

    def test_counts_against_independent_enumeration(self):
        for m in (1, 2, 3):
            got = list(enumerate_pinned(m))
            assert len(got) == len(self.brute_classes(m))

    def test_small_counts(self):
        assert len(list(enumerate_pinned(1))) == 1
        assert len(list(enumerate_pinned(2))) == 3
        assert len(list(enumerate_pinned(3))) == 7

    def test_yields_are_clean(self):
        reps = list(enumerate_pinned(5))
        for g in reps:
            assert is_triangle_free(g)
            assert 1 <= g.edge_count <= 5
            assert all(d > 0 for d in g.degrees())
        keys = [canonical_key(g) for g in reps]
        assert len(keys) == len(set(keys))

    def test_pairwise_non_isomorphic_by_networkx(self):
        reps = [nx.Graph(list(g.edges())) for g in enumerate_pinned(4)]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not nx.is_isomorphic(reps[i], reps[j])

    def test_support_cap(self):
        reps = list(enumerate_pinned(4, max_support=4))
        assert all(g.n <= 4 for g in reps)
        # the 4-matching needs 8 vertices, so it must be absent
        assert all(max(g.degrees()) > 1 or g.edge_count < 4 for g in reps)


class TestWorstCase:
    def test_single_edge_is_harmless(self):
        r = worst_case_ex(1, 8)
        assert r.value == 16 and r.minimizer.edge_count == 1

    def test_non_increasing_in_m(self):
        vals = [worst_case_ex(m, 7).value for m in (1, 2, 3)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_rows_cover_enumeration(self):
        r = worst_case_ex(3, 7)
        assert len(r.rows) == len(list(enumerate_pinned(3, max_support=7)))
        assert r.value == min(row.value for row in r.rows)
        assert all(row.proved for row in r.rows)

    def test_minimizer_is_witnessed(self):
        r = worst_case_ex(2, 6)
        assert is_triangle_free(r.minimizer)
        assert r.minimizer.n == 6
        assert exact_ex(r.minimizer).value == r.value

    def test_budget_error_reports_remaining(self):
        # the m=6, n=9 table needs 174 nodes in total, so a budget of 5 must
        # trip the error
        with pytest.raises(BudgetExhaustedError) as exc:
            list(iter_worst_case_rows(6, 9, budget=5))
        assert exc.value.remaining >= 1
        assert exc.value.done + exc.value.remaining == len(list(enumerate_pinned(6, max_support=9)))

    def test_rows_serialize_to_json_lines(self):
        rows = list(iter_worst_case_rows(2, 6))
        for row in rows:
            d = json.loads(row.to_json_line())
            assert set(d) == {"pin_graph6", "support", "edges", "value", "proved"}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            worst_case_ex(0, 8)
        with pytest.raises(ValueError):
            worst_case_ex(2, 2)
