"""Conflict structure tests: definitions re-checked by brute force."""

import itertools
import random

import pytest

from turanpin.conflict import (
    AuxSlice,
    b2_neighbors,
    build_aux_slice,
    build_b1,
    is_admissible,
)
from turanpin.graphs import (
    DimensionMismatchError,
    Graph,
    balanced_bipartition,
    complete_bipartite,
    count_cherries,
    crossing_pairs,
    cycle_graph,
    is_triangle_free,
    matching_graph,
    path_graph,
    star_graph,
)

from references import b2_edge_total


def random_triangle_free(n, rng, tries=200):
    # rejection sample at shrinking density
    for t in range(tries):
        p = rng.uniform(0, 0.3) * (0.98**t)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if is_triangle_free(g):
            return g
    return Graph.empty(n)


def brute_b1(p):
    # literal definition: both endpoints adjacent to a common vertex
    out = set()
    for u in range(p.n):
        for v in range(u + 1, p.n):
            if any(p.has_edge(u, w) and p.has_edge(v, w) for w in range(p.n)):
                out.add((u, v))
    return out


def all_pairs(n):
    return list(itertools.combinations(range(n), 2))


def brute_b2_adjacent(p, a, b):
    # literal definition: pairs share a vertex and outer endpoints are a p-edge
    shared = set(a) & set(b)
    if len(shared) != 1:
        return False
    outer = (set(a) | set(b)) - shared
    x, y = sorted(outer)
    return p.has_edge(x, y)


class TestB1:
    def test_path_has_single_pair(self):
        p = path_graph(3)
        assert build_b1(p) == {(0, 2)}

    def test_matching_has_none(self):
        assert build_b1(matching_graph(3)) == set()

    def test_star_hits_all_leaf_pairs(self):
        p = star_graph(4)
        got = build_b1(p)
        expect = {(u, v) for u in range(1, 5) for v in range(u + 1, 5)}
        assert got == expect
        assert len(got) == count_cherries(p)  # equality case

    def test_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(200):
            p = random_triangle_free(rng.randrange(1, 11), rng)
            assert build_b1(p) == brute_b1(p)

    def test_size_bounded_by_cherries(self):
        rng = random.Random(13)
        for _ in range(500):
            p = random_triangle_free(rng.randrange(1, 13), rng)
            assert len(build_b1(p)) <= count_cherries(p)

    def test_rejects_triangle(self):
        with pytest.raises(ValueError):
            build_b1(cycle_graph(3))


class TestB2:
    def test_single_edge_one_completion(self):
        # pin edge {0,1}; candidate {0,2} conflicts only with {2,1}
        p = Graph.from_edges(4, [(0, 1)])
        got = b2_neighbors(p, (0, 2))
        assert got == [(1, 2)]

    def test_disjoint_pair_has_no_conflicts(self):
        p = Graph.from_edges(4, [(0, 1)])
        assert b2_neighbors(p, (2, 3)) == []

    def test_cycle_chord_has_four(self):
        p = cycle_graph(5)
        for u, v in all_pairs(5):
            if not p.has_edge(u, v):
                assert len(b2_neighbors(p, (u, v))) == 4

    def test_symmetric_relation_matching_brute_force(self):
        rng = random.Random(14)
        for _ in range(60):
            p = random_triangle_free(rng.randrange(2, 9), rng)
            nbrs = {k: set(b2_neighbors(p, k)) for k in all_pairs(p.n)}
            for k1 in nbrs:
                for k2 in nbrs[k1]:
                    assert k1 in nbrs[k2]
            for k1, k2 in itertools.combinations(all_pairs(p.n), 2):
                assert (k2 in nbrs[k1]) == brute_b2_adjacent(p, k1, k2)

    def test_no_duplicates_no_self(self):
        rng = random.Random(15)
        for _ in range(100):
            p = random_triangle_free(rng.randrange(2, 10), rng)
            for k in all_pairs(p.n):
                got = b2_neighbors(p, k)
                assert len(got) == len(set(got))
                assert k not in got

    def test_invalid_pair(self):
        for bad in ((0, 4), (2, 2), (-1, 2)):
            with pytest.raises(ValueError):
                b2_neighbors(Graph.empty(4), bad)

    def test_pair_order_normalised(self):
        p = Graph.from_edges(4, [(0, 1)])
        assert b2_neighbors(p, (2, 0)) == b2_neighbors(p, (0, 2))

    def test_edge_total_equals_closed_form(self):
        # each pin edge conflicts once per outside vertex
        rng = random.Random(16)
        for _ in range(120):
            p = random_triangle_free(rng.randrange(3, 9), rng)
            assert b2_edge_total(p) == p.edge_count * (p.n - 2)


class TestAuxSlice:
    def test_empty_pin_keeps_everything(self):
        n = 6
        left, right = balanced_bipartition(n)
        s = crossing_pairs(left, right, n)
        sl = build_aux_slice(Graph.empty(n), s)
        assert list(sl.s_prime) == sorted(s)
        assert all(row == 0 for row in sl.b2_adj)

    def test_single_edge_in_bipartite_candidates(self):
        # pin edge inside the split: survives as forbidden, 8 pairs remain
        n = 6
        p = Graph.from_edges(n, [(0, 3)])
        left, right = balanced_bipartition(n)
        s = crossing_pairs(left, right, n)
        sl = build_aux_slice(p, s)
        assert len(sl.s_prime) == 8
        # brute-force the expected slice edges
        expect = sum(
            1
            for i, k1 in enumerate(sl.s_prime)
            for k2 in sl.s_prime[i + 1 :]
            if brute_b2_adjacent(p, k1, k2)
        )
        assert sl.slice_edge_count() == expect

    def test_pin_equal_to_candidates_leaves_nothing(self):
        p = cycle_graph(5)
        s = list(p.edges())
        sl = build_aux_slice(p, s)
        assert sl.s_prime == ()

    def test_slice_is_triangle_free_on_corpus(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randrange(3, 13)
            p = random_triangle_free(n, rng)
            left, right = balanced_bipartition(n)
            s = crossing_pairs(left, right, n)
            sl = build_aux_slice(p, s)
            assert is_triangle_free(sl.slice_graph())
            assert not (set(sl.s_prime) & (build_b1(p) | set(p.edges())))

    def test_rejects_triangled_candidates(self):
        n = 4
        bad = [(0, 1), (1, 2), (0, 2)]
        with pytest.raises(ValueError):
            build_aux_slice(Graph.empty(n), bad)

    def test_rejects_invalid_pair(self):
        for bad in ((0, 4), (3, 3)):
            with pytest.raises(ValueError):
                build_aux_slice(Graph.empty(4), [(0, 2), bad])

    def test_pairs_from_mask_round_trip(self):
        p = Graph.empty(4)
        s = [(2, 0), (1, 3)]
        sl = build_aux_slice(p, s)
        assert sl.pairs_from_mask(0b11) == [(0, 2), (1, 3)]


class TestAdmissible:
    def test_bipartite_over_single_edge(self):
        p = Graph.from_edges(6, [(0, 3)])
        g = complete_bipartite(3, 3)
        rep = is_admissible(p, g)
        assert rep.admissible and not rep.failed_conditions

    def test_b1_failure(self):
        # pin path 0-1-2; adding {0,2} closes a triangle with two pin edges
        p = path_graph(3)
        g = p.with_edges([(0, 2)])
        rep = is_admissible(p, g)
        assert not rep.admissible
        assert rep.failed_conditions == ("b1",)
        assert rep.b1_violation == (0, 2)

    def test_b2_failure(self):
        # pin edge {0,1}; adding {0,2} and {1,2} closes a triangle with it
        p = Graph.from_edges(3, [(0, 1)])
        g = p.with_edges([(0, 2), (1, 2)])
        rep = is_admissible(p, g)
        assert not rep.admissible
        assert "b2" in rep.failed_conditions
        assert rep.b2_violation == ((0, 2), (1, 2))

    def test_b3_failure(self):
        # empty pin, added pairs themselves form a triangle
        p = Graph.empty(4)
        g = cycle_graph(3, n=4)
        rep = is_admissible(p, g)
        assert not rep.admissible
        assert rep.failed_conditions == ("b3",)
        assert rep.b3_violation == (0, 1, 2)

    def test_missing_containment_detected(self):
        p = Graph.from_edges(4, [(0, 1)])
        g = Graph.from_edges(4, [(2, 3)])
        rep = is_admissible(p, g)
        assert not rep.admissible and not rep.contains_base

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_admissible(Graph.empty(3), Graph.empty(4))

    def test_rejects_triangled_pin(self):
        with pytest.raises(ValueError):
            is_admissible(cycle_graph(3), cycle_graph(3))

    def test_conditions_equal_direct_check_exhaustively(self):
        # every pin/supergraph pair on 5 vertices with pin edges fixed small:
        # decomposition must agree with the direct triangle test (the
        # builder raises if not), and admissible == contained + no triangle
        n = 5
        rng = random.Random(18)
        for _ in range(400):
            p = random_triangle_free(n, rng)
            extra = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not p.has_edge(u, v) and rng.random() < 0.3
            ]
            g = p.with_edges(extra)
            rep = is_admissible(p, g)
            assert rep.admissible == (is_triangle_free(g) and True)
            assert bool(rep) == rep.admissible

    def test_json_dump(self):
        p = path_graph(3)
        rep = is_admissible(p, p.with_edges([(0, 2)]))
        d = rep.to_json_dict()
        assert d["admissible"] is False
        assert d["failed_conditions"] == ["b1"]
