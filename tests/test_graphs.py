"""Graph kernel tests, cross-checked against naive loops and networkx."""

import math
import random

import networkx as nx
import pytest

from turanpin.graphs import (
    DimensionMismatchError,
    Graph,
    GraphFormatError,
    balanced_bipartition,
    complete_bipartite,
    count_cherries,
    crossing_pairs,
    cycle_graph,
    find_triangle,
    from_edge_list_text,
    from_graph6,
    is_triangle_free,
    matching_graph,
    pair_count,
    path_graph,
    star_graph,
    subgraph_of,
    to_edge_list_text,
    to_graph6,
)
from turanpin.randmodels import index_to_pair

from references import pair_to_index


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# The per-bit graph6 codec that preceded the column-at-a-time one, kept as
# the reference the current codec must match byte for byte.


def reference_g6_encode_n(n):
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return chr(126) + chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))


def reference_g6_decode_n(s):
    """Return (n, chars consumed)."""
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] != "~":
        n = 0
        for c in s[1:4]:
            n = (n << 6) | (ord(c) - 63)
        return n, 4
    n = 0
    for c in s[2:8]:
        n = (n << 6) | (ord(c) - 63)
    return n, 8


def reference_to_graph6(g):
    bits = []
    for v in range(1, g.n):
        col = g.adj[v]
        for u in range(v):
            bits.append(1 if col & (1 << u) else 0)
    while len(bits) % 6:
        bits.append(0)
    chunks = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chunks.append(chr(val + 63))
    return reference_g6_encode_n(g.n) + "".join(chunks)


def reference_from_graph6(s):
    """Decode a well-formed graph6 line; the parent's checks are not kept."""
    n, consumed = reference_g6_decode_n(s)
    bits = []
    for c in s[consumed:]:
        val = ord(c) - 63
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((val >> s6) & 1)
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(n, rows, validate=False)


def naive_has_triangle(g):
    # cubic scan over vertex triples, no bit tricks
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if not g.has_edge(a, b):
                continue
            for c in range(b + 1, g.n):
                if g.has_edge(a, c) and g.has_edge(b, c):
                    return True
    return False


def naive_cherries(g):
    # ordered center-leaf-leaf triples, divided by the 2 leaf orders
    total = 0
    for c in range(g.n):
        nbrs = [v for v in range(g.n) if g.has_edge(c, v)]
        total += len(nbrs) * (len(nbrs) - 1) // 2
    return total


class TestConstruction:
    def test_empty(self):
        g = Graph.empty(5)
        assert g.n == 5 and g.edge_count == 0

    def test_from_edges_and_accessors(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        assert g.edge_count == 3
        assert g.has_edge(1, 0) and g.has_edge(2, 3)
        assert not g.has_edge(0, 3)
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.degrees() == [1, 2, 2, 1]

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_validating_ctor_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, [0b10, 0b00])

    def test_immutable(self):
        g = Graph.empty(2)
        with pytest.raises(AttributeError):
            g.n = 7

    def test_with_edges_leaves_original(self):
        g = Graph.empty(3)
        h = g.with_edges([(0, 1)])
        assert g.edge_count == 0 and h.edge_count == 1

    def test_padded(self):
        g = cycle_graph(4).padded(7)
        assert g.n == 7 and g.edge_count == 4 and g.adj[6].bit_count() == 0

    def test_hash_eq(self):
        assert cycle_graph(5) == cycle_graph(5)
        assert hash(cycle_graph(5)) == hash(cycle_graph(5))
        assert cycle_graph(5) != path_graph(5)


class TestNamedGraphs:
    def test_cycle(self):
        g = cycle_graph(5)
        assert g.edge_count == 5 and all(d == 2 for d in g.degrees())

    def test_path(self):
        g = path_graph(6)
        assert g.edge_count == 5
        assert sorted(g.degrees()) == [1, 1, 2, 2, 2, 2]

    def test_star(self):
        g = star_graph(4)
        assert g.n == 5 and g.adj[0].bit_count() == 4

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.edge_count == 12 and is_triangle_free(g)

    def test_matching(self):
        g = matching_graph(3)
        assert g.n == 6 and g.edge_count == 3 and max(g.degrees()) == 1


class TestTriangles:
    def test_find_triangle_witness_is_real(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        t = find_triangle(g)
        a, b, c = t
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)

    def test_matches_naive_on_random_corpus(self):
        rng = random.Random(20817)
        for _ in range(1000):
            n = rng.randrange(1, 13)
            g = random_graph(n, rng.random(), rng)
            assert is_triangle_free(g) == (not naive_has_triangle(g))

    def test_known_triangle_free_families(self):
        assert is_triangle_free(cycle_graph(5))
        assert is_triangle_free(complete_bipartite(5, 5))
        assert not is_triangle_free(cycle_graph(3))


class TestCherries:
    def test_cycle5_has_five(self):
        assert count_cherries(cycle_graph(5)) == 5

    def test_star_is_all_pairs_of_leaves(self):
        assert count_cherries(star_graph(6)) == math.comb(6, 2)

    def test_matches_naive_enumeration(self):
        rng = random.Random(414)
        for _ in range(300):
            g = random_graph(rng.randrange(1, 8), rng.random(), rng)
            assert count_cherries(g) == naive_cherries(g)

    def test_edge_plus_cherry_identity(self):
        # e + cherries = (1/2) sum deg^2, exact for every graph
        rng = random.Random(99)
        for _ in range(300):
            g = random_graph(rng.randrange(1, 12), rng.random(), rng)
            assert 2 * (g.edge_count + count_cherries(g)) == sum(
                d * d for d in g.degrees()
            )


class TestSubgraph:
    def test_labeled_containment(self):
        p = Graph.from_edges(4, [(0, 1)])
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert subgraph_of(p, g)
        assert not subgraph_of(g, p)

    def test_is_labeled_not_isomorphic(self):
        # (1,2) is isomorphic to a subgraph of g but not labeled-contained
        p = Graph.from_edges(3, [(1, 2)])
        g = Graph.from_edges(3, [(0, 1)])
        assert not subgraph_of(p, g)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            subgraph_of(Graph.empty(3), Graph.empty(4))


class TestPairIndexing:
    def test_round_trip_all_pairs(self):
        for n in (2, 3, 5, 17, 40, 64, 65):
            k = 0
            for u in range(n):
                for v in range(u + 1, n):
                    assert pair_to_index(u, v, n) == k
                    assert pair_to_index(v, u, n) == k
                    assert index_to_pair(k, n) == (u, v)
                    k += 1
            assert k == pair_count(n)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pair_to_index(1, 1, 5)
        with pytest.raises(ValueError):
            index_to_pair(10, 5)

    def test_crossing_pairs_of_balanced_split(self):
        left, right = balanced_bipartition(7)
        ks = crossing_pairs(left, right, 7)
        assert len(ks) == 4 * 3  # ceil * floor
        assert ks == sorted(ks)
        assert crossing_pairs(right, left, 7) == ks
        u, v = zip(*ks)
        assert all(x < 4 for x in u) and all(x >= 4 for x in v)


class TestGraph6:
    def test_known_string_decodes_to_star(self):
        g = from_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_round_trip_random_corpus_vs_networkx(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_graph(rng.randrange(0, 20), rng.random(), rng)
            s = to_graph6(g)
            assert from_graph6(s) == g
            h = nx.from_graph6_bytes(s.encode())
            assert sorted(h.edges()) == sorted(g.edges())
            assert h.number_of_nodes() == g.n

    def test_networkx_encoding_decodes_here(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randrange(1, 15)
            h = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(10**6))
            s = nx.to_graph6_bytes(h, header=False).decode().strip()
            g = from_graph6(s)
            assert sorted(g.edges()) == sorted(h.edges())

    def test_matches_per_bit_reference(self):
        rng = random.Random(384)
        for n in [*range(71), 100, 258, 384]:
            for p in (0, 0.05, 0.3, 0.7, 1):
                g = random_graph(n, p, rng)
                s = to_graph6(g)
                assert s == reference_to_graph6(g), (n, p)
                assert reference_from_graph6(s) == g
                assert from_graph6(s) == g

    def test_long_size_field_vs_networkx(self):
        rng = random.Random(63)
        for n in (63, 100, 384):
            for p in (0.05, 0.5):
                g = random_graph(n, p, rng)
                s = to_graph6(g)
                assert s[0] == "~" and g.edge_count > 0
                h = nx.empty_graph(n)
                h.add_edges_from(g.edges())
                assert nx.to_graph6_bytes(h, header=False).decode().strip() == s
                h = nx.from_graph6_bytes(s.encode())
                assert h.number_of_nodes() == n
                assert sorted(h.edges()) == sorted(g.edges())
                assert from_graph6(s) == g

    def test_three_size_field_forms(self):
        for n in (0, 1, 62, 63, 100, 5000):
            g = Graph.empty(n)
            assert from_graph6(to_graph6(g)).n == n

    def test_header_prefix_tolerated(self):
        assert from_graph6(">>graph6<<D?{").n == 5

    def test_bad_body_length(self):
        with pytest.raises(GraphFormatError):
            from_graph6("D?")

    @pytest.mark.parametrize(
        "line",
        [
            ">?",  # size character below "?", read as n = -1 by plain arithmetic
            "<p",  # n = -3
            ";uk",  # n = -4
            "8trTMK",  # n = -7
            "~??>?",  # the 3-character size field, read as n = -1
            "~Ku<F",  # n = -3
            "~~?????>?",  # the 6-character size field, read as n = -1
            pytest.param("\x7f" + "?" * 336, id="above-tilde"),  # read as n = 64
        ],
    )
    def test_size_field_characters_are_checked(self, line):
        with pytest.raises(GraphFormatError, match="invalid graph6 character"):
            from_graph6(line)

    def test_nonzero_padding_rejected(self):
        # n=2 uses 1 data bit; force a padding bit on
        with pytest.raises(GraphFormatError):
            from_graph6("A" + chr(63 + 1))


class TestEdgeListFormat:
    def test_round_trip(self):
        g = Graph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
        assert from_edge_list_text(to_edge_list_text(g)) == g

    def test_duplicate_edge_warns_and_dedups(self):
        text = "3 3\n0 1\n1 0\n1 2\n"
        with pytest.warns(UserWarning, match="deduplicated"):
            g = from_edge_list_text(text)
        assert g.edge_count == 2

    def test_loop_is_hard_error(self):
        with pytest.raises(GraphFormatError, match="loop"):
            from_edge_list_text("3 1\n2 2\n")

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError):
            from_edge_list_text("3\n")
        with pytest.raises(GraphFormatError):
            from_edge_list_text("a b\n0 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="range"):
            from_edge_list_text("3 1\n0 3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            from_edge_list_text("3 2\n0 1\n")

    def test_comments_and_blanks_ignored(self):
        g = from_edge_list_text("# graph\n\n3 1\n\n0 2\n")
        assert g.edge_count == 1
