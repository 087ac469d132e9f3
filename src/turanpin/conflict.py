"""Conflict structure around a pinned triangle-free graph.

Adding a set I of vertex pairs to a triangle-free pin P can create a
triangle in exactly three ways, classified by how many added pairs the
triangle uses:

  one    the added pair's endpoints share a P-neighbor ("b1" pairs);
  two    two added pairs share a vertex and their outer endpoints form a
         P-edge ("b2" adjacency between pairs);
  three  the added pairs themselves contain a triangle ("b3").

So G = P + I is triangle-free iff I avoids b1, is independent under b2
adjacency, and is triangle-free as a graph.  This module builds these
objects.  A pair is the tuple (u, v) with u < v, and every list of pairs is
in lexicographic order.  The conflict graph on all C(n, 2) pairs is never
materialized, only its restriction to a given candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from turanpin.graphs import (
    DimensionMismatchError,
    Graph,
    find_triangle,
    is_triangle_free,
    iter_bits,
    subgraph_of,
)

Pair = tuple[int, int]


def _pair(e, n: int) -> Pair:
    """e as (u, v) with u < v; ValueError unless it names two distinct vertices below n."""
    u, v = sorted(e)
    if u == v or u < 0 or v >= n:
        raise ValueError(f"invalid pair {tuple(e)} for n={n}")
    return u, v


def build_b1(p: Graph) -> set[Pair]:
    """Pairs whose endpoints have a common neighbor in p.

    Adding such a pair closes a triangle with two p-edges.  The size is at
    most the cherry count of p (each violating pair sits inside some
    neighborhood, and neighborhoods are independent sets here).
    """
    tri = find_triangle(p)
    if tri is not None:
        raise ValueError(f"pin must be triangle-free, found triangle {tri}")
    out: set[Pair] = set()
    for w in range(p.n):
        row = p.adj[w]
        for u in iter_bits(row):
            for dv in iter_bits(row >> (u + 1)):
                out.add((u, u + 1 + dv))
    return out


def _b2(p: Graph, u: int, v: int) -> list[Pair]:
    """The b2 neighbors of the valid pair (u, v), unsorted."""
    out = [(u, w) if u < w else (w, u) for w in iter_bits(p.adj[v] & ~(1 << u))]
    out += [(v, w) if v < w else (w, v) for w in iter_bits(p.adj[u] & ~(1 << v))]
    return out


def b2_neighbors(p: Graph, e1: Pair) -> list[Pair]:
    """Pairs that together with e1 and one p-edge would close a triangle.

    For e1 = {u, v}: every {u, w} with w a p-neighbor of v (w != u), and
    every {v, w} with w a p-neighbor of u (w != v).  Symmetric as a
    relation; never contains e1 itself; free of duplicates; sorted.
    """
    return sorted(_b2(p, *_pair(e1, p.n)))


@dataclass(frozen=True)
class AuxSlice:
    """Conflict graph restricted to surviving candidate pairs.

    ``s_prime`` lists the candidate pairs (sorted) that avoid both the pin's
    own edges and the b1 set; ``b2_adj`` is the b2 adjacency among them as
    bitsets over positions in ``s_prime``.
    """

    s_prime: tuple[Pair, ...]
    b2_adj: tuple[int, ...]

    def slice_graph(self) -> Graph:
        return Graph(len(self.s_prime), self.b2_adj, validate=False)

    def slice_edge_count(self) -> int:
        return sum(row.bit_count() for row in self.b2_adj) // 2

    def pairs_from_mask(self, mask: int) -> list[Pair]:
        """Decode a vertex mask of the slice graph back to vertex pairs."""
        return [self.s_prime[i] for i in iter_bits(mask)]


def build_aux_slice(p: Graph, s: Iterable[Pair]) -> AuxSlice:
    """Restrict the conflict structure to candidate pairs s.

    s must be the edge set of a triangle-free graph; each pair may come in
    either order.  The returned slice drops pairs that are p-edges or b1
    pairs, then wires the b2 adjacency among the survivors.  The slice is
    re-verified to be triangle-free, which holds for every pin.
    """
    n = p.n
    s_pairs = {_pair(e, n) for e in s}
    tri = find_triangle(Graph.from_edges(n, s_pairs))
    if tri is not None:
        raise ValueError(f"candidate pair set spans triangle {tri}")
    forbidden = build_b1(p).union(p.edges())
    s_prime = tuple(sorted(s_pairs - forbidden))
    pos = {e: i for i, e in enumerate(s_prime)}
    rows = [0] * len(s_prime)
    for i, e in enumerate(s_prime):
        for f in _b2(p, *e):
            j = pos.get(f)
            if j is not None:
                rows[i] |= 1 << j
    out = AuxSlice(s_prime=s_prime, b2_adj=tuple(rows))
    tri = find_triangle(out.slice_graph())
    if tri is not None:  # cannot happen for a triangle-free pin
        raise RuntimeError(f"conflict slice has triangle at positions {tri}")
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict on G versus pin P, with the reason when it fails.

    ``admissible`` is the direct check (P contained in G and G triangle
    free).  The three condition fields describe the added pairs I = G - P:
    a b1 hit, a b2-adjacent pair of added pairs, or a triangle inside I.
    Their conjunction provably equals triangle-freeness of P + I, and the
    builder re-checks that equality on every call.
    """

    admissible: bool
    contains_base: bool
    triangle_free: bool
    added_pairs: tuple[Pair, ...]
    failed_conditions: tuple[str, ...]
    b1_violation: Pair | None
    b2_violation: tuple[Pair, Pair] | None
    b3_violation: tuple[int, int, int] | None

    def __bool__(self) -> bool:
        return self.admissible

    def to_json_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "contains_base": self.contains_base,
            "triangle_free": self.triangle_free,
            "added_pair_count": len(self.added_pairs),
            "failed_conditions": list(self.failed_conditions),
            "b1_violation": list(self.b1_violation) if self.b1_violation else None,
            "b2_violation": [list(e) for e in self.b2_violation] if self.b2_violation else None,
            "b3_violation": list(self.b3_violation) if self.b3_violation else None,
        }


def is_admissible(p: Graph, g: Graph) -> AdmissibilityReport:
    """Check g against pin p and explain any failure.

    Also exercises the decomposition argument: the three added-pair
    conditions must agree with a direct triangle test on p plus the added
    pairs, in both directions.
    """
    if p.n != g.n:
        raise DimensionMismatchError(f"vertex counts differ: {p.n} != {g.n}")
    if not is_triangle_free(p):
        raise ValueError("pin must be triangle-free")
    contains = subgraph_of(p, g)
    added_set = set(g.edges()).difference(p.edges())
    added = tuple(sorted(added_set))

    b1 = build_b1(p)
    b1_hit = next((e for e in added if e in b1), None)
    b2_hit = next(((e, f) for e in added for f in b2_neighbors(p, e) if f in added_set), None)
    b3_hit = find_triangle(Graph.from_edges(p.n, added))

    failed = tuple(
        name
        for name, hit in (("b1", b1_hit), ("b2", b2_hit), ("b3", b3_hit))
        if hit is not None
    )

    union_ok = is_triangle_free(p.with_edges(added))
    if union_ok != (not failed):
        raise RuntimeError(
            "condition decomposition disagrees with the direct triangle test"
        )

    g_ok = union_ok if contains else is_triangle_free(g)
    return AdmissibilityReport(
        admissible=contains and g_ok,
        contains_base=contains,
        triangle_free=g_ok,
        added_pairs=added,
        failed_conditions=failed,
        b1_violation=b1_hit,
        b2_violation=b2_hit,
        b3_violation=b3_hit,
    )
