"""Exact maximum independent set on bitset graphs, plus the greedy heuristic.

The solver is a branch and bound search over an explicit stack: peel
vertices of degree at most one (always safe to take), split into connected
components at the root, bound each subproblem by a greedy clique cover, and
branch on a maximum-degree vertex.  Work is metered in search nodes; when
the budget runs out the result degrades to a certified interval instead of
an answer.

Each component is searched on its own vertices, renumbered in increasing
order, so its bitsets and degree lists are as long as the component.
Degrees are kept incrementally, never recounted.  Each search node carries
the degree list of its candidates (-1 off the candidates) and the bitset of
candidates of degree at most one.  The peel takes the lowest vertex of that
bitset until it is empty; that is the order of an ascending scan that takes
degree-0 vertices as it meets them and restarts after each degree-1 take
(removing a degree-0 vertex changes no degree).  The branch vertex is the
first maximum of the degree list.  A child decrements only the degrees its
removals touch: the take child reuses its parent's list, the skip child a
copy.  The min-degree greedy keeps one bitset bucket per degree and picks
from the lowest nonempty bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from turanpin.graphs import Graph, components, induced_rows, iter_bits

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class MisResult:
    """Outcome of an independence-number computation.

    ``size`` is exact iff ``exact`` is set; otherwise it is the best set
    found and ``upper_bound`` comes from the root clique-cover relaxation,
    so alpha always lies in [size, upper_bound].
    """

    size: int
    witness: int
    exact: bool
    nodes_explored: int
    budget_exhausted: bool
    upper_bound: int

    def as_interval(self) -> tuple[int, int]:
        return (self.size, self.upper_bound)


def clique_cover_bound(adj, cand: int) -> int:
    """Greedy clique cover size of the subgraph induced on cand: an upper bound on alpha.

    ``adj`` is a sequence of bitset adjacency rows (``Graph.adj`` or a
    search's working rows).
    """
    bound = 0
    rem = cand
    while rem:
        low = rem & -rem
        v = low.bit_length() - 1
        rem ^= low
        common = adj[v] & rem
        while common:
            ulow = common & -common
            u = ulow.bit_length() - 1
            rem ^= ulow
            common = common & adj[u] & ~ulow
        bound += 1
    return bound


def _min_degree_greedy(adj, cand: int, tie_break) -> int:
    """Maximal independent set in cand by repeated min-degree pick.

    ``tie_break(k)`` chooses among the k tied vertices, listed in
    increasing order.  Degrees are kept incrementally: ``buckets[d]`` is the
    bitset of candidates of degree d, and each pick decrements only the
    neighbours of the vertices it removes.
    """
    deg = [0] * len(adj)
    buckets = [0] * len(adj)  # a degree is below the vertex count
    for v in iter_bits(cand):
        deg[v] = (adj[v] & cand).bit_count()
        buckets[deg[v]] |= 1 << v
    mask = 0
    dmin = 0  # every bucket below this one is empty
    while cand:
        while not buckets[dmin]:
            dmin += 1
        ties = buckets[dmin]
        for _ in range(tie_break(ties.bit_count())):
            ties &= ties - 1  # drop the lowest tied vertex
        bit = ties & -ties
        mask |= bit
        gone = (bit | adj[bit.bit_length() - 1]) & cand
        cand ^= gone
        for u in iter_bits(gone):
            buckets[deg[u]] ^= 1 << u
            for w in iter_bits(adj[u] & cand):
                d = deg[w]
                buckets[d] ^= 1 << w
                buckets[d - 1] |= 1 << w
                deg[w] = d - 1
                if d - 1 < dmin:
                    dmin = d - 1
    return mask


def _remove(adj, cand: int, deg: list, gone: int) -> tuple[int, int]:
    """Drop ``gone`` from cand, updating ``deg`` in place.

    Returns the remaining candidates and the bitset of those whose degree
    fell to at most one.
    """
    cand &= ~gone
    low = 0
    for u in iter_bits(gone):
        deg[u] = -1
        for w in iter_bits(adj[u] & cand):
            deg[w] -= 1
            if deg[w] <= 1:
                low |= 1 << w
    return cand, low


def max_independent_set(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> MisResult:
    """Largest independent set of g, exact if the search finishes in budget.

    On budget exhaustion the returned size is still attained by ``witness``
    and ``upper_bound`` is still valid, so callers get a true interval.
    """
    adj = g.adj
    full = (1 << g.n) - 1

    nodes = 0
    exhausted = False
    total_size = 0
    total_mask = 0
    for comp in components(g):
        # search the component on its own vertices, renumbered in increasing
        # order so that every lowest-index and first-maximum choice is kept
        verts, rows = induced_rows(g, comp)
        every = (1 << len(verts)) - 1
        # lowest-index min-degree greedy warm-starts the incumbent
        best_mask = _min_degree_greedy(rows, every, lambda k: 0)
        best_size = best_mask.bit_count()
        # each entry is one search node: candidates, chosen size, chosen
        # mask, the candidates' degrees (-1 off cand) and the bitset of
        # candidates of degree <= 1
        deg = [row.bit_count() for row in rows]
        low = sum(1 << i for i, d in enumerate(deg) if d <= 1)
        stack = [(every, 0, 0, deg, low)]
        while stack:
            if nodes >= budget:
                exhausted = True
                break
            cand, cur_size, cur_mask, deg, low = stack.pop()
            nodes += 1
            # take the lowest vertex of degree <= 1 (dropping its neighbour,
            # if any) until none is left
            while low:
                bit = low & -low
                cur_mask |= bit
                cur_size += 1
                cand, more = _remove(rows, cand, deg, bit | (rows[bit.bit_length() - 1] & cand))
                low = (low | more) & cand
            if not cand:
                if cur_size > best_size:
                    best_size, best_mask = cur_size, cur_mask
                continue
            if cur_size + clique_cover_bound(rows, cand) <= best_size:
                continue
            v = deg.index(max(deg))  # first maximum-degree vertex
            bit = 1 << v
            skip_deg = deg.copy()
            skip_cand, skip_low = _remove(rows, cand, skip_deg, bit)
            stack.append((skip_cand, cur_size, cur_mask, skip_deg, skip_low))
            # popped first: take v; the take child reuses this node's degrees
            take_cand, take_low = _remove(rows, cand, deg, bit | (rows[v] & cand))
            stack.append((take_cand, cur_size + 1, cur_mask | bit, deg, take_low))
        total_size += best_size
        total_mask |= sum(1 << verts[i] for i in iter_bits(best_mask))

    # paranoia: never hand back a witness that is not independent
    for v in iter_bits(total_mask):
        if adj[v] & total_mask:
            raise RuntimeError("solver produced a non-independent witness")
    if total_mask.bit_count() != total_size:
        raise RuntimeError("witness size disagrees with reported size")

    return MisResult(
        size=total_size,
        witness=total_mask,
        exact=not exhausted,
        nodes_explored=nodes,
        budget_exhausted=exhausted,
        upper_bound=clique_cover_bound(adj, full) if exhausted else total_size,
    )


def greedy_independent_set(g: Graph, rng) -> int:
    """Maximal independent set by repeated min-degree pick, ties broken by a numpy Generator."""
    return _min_degree_greedy(g.adj, (1 << g.n) - 1, lambda k: int(rng.integers(k)))
