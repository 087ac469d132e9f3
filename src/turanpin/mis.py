"""Exact maximum independent set on bitset graphs, plus the greedy heuristic.

The solver is a branch and bound search over an explicit stack: peel
vertices of degree at most one (always safe to take), split into connected
components at the root, bound each subproblem by a greedy clique cover, and
branch on a maximum-degree vertex.  Work is metered in search nodes; when
the budget runs out the result degrades to a certified interval instead of
an answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from turanpin.graphs import Graph, components, iter_bits

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
    increasing order.
    """
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


def max_independent_set(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> MisResult:
    """Largest independent set of g, exact if the search finishes in budget.

    On budget exhaustion the returned size is still attained by ``witness``
    and ``upper_bound`` is still valid, so callers get a true interval.
    """
    n, adj = g.n, g.adj
    full = (1 << n) - 1

    nodes = 0
    exhausted = False
    total_size = 0
    total_mask = 0
    for comp in components(g):
        # lowest-index min-degree greedy warm-starts the incumbent
        best_mask = _min_degree_greedy(adj, comp, lambda k: 0)
        best_size = best_mask.bit_count()
        # each entry is one search node: candidates, chosen size, chosen mask
        stack = [(comp, 0, 0)]
        while stack:
            if nodes >= budget:
                exhausted = True
                break
            cand, cur_size, cur_mask = stack.pop()
            nodes += 1
            # take every vertex of induced degree <= 1; restart after each
            # degree-1 take since removing its neighbor changes other degrees
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
            stack.append((cand & ~(bit | adj[v]), cur_size + 1, cur_mask | bit))  # popped first: take v
        total_size += best_size
        total_mask |= best_mask

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
