"""Exact maximum independent set on bitset graphs, plus the greedy heuristic.

The solver is a branch and bound search over an explicit stack: peel
vertices of degree at most one (always safe to take), split into connected
components at the root, bound each subproblem by a matching, and branch on
a maximum-degree vertex.  Work is metered in search nodes; when the budget
runs out the result degrades to a certified interval instead of an answer.

The bound: an independent set holds at most one end of each matching edge,
so alpha <= |cand| - |M| for any matching M among the candidates.  (In a
triangle-free graph the best clique cover has exactly |cand| - nu cliques.)
The matching is carried from node to node, never rebuilt: each component
starts from a lowest-first greedy matching improved from every exposed
vertex.  Removing a vertex unmatches it; a partner left among the
candidates becomes exposed and joins the node's "unsearched" set.  Each
augmenting path lowers the bound by one and starts at an unsearched vertex,
so after the peel, only while the gap between bound and incumbent is at
most the number of unsearched vertices, an alternating BFS (no blossoms,
so it may miss paths) runs from the lowest of them; it first tries the
vertex's lowest exposed neighbour.  Soundness never rests on the matching
being maximum.  The branching and the peel do not depend on the bound, so
any search that finishes finds the same set as with any other valid bound.

Each component is searched on its own vertices, renumbered in increasing
order, so its bitsets, degree and partner lists are as long as the
component.  Degrees are kept incrementally, never recounted.  Each search
node carries the degree list of its candidates (-1 off the candidates) and
the bitset of candidates of degree at most one.  The peel takes the lowest
vertex of that bitset until it is empty; that is the order of an ascending
scan that takes degree-0 vertices as it meets them and restarts after each
degree-1 take (removing a degree-0 vertex changes no degree).  The branch
vertex is the first maximum of the degree list.  A child decrements only
the degrees its removals touch: the take child reuses its parent's lists,
the skip child copies.  The min-degree greedy keeps one bitset bucket per
degree and picks from the lowest nonempty bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from turanpin.graphs import Graph, components, induced_rows, iter_bits

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class MisResult:
    """Outcome of an independence-number computation.

    ``size`` is exact iff ``exact`` is set; otherwise it is the best set
    found, and ``upper_bound`` is the smaller of the graph's greedy clique
    cover and the sum over components of the proved alpha (components
    searched to the end) or |comp| - |root matching| (the others), so alpha
    always lies in [size, upper_bound].
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


def _remove(adj, cand: int, deg: list, mate: list, gone: int) -> tuple[int, int, int]:
    """Drop ``gone`` from cand, updating ``deg`` and ``mate`` in place.

    Returns the remaining candidates, the bitset of those whose degree fell
    to at most one, and the bitset of vertices that lost their partner
    (mask it with the remaining candidates).
    """
    cand &= ~gone
    low = 0
    freed = 0
    for u in iter_bits(gone):
        deg[u] = -1
        m = mate[u]
        if m >= 0:
            mate[u] = mate[m] = -1
            freed |= 1 << m
        for w in iter_bits(adj[u] & cand):
            deg[w] -= 1
            if deg[w] <= 1:
                low |= 1 << w
    return cand, low, freed


def _augment(adj, cand: int, mate: list, free: int, r: int) -> int:
    """Flip an augmenting path from the exposed vertex r, if an alternating BFS finds one.

    The BFS has no blossom handling, so it may miss a path; but each vertex
    is marked when first reached, so a path it finds is simple and really
    augmenting.  A vertex is tested for an exposed neighbour as soon as it
    is reached.  Returns the bitset of the path's other end, or 0.
    """
    unseen = cand & ~(1 << r)
    parent = {}
    x = r
    hit = adj[r] & free
    queue = [r]
    for y in queue:
        if hit:
            break
        nb = adj[y] & unseen  # all matched: y has no exposed unseen neighbour
        unseen ^= nb
        for w in iter_bits(nb):
            x = mate[w]  # reached already only if y, w, x is a triangle
            if unseen >> x & 1:
                unseen ^= 1 << x
                parent[w] = y
                hit = adj[x] & unseen & free
                if hit:
                    break
                queue.append(x)
    if not hit:
        return 0
    far = hit & -hit
    w = far.bit_length() - 1
    while True:
        nxt = mate[x]
        mate[x] = w
        mate[w] = x
        if x == r:
            return far
        w = nxt
        x = parent[nxt]


def _root_matching(adj, k: int) -> tuple[list, int]:
    """Matching of a k-vertex component: lowest-first greedy, then a search from every exposed vertex.

    Returns the partner list (-1: exposed) and the bitset of exposed vertices.
    On triangle-free rows the greedy takes exactly the pairs of
    ``clique_cover_bound``, so k - |M| never exceeds that cover.
    """
    mate = [-1] * k
    every = free = (1 << k) - 1
    for v in range(k):
        nb = adj[v] & free
        if nb and free >> v & 1:
            w = nb & -nb
            u = w.bit_length() - 1
            mate[v], mate[u] = u, v
            free ^= (1 << v) | w
    for r in iter_bits(free):
        far = _augment(adj, every, mate, free, r) if free >> r & 1 else 0
        if far:
            free ^= (1 << r) | far
    return mate, free


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
    upper = 0  # sum over components of a certified bound on their alpha
    for comp in components(g):
        # search the component on its own vertices, renumbered in increasing
        # order so that every lowest-index and first-maximum choice is kept
        verts, rows = induced_rows(g, comp)
        every = (1 << len(verts)) - 1
        # lowest-index min-degree greedy warm-starts the incumbent
        best_mask = _min_degree_greedy(rows, every, lambda k: 0)
        best_size = best_mask.bit_count()
        mate, free = _root_matching(rows, len(verts))
        root_bound = (len(verts) + free.bit_count()) // 2  # |comp| - |M|
        # each entry is one search node: candidates, chosen size, chosen
        # mask, the candidates' degrees (-1 off cand), the bitset of
        # candidates of degree <= 1, the matching among the candidates
        # (mate[v] == -1: exposed), the bitset of exposed candidates and the
        # bitset of exposed candidates not yet searched from
        deg = [row.bit_count() for row in rows]
        low = sum(1 << i for i, d in enumerate(deg) if d <= 1)
        stack = [(every, 0, 0, deg, low, mate, free, 0)]
        while stack:
            if nodes >= budget:
                exhausted = True
                break
            cand, cur_size, cur_mask, deg, low, mate, free, todo = stack.pop()
            nodes += 1
            # take the lowest vertex of degree <= 1 (dropping its neighbour,
            # if any) until none is left
            while low:
                bit = low & -low
                cur_mask |= bit
                cur_size += 1
                cand, more, lost = _remove(rows, cand, deg, mate, bit | (rows[bit.bit_length() - 1] & cand))
                low = (low | more) & cand
                free |= lost
                todo |= lost
            if not cand:
                if cur_size > best_size:
                    best_size, best_mask = cur_size, cur_mask
                continue
            # matching bound: cur_size + |cand| - |M| = cur_size + (|cand| + |free|) / 2
            free &= cand
            todo &= free
            gap = cur_size + (cand.bit_count() + free.bit_count()) // 2 - best_size
            while 0 < gap <= todo.bit_count():
                rbit = todo & -todo
                todo ^= rbit
                far = _augment(rows, cand, mate, free, rbit.bit_length() - 1)
                if far:
                    free ^= rbit | far
                    todo &= ~far
                    gap -= 1
            if gap <= 0:
                continue
            v = deg.index(max(deg))  # first maximum-degree vertex
            bit = 1 << v
            skip_deg, skip_mate = deg.copy(), mate.copy()
            skip_cand, skip_low, lost = _remove(rows, cand, skip_deg, skip_mate, bit)
            stack.append((skip_cand, cur_size, cur_mask, skip_deg, skip_low, skip_mate, free | lost, todo | lost))
            # popped first: take v; the take child reuses this node's lists
            take_cand, take_low, lost = _remove(rows, cand, deg, mate, bit | (rows[v] & cand))
            stack.append((take_cand, cur_size + 1, cur_mask | bit, deg, take_low, mate, free | lost, todo | lost))
        total_size += best_size
        total_mask |= sum(1 << verts[i] for i in iter_bits(best_mask))
        upper += root_bound if exhausted else best_size

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
        upper_bound=min(clique_cover_bound(adj, full), upper) if exhausted else total_size,
    )


def greedy_independent_set(g: Graph, rng) -> int:
    """Maximal independent set by repeated min-degree pick, ties broken by a numpy Generator."""
    return _min_degree_greedy(g.adj, (1 << g.n) - 1, lambda k: int(rng.integers(k)))
