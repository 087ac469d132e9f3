"""Ground truth for pinned triangle-free edge maxima.

``exact_ex`` consults two theorems before it searches.  A bipartite pin's
best bipartite supergraph is the exact complete bipartite completion
(``construct.pin_bipartite_completion``).  Every other triangle-free
supergraph is non-bipartite, and by Brouwer (1981) a non-bipartite
triangle-free graph on n >= 5 vertices has at most floor((n-1)^2/4) + 1
edges.  The incumbent is the completion or, for a non-bipartite pin,
``duplication_seed``.  An incumbent that reaches the larger of the two caps
is optimal at 0 nodes; otherwise that cap bounds a branch and bound over
supergraphs of the pin.

The search keeps its candidates as per-vertex rows: bit v of row u is set
iff {u, v} can still be added without closing a triangle.  The branch
variable is the candidate whose addition removes the most other candidates,
and the bound combines per-vertex candidate counts with a clique-cover cap
on the independence number (final edge count is at most n * alpha / 2).
The search is a loop over an explicit stack that expands the include child
first.

``worst_case_ex`` minimizes the oracle value over all isomorphism classes
of triangle-free pins with at most m edges, produced by an edge-addition
enumeration with canonical-form deduplication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from turanpin.conflict import build_b1
from turanpin.construct import pin_bipartite_completion
from turanpin.graphs import (
    Graph,
    components,
    find_triangle,
    induced_rows,
    is_triangle_free,
    iter_bits,
    subgraph_of,
    to_graph6,
)
from turanpin.mis import clique_cover_bound

DEFAULT_ORACLE_BUDGET = 10_000_000

# canonical labeling is exact permutation search; per-component guard
MAX_CANON_COMPONENT = 12


class BudgetExhaustedError(RuntimeError):
    """Total search budget ran out mid-table; carries the unfinished count."""

    def __init__(self, remaining: int, done: int):
        self.remaining = remaining
        self.done = done
        super().__init__(
            f"search budget exhausted with {remaining} candidate pin(s) left "
            f"({done} finished)"
        )


@dataclass(frozen=True)
class OracleResult:
    """Exact (or best-found) pinned maximum with its witness graph."""

    value: int
    witness: Graph
    nodes: int
    proved: bool


def duplication_seed(p: Graph) -> Graph:
    """Fill isolated vertices by cloning max-degree vertices.

    Cloning v (giving a blank vertex the neighborhood of v) preserves
    triangle-freeness because neighborhoods are independent sets here.
    """
    rows = list(p.adj)
    n = p.n
    blanks = [v for v in range(n) if rows[v] == 0]
    for w in blanks:
        best_v = max(range(n), key=lambda v: rows[v].bit_count())
        nb = rows[best_v] & ~(1 << w)
        if not nb:
            continue
        rows[w] = nb
        for u in iter_bits(nb):
            rows[u] |= 1 << w
    return Graph(n, rows, validate=False)


def _candidate_rows(p: Graph) -> list[int]:
    """Row u has bit v iff {u, v} can be added to p without closing a triangle."""
    full = (1 << p.n) - 1
    cand = [full & ~(p.adj[u] | 1 << u) for u in range(p.n)]
    for u, v in build_b1(p):
        cand[u] &= ~(1 << v)
        cand[v] &= ~(1 << u)
    return cand


def _most_conflicting(rows: list[int], cand: list[int]) -> tuple[int, int]:
    """Candidate pair whose addition removes the most other candidates.

    Pairs are scanned in lexicographic order (u ascending, then v > u ascending)
    and the first maximum wins.
    """
    best_u = best_v = -1
    best_kill = -1
    for u, cu in enumerate(cand):
        ru = rows[u]
        for v in iter_bits(cu >> (u + 1) << (u + 1)):
            kill = (rows[v] & cu).bit_count() + (ru & cand[v]).bit_count()
            if kill > best_kill:
                best_kill, best_u, best_v = kill, u, v
    return best_u, best_v


def _include(rows: list[int], cand: list[int], u: int, v: int) -> tuple[list[int], list[int]]:
    """New rows and candidate rows after adding the candidate pair uv.

    uv leaves the candidates, and so does every pair that would now close a
    triangle through it: uw for w adjacent to v, and vw for w adjacent to u.
    """
    ru, rv = rows[u], rows[v]
    rows = list(rows)
    rows[u] = ru | 1 << v
    rows[v] = rv | 1 << u
    cand = list(cand)
    cu, cv = cand[u], cand[v]
    for w in iter_bits(rv & cu):
        cand[w] &= ~(1 << u)
    for w in iter_bits(ru & cv):
        cand[w] &= ~(1 << v)
    cand[u] = cu & ~(rv | 1 << v)
    cand[v] = cv & ~(ru | 1 << u)
    return rows, cand


def exact_ex(p: Graph, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleResult:
    """Maximum edge count over triangle-free supergraphs of p on its own
    vertex set.  ``proved`` is False only on budget exhaustion, in which
    case value/witness still describe a valid (possibly suboptimal) graph."""
    tri = find_triangle(p)
    if tri is not None:
        raise ValueError(f"pin must be triangle-free, found triangle {tri}")
    n = p.n
    if n < 2:
        return OracleResult(0, p, 0, True)
    # a bipartite supergraph has at most the completion's edges, any other at
    # most Brouwer's cap; below n = 5 every pin is bipartite and its
    # completion, with at least n - 1 edges, reaches the cap
    cap = (n - 1) ** 2 // 4 + 1
    # cloning keeps a bipartite pin bipartite, so it only helps the others
    best_g = pin_bipartite_completion(p) or duplication_seed(p)
    best, best_rows = best_g.edge_count, list(best_g.adj)

    full = (1 << n) - 1
    nodes = 0
    exhausted = False
    # each entry is one search node: working rows, their edge count, candidate rows
    stack = [] if best >= cap else [(list(p.adj), p.edge_count, _candidate_rows(p))]
    while stack:
        if nodes >= budget:
            exhausted = True
            break
        rows, ecur, cand = stack.pop()
        nodes += 1
        if ecur > best:
            best, best_rows = ecur, rows
            if ecur >= cap:
                break
        if not any(cand):
            continue
        # final degree of v is at most its degree plus its candidates, and
        # at most alpha (a triangle-free neighbourhood is independent)
        alpha_ub = clique_cover_bound(rows, full)
        tot = 0
        for v in range(n):
            tot += min(rows[v].bit_count() + cand[v].bit_count(), alpha_ub)
        if min(tot // 2, cap) <= best:
            continue

        u, v = _most_conflicting(rows, cand)
        rows2, cand2 = _include(rows, cand, u, v)
        # this node is finished, so the exclude child may take its cand list
        cand[u] &= ~(1 << v)
        cand[v] &= ~(1 << u)
        stack.append((rows, ecur, cand))
        stack.append((rows2, ecur + 1, cand2))  # popped first: include before exclude

    witness = Graph(n, best_rows, validate=False)
    if not (is_triangle_free(witness) and subgraph_of(p, witness)):
        raise RuntimeError("oracle produced an invalid witness")
    return OracleResult(value=best, witness=witness, nodes=nodes, proved=not exhausted)


# ---------------------------------------------------------------------------
# Canonical forms and pin enumeration


def _min_bits(adj_local: list[int], k: int) -> tuple[int, ...]:
    """Lexicographically smallest column-major upper-triangle encoding."""
    best: list[tuple[int, ...] | None] = [None]

    def dfs(pos: int, used: int, perm: list[int], cols: tuple[int, ...]):
        if pos == k:
            best[0] = cols
            return
        for v in range(k):
            if used >> v & 1:
                continue
            col = 0
            for j in range(pos):
                col = (col << 1) | (adj_local[v] >> perm[j] & 1)
            ncols = cols + (col,)
            if best[0] is not None and ncols > best[0][: pos + 1]:
                continue
            perm.append(v)
            dfs(pos + 1, used | 1 << v, perm, ncols)
            perm.pop()

    dfs(0, 0, [], ())
    return best[0]


def canonical_key(g: Graph) -> tuple:
    """Isomorphism-invariant key: sorted canonical forms of the components."""
    keys = []
    for comp in components(g):
        k = comp.bit_count()
        if k > MAX_CANON_COMPONENT:
            raise ValueError(f"component has {k} > {MAX_CANON_COMPONENT} vertices")
        keys.append((k, _min_bits(induced_rows(g, comp)[1], k)))
    return (g.n, tuple(sorted(keys)))


def enumerate_pinned(m: int, max_support: int | None = None) -> Iterator[Graph]:
    """One representative per isomorphism class of triangle-free graphs with
    1..m edges and no isolated vertices, support capped at max_support
    (default 2m, which is never binding)."""
    if m < 1:
        return
    cap = 2 * m if max_support is None else min(max_support, 2 * m)
    if cap < 2:
        return
    level = {}
    e1 = Graph.from_edges(2, [(0, 1)])
    level[canonical_key(e1)] = e1
    yield e1
    for _ in range(2, m + 1):
        nxt = {}
        for g in level.values():
            k = g.n
            succ = []
            for u in range(k):
                for v in range(u + 1, k):
                    if not g.has_edge(u, v):
                        succ.append(g.with_edges([(u, v)]))
            if k + 1 <= cap:
                gp = g.padded(k + 1)
                succ.extend(gp.with_edges([(u, k)]) for u in range(k))
            if k + 2 <= cap:
                succ.append(g.padded(k + 2).with_edges([(k, k + 1)]))
            for h in succ:
                if not is_triangle_free(h):
                    continue
                key = canonical_key(h)
                if key not in nxt:
                    nxt[key] = h
        for h in nxt.values():
            yield h
        level = nxt


# ---------------------------------------------------------------------------
# Worst case over all pins with at most m edges


@dataclass(frozen=True)
class WorstCaseRow:
    """One enumerated pin with its exact pinned maximum."""

    pin: Graph
    support: int
    edges: int
    value: int
    proved: bool

    def to_json_dict(self) -> dict:
        return {
            "pin_graph6": to_graph6(self.pin),
            "support": self.support,
            "edges": self.edges,
            "value": self.value,
            "proved": self.proved,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


@dataclass(frozen=True)
class WorstCaseResult:
    """Minimum pinned maximum over all pins with at most m edges."""

    m: int
    n: int
    value: int
    minimizer: Graph
    rows: tuple[WorstCaseRow, ...]


def iter_worst_case_rows(m: int, n: int, budget: int = DEFAULT_ORACLE_BUDGET) -> Iterator[WorstCaseRow]:
    """Stream oracle rows for every enumerated pin; raises when the shared
    node budget runs out, reporting how many pins never finished."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    pins = list(enumerate_pinned(m, max_support=n))
    remaining = budget
    for i, support_graph in enumerate(pins):
        pin = support_graph.padded(n)
        res = exact_ex(pin, budget=remaining)
        if not res.proved:
            raise BudgetExhaustedError(remaining=len(pins) - i, done=i)
        remaining -= res.nodes
        yield WorstCaseRow(
            pin=support_graph,
            support=support_graph.n,
            edges=support_graph.edge_count,
            value=res.value,
            proved=res.proved,
        )


def worst_case_ex(m: int, n: int, budget: int = DEFAULT_ORACLE_BUDGET) -> WorstCaseResult:
    """Minimize exact_ex over all triangle-free pins with at most m edges
    (supports beyond n vertices cannot embed and are skipped)."""
    rows = tuple(iter_worst_case_rows(m, n, budget))
    worst = min(rows, key=lambda r: r.value)
    return WorstCaseResult(
        m=m,
        n=n,
        value=worst.value,
        minimizer=worst.pin.padded(n),
        rows=rows,
    )
