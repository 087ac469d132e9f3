"""Ground truth for pinned triangle-free edge maxima.

``exact_ex`` runs a branch and bound over supergraphs of the pin: candidate
pairs are every pair that can still be added without closing a triangle,
the branch variable is the candidate that conflicts with the most others,
and the bound combines per-vertex candidate counts with a clique-cover cap
on the independence number (final edge count is at most n * alpha / 2).

``worst_case_ex`` minimizes the oracle value over all isomorphism classes
of triangle-free pins with at most m edges, produced by an edge-addition
enumeration with canonical-form deduplication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from turanpin.conflict import build_b1
from turanpin.construct import construct_admissible, pin_bipartite_completion
from turanpin.graphs import (
    Graph,
    components,
    find_triangle,
    is_triangle_free,
    iter_bits,
    pair_to_index,
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


def greedy_completion(p: Graph) -> Graph:
    """Add pairs one at a time (most-conflicting first) until maximal."""
    n = p.n
    rows = list(p.adj)
    while True:
        cands = []
        for u in range(n):
            for v in range(u + 1, n):
                if not rows[u] & (1 << v) and not rows[u] & rows[v]:
                    cands.append((u, v))
        if not cands:
            return Graph(n, rows, validate=False)

        def kills(e):
            u, v = e
            k = 0
            for w in iter_bits(rows[v]):
                if w != u and not rows[u] & (1 << w) and not rows[u] & rows[w]:
                    k += 1
            for w in iter_bits(rows[u]):
                if w != v and not rows[v] & (1 << w) and not rows[v] & rows[w]:
                    k += 1
            return k

        u, v = max(cands, key=kills)
        rows[u] |= 1 << v
        rows[v] |= 1 << u


def _seed_graphs(p: Graph) -> list[Graph]:
    seeds = [greedy_completion(p), duplication_seed(p)]
    bip = pin_bipartite_completion(p)
    if bip is not None:
        seeds.append(bip)
    try:
        seeds.append(construct_admissible(p, mis_budget=200_000).g)
    except (ValueError, RuntimeError):
        pass
    return seeds


def exact_ex(p: Graph, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleResult:
    """Maximum edge count over triangle-free supergraphs of p on its own
    vertex set.  ``proved`` is False only on budget exhaustion, in which
    case value/witness still describe a valid (possibly suboptimal) graph."""
    tri = find_triangle(p)
    if tri is not None:
        raise ValueError(f"pin must be triangle-free, found triangle {tri}")
    n = p.n
    cap = (n * n) // 4
    if n < 2:
        return OracleResult(0, p, 0, True)

    # seed the incumbent with cheap constructions
    best_g = p
    for s in _seed_graphs(p):
        if s.edge_count > best_g.edge_count and subgraph_of(p, s) and is_triangle_free(s):
            best_g = s
    best = [best_g.edge_count, list(best_g.adj)]
    if best[0] >= cap:
        return OracleResult(cap, Graph(n, best[1], validate=False), 0, True)

    pid = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            pid[u][v] = pid[v][u] = pair_to_index(u, v, n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]  # indexed by pair id

    b1 = build_b1(p)
    p_ids = set(p.edge_indices())
    cand0 = 0
    cnt0 = [0] * n
    for u, v in pairs:
        k = pid[u][v]
        if k not in p_ids and k not in b1:
            cand0 |= 1 << k
            cnt0[u] += 1
            cnt0[v] += 1

    nodes = [0]
    done = [False]

    def bound(rows, cnt, full) -> int:
        alpha_ub = clique_cover_bound(rows, full)
        tot = 0
        for v in range(n):
            tot += min(rows[v].bit_count() + cnt[v], alpha_ub)
        return min(tot // 2, cap)

    full_mask = (1 << n) - 1

    def search(rows, ecur, cand, cnt):
        if done[0]:
            return
        if nodes[0] >= budget:
            done[0] = True
            return
        nodes[0] += 1
        if ecur > best[0]:
            best[0], best[1] = ecur, list(rows)
            if ecur >= cap:
                done[0] = True
                return
        if not cand:
            return
        if bound(rows, cnt, full_mask) <= best[0]:
            return

        # branch on the candidate that conflicts with the most others
        best_k, best_kill = -1, -1
        m = cand
        while m:
            low = m & -m
            k = low.bit_length() - 1
            m ^= low
            u, v = pairs[k]
            kill = 0
            for w in iter_bits(rows[v]):
                if cand >> pid[u][w] & 1:
                    kill += 1
            for w in iter_bits(rows[u]):
                if cand >> pid[v][w] & 1:
                    kill += 1
            if kill > best_kill:
                best_kill, best_k = kill, k
        k = best_k
        u, v = pairs[k]
        bit = 1 << k

        # include: add the edge, drop it and everything it now blocks
        rows2 = list(rows)
        rows2[u] |= 1 << v
        rows2[v] |= 1 << u
        cand2 = cand & ~bit
        cnt2 = list(cnt)
        cnt2[u] -= 1
        cnt2[v] -= 1
        removed = 0
        for w in iter_bits(rows[v]):
            kb = 1 << pid[u][w]
            if cand2 & kb:
                removed |= kb
                cnt2[u] -= 1
                cnt2[w] -= 1
        for w in iter_bits(rows[u]):
            kb = 1 << pid[v][w]
            if cand2 & kb:
                removed |= kb
                cnt2[v] -= 1
                cnt2[w] -= 1
        search(rows2, ecur + 1, cand2 & ~removed, cnt2)

        # exclude
        cnt3 = list(cnt)
        cnt3[u] -= 1
        cnt3[v] -= 1
        search(rows, ecur, cand & ~bit, cnt3)

    search(list(p.adj), p.edge_count, cand0, cnt0)

    witness = Graph(n, best[1], validate=False)
    if not (is_triangle_free(witness) and subgraph_of(p, witness)):
        raise RuntimeError("oracle produced an invalid witness")
    return OracleResult(
        value=best[0],
        witness=witness,
        nodes=nodes[0],
        proved=not done[0] or best[0] >= cap,
    )


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
        verts = list(iter_bits(comp))
        k = len(verts)
        if k > MAX_CANON_COMPONENT:
            raise ValueError(f"component has {k} > {MAX_CANON_COMPONENT} vertices")
        back = {v: i for i, v in enumerate(verts)}
        local = [0] * k
        for i, v in enumerate(verts):
            for w in iter_bits(g.adj[v] & comp):
                local[i] |= 1 << back[w]
        keys.append((k, _min_bits(local, k)))
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
