"""Reference implementations the tests compare the package against.

They are slow or limited on purpose, so the package does not ship them:
the flat pair index in its closed form, the pair-conflict edge total summed
pair by pair, and, for n <= 7, an exact rejection sampler and exhaustive
enumeration of labeled triangle-free graphs, the gold standard for the
Metropolis chain.
"""

import itertools

import numpy as np

from turanpin.conflict import _b2
from turanpin.graphs import Graph, pair_count
from turanpin.randmodels import index_to_pair

_REJECTION_MAX_N = 7
_REJECTION_MAX_TRIES = 10**7


def pair_to_index(u: int, v: int, n: int) -> int:
    """Flat index of the unordered pair {u, v}, lexicographic in (u, v)."""
    if u > v:
        u, v = v, u
    if u == v or v >= n or u < 0:
        raise ValueError(f"invalid pair ({u}, {v}) for n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def b2_edge_total(p: Graph) -> int:
    """Edge count of the full pair-conflict graph, summed over all pairs.

    Each p-edge contributes one conflict per outside vertex, so this comes
    out to e(p) * (n - 2); kept as a computed quantity so tests can compare
    against that closed form instead of assuming it.
    """
    return sum(len(_b2(p, u, v)) for u in range(p.n) for v in range(u + 1, p.n)) // 2


def _triangle_free_rows(n: int, pair_ids) -> list[int] | None:
    """Adjacency rows of the graph on these pair indices; None once one closes a triangle."""
    rows = [0] * n
    for k in pair_ids:
        u, v = index_to_pair(int(k), n)
        if rows[u] & rows[v]:
            return None
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def exact_rejection_sample(n: int, edges: int, rng=None) -> Graph:
    """Exactly uniform: draw edge sets uniformly, accept iff triangle-free.

    Only for n <= 7, where acceptance stays workable; the Metropolis chain
    is validated against this sampler and against full enumeration.
    """
    if n > _REJECTION_MAX_N:
        raise ValueError(f"rejection sampling is limited to n <= {_REJECTION_MAX_N}")
    cap = (n * n) // 4
    if not 0 <= edges <= cap:
        raise ValueError(f"no triangle-free graph on {n} vertices has {edges} edges (max {cap})")
    if rng is None:
        rng = np.random.default_rng(0)
    total = pair_count(n)
    for _ in range(_REJECTION_MAX_TRIES):
        rows = _triangle_free_rows(n, rng.choice(total, size=edges, replace=False))
        if rows is not None:
            return Graph(n, rows, validate=False)
    raise RuntimeError("rejection sampler exceeded its retry limit")


def enumerate_labeled_triangle_free(n: int, edges: int):
    """Yield every labeled triangle-free graph with the given edge count."""
    if n > _REJECTION_MAX_N:
        raise ValueError(f"exhaustive enumeration is limited to n <= {_REJECTION_MAX_N}")
    for combo in itertools.combinations(range(pair_count(n)), edges):
        rows = _triangle_free_rows(n, combo)
        if rows is not None:
            yield Graph(n, rows, validate=False)


def count_labeled_triangle_free(n: int, edges: int) -> int:
    return sum(1 for _ in enumerate_labeled_triangle_free(n, edges))
