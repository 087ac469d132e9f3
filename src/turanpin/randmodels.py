"""Random triangle-free graph models.

Three generators share a seedable numpy RNG discipline:

  * the sequential process that adds uniformly random open pairs (non-edges
    closing no triangle) until a target step count or until none remain;
  * independent-coin random graphs (not triangle-free in general, kept for
    degree/independence comparisons);
  * a fixed-edge-count uniform sampler over triangle-free graphs, realized
    by a Metropolis edge-swap chain.

``draw`` runs any of them by model name, with one size parameter each
(step count, edge count or edge probability); ``size_for_degree`` turns a
target average degree into that size.  Per-trial generators derive from a
master seed and index path through numpy's SeedSequence, so parallel trials
reproduce bit for bit.

The samplers draw vertex pairs by their flat "pair index": the position of
(u, v), u < v, in lexicographic order, so pair k of n vertices is
``index_to_pair(k, n)``.  It is the coordinate of their index draws and of
the addition order a process run reports as its ``trace``; outside this
module a pair is the tuple (u, v).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from turanpin.graphs import Graph, complete_bipartite, pair_count
from turanpin.mis import DEFAULT_NODE_BUDGET, max_independent_set

TO_COMPLETION = "to-completion"

MODELS = ("process", "uniform-tf", "erdos-renyi")

# proposals drawn per RNG batch; it fixes how the edge and non-edge draws
# interleave in the stream, so changing it changes every chain's output
_CHAIN_BATCH = 4096


def index_to_pair(k: int, n: int) -> tuple[int, int]:
    """The pair (u, v), u < v, at flat index k = u*n - u(u+1)/2 + v - u - 1."""
    if not 0 <= k < pair_count(n):
        raise ValueError(f"pair index {k} out of range for n={n}")
    # u is the largest value with u*n - u(u+1)/2 <= k; isqrt gets within one.
    disc = (2 * n - 1) ** 2 - 8 * k
    u = (2 * n - 1 - math.isqrt(disc)) // 2
    while u * n - u * (u + 1) // 2 > k:
        u -= 1
    while (u + 1) * n - (u + 1) * (u + 2) // 2 <= k:
        u += 1
    v = k - (u * n - u * (u + 1) // 2) + u + 1
    return (u, v)


def derive_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-trial stream: Generator(PCG64(SeedSequence([seed, *idx])))."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, indices)]))


def stream_key(master_seed: int, *indices: int) -> int:
    """64-bit label for the derived stream, usable as a per-trial record key."""
    seq = np.random.SeedSequence([int(master_seed), *map(int, indices)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class ProcessState:
    """Growing triangle-free graph plus its open-pair bookkeeping.

    ``open_pairs[0:open_count]`` lists exactly the non-edges whose addition
    closes no triangle; ``slot[k]`` inverts it (-1 when pair k is closed or
    already an edge).  ``open_rows`` holds the same set as bitset rows: bit w
    of ``open_rows[u]`` is set iff the pair {u, w} is open.  Adding {u, v}
    closes {u, w} exactly for the w in ``rows[v] & open_rows[u]`` (and
    symmetrically), so a step visits only the pairs it closes, each pair is
    retired once per run, and removal is swap-with-last.
    """

    __slots__ = ("n", "rows", "open_rows", "open_pairs", "slot", "step")

    def __init__(self, n: int):
        self.n = n
        self.rows = [0] * n
        self.open_rows = [((1 << n) - 1) ^ (1 << u) for u in range(n)]
        self.open_pairs = list(range(pair_count(n)))
        self.slot = list(range(pair_count(n)))
        self.step = 0

    @property
    def open_count(self) -> int:
        return len(self.open_pairs)

    def add_pair(self, k: int) -> None:
        """Add the open pair k as an edge and retire the pairs it closes.

        They leave ``open_pairs`` in the order k, then {u, w} by increasing
        w, then {v, w} by increasing w: the order fixes the list layout, and
        with it the pair that every later draw picks.
        """
        slot = self.slot
        if slot[k] == -1:
            raise ValueError(f"pair {k} is not open")
        n = self.n
        u, v = index_to_pair(k, n)
        rows, open_rows, open_pairs = self.rows, self.open_rows, self.open_pairs
        if rows[u] & rows[v]:
            raise RuntimeError("open-pair bookkeeping admitted a triangle")
        open_rows[u] ^= 1 << v
        open_rows[v] ^= 1 << u
        closed = [k]
        for a, b in ((u, v), (v, u)):
            # {a, w} closes for each open w adjacent to b
            fresh = rows[b] & open_rows[a]
            open_rows[a] ^= fresh
            bit_a = 1 << a
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                w = low.bit_length() - 1
                open_rows[w] ^= bit_a
                lo, hi = (a, w) if a < w else (w, a)
                # the flat index of (lo, hi); pair_to_index in tests/references.py
                closed.append(lo * n - lo * (lo + 1) // 2 + hi - lo - 1)
        for j in closed:
            s = slot[j]
            last = open_pairs.pop()
            if last != j:
                open_pairs[s] = last
                slot[last] = s
            slot[j] = -1
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        self.step += 1

    def step_random(self, rng: np.random.Generator) -> int:
        k = self.open_pairs[int(rng.integers(len(self.open_pairs)))]
        self.add_pair(k)
        return k

    def graph(self) -> Graph:
        return Graph(self.n, list(self.rows), validate=False)


@dataclass(frozen=True)
class ProcessRun:
    """One realization of the process with its addition order."""

    graph: Graph
    trace: tuple[int, ...]
    steps_requested: int | None
    completed: bool  # no open pairs remain
    truncated: bool  # asked for more steps than the run could take


def triangle_free_process(n: int, steps=TO_COMPLETION, rng=None) -> ProcessRun:
    """Add uniform random open pairs, ``steps`` times or to completion.

    A completed run is maximal: every remaining non-edge closes a triangle.
    Requesting more steps than the trajectory allows is not an error; the
    run stops at termination and sets ``truncated``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    to_end = steps == TO_COMPLETION
    if not to_end:
        steps = int(steps)
        if not 0 <= steps <= pair_count(n):
            raise ValueError(f"steps must lie in [0, {pair_count(n)}], got {steps}")
    state = ProcessState(n)
    trace = []
    target = None if to_end else steps
    while state.open_count and (target is None or state.step < target):
        trace.append(state.step_random(rng))
    return ProcessRun(
        graph=state.graph(),
        trace=tuple(trace),
        steps_requested=None if to_end else steps,
        completed=state.open_count == 0,
        truncated=(not to_end) and state.open_count == 0 and state.step < steps,
    )


def erdos_renyi(n: int, p: float, rng=None) -> Graph:
    """Independent coin per pair; makes no triangle-freeness promise."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if rng is None:
        rng = np.random.default_rng(0)
    total = pair_count(n)
    hits = np.nonzero(rng.random(total) < p)[0]
    return Graph.from_edges(n, [index_to_pair(int(k), n) for k in hits])


def _bipartite_seed(n: int, edges: int) -> Graph:
    """First ``edges`` crossing pairs of the balanced split, lexicographically."""
    full = complete_bipartite((n + 1) // 2, n // 2, n=n)
    take = itertools.islice(full.edges(), edges)
    return Graph.from_edges(n, list(take))


def sample_uniform_triangle_free(
    n: int,
    edges: int,
    chain_steps: int | None = None,
    rng=None,
) -> Graph:
    """Approximately uniform triangle-free graph with exactly ``edges`` edges.

    Metropolis chain: propose swapping one uniform edge for one uniform
    non-edge, accept iff still triangle-free.  The proposal is symmetric on
    the fixed-size state space, so the stationary law is uniform on the
    chain's component.  Component connectivity is validated empirically
    (see the rejection sampler), not proven.  Default burn-in is
    50 * n * edges proposals.
    """
    cap = (n * n) // 4
    if not 0 <= edges <= cap:
        raise ValueError(f"no triangle-free graph on {n} vertices has {edges} edges (max {cap})")
    if rng is None:
        rng = np.random.default_rng(0)
    if chain_steps is None:
        chain_steps = 50 * n * edges
    g = _bipartite_seed(n, edges)
    if edges == 0 or chain_steps == 0:
        return g
    chain = MetropolisChain(g, rng)
    chain.run(chain_steps)
    return chain.graph()


class MetropolisChain:
    """Edge-swap walker over triangle-free graphs with a fixed edge count.

    A proposal takes slot i of ``edges`` and slot j of ``nonedges`` and swaps
    the two pairs iff the graph stays triangle-free; the pairs trade slots,
    so both lists keep their lengths.  ``run`` draws the slots a batch of
    ``_CHAIN_BATCH`` proposals at a time, all i then all j, with one numpy
    call each.
    """

    def __init__(self, start: Graph, rng: np.random.Generator):
        self.n = start.n
        self.rows = list(start.adj)
        # both lists hold pairs (u, v), u < v, and start in lexicographic order
        self.edges = list(start.edges())
        self.nonedges = [
            (u, v) for u in range(self.n) for v in range(u + 1, self.n) if not self.rows[u] >> v & 1
        ]
        self.rng = rng
        self.accepted = 0
        self.proposed = 0

    def graph(self) -> Graph:
        return Graph(self.n, list(self.rows), validate=False)

    def run(self, proposals: int) -> None:
        edges, nonedges, rows = self.edges, self.nonedges, self.rows
        ne, nn = len(edges), len(nonedges)
        if ne == 0 or nn == 0:
            return
        integers = self.rng.integers
        accepted = 0
        left = proposals
        while left:
            m = min(left, _CHAIN_BATCH)
            eslots = integers(0, ne, size=m).tolist()
            nslots = integers(0, nn, size=m).tolist()
            for i, j in zip(eslots, nslots):
                e = eu, ev = edges[i]
                f = fu, fv = nonedges[j]
                # e is an edge and f a non-edge, so each ^= flips a known bit
                rows[eu] ^= 1 << ev
                rows[ev] ^= 1 << eu
                if rows[fu] & rows[fv]:
                    rows[eu] ^= 1 << ev
                    rows[ev] ^= 1 << eu
                    continue
                rows[fu] ^= 1 << fv
                rows[fv] ^= 1 << fu
                edges[i] = f
                nonedges[j] = e
                accepted += 1
            left -= m
        self.accepted += accepted
        self.proposed += proposals


def size_for_degree(model: str, n: int, d: float) -> int | float:
    """The size of ``model`` that targets average degree d on n vertices.

    That is the edge count round(n * d / 2) for the process and uniform-tf
    (the process count may exceed its pair count) and p = d / (n - 1) for
    erdos-renyi; raises ValueError where no graph of the model has degree d.
    """
    if model == "erdos-renyi":
        if d > n - 1:
            raise ValueError(f"average degree {d} exceeds n-1 = {n - 1}")
        if n < 2:
            raise ValueError("an edge probability needs n >= 2")
        return d / (n - 1)
    edges = round(n * d / 2)
    if model == "uniform-tf" and edges > (n * n) // 4:
        raise ValueError(f"average degree {d} infeasible for a triangle-free graph on {n}")
    return edges


def draw(model: str, n: int, size, rng, chain_steps: int | None = None) -> Graph:
    """One graph of ``model`` on n vertices.

    ``size`` is the process step count (or TO_COMPLETION), the uniform-tf
    edge count or the erdos-renyi edge probability; ``chain_steps`` is the
    uniform-tf burn-in.
    """
    if model == "process":
        return triangle_free_process(n, steps=size, rng=rng).graph
    if model == "uniform-tf":
        return sample_uniform_triangle_free(n, size, chain_steps=chain_steps, rng=rng)
    if model == "erdos-renyi":
        return erdos_renyi(n, size, rng)
    raise ValueError(f"model must be one of {MODELS}, got {model!r}")


@dataclass(frozen=True)
class SampleStats:
    """Scalar summary of one sampled graph, JSON-lines friendly."""

    edge_count: int
    avg_degree: float
    max_degree: int
    alpha_lo: int
    alpha_hi: int
    alpha_exact: bool
    seed: int | None = None

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "edge_count": self.edge_count,
                "avg_degree": self.avg_degree,
                "max_degree": self.max_degree,
                "alpha_lo": self.alpha_lo,
                "alpha_hi": self.alpha_hi,
                "alpha_exact": self.alpha_exact,
            },
            sort_keys=True,
        )


def model_stats(g: Graph, mis_budget: int = DEFAULT_NODE_BUDGET, seed: int | None = None) -> SampleStats:
    """Degrees exactly, independence number exactly or as a budget interval."""
    res = max_independent_set(g, budget=mis_budget)
    degs = g.degrees()
    return SampleStats(
        edge_count=g.edge_count,
        avg_degree=2 * g.edge_count / g.n if g.n else 0.0,
        max_degree=max(degs) if degs else 0,
        alpha_lo=res.size,
        alpha_hi=res.upper_bound,
        alpha_exact=res.exact,
        seed=seed,
    )
