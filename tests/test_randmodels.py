"""Random model tests: process invariants, chain uniformity, exact samplers."""

import itertools
import json
import math

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from turanpin.graphs import (
    Graph,
    complete_bipartite,
    is_triangle_free,
    iter_bits,
    pair_count,
)
from turanpin.randmodels import (
    TO_COMPLETION,
    MetropolisChain,
    ProcessState,
    SampleStats,
    _bipartite_seed,
    derive_rng,
    erdos_renyi,
    index_to_pair,
    model_stats,
    sample_uniform_triangle_free,
    triangle_free_process,
)

from references import (
    count_labeled_triangle_free,
    enumerate_labeled_triangle_free,
    exact_rejection_sample,
    pair_to_index,
)


def brute_open_pairs(g: Graph) -> set:
    """Literal definition: non-edges whose two ends share no neighbor."""
    out = set()
    k = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u] >> v & 1 and not g.adj[u] & g.adj[v]:
                out.add(k)
            k += 1
    return out


def nx_from(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# ---------------------------------------------------------------- process


def assert_bookkeeping_is_brute(state: ProcessState) -> None:
    want = brute_open_pairs(state.graph())
    assert sorted(state.open_pairs) == sorted(want)
    assert [state.slot[k] for k in state.open_pairs] == list(range(state.open_count))
    assert all(state.slot[k] == -1 for k in range(pair_count(state.n)) if k not in want)
    rows = [0] * state.n
    for k in want:
        u, v = index_to_pair(k, state.n)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    assert state.open_rows == rows


def test_open_pair_bookkeeping_matches_recompute_every_step():
    rng = derive_rng(11)
    state = ProcessState(12)
    assert_bookkeeping_is_brute(state)
    while state.open_count:
        state.step_random(rng)
        assert_bookkeeping_is_brute(state)


def test_open_pair_bookkeeping_larger_run_every_step():
    rng = derive_rng(12)
    state = ProcessState(40)
    while state.open_count:
        state.step_random(rng)
        assert_bookkeeping_is_brute(state)
    assert state.open_rows == [0] * 40


def test_add_pair_rejects_closed_pair():
    state = ProcessState(4)
    state.add_pair(0)  # edge {0,1}
    with pytest.raises(ValueError):
        state.add_pair(0)
    state.add_pair(pair_to_index(1, 2, 4))
    # {0,2} is a non-edge, closed by the path 0-1-2
    with pytest.raises(ValueError):
        state.add_pair(pair_to_index(0, 2, 4))
    assert_bookkeeping_is_brute(state)


class ReferenceProcessState:
    """Open-pair bookkeeping that drops every neighbour pair of a new edge,
    open or already closed, through a method call."""

    def __init__(self, n):
        self.n = n
        self.rows = [0] * n
        self.open_pairs = list(range(pair_count(n)))
        self.slot = list(range(pair_count(n)))
        self.step = 0

    def _drop(self, k):
        s = self.slot[k]
        if s == -1:
            return
        last = self.open_pairs[-1]
        self.open_pairs[s] = last
        self.slot[last] = s
        self.open_pairs.pop()
        self.slot[k] = -1

    def add_pair(self, k):
        if self.slot[k] == -1:
            raise ValueError(f"pair {k} is not open")
        u, v = index_to_pair(k, self.n)
        rows = self.rows
        if rows[u] & rows[v]:
            raise RuntimeError("open-pair bookkeeping admitted a triangle")
        self._drop(k)
        for w in iter_bits(rows[v]):
            self._drop(pair_to_index(u, w, self.n))
        for w in iter_bits(rows[u]):
            self._drop(pair_to_index(v, w, self.n))
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        self.step += 1

    def step_random(self, rng):
        k = self.open_pairs[int(rng.integers(len(self.open_pairs)))]
        self.add_pair(k)
        return k


def reference_process(n, steps, rng):
    """(rows, trace, steps_requested, completed, truncated) of one run."""
    to_end = steps == TO_COMPLETION
    state = ReferenceProcessState(n)
    trace = []
    while state.open_pairs and (to_end or state.step < steps):
        trace.append(state.step_random(rng))
    done = not state.open_pairs
    return (
        tuple(state.rows),
        tuple(trace),
        None if to_end else steps,
        done,
        (not to_end) and done and state.step < steps,
    )


def assert_process_matches_reference(n, steps, seed):
    rng, ref_rng = derive_rng(32, n, seed), derive_rng(32, n, seed)
    run = triangle_free_process(n, steps=steps, rng=rng)
    want = reference_process(n, steps, ref_rng)
    assert (run.graph.adj, run.trace, run.steps_requested, run.completed, run.truncated) == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 2, 3, 12, 40, 97])
def test_process_matches_drop_every_neighbour_reference(n):
    # pair_count(n) steps truncate for n >= 3: no maximal triangle-free graph is complete
    step_counts = [s for s in (0, 7, pair_count(n)) if s <= pair_count(n)]
    for seed in (0, 1, 2):
        for steps in [TO_COMPLETION, *step_counts]:
            assert_process_matches_reference(n, steps, seed)


def test_process_matches_drop_every_neighbour_reference_n384():
    assert_process_matches_reference(384, TO_COMPLETION, 0)


def test_process_intermediates_triangle_free_and_terminal_maximal():
    for trial in range(20):
        run = triangle_free_process(15, rng=derive_rng(13, trial))
        assert run.completed and not run.truncated
        rows = [0] * 15
        for k in run.trace:
            u, v = index_to_pair(k, 15)
            assert not rows[u] >> v & 1
            assert rows[u] & rows[v] == 0  # the added pair closes no triangle
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = run.graph
        assert tuple(rows) == g.adj
        assert is_triangle_free(g)
        assert brute_open_pairs(g) == set()  # maximal


def test_process_outcome_sets_small_n():
    outcomes3 = {triangle_free_process(3, rng=derive_rng(14, t)).graph.edge_count for t in range(100)}
    outcomes4 = {triangle_free_process(4, rng=derive_rng(15, t)).graph.edge_count for t in range(100)}
    # brute facts: every maximal triangle-free graph on 3 vertices is a path
    # (2 edges); on 4 vertices it is a star (3) or a 4-cycle (4)
    assert outcomes3 == {2}
    assert outcomes4 == {3, 4}


def test_process_step_semantics():
    run0 = triangle_free_process(6, steps=0, rng=derive_rng(16))
    assert run0.graph.edge_count == 0 and not run0.completed and not run0.truncated

    run3 = triangle_free_process(8, steps=3, rng=derive_rng(16))
    assert run3.graph.edge_count == 3 and run3.steps_requested == 3
    assert not run3.completed and not run3.truncated

    # n=4 terminates after at most 4 additions, so 6 requested steps truncate
    runt = triangle_free_process(4, steps=6, rng=derive_rng(16))
    assert runt.truncated and run_is_maximal(runt.graph)

    for bad in (-1, pair_count(6) + 1):
        with pytest.raises(ValueError):
            triangle_free_process(6, steps=bad, rng=derive_rng(16))


def run_is_maximal(g: Graph) -> bool:
    return is_triangle_free(g) and not brute_open_pairs(g)


def test_process_to_completion_spellings_agree():
    a = triangle_free_process(9, rng=derive_rng(17))
    b = triangle_free_process(9, steps="to-completion", rng=derive_rng(17))
    assert a.graph.adj == b.graph.adj
    assert a.trace == b.trace


def test_process_determinism_and_seed_sensitivity():
    a = triangle_free_process(14, rng=derive_rng(18, 5))
    b = triangle_free_process(14, rng=derive_rng(18, 5))
    assert a.trace == b.trace and a.graph.adj == b.graph.adj
    traces = {triangle_free_process(14, rng=derive_rng(18, t)).trace for t in range(8)}
    assert len(traces) > 1


def test_derive_rng_is_seed_sequence_mixing():
    want = np.random.default_rng(np.random.SeedSequence([7, 3, 1])).integers(2**63, size=4)
    got = derive_rng(7, 3, 1).integers(2**63, size=4)
    assert list(want) == list(got)
    other = derive_rng(7, 3, 2).integers(2**63, size=4)
    assert list(other) != list(got)


# ------------------------------------------------------------ erdos-renyi


def test_erdos_renyi_extremes_and_domain():
    assert erdos_renyi(9, 0.0, derive_rng(19)).edge_count == 0
    assert erdos_renyi(9, 1.0, derive_rng(19)).edge_count == pair_count(9)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            erdos_renyi(5, bad, derive_rng(19))


def test_erdos_renyi_mean_edges_within_three_sigma():
    n, p, trials = 30, 0.3, 200
    total = pair_count(n) * trials
    hits = sum(erdos_renyi(n, p, derive_rng(20, t)).edge_count for t in range(trials))
    sigma = math.sqrt(total * p * (1 - p))
    assert abs(hits - total * p) <= 3 * sigma


# ------------------------------------------------------------ swap chain


def test_bipartite_seed_shape():
    for n, e in [(6, 0), (6, 6), (6, 9), (7, 12), (10, 25), (5, 6)]:
        g = _bipartite_seed(n, e)
        assert g.edge_count == e and is_triangle_free(g)
    seed = _bipartite_seed(8, 16)
    assert seed.adj == complete_bipartite(4, 4).adj


def test_chain_stays_in_state_space():
    rng = derive_rng(21)
    chain = MetropolisChain(_bipartite_seed(7, 8), rng)
    for _ in range(60):
        chain.run(25)
        g = chain.graph()
        assert g.edge_count == 8 and is_triangle_free(g)
        assert sorted(chain.edges) == sorted(g.edges())
        eset = set(chain.edges)
        assert eset.isdisjoint(chain.nonedges)
        assert len(eset) + len(set(chain.nonedges)) == pair_count(7)


class ReferenceChain:
    """Metropolis chain keeping its edge and non-edge lists as flat pair
    indices, decoded on every proposal, in batches of 4096 draws."""

    def __init__(self, start, rng, batch=4096):
        self.n = start.n
        self.rows = list(start.adj)
        eset = {pair_to_index(u, v, self.n) for u, v in start.edges()}
        self.edges = sorted(eset)
        self.nonedges = [k for k in range(pair_count(self.n)) if k not in eset]
        self.rng = rng
        self.batch = batch
        self.accepted = 0
        self.proposed = 0

    def run(self, proposals):
        ne, nn = len(self.edges), len(self.nonedges)
        if ne == 0 or nn == 0:
            return
        left = proposals
        while left:
            m = min(left, self.batch)
            eslots = self.rng.integers(0, ne, size=m)
            nslots = self.rng.integers(0, nn, size=m)
            for i in range(m):
                self._propose(int(eslots[i]), int(nslots[i]))
            left -= m
        self.proposed += proposals

    def _propose(self, eslot, nslot):
        rows = self.rows
        e = self.edges[eslot]
        f = self.nonedges[nslot]
        eu, ev = index_to_pair(e, self.n)
        fu, fv = index_to_pair(f, self.n)
        rows[eu] &= ~(1 << ev)
        rows[ev] &= ~(1 << eu)
        if rows[fu] & rows[fv]:
            rows[eu] |= 1 << ev
            rows[ev] |= 1 << eu
            return
        rows[fu] |= 1 << fv
        rows[fv] |= 1 << fu
        self.edges[eslot] = f
        self.nonedges[nslot] = e
        self.accepted += 1


@pytest.mark.parametrize(
    "n,edges,runs",
    [
        (7, 8, (4133,)),  # not a multiple of the batch
        (8, 16, (300, 4097)),  # edges = floor(n^2/4)
        (9, 20, (700,)),  # edges = floor(n^2/4), odd n
        (8, 0, (100,)),
        (16, 30, (5000, 3)),
        (64, 128, (9001,)),
    ],
)
def test_chain_matches_pair_index_reference(n, edges, runs):
    for seed in (0, 1, 2):
        chain = MetropolisChain(_bipartite_seed(n, edges), derive_rng(31, n, seed))
        ref = ReferenceChain(_bipartite_seed(n, edges), derive_rng(31, n, seed))
        for proposals in runs:
            chain.run(proposals)
            ref.run(proposals)
            assert chain.graph().adj == tuple(ref.rows)
            assert (chain.accepted, chain.proposed) == (ref.accepted, ref.proposed)
            assert chain.rng.bit_generator.state == ref.rng.bit_generator.state
        assert [pair_to_index(u, v, n) for u, v in chain.edges] == ref.edges
        assert [pair_to_index(u, v, n) for u, v in chain.nonedges] == ref.nonedges


def test_sampler_feasibility_bounds():
    with pytest.raises(ValueError):
        sample_uniform_triangle_free(6, 10, rng=derive_rng(23))  # cap is 9
    with pytest.raises(ValueError):
        sample_uniform_triangle_free(6, -1, rng=derive_rng(23))


def test_sampler_extremal_edge_count_is_complete_bipartite():
    # at the maximum feasible count every triangle-free graph is a balanced
    # complete bipartite graph, so any chain state must look like one
    for trial in range(5):
        g = sample_uniform_triangle_free(6, 9, rng=derive_rng(24, trial))
        assert g.edge_count == 9 and is_triangle_free(g)
        assert sorted(g.degrees()) == [3] * 6
        assert nx.is_isomorphic(nx_from(g), nx.complete_bipartite_graph(3, 3))


def test_sampler_zero_steps_returns_seed():
    g = sample_uniform_triangle_free(8, 10, chain_steps=0, rng=derive_rng(25))
    assert g.adj == _bipartite_seed(8, 10).adj


def test_sampler_zero_edges():
    g = sample_uniform_triangle_free(5, 0, rng=derive_rng(26))
    assert g.edge_count == 0


def test_sampler_determinism():
    a = sample_uniform_triangle_free(10, 12, rng=derive_rng(27, 4))
    b = sample_uniform_triangle_free(10, 12, rng=derive_rng(27, 4))
    assert a.adj == b.adj


def test_chain_uniformity_chi_square_small():
    cats = {g.adj: i for i, g in enumerate(enumerate_labeled_triangle_free(5, 4))}
    assert len(cats) == 140
    rng = derive_rng(101)
    chain = MetropolisChain(_bipartite_seed(5, 4), rng)
    chain.run(50 * 5 * 4)
    counts = np.zeros(len(cats))
    for _ in range(2000):
        chain.run(20)
        counts[cats[chain.graph().adj]] += 1
    assert stats.chisquare(counts).pvalue > 0.01


# ----------------------------------------------------- exact small models


def test_enumeration_matches_networkx_counts():
    for n, e in [(4, 3), (5, 4), (5, 6), (6, 6)]:
        mine = 0
        seen = set()
        for g in enumerate_labeled_triangle_free(n, e):
            assert g.edge_count == e and is_triangle_free(g)
            assert g.adj not in seen
            seen.add(g.adj)
            mine += 1
        theirs = 0
        for combo in itertools.combinations(itertools.combinations(range(n), 2), e):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(combo)
            if sum(nx.triangles(h).values()) == 0:
                theirs += 1
        assert mine == theirs == count_labeled_triangle_free(n, e)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        count_labeled_triangle_free(8, 3)


def test_rejection_sampler_validity_and_guards():
    for trial in range(50):
        g = exact_rejection_sample(6, 5, derive_rng(28, trial))
        assert g.n == 6 and g.edge_count == 5 and is_triangle_free(g)
    with pytest.raises(ValueError):
        exact_rejection_sample(8, 3, derive_rng(28))
    with pytest.raises(ValueError):
        exact_rejection_sample(5, 7, derive_rng(28))  # cap is 6


def test_rejection_sampler_uniform_over_enumeration():
    cats = {g.adj: i for i, g in enumerate(enumerate_labeled_triangle_free(4, 3))}
    assert len(cats) == 16
    counts = np.zeros(len(cats))
    for trial in range(1600):
        g = exact_rejection_sample(4, 3, derive_rng(29, trial))
        counts[cats[g.adj]] += 1
    assert counts.min() > 0
    assert stats.chisquare(counts).pvalue > 0.01


def test_chain_and_rejection_supports_agree():
    # every graph the chain visits must be one the exact sampler can emit
    cats = {g.adj for g in enumerate_labeled_triangle_free(5, 4)}
    rng = derive_rng(30)
    chain = MetropolisChain(_bipartite_seed(5, 4), rng)
    visited = set()
    for _ in range(3000):
        chain.run(5)
        visited.add(chain.graph().adj)
    assert visited <= cats
    assert len(visited) == len(cats)  # chain reaches the whole space here


# ------------------------------------------------------------------ stats


def test_model_stats_known_graph():
    from turanpin.graphs import cycle_graph

    s = model_stats(cycle_graph(5), seed=77)
    assert s.edge_count == 5 and s.max_degree == 2
    assert s.avg_degree == 2.0
    assert (s.alpha_lo, s.alpha_hi, s.alpha_exact) == (2, 2, True)
    assert s.seed == 77
    blob = json.loads(s.to_json_line())
    assert blob["seed"] == 77 and blob["alpha_exact"] is True


def test_model_stats_budget_interval():
    g = complete_bipartite(9, 9)
    s = model_stats(g, mis_budget=1)
    assert s.alpha_lo <= 9 <= s.alpha_hi
    if not s.alpha_exact:
        assert s.alpha_lo < s.alpha_hi or s.alpha_hi == s.alpha_lo


def test_model_stats_empty_graph():
    s = model_stats(Graph(0))
    assert s.edge_count == 0 and s.avg_degree == 0.0 and s.max_degree == 0
