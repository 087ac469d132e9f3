"""Pipeline tests: admissibility, floor attainment, determinism."""

import json
import random

import numpy as np
import pytest

from turanpin.bounds import GammaUndefinedError, _gamma_terms
from turanpin.conflict import is_admissible
from turanpin.construct import (
    CertificateReport,
    ConstructionResult,
    certify,
    construct_admissible,
    formula_floor,
    write_construction,
)
from turanpin.graphs import (
    Graph,
    cycle_graph,
    from_graph6,
    is_triangle_free,
    path_graph,
    star_graph,
    subgraph_of,
)


def random_triangle_free(n, rng, density=0.25):
    edges = []
    g = Graph.empty(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < density:
            h = g.with_edges([(u, v)])
            if is_triangle_free(h):
                g = h
    return g


class TestPipeline:
    def test_empty_pin_recovers_balanced_bipartite(self):
        r = construct_admissible(Graph.empty(6))
        assert r.g.edge_count == 9
        assert r.mis_exact and r.i_size == 9
        assert r.formula_floor == 9.0

    def test_edge_across_default_split(self):
        # edge {0,3} crosses the split {0,1,2} | {3,4,5}: whole slice survives
        p = Graph.from_edges(6, [(0, 3)])
        r = construct_admissible(p)
        assert r.g.edge_count == 9
        assert r.s_prime_size == 8 and r.i_size == 8

    def test_path_pin_avoids_b1_pair(self):
        p = path_graph(3, n=6)
        r = construct_admissible(p)
        assert r.mis_exact
        assert not r.g.has_edge(0, 2) or p.has_edge(0, 2)
        assert r.i_size >= r.formula_floor - 1e-9

    def test_output_always_admissible(self):
        rng = random.Random(21)
        nprng = np.random.default_rng(21)
        for _ in range(60):
            p = random_triangle_free(rng.randrange(3, 13), rng)
            mode = "exact-mis" if rng.random() < 0.5 else "greedy"
            r = construct_admissible(p, mode=mode, bipartitions=rng.randrange(3), rng=nprng)
            assert is_admissible(p, r.g)
            assert r.g.edge_count == p.edge_count + r.i_size

    def test_floor_met_in_exact_mode(self):
        rng = random.Random(22)
        for _ in range(80):
            p = random_triangle_free(rng.randrange(3, 13), rng)
            r = construct_admissible(p)
            if not r.mis_exact or r.formula_floor is None:
                continue
            assert r.i_size >= r.formula_floor - 1e-9

    def test_slice_degree_below_gamma_d(self):
        # realized slice average degree never exceeds gamma * avg degree
        rng = random.Random(23)
        for _ in range(80):
            p = random_triangle_free(rng.randrange(3, 13), rng)
            try:
                cap = _gamma_terms(p)[1] * (2 * p.edge_count / p.n)
            except GammaUndefinedError:
                continue
            r = construct_admissible(p)
            assert r.slice_avg_degree <= cap + 1e-9

    def test_undefined_floor_still_builds(self):
        p = cycle_graph(5)  # e + cherries = 10 >= 6
        r = construct_admissible(p)
        assert r.formula_floor is None
        assert is_admissible(p, r.g)
        assert r.g.edge_count >= p.edge_count

    def test_deterministic_given_seed(self):
        p = star_graph(3, n=8)
        runs = [
            construct_admissible(p, mode="greedy", bipartitions=4, rng=np.random.default_rng(77))
            for _ in range(2)
        ]
        assert runs[0].g == runs[1].g
        assert runs[0].to_json_dict() == runs[1].to_json_dict()

    def test_more_bipartitions_never_hurt(self):
        p = path_graph(4, n=9)
        base = construct_admissible(p)
        more = construct_admissible(p, bipartitions=5, rng=np.random.default_rng(5))
        assert more.g.edge_count >= base.g.edge_count

    def test_rejects_triangled_pin_and_bad_mode(self):
        with pytest.raises(ValueError):
            construct_admissible(cycle_graph(3))
        with pytest.raises(ValueError):
            construct_admissible(Graph.empty(4), mode="annealing")
        with pytest.raises(ValueError):
            construct_admissible(Graph.empty(4), bipartitions=-1)

    def test_budget_exhaustion_downgrades(self):
        p = random_triangle_free(14, random.Random(3), density=0.4)
        r = construct_admissible(p, mis_budget=1)
        assert not r.mis_exact
        assert is_admissible(p, r.g)


class TestCertify:
    def test_pipeline_output_passes(self):
        p = path_graph(4, n=7)
        r = construct_admissible(p)
        cert = certify(r, p)
        assert cert.all_ok
        assert cert.floor_ok in (True, None)

    def test_injected_b1_violation_flagged(self):
        p = path_graph(3)
        bad = ConstructionResult(
            g=p.with_edges([(0, 2)]),
            i_size=1,
            s_prime_size=1,
            slice_avg_degree=0.0,
            formula_floor=None,
            mis_exact=False,
            bipartitions_tried=1,
        )
        cert = certify(bad, p)
        assert not cert.all_ok and not cert.b1_ok
        assert cert.b2_ok and cert.b3_ok

    def test_injected_triangle_among_added_flagged(self):
        p = Graph.empty(4)
        bad = ConstructionResult(
            g=cycle_graph(3, n=4),
            i_size=3,
            s_prime_size=3,
            slice_avg_degree=0.0,
            formula_floor=None,
            mis_exact=False,
            bipartitions_tried=1,
        )
        cert = certify(bad, p)
        assert not cert.b3_ok and not cert.triangle_free

    def test_edge_arithmetic_checked(self):
        p = Graph.empty(4)
        bad = ConstructionResult(
            g=Graph.from_edges(4, [(0, 1)]),
            i_size=5,
            s_prime_size=4,
            slice_avg_degree=0.0,
            formula_floor=None,
            mis_exact=False,
            bipartitions_tried=1,
        )
        assert not certify(bad, p).edge_arithmetic_ok


class TestArtifacts:
    def test_write_graph6_and_certificate(self, tmp_path):
        p = path_graph(3, n=6)
        r = construct_admissible(p)
        g6, cert = write_construction(r, p, str(tmp_path / "out"))
        with open(g6) as fh:
            assert from_graph6(fh.read().strip()) == r.g
        with open(cert) as fh:
            payload = json.load(fh)
        assert payload["certificate"]["all_ok"] is True
        assert payload["result"]["edges"] == r.g.edge_count

    def test_formula_floor_helper(self):
        assert formula_floor(cycle_graph(5)) is None
        assert formula_floor(Graph.empty(6)) == 9.0
