"""Bound formula tests.  psi is checked against mpmath at 50 digits,
including an independent re-derivation of the Taylor coefficients used
near the removable singularity."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from turanpin.bounds import (
    BoundsReport,
    GammaUndefinedError,
    _gamma_terms,
    bounds_report,
    lower_bound,
    psi,
    upper_bound,
)
from turanpin.graphs import Graph, complete_bipartite, cycle_graph, star_graph


def psi_mp(d):
    # reference evaluation at 50 significant digits
    with mpmath.workdps(50):
        d = mpmath.mpf(d)
        if d == 0:
            return mpmath.mpf(1)
        if d == 1:
            return mpmath.mpf("0.5")
        return (d * mpmath.log(d) - d + 1) / (d - 1) ** 2


class TestPsi:
    def test_anchor_values(self):
        assert psi(0) == 1.0
        assert psi(1) == 0.5

    def test_value_at_e(self):
        # numerator collapses to 1 at d = e
        assert psi(math.e) == pytest.approx(1 / (math.e - 1) ** 2, rel=1e-14)

    def test_matches_high_precision_away_from_one(self):
        rng = random.Random(3)
        pts = [rng.uniform(0, 100) for _ in range(500)]
        pts += [0.5, 2.0, 10.0, 99.9, 1e-9, 3e-4]
        for d in pts:
            if abs(d - 1) < 1e-3:
                continue
            assert psi(d) == pytest.approx(float(psi_mp(d)), rel=1e-12)

    def test_matches_high_precision_near_one(self):
        # the series crossover region, where the closed form cancels
        for eps in [1e-12, 1e-9, 1e-7, 1e-5, 9e-5, -1e-12, -1e-7, -9e-5]:
            d = 1 + eps
            assert psi(d) == pytest.approx(float(psi_mp(d)), rel=1e-13)

    def test_series_coefficients_rederived(self):
        # rebuild the crossover coefficients from scratch in exact rationals:
        # start from the log series, form (1+e)ln(1+e) - e, divide by e^2
        order = 12
        log_series = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
        # sanity-check the log series itself against mpmath at a real point
        with mpmath.workdps(50):
            x = mpmath.mpf(1) / 3
            approx = sum(mpmath.mpf(c.numerator) / c.denominator * x**k for k, c in enumerate(log_series))
            assert abs(approx - mpmath.log(1 + x)) < mpmath.mpf("1e-7")
        numer = [Fraction(0)] * (order + 2)
        for k, c in enumerate(log_series):  # (1+e) * log(1+e)
            numer[k] += c
            numer[k + 1] += c
        numer[1] -= 1  # minus e
        assert numer[0] == 0 and numer[1] == 0
        derived = numer[2:]  # divide by e^2
        # these must equal the alternating 1/((j+1)(j+2)) pattern in psi
        for j, c in enumerate(derived[:8]):
            assert c == Fraction((-1) ** j, (j + 1) * (j + 2))
        # and the truncated series must reproduce psi inside the crossover
        for eps in [7e-5, -7e-5, 1e-5, -1e-6]:
            val = sum(float(c) * eps**j for j, c in enumerate(derived[:9]))
            assert psi(1 + eps) == pytest.approx(val, rel=1e-15)

    def test_continuity_across_one(self):
        assert abs(psi(1 + 1e-7) - 0.5) <= 1e-7
        assert abs(psi(1 - 1e-7) - 0.5) <= 1e-7

    def test_strictly_decreasing_on_grid(self):
        grid = [100 * k / 10**4 for k in range(10**4 + 1)]
        vals = [psi(d) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            psi(-0.1)
        with pytest.raises(ValueError):
            psi(float("nan"))
        with pytest.raises(ValueError):
            psi(float("inf"))


class TestGamma:
    def test_single_edge_n6(self):
        assert _gamma_terms(Graph.from_edges(6, [(0, 1)]))[1] == 3.0

    def test_empty_n4(self):
        assert _gamma_terms(Graph.empty(4))[1] == 2.0

    def test_c5_is_undefined(self):
        # e + cherries = 5 + 5 = 10 >= floor(25/4) = 6
        with pytest.raises(GammaUndefinedError) as exc:
            _gamma_terms(cycle_graph(5))
        assert exc.value.excess == 4

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            _gamma_terms(Graph.empty(1))
        # n = 2 is the smallest admitted size: slack 1, gamma 0
        assert _gamma_terms(Graph.empty(2))[1] == 0.0


class TestUpperBound:
    def test_c5(self):
        assert upper_bound(cycle_graph(5), 2) == Fraction(5)

    def test_empty_is_vacuous(self):
        assert upper_bound(Graph.empty(7), 7) == Fraction(49, 2)

    def test_star_on_five(self):
        assert upper_bound(star_graph(4), 4) == Fraction(10)

    def test_exact_rational(self):
        assert upper_bound(Graph.empty(5), 3) == Fraction(15, 2)

    def test_isolated_vertices_do_not_change_it(self):
        p = cycle_graph(5, n=9)
        q = cycle_graph(5, n=9)  # same n, same alpha
        assert upper_bound(p, 6) == upper_bound(q, 6)


class TestLowerBound:
    def test_single_edge_n6(self):
        # slack 8, psi_arg = 3 * (1/3) = 1, psi = 1/2
        assert lower_bound(Graph.from_edges(6, [(0, 1)])) == 4.0

    def test_empty_recovers_balanced_bipartite_count(self):
        for n in range(2, 101):
            if n < 3:
                continue
            assert lower_bound(Graph.empty(n)) == (n * n) // 4

    def test_c5_propagates_gamma_error(self):
        with pytest.raises(GammaUndefinedError):
            lower_bound(cycle_graph(5))

    def test_nonnegative_when_defined(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(3, 15)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.15
            ]
            p = Graph.from_edges(n, edges)
            try:
                val = lower_bound(p)
            except GammaUndefinedError:
                continue
            assert val >= 0


class TestReport:
    def test_fields_for_single_edge(self):
        rep = bounds_report(Graph.from_edges(6, [(0, 1)]))
        assert rep.alpha_exact and rep.alpha_lo == rep.alpha_hi == 5
        assert rep.gamma == 3.0 and rep.psi_arg == 1.0
        assert rep.lower_bound == 4.0
        assert rep.upper_bound == Fraction(15)
        assert rep.lower_bound_defined

    def test_undefined_side_is_flagged(self):
        rep = bounds_report(cycle_graph(5))
        assert not rep.lower_bound_defined
        assert rep.lower_bound is None and rep.gamma is None
        assert rep.upper_bound == Fraction(5)

    def test_json_round_trip(self):
        import json

        rep = bounds_report(complete_bipartite(2, 3, n=7))
        d = json.loads(json.dumps(rep.to_json_dict()))
        assert d["n"] == 7
        assert d["upper_bound"]["denominator"] >= 1
        assert d["alpha_exact"] is True
        assert d["lower_bound_defined"] == rep.lower_bound_defined

    def test_interval_alpha_on_starved_budget(self):
        rep = bounds_report(cycle_graph(7), mis_budget=1)
        assert not rep.alpha_exact
        assert rep.alpha_lo <= 3 <= rep.alpha_hi
        # upper bound built from alpha_hi is still a bound
        assert rep.upper_bound == Fraction(7 * rep.alpha_hi, 2)
