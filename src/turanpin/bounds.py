"""Closed-form bounds for the pinned triangle-free edge maximum.

For a triangle-free pin P on vertices {0, ..., n-1}, the target quantity
ex_P(n) is the largest edge count of a triangle-free graph on the same
vertex set containing P.  This module evaluates the two-sided estimate

    (floor(n^2/4) - e - N) * psi(gamma * d)  <=  ex_P(n)  <=  n * alpha / 2

where e is the edge count of P, N its cherry count (paths with two edges),
alpha its independence number, d = 2e/n its average degree, and
gamma = n(n-2) / (floor(n^2/4) - e - N), defined only while e + N stays
below floor(n^2/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from turanpin.graphs import Graph, count_cherries
from turanpin.mis import DEFAULT_NODE_BUDGET, max_independent_set

# psi(1 + eps) = 1/2 - eps/6 + eps^2/12 - eps^3/20 + eps^4/30 - ...
# (alternating, coefficient 1/((j+1)(j+2))); used near the removable
# singularity where the closed form loses ~8 digits to cancellation.
_SERIES_RADIUS = 1e-4


def psi(d: float) -> float:
    """Decreasing map [0, inf) -> (0, 1]: (d ln d - d + 1)/(d - 1)^2.

    The removable singularity at d = 1 (value 1/2) is crossed via a short
    Taylor series; direct evaluation there cancels catastrophically.
    """
    d = float(d)
    if not math.isfinite(d) or d < 0:
        raise ValueError(f"psi needs a finite d >= 0, got {d!r}")
    eps = d - 1.0
    if abs(eps) < _SERIES_RADIUS:
        # truncation error below 1e-21 at this radius
        return 0.5 + eps * (-1.0 / 6 + eps * (1.0 / 12 + eps * (-1.0 / 20 + eps / 30)))
    if d == 0.0:
        return 1.0
    return (d * math.log(d) - d + 1.0) / ((d - 1.0) * (d - 1.0))


class GammaUndefinedError(ValueError):
    """gamma asked for a pin with e + cherries >= floor(n^2/4).

    ``excess`` carries e + cherries - floor(n^2/4), i.e. by how much the
    precondition failed (>= 0 whenever this error is raised).
    """

    def __init__(self, n: int, e: int, cherries: int):
        self.n = n
        self.e = e
        self.cherries = cherries
        self.excess = e + cherries - (n * n) // 4
        super().__init__(
            f"gamma undefined: e + cherries = {e + cherries} >= "
            f"floor(n^2/4) = {(n * n) // 4} (excess {self.excess})"
        )


def _gamma_terms(p: Graph) -> tuple[int, float, float]:
    """(slack, gamma, gamma * d) with slack = floor(n^2/4) - e - cherries.

    Raises GammaUndefinedError when the slack is not positive.
    """
    n = p.n
    if n < 2:
        raise ValueError(f"need n >= 2, got n = {n}")
    cherries = count_cherries(p)
    slack = (n * n) // 4 - p.edge_count - cherries
    if slack <= 0:
        raise GammaUndefinedError(n, p.edge_count, cherries)
    # gamma * d = 2 e (n-2) / slack, formed in one division from integers
    return slack, n * (n - 2) / slack, 2 * p.edge_count * (n - 2) / slack


def upper_bound(p: Graph, alpha: int) -> Fraction:
    """n * alpha / 2, exact.  alpha must be the independence number of p
    or a proven upper bound on it; the result inherits that status."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return Fraction(p.n * alpha, 2)


def lower_bound(p: Graph) -> float:
    """slack * psi(gamma * d) with d the average degree of p.

    Raises GammaUndefinedError exactly when gamma is undefined.  For an
    empty pin this returns floor(n^2/4) exactly.
    """
    slack, _, psi_arg = _gamma_terms(p)
    return slack * psi(psi_arg)


def shearer_floor(n_vertices: int, avg_degree: float) -> float:
    """n * psi(d): every triangle-free graph with these parameters has alpha at least this."""
    if avg_degree < 0:
        raise ValueError("average degree must be nonnegative")
    return n_vertices * psi(avg_degree)


@dataclass(frozen=True)
class BoundsReport:
    """Every scalar in the two-sided estimate for one pin."""

    n: int
    e_p: int
    cherries: int
    alpha_lo: int
    alpha_hi: int
    alpha_exact: bool
    d_p: Fraction
    gamma: float | None
    psi_arg: float | None
    psi_value: float | None
    upper_bound: Fraction
    lower_bound: float | None
    lower_bound_defined: bool

    def to_json_dict(self) -> dict:
        def frac(x: Fraction):
            return {
                "numerator": x.numerator,
                "denominator": x.denominator,
                "value": float(x),
            }

        return {
            "n": self.n,
            "e_p": self.e_p,
            "cherries": self.cherries,
            "alpha_lo": self.alpha_lo,
            "alpha_hi": self.alpha_hi,
            "alpha_exact": self.alpha_exact,
            "d_p": frac(self.d_p),
            "gamma": self.gamma,
            "psi_arg": self.psi_arg,
            "psi_value": self.psi_value,
            "upper_bound": frac(self.upper_bound),
            "lower_bound": self.lower_bound,
            "lower_bound_defined": self.lower_bound_defined,
        }


def bounds_report(p: Graph, mis_budget: int = DEFAULT_NODE_BUDGET) -> BoundsReport:
    """Evaluate both bounds for one pin; alpha degrades to an interval on budget."""
    if p.n < 3:
        raise ValueError(f"need n >= 3, got n = {p.n}")
    res = max_independent_set(p, budget=mis_budget)
    alpha_lo, alpha_hi = res.as_interval()
    try:
        slack, g, arg = _gamma_terms(p)
    except GammaUndefinedError:
        g = arg = pv = low = None
    else:
        pv = psi(arg)
        low = slack * pv
    return BoundsReport(
        n=p.n,
        e_p=p.edge_count,
        cherries=count_cherries(p),
        alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        alpha_exact=res.exact,
        d_p=Fraction(2 * p.edge_count, p.n),
        gamma=g,
        psi_arg=arg,
        psi_value=pv,
        upper_bound=upper_bound(p, alpha_hi),
        lower_bound=low,
        lower_bound_defined=low is not None,
    )
