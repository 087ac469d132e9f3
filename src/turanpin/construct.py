"""Constructive pipeline: pin -> candidate bipartite pairs -> conflict slice
-> independent set of pairs -> certified triangle-free supergraph.

The pipeline realizes the lower bound constructively.  Starting from the
crossing pairs S of a balanced bipartition (|S| = floor(n^2/4)), drop the
pin's own edges and the b1 pairs, take a (maximum or greedy) independent
set I in the conflict slice, and return G = P + I.  Every output is
re-certified through the admissibility checker, and in exact mode the
realized size is checked against the closed-form floor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from turanpin.bounds import GammaUndefinedError, lower_bound, shearer_floor
from turanpin.conflict import AdmissibilityReport, build_aux_slice, is_admissible
from turanpin.graphs import (
    Graph,
    balanced_bipartition,
    components,
    crossing_pairs,
    find_triangle,
    iter_bits,
    to_graph6,
)
from turanpin.mis import DEFAULT_NODE_BUDGET, greedy_independent_set, max_independent_set

# float slop for comparing an integer count against the psi-based floor;
# psi itself is good to ~1e-12 relative, so this is generous
_FLOOR_TOL = 1e-9

MODES = ("exact-mis", "greedy")


def formula_floor(p: Graph) -> float | None:
    """Closed-form lower bound on achievable added edges; None when undefined."""
    try:
        return lower_bound(p)
    except GammaUndefinedError:
        return None


@dataclass(frozen=True)
class ConstructionResult:
    """Admissible supergraph with the pipeline's bookkeeping.

    e(g) always equals e(pin) + i_size; ``mis_exact`` says the slice search
    finished, in which case i_size is the slice independence number and
    meets the formula floor whenever that floor is defined.
    """

    g: Graph
    i_size: int
    s_prime_size: int
    slice_avg_degree: float
    formula_floor: float | None
    mis_exact: bool
    bipartitions_tried: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.g.n,
            "edges": self.g.edge_count,
            "i_size": self.i_size,
            "s_prime_size": self.s_prime_size,
            "slice_avg_degree": self.slice_avg_degree,
            "formula_floor": self.formula_floor,
            "mis_exact": self.mis_exact,
            "bipartitions_tried": self.bipartitions_tried,
        }


def _random_balanced_masks(n: int, rng) -> tuple[int, int]:
    order = rng.permutation(n)
    a = (n + 1) // 2
    left = 0
    for v in order[:a]:
        left |= 1 << int(v)
    return left, ((1 << n) - 1) ^ left


def pin_bipartite_completion(p: Graph) -> Graph | None:
    """Largest complete bipartite supergraph of the pin; None when the pin
    is not bipartite.

    Each component's 2-colouring is fixed up to swapping its classes (an
    isolated vertex has classes of sizes 1 and 0).  A bitset subset sum over
    the classes gives every reachable left-side size s; the first s that
    maximises s * (n - s) is traced back to the sides.
    """
    n = p.n
    classes = []
    for comp in components(p):
        side = [comp & -comp, 0]
        k, frontier = 0, side[0]
        while frontier:
            grown = 0
            for v in iter_bits(frontier):
                grown |= p.adj[v]
            if grown & side[k]:
                return None  # an edge inside one class closes an odd cycle
            k ^= 1
            frontier = grown & ~side[k]
            side[k] |= frontier
        classes.append(side)
    reach = [1]  # reach[i] bit s: some choice over the first i components puts s on the left
    for c0, c1 in classes:
        reach.append(reach[-1] << c0.bit_count() | reach[-1] << c1.bit_count())
    s = max((t for t in range(n + 1) if reach[-1] >> t & 1), key=lambda t: t * (n - t))
    left = 0
    for (c0, c1), before in zip(reversed(classes), reversed(reach[:-1])):
        c = c0 if s >= c0.bit_count() and before >> (s - c0.bit_count()) & 1 else c1
        left |= c
        s -= c.bit_count()
    right = ((1 << n) - 1) ^ left
    return Graph(n, [right if left >> v & 1 else left for v in range(n)], validate=False)


def construct_admissible(
    p: Graph,
    mode: str = "exact-mis",
    bipartitions: int = 0,
    rng=None,
    mis_budget: int = DEFAULT_NODE_BUDGET,
) -> ConstructionResult:
    """Build an admissible supergraph of p along the bipartite pipeline.

    Tries the identity balanced split, plus ``bipartitions`` random
    balanced splits, and keeps the output with the most edges.  In
    ``exact-mis`` mode each slice is solved exactly (budget permitting);
    ``greedy`` swaps in the randomized greedy heuristic.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tri = find_triangle(p)
    if tri is not None:
        raise ValueError(f"pin must be triangle-free, found triangle {tri}")
    if bipartitions < 0:
        raise ValueError("bipartitions must be >= 0")
    n = p.n
    if n < 2:
        return ConstructionResult(p, 0, 0, 0.0, formula_floor(p) if n >= 3 else None, True, 1)
    if rng is None:
        rng = np.random.default_rng(0)

    splits = [balanced_bipartition(n)]
    splits += [_random_balanced_masks(n, rng) for _ in range(bipartitions)]

    # slice pairs are never pin edges, so e(P + I) = e(P) + |I|: the split
    # with the largest I wins (the first on ties), and only its graph is built
    best = None
    for left, right in splits:
        sl = build_aux_slice(p, crossing_pairs(left, right, n))
        sg = sl.slice_graph()
        if mode == "exact-mis":
            res = max_independent_set(sg, budget=mis_budget)
            mask, exact = res.witness, res.exact
        else:
            mask, exact = greedy_independent_set(sg, rng), False
        if best is None or mask.bit_count() > best[0]:
            best = (mask.bit_count(), mask, sl, exact)

    i_size, mask, sl, exact = best
    g = p.with_edges(sl.pairs_from_mask(mask))
    sp = len(sl.s_prime)
    avg = 2 * sl.slice_edge_count() / sp if sp else 0.0
    floor = formula_floor(p) if n >= 3 else None

    report = is_admissible(p, g)
    if not report:
        raise RuntimeError(f"pipeline produced an inadmissible graph: {report.failed_conditions}")
    if exact and floor is not None:
        # realized slice floor dominates the closed-form floor; both must hold
        slice_floor = shearer_floor(sp, avg)
        if i_size + _FLOOR_TOL < slice_floor or i_size + _FLOOR_TOL < floor:
            raise RuntimeError(
                f"exact slice solution {i_size} fell below its floor "
                f"(slice {slice_floor}, formula {floor})"
            )

    return ConstructionResult(
        g=g,
        i_size=i_size,
        s_prime_size=sp,
        slice_avg_degree=avg,
        formula_floor=floor,
        mis_exact=exact,
        bipartitions_tried=len(splits),
    )


@dataclass(frozen=True)
class CertificateReport:
    """Independent re-verification of a construction result."""

    triangle_free: bool
    contains_base: bool
    b1_ok: bool
    b2_ok: bool
    b3_ok: bool
    edge_arithmetic_ok: bool
    floor_ok: bool | None  # None when no floor claim was made
    admissibility: AdmissibilityReport

    @property
    def failed_checks(self) -> list[str]:
        checks = ("triangle_free", "contains_base", "b1_ok", "b2_ok", "b3_ok", "edge_arithmetic_ok", "floor_ok")
        # floor_ok None means no floor claim was made, which is no failure
        return [name for name in checks if getattr(self, name) is not None and not getattr(self, name)]

    @property
    def all_ok(self) -> bool:
        return not self.failed_checks

    def to_json_dict(self) -> dict:
        return {
            "triangle_free": self.triangle_free,
            "contains_base": self.contains_base,
            "b1_ok": self.b1_ok,
            "b2_ok": self.b2_ok,
            "b3_ok": self.b3_ok,
            "edge_arithmetic_ok": self.edge_arithmetic_ok,
            "floor_ok": self.floor_ok,
            "all_ok": self.all_ok,
            "detail": self.admissibility.to_json_dict(),
        }


def certify(result: ConstructionResult, p: Graph) -> CertificateReport:
    """Re-check a result from scratch; failures are entries, not exceptions."""
    rep = is_admissible(p, result.g)
    if result.mis_exact and result.formula_floor is not None:
        floor_ok = result.i_size + _FLOOR_TOL >= result.formula_floor
    else:
        floor_ok = None
    return CertificateReport(
        triangle_free=rep.triangle_free,
        contains_base=rep.contains_base,
        b1_ok="b1" not in rep.failed_conditions,
        b2_ok="b2" not in rep.failed_conditions,
        b3_ok="b3" not in rep.failed_conditions,
        edge_arithmetic_ok=result.g.edge_count == p.edge_count + result.i_size,
        floor_ok=floor_ok,
        admissibility=rep,
    )


def write_construction(result: ConstructionResult, p: Graph, out_prefix: str) -> tuple[str, str]:
    """Certify the result, then dump the output graph (graph6) and its certificate (JSON).

    A result that fails its certificate is a broken invariant: RuntimeError
    naming the failed checks, and neither file is written.
    """
    cert = certify(result, p)
    if not cert.all_ok:
        raise RuntimeError(f"construction failed its own certificate: {', '.join(cert.failed_checks)}")
    g6_path = f"{out_prefix}.g6"
    cert_path = f"{out_prefix}.cert.json"
    with open(g6_path, "w") as fh:
        fh.write(to_graph6(result.g) + "\n")
    payload = {"result": result.to_json_dict(), "certificate": cert.to_json_dict()}
    with open(cert_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return g6_path, cert_path
