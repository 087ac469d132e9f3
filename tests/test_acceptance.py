"""Acceptance gate: twelve criteria, one printed PASS/FAIL line each.

Each criterion prints exactly one line of the form

    ACCEPTANCE nn: PASS/FAIL — detail

directly to the terminal (bypassing capture) and then asserts.  Tolerances
and budgets are pinned here, not read from anywhere else.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from scipy import stats as scipy_stats

from turanpin.bounds import GammaUndefinedError, lower_bound, psi
from turanpin.cli import main
from turanpin.conflict import build_aux_slice, build_b1
from turanpin.construct import certify, construct_admissible
from turanpin.graphs import (
    Graph,
    balanced_bipartition,
    count_cherries,
    crossing_pairs,
    cycle_graph,
    from_graph6,
    is_triangle_free,
    pair_count,
    star_graph,
    to_graph6,
    write_graph,
)
from turanpin.mis import max_independent_set
from turanpin.oracle import canonical_key, exact_ex
from turanpin.randmodels import (
    MetropolisChain,
    _bipartite_seed,
    derive_rng,
    index_to_pair,
    triangle_free_process,
)

from references import (
    b2_edge_total,
    count_labeled_triangle_free,
    enumerate_labeled_triangle_free,
    exact_rejection_sample,
)

FLOAT_TOL = 1e-9  # slack for float-vs-int comparisons throughout


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _announce


def cli_json(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


def random_pin(n: int, rng, max_steps: int | None = None) -> Graph:
    """Seeded random triangle-free pin: a truncated process run."""
    cap = pair_count(n)
    hi = cap if max_steps is None else min(max_steps, cap)
    steps = int(rng.integers(0, hi + 1))
    return triangle_free_process(n, steps=steps, rng=rng).graph


def test_criterion_01_mantel_baseline(tmp_path, capsys, announce):
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 11):
        path = tmp_path / f"empty{n}.g6"
        write_graph(Graph(n), path)
        code, payload = cli_json(capsys, ["exact", str(path)])
        if code != 0 or not payload.get("proved") or payload["value"] != (n * n) // 4:
            bad.append((n, payload.get("value")))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    announce(1, ok, f"exact(empty n) = floor(n^2/4) for n in [3,10], {elapsed:.2f}s (limit 5s); mismatches: {bad}")


def test_criterion_02_star_values(tmp_path, capsys, announce):
    t0 = time.perf_counter()
    bad = []
    for n, m in [(7, 4), (8, 5), (9, 6), (9, 7)]:
        # regime where the closed form holds; at m == ceil(n/2) it
        # coincides with floor(n^2/4), so non-strict is correct
        assert 2 * m >= n
        path = tmp_path / f"star_{n}_{m}.g6"
        write_graph(star_graph(m, n=n), path)
        code, payload = cli_json(capsys, ["exact", str(path)])
        if code != 0 or not payload.get("proved") or payload["value"] != m * (n - m):
            bad.append((n, m, payload.get("value")))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    announce(2, ok, f"exact(K_1m on n) = m(n-m) for 4 star pins, {elapsed:.2f}s (limit 60s); mismatches: {bad}")


def test_criterion_03_two_sided_sandwich(announce):
    t0 = time.perf_counter()
    # every triangle-free isomorphism class on <= 6 vertices, as 6-vertex
    # graphs with isolated vertices allowed, deduplicated canonically
    classes = {}
    for bits in range(1 << pair_count(6)):
        rows = [0] * 6
        ok_tf = True
        for k in range(15):
            if bits >> k & 1:
                u, v = index_to_pair(k, 6)
                if rows[u] & rows[v]:
                    ok_tf = False
                    break
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if ok_tf:
            g = Graph(6, rows, validate=False)
            classes.setdefault(canonical_key(g), g)
    violations = []
    max_nodes = 0
    for rep in classes.values():
        p = rep.padded(8)
        res = exact_ex(p)
        max_nodes = max(max_nodes, res.nodes)
        alpha = max_independent_set(p)
        if not (res.proved and alpha.exact):
            violations.append((to_graph6(rep), "unproved"))
            continue
        if 2 * res.value > 8 * alpha.size:  # value <= n*alpha/2 exactly
            violations.append((to_graph6(rep), "upper"))
        if p.edge_count + count_cherries(p) < 16:  # slack positive: lower applies
            if lower_bound(p) > res.value + FLOAT_TOL:
                violations.append((to_graph6(rep), "lower"))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 600.0
    announce(
        3,
        ok,
        f"lower <= exact <= n*alpha/2 over {len(classes)} triangle-free classes (<=6 vertices) "
        f"at n=8, {elapsed:.2f}s (limit 600s), max search nodes {max_nodes}; violations: {violations}",
    )


def test_criterion_04_construction_certificates(announce):
    failures = []
    floors_checked = 0
    for trial in range(500):
        rng = derive_rng(40, trial)
        n = 3 + trial % 18  # n in [3, 20]
        p = random_pin(n, rng, max_steps=2 * n)
        result = construct_admissible(p, mode="exact-mis", rng=derive_rng(41, trial))
        cert = certify(result, p)
        if not cert.all_ok:
            failures.append((trial, to_graph6(p), cert.to_json_dict()))
            continue
        if result.mis_exact and result.formula_floor is not None:
            floors_checked += 1
            if result.i_size + FLOAT_TOL < result.formula_floor:
                failures.append((trial, to_graph6(p), "floor"))
    ok = not failures
    announce(
        4,
        ok,
        f"500 random pins (n<=20): all certificates pass, floor met in {floors_checked} "
        f"floor-defined cases; failures: {failures[:3]}",
    )


def test_criterion_05_conflict_claims(announce):
    violations = []
    b2_equalities = 0
    for trial in range(1000):
        rng = derive_rng(50, trial)
        n = 3 + trial % 10  # n in [3, 12]
        p = random_pin(n, rng, max_steps=2 * n)
        if len(build_b1(p)) > count_cherries(p):
            violations.append((trial, "b1"))
        total = b2_edge_total(p)
        cap = p.edge_count * (n - 2)
        if total > cap:
            violations.append((trial, "b2-total"))
        elif total == cap:
            b2_equalities += 1
        left, right = balanced_bipartition(n)
        s = crossing_pairs(left, right, n)
        aux = build_aux_slice(p, s)
        if not is_triangle_free(aux.slice_graph()):
            violations.append((trial, "b2-slice-triangle"))
    ok = not violations
    announce(
        5,
        ok,
        f"1000 pins (n<=12): |B1| <= cherry count, B2 edge total <= e(P)(n-2) "
        f"(equality observed in {b2_equalities}/1000), conflict slices triangle-free; "
        f"violations: {violations[:5]}",
    )


def test_criterion_06_psi_and_mantel_recovery(announce):
    problems = []
    if psi(0.0) != 1.0:
        problems.append("psi(0) != 1")
    if psi(1.0) != 0.5:
        problems.append("psi(1) != 1/2")
    grid = np.linspace(0.0, 100.0, 10_000)
    vals = np.array([psi(float(x)) for x in grid])
    if not np.all(np.diff(vals) < 0):
        problems.append("not strictly decreasing on [0,100] grid")
    for eps in (1e-7, -1e-7):
        if abs(psi(1.0 + eps) - 0.5) > 1e-7:
            problems.append(f"psi(1{eps:+g}) drifted from 1/2")
    for n in range(2, 101):
        if lower_bound(Graph(n)) != float((n * n) // 4):
            problems.append(f"lower_bound(empty, n={n}) != floor(n^2/4)")
            break
    ok = not problems
    announce(
        6,
        ok,
        "psi anchors exact, strict decrease on 10^4-point grid, |psi(1±1e-7) - 1/2| <= 1e-7, "
        f"empty-pin lower bound = floor(n^2/4) for n in [2,100]; problems: {problems}",
    )


def test_criterion_07_independence_floor(announce):
    violations = []
    for trial in range(200):
        rng = derive_rng(70, trial)
        n = 3 + trial % 28  # n in [3, 30]
        steps = "to-completion" if trial % 2 else int(rng.integers(0, pair_count(n) + 1))
        g = triangle_free_process(n, steps=steps, rng=rng).graph
        res = max_independent_set(g)
        if not res.exact:
            violations.append((trial, "alpha not exact"))
            continue
        d = 2 * g.edge_count / n
        if res.size + FLOAT_TOL < n * psi(d):
            violations.append((trial, to_graph6(g), res.size, n * psi(d)))
    ok = not violations
    announce(7, ok, f"alpha >= n*psi(d) on 200 triangle-free graphs (n<=30); violations: {violations[:3]}")


def test_criterion_08_process_runs(announce):
    t0 = time.perf_counter()
    violations = []
    outcomes = {3: set(), 4: set()}
    for n in range(3, 51):
        for trial in range(100):
            run = triangle_free_process(n, rng=derive_rng(80, n, trial))
            rows = [0] * n
            for k in run.trace:  # independent replay of every intermediate step
                u, v = index_to_pair(k, n)
                if rows[u] >> v & 1 or rows[u] & rows[v]:
                    violations.append((n, trial, "intermediate triangle"))
                    break
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            else:
                if tuple(rows) != run.graph.adj:
                    violations.append((n, trial, "trace mismatch"))
                maximal = all(
                    rows[u] >> v & 1 or rows[u] & rows[v]
                    for u in range(n)
                    for v in range(u + 1, n)
                )
                if not (run.completed and maximal):
                    violations.append((n, trial, "terminal not maximal"))
            if n in outcomes:
                outcomes[n].add(run.graph.edge_count)
        if violations:
            break
    if outcomes[3] != {2}:
        violations.append(("n=3 outcomes", outcomes[3]))
    if outcomes[4] != {3, 4}:
        violations.append(("n=4 outcomes", outcomes[4]))
    elapsed = time.perf_counter() - t0
    ok = not violations
    announce(
        8,
        ok,
        f"100 completed runs at each n in [3,50]: intermediates triangle-free, terminals maximal, "
        f"outcome sets n=3 {sorted(outcomes[3])} and n=4 {sorted(outcomes[4])}, {elapsed:.1f}s; "
        f"violations: {violations[:3]}",
    )


def test_criterion_09_uniform_sampler(announce):
    problems = []
    # chi-square: 10^4 chain samples at n=6, edges=6 against all labeled
    # triangle-free graphs; burn-in 50*n*edges, thinning 50, master seed 24
    cats = {g.adj: i for i, g in enumerate(enumerate_labeled_triangle_free(6, 6))}
    chain = MetropolisChain(_bipartite_seed(6, 6), derive_rng(24))
    chain.run(50 * 6 * 6)
    counts = np.zeros(len(cats))
    for _ in range(10_000):
        chain.run(50)
        counts[cats[chain.graph().adj]] += 1
    pvalue = scipy_stats.chisquare(counts).pvalue
    if pvalue <= 0.01:
        problems.append(f"chi-square p={pvalue:.4f} <= 0.01")

    # the exhaustive counter behind the n <= 7 rejection sampler must agree
    # exactly with an independent networkx enumeration
    for n, e in [(4, 3), (5, 4), (6, 6), (7, 4)]:
        theirs = 0
        for combo in itertools.combinations(itertools.combinations(range(n), 2), e):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(combo)
            if sum(nx.triangles(h).values()) == 0:
                theirs += 1
        mine = count_labeled_triangle_free(n, e)
        if mine != theirs:
            problems.append(f"count({n},{e}): {mine} != {theirs}")

    # rejection draws land inside the enumerated support
    support = {g.adj for g in enumerate_labeled_triangle_free(5, 4)}
    drawn = {exact_rejection_sample(5, 4, derive_rng(90, t)).adj for t in range(3000)}
    if not drawn <= support:
        problems.append("rejection sample outside enumerated support")
    if drawn != support:
        problems.append(f"rejection draws covered {len(drawn)}/{len(support)} labeled graphs")

    ok = not problems
    announce(
        9,
        ok,
        f"chain chi-square p={pvalue:.4f} > 0.01 over {len(cats)} labeled graphs (10^4 samples); "
        f"rejection counts match enumeration on 4 cases; problems: {problems}",
    )


def test_criterion_10_scaling_ratios(tmp_path, capsys, announce):
    t0 = time.perf_counter()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "model = process\n"
        "n_values = 64 128 256\n"
        "d_values = 4 8\n"
        "trials = 20\n"
        "seed = 12\n"
        "mis_budget = 200000\n"
        "jobs = 4\n"
    )
    code, _ = cli_json(capsys, ["scaling", "--config", str(cfg), "--output-dir", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    problems = [] if code == 0 else [f"exit code {code}"]

    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 120:
        problems.append(f"{len(rows)} rows != 120")
    for r in rows:
        if r[6]:  # lower_bound defined: must sit below upper_bound
            if float(r[6]) > float(r[7]) + FLOAT_TOL:
                problems.append(f"lower > upper at n={r[0]} d={r[1]} trial={r[2]}")

    summary = json.loads((tmp_path / "scaling.summary.json").read_text())
    if summary["failure_count"]:
        problems.append(f"{summary['failure_count']} trial failures")
    drift_notes = []
    for entry in summary["drift"]:
        for key in ("ratio_lower", "ratio_upper"):
            block = entry[key]
            if block is None:
                problems.append(f"no defined cells for {key} at d={entry['d']}")
                continue
            drift_notes.append(f"d={entry['d']} {key} drift={block['drift']:.2f}({block['cells_used']} cells)")
            if block["drift"] > 4.0:
                problems.append(f"{key} drift {block['drift']:.2f} > 4 at d={entry['d']}")
    if elapsed > 1800:
        problems.append(f"{elapsed:.0f}s > 30min")
    ok = not problems
    announce(
        10,
        ok,
        f"process model n in {{64,128,256}}, d in {{4,8}}, 20 trials, {elapsed:.0f}s (limit 1800s); "
        + "; ".join(drift_notes)
        + f"; problems: {problems}",
    )


def test_criterion_11_worst_case_tables(tmp_path, capsys, announce):
    problems = []
    code, payload = cli_json(
        capsys, ["worst-case", "1", "8", "--output-dir", str(tmp_path), "--prefix", "m1"]
    )
    if code != 0 or payload.get("value") != 16:
        problems.append(f"worst-case(1,8) = {payload.get('value')} != 16")

    code, payload = cli_json(
        capsys, ["worst-case", "5", "10", "--output-dir", str(tmp_path), "--prefix", "m5"]
    )
    if code != 0:
        problems.append(f"worst-case(5,10) exit {code}")
    rows = [json.loads(x) for x in (tmp_path / "m5.rows.jsonl").read_text().splitlines()]
    wanted = {"cycle": canonical_key(cycle_graph(5)), "star": canonical_key(star_graph(5))}
    found = {}
    for row in rows:
        key = canonical_key(from_graph6(row["pin_graph6"]))
        for name, target in wanted.items():
            if key == target:
                found[name] = (row["value"], row["proved"])
    for name in wanted:
        if name not in found:
            problems.append(f"m=5 table is missing the {name} row")
        elif not found[name][1]:
            problems.append(f"{name} row not proved")
    m5_value = payload.get("value")

    code, payload = cli_json(
        capsys, ["worst-case", "7", "8", "--output-dir", str(tmp_path), "--prefix", "m7"]
    )
    if code != 0 or payload.get("value", 99) > 7:  # the 7-edge star pins 7*(8-7) = 7
        problems.append(f"worst-case(7,8) = {payload.get('value')} > 7")
    ok = not problems
    announce(
        11,
        ok,
        f"worst-case(1,8)=16; m=5,n=10 table has 5-cycle row {found.get('cycle')} and star row "
        f"{found.get('star')} (table minimum {m5_value}); worst-case(7,8)={payload.get('value')} <= 7; "
        f"problems: {problems}",
    )


def test_criterion_12_determinism(tmp_path, capsys, announce):
    problems = []
    pin_path = tmp_path / "pin.g6"
    write_graph(cycle_graph(5, n=9), pin_path)

    outs = []
    for _ in range(2):
        main(["bounds", str(pin_path)])
        outs.append(capsys.readouterr().out)
    if outs[0] != outs[1]:
        problems.append("bounds stdout differs across reruns")

    for rerun in ("x", "y"):
        main(["exact", str(pin_path), "--output", str(tmp_path / f"exact_{rerun}.json")])
        capsys.readouterr()
        main(
            ["construct", str(pin_path), "--seed", "5", "--bipartitions", "2",
             "--output-dir", str(tmp_path / rerun)],
        )
        capsys.readouterr()
        main(["worst-case", "3", "7", "--output-dir", str(tmp_path / rerun)])
        capsys.readouterr()
    for name in ("construction.g6", "construction.cert.json", "worst_case.rows.jsonl"):
        if (tmp_path / "x" / name).read_bytes() != (tmp_path / "y" / name).read_bytes():
            problems.append(f"{name} differs across reruns")
    if (tmp_path / "exact_x.json").read_bytes() != (tmp_path / "exact_y.json").read_bytes():
        problems.append("exact output differs across reruns")

    for jobs in ("1", "4"):
        sub = tmp_path / f"jobs{jobs}"
        main(
            ["scaling", "--model", "process", "--n-values", "16 24", "--d-values", "3.0",
             "--trials", "6", "--seed", "31", "--jobs", jobs, "--output-dir", str(sub)],
        )
        capsys.readouterr()
        main(
            ["sample", "--model", "uniform-tf", "--n", "10", "--edges", "12", "--trials", "8",
             "--seed", "7", "--jobs", jobs, "--output-dir", str(sub)],
        )
        capsys.readouterr()
    for name in ("scaling.csv", "scaling.summary.json", "sample.g6", "sample.stats.jsonl"):
        if (tmp_path / "jobs1" / name).read_bytes() != (tmp_path / "jobs4" / name).read_bytes():
            problems.append(f"{name} differs between --jobs 1 and --jobs 4")
    ok = not problems
    announce(
        12,
        ok,
        f"byte-identical reruns for bounds/exact/construct/worst-case and --jobs 1 vs 4 for "
        f"scaling/sample; problems: {problems}",
    )
