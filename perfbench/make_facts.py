"""Regenerate ``facts.json``: values the benchmark's correctness checks compare against.

Run from the repository root at the commit whose results serve as ground
truth (``made_at`` in the file records it):

    PYTHONPATH=src python3 perfbench/make_facts.py

For every seed of the input pool it records the independence number of each
scaling-sweep pin and of each uniform triangle-free draw, solved with a
budget large enough to prove it, and it records every row of the worst-case
table.  Takes about a quarter of an hour on one core.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from turanpin.cli import _sample_trial, _trial_graph
from turanpin.mis import max_independent_set
from turanpin.oracle import iter_worst_case_rows
from turanpin.randmodels import derive_rng

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402

FACT_BUDGET = 5_000_000


def sweep_facts() -> dict:
    out = {}
    for seed in range(W.POOL):
        for n in W.SWEEP_N:
            for d_idx, d in enumerate(W.SWEEP_D):
                for trial in range(W.SWEEP_TRIALS_MAX):
                    g = _trial_graph("process", n, float(d), derive_rng(seed, n, d_idx, trial), None)
                    res = max_independent_set(g, budget=FACT_BUDGET)
                    if not res.exact:
                        raise SystemExit(f"sweep pin {seed}/{n}/{d}/{trial} not proved in {FACT_BUDGET} nodes")
                    out[W.sweep_key(seed, n, d, trial)] = {"alpha": res.size, "e_P": g.edge_count, "nodes": res.nodes_explored}
        print(f"sweep seed {seed} done", file=sys.stderr, flush=True)
    return out


def sample_facts() -> dict:
    out = {}
    n, edges = W.UNIFORM_N, W.UNIFORM_EDGES
    for seed in range(W.POOL):
        for trial in range(W.UNIFORM_TRIALS_MAX):
            _, line = _sample_trial(("uniform-tf", n, edges, None, trial, seed, FACT_BUDGET, None))
            stats = json.loads(line)
            if not stats["alpha_exact"]:
                raise SystemExit(f"uniform draw {seed}/{trial} not proved in {FACT_BUDGET} nodes")
            out[W.sample_key(seed, trial)] = {"alpha": stats["alpha_lo"]}
        print(f"sample seed {seed} done", file=sys.stderr, flush=True)
    return out


def worst_case_facts() -> dict:
    from turanpin.graphs import to_graph6

    rows = {to_graph6(r.pin): r.value for r in iter_worst_case_rows(W.WORST_M, W.WORST_N)}
    return {"m": W.WORST_M, "n": W.WORST_N, "rows": rows}


def main() -> None:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    facts = {
        "made_at": sha or None,
        "pool": W.POOL,
        "worst_case": worst_case_facts(),
        "sample": sample_facts(),
        "sweep": sweep_facts(),
    }
    (HERE / "facts.json").write_text(json.dumps(facts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
