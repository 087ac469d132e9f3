"""The four workloads: their inputs, made from the benchmark seed, and their CLI commands.

Each workload is a list of ``turanpin`` command lines run one after another
(a single client in a closed loop) with ``--jobs 1``.  Paths are relative to
the directory a run works in, so two runs of one seed write the same bytes.

* ``sweep`` and ``sample`` pass ``seed % POOL`` to the CLI's ``--seed``: the
  correctness checks compare their independence numbers with values proved
  once for every seed of that pool (``facts.json``).
* ``worst_case`` has no random input.
* ``construct`` runs on fixed pins from the benchmark's own triangle-free
  generator (not ``turanpin.randmodels``, so a sampler change cannot change
  them); the seed goes to the CLI's ``--seed``, which draws the extra random
  bipartitions and breaks greedy ties.

This module does not import ``turanpin``: the harness uses it to know what
the program was asked to do.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "sample", "worst_case", "construct")

POOL = 16

SWEEP_N = (64, 128)
SWEEP_D = (4, 8)
SWEEP_TRIALS = 6
SWEEP_TRIALS_MAX = 6
SWEEP_MIS_BUDGET = 20_000

UNIFORM_N, UNIFORM_EDGES, UNIFORM_TRIALS = 64, 128, 6
UNIFORM_TRIALS_MAX = 8
PROCESS_N, PROCESS_TRIALS, PROCESS_MIS_BUDGET = 384, 8, 2_000

WORST_M, WORST_N = 6, 11

# (n, average degree, mode); exact-mis pins run on the identity bipartition
# alone, greedy pins on it plus CONSTRUCT_BIPARTITIONS random ones.
CONSTRUCT_PINS = (
    (64, 3, "exact-mis"),
    (64, 4, "exact-mis"),
    (64, 5, "exact-mis"),
    (96, 4, "greedy"),
    (128, 8, "greedy"),
)
CONSTRUCT_MIS_BUDGET = 10_000
CONSTRUCT_BIPARTITIONS = 2
# generator seed of the construct pins: with it the three exact-mis pins
# include one that proves quickly, one that proves slowly and one that
# exhausts its budget
PIN_SEED = 2

OUT = "out"


def sweep_key(seed: int, n: int, d: float, trial: int) -> str:
    return f"{seed}/{n}/{float(d)}/{trial}"


def sample_key(seed: int, trial: int) -> str:
    return f"{seed}/{trial}"


def triangle_free_pin(n: int, avg_degree: int, seed) -> list[tuple[int, int]]:
    """Random greedy triangle-free graph with n * avg_degree / 2 edges.

    Pairs are visited in a seeded random order and kept when they close no
    triangle, until the edge target is met.
    """
    rng = random.Random(f"{seed}:{n}:{avg_degree}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    target = n * avg_degree // 2
    adj = [0] * n
    edges = []
    for u, v in pairs:
        if len(edges) == target:
            break
        if adj[u] & adj[v]:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        edges.append((u, v))
    if len(edges) != target:
        raise ValueError(f"no room for {target} edges on {n} vertices")
    return sorted(edges)


def edges_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def construct_inputs() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(relative path, n, edges) of every construct pin."""
    return [
        (f"pin{i}.edges", n, triangle_free_pin(n, d, PIN_SEED))
        for i, (n, d, _) in enumerate(CONSTRUCT_PINS)
    ]


def _sweep_argv(seed: int, n_values, d_values, trials: int, budget: int, outdir: str, prefix: str) -> list[str]:
    return [
        "scaling", "--model", "process",
        "--n-values", " ".join(map(str, n_values)),
        "--d-values", " ".join(map(str, d_values)),
        "--trials", str(trials), "--seed", str(seed), "--mis-budget", str(budget),
        "--jobs", "1", "--output-dir", outdir, "--prefix", prefix,
    ]


def _sample_argv(model: str, n: int, size: list[str], trials: int, seed: int, outdir: str, prefix: str) -> list[str]:
    return [
        "sample", "--model", model, "--n", str(n), *size,
        "--trials", str(trials), "--seed", str(seed), "--jobs", "1",
        "--output-dir", outdir, "--prefix", prefix,
    ]


def _construct_argv(path: str, mode: str, seed: int, budget: int, bipartitions: int, outdir: str, prefix: str) -> list[str]:
    return [
        "construct", path, "--mode", mode, "--mis-budget", str(budget),
        "--bipartitions", str(bipartitions), "--seed", str(seed),
        "--output-dir", outdir, "--prefix", prefix,
    ]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The timed command lines of one workload."""
    if workload == "sweep":
        return [_sweep_argv(seed % POOL, SWEEP_N, SWEEP_D, SWEEP_TRIALS, SWEEP_MIS_BUDGET, OUT, "sweep")]
    if workload == "sample":
        return [
            _sample_argv("uniform-tf", UNIFORM_N, ["--edges", str(UNIFORM_EDGES)], UNIFORM_TRIALS, seed % POOL, OUT, "uniform"),
            _sample_argv(
                "process", PROCESS_N, ["--steps", "to-completion", "--mis-budget", str(PROCESS_MIS_BUDGET)],
                PROCESS_TRIALS, seed % POOL, OUT, "process",
            ),
        ]
    if workload == "worst_case":
        return [["worst-case", str(WORST_M), str(WORST_N), "--output-dir", OUT, "--prefix", "worst"]]
    if workload == "construct":
        return [
            _construct_argv(
                path, mode, seed, CONSTRUCT_MIS_BUDGET,
                CONSTRUCT_BIPARTITIONS if mode == "greedy" else 0, OUT, f"c{i}",
            )
            for i, ((path, _, _), (_, _, mode)) in enumerate(zip(construct_inputs(), CONSTRUCT_PINS))
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_commands(workload: str) -> list[list[str]]:
    """Tiny runs of the workload's subcommands, made during set-up."""
    if workload == "sweep":
        return [_sweep_argv(0, (8,), (2,), 1, 1000, "warmup", "w")]
    if workload == "sample":
        return [
            _sample_argv("uniform-tf", 8, ["--edges", "6"], 1, 0, "warmup", "u"),
            _sample_argv("process", 8, ["--steps", "to-completion"], 1, 0, "warmup", "p"),
        ]
    if workload == "worst_case":
        return [["worst-case", "2", "5", "--output-dir", "warmup", "--prefix", "w"]]
    if workload == "construct":
        return [_construct_argv("warmup/pin.edges", "exact-mis", 0, 1000, 1, "warmup", "w")]
    raise ValueError(f"unknown workload {workload!r}")


WARMUP_PIN = (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
