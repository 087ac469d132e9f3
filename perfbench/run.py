"""The turanpin benchmark.

    python3 perfbench/run.py --workload {sweep,sample,worst_case,construct} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each round is a fresh process
(``worker.py``) that sets up, then runs the workload's commands through
``turanpin.cli.main`` with ``--jobs 1``.  With ``--trace 0`` rounds repeat
while the next one is expected to end within ``--seconds`` (at least one),
and the end-to-end metrics are medians over rounds; ``wall_s`` and
``setup_s`` are scaled to a reference host speed (``at_reference_speed``).  With ``--trace 1`` one
untraced and one traced round run, their outputs must be byte-identical,
and the per-layer metrics come from the traced round.  Every round's
outputs are checked (``checks.py``).  The last line of stdout is the JSON
result; the lines before it give every metric by name and unit, the
diagnostics and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as W  # noqa: E402

# metric names and units; the result carries exactly these
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 9
# wall_s and setup_s are given at the host speed at which a host-speed
# sample (worker.spin) takes this long: about an uncontended vCPU of the
# 2-vCPU Intel Xeon VM the benchmark was written on
SPEED_REF_S = 0.0035
# a run must end within 180 s; the harness's own checks need a few of them
DEADLINE_S = 165

class Harness:
    """One benchmark run: its work directory, rounds, checks and result."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = root / ".bench_build" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.facts = json.loads((HERE / "facts.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.deadline = perf_counter() + DEADLINE_S

    def worker(self, trace: bool = False, setup_only: bool = False) -> tuple[Path, dict]:
        rundir = self.work / f"round{self.rounds}"
        self.rounds += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        # the same string hashes, so the same dict and set layouts, in every round
        env["PYTHONHASHSEED"] = "0"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--dir", str(rundir)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise SystemExit("error: out of time")
        proc = subprocess.run(cmd, env=env, cwd=self.root, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise SystemExit(f"worker failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
        return rundir, json.loads((rundir / "report.json").read_text())

    def check(self, rundir: Path, report: dict) -> checks.Tally:
        try:
            tally = checks.CHECKS[self.workload](rundir, self.seed, [c["rc"] for c in report["commands"]], self.facts)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:  # malformed outputs
            tally = checks.Tally()
            tally.item("outputs", [f"unreadable: {err!r}"])
        for failure in report["warmup_failures"]:
            tally.item("warm-up", [failure])
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.problems += tally.problems
        return tally

    def compare(self, a: Path, b: Path, what: str) -> None:
        diff = checks.same_outputs(a, b)
        self.attempted += 1
        if diff:
            self.failed += 1
            self.problems.append(f"{what}: outputs differ in {', '.join(diff[:5])}")

    def timed(self, seconds: float) -> dict:
        start = perf_counter()
        # warm-up: one untimed set-up fills the page cache and the .pyc caches
        self.worker(setup_only=True)
        rounds = []
        setups = []
        while True:
            t = perf_counter()
            rundir, report = self.worker()
            rounds.append((rundir, report))
            setups.append(setup_sample(report))
            # a set-up-only process after every round spreads the set-up
            # samples over the whole run instead of bunching them at its end
            t_setup = perf_counter()
            setups.append(setup_sample(self.worker(setup_only=True)[1]))
            now = perf_counter()
            # stop unless another round and the remaining set-ups fit
            rest = max(0, SETUP_SAMPLES - len(setups) - 2) * (now - t_setup)
            if now - start + (now - t) + rest > seconds:
                break
        tally = self.check(*rounds[0])
        for rundir, report in rounds[1:]:
            self.check(rundir, report)
            self.compare(rounds[0][0], rundir, "rerun")
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(self.worker(setup_only=True)[1]))
        first = rounds[0][1]
        walls = ", ".join(f"{r['wall_s']:.3f}" for _, r in rounds)
        print(f"rounds: {len(rounds)}; measured wall_s of each: {walls}")
        print(f"set-up samples, measured (s): {', '.join(f'{s:.4f}' for s, _ in setups)}")
        print(f"set-up samples, at reference speed (s): {', '.join(f'{at_reference_speed(*s):.4f}' for s in setups)}")
        for c in first["commands"]:
            print(f"  {c['wall_s']:9.3f} s  exit {c['rc']}  turanpin {' '.join(c['argv'])}")
        print(f"measured wall_s = {statistics.median(r['wall_s'] for _, r in rounds):.6g} s; "
              f"measured setup_s = {statistics.median(s for s, _ in setups):.6g} s")
        metrics = {
            "wall_s": statistics.median(at_reference_speed(r["wall_s"], r["speed_samples_s"]) for _, r in rounds),
            "setup_s": statistics.median(at_reference_speed(*s) for s in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in rounds),
            "alpha_exact_fraction": tally.exact_fraction,
            "certified_ratio": tally.mean_ratio,
        }
        result = report_metrics(SPEC["end_to_end"], metrics)
        # per-workload forms of certified_ratio, printed under their own names
        if self.workload in ("sweep", "sample"):
            print(f"alpha_gap = {1 - tally.mean_ratio:.6g} ratio")
        if self.workload == "construct":
            print(f"construct_edge_ratio = {tally.mean_ratio:.6g} ratio")
        self.environment(first)
        return result

    def traced(self) -> dict:
        plain_dir, plain = self.worker()
        traced_dir, traced = self.worker(trace=True)
        self.check(plain_dir, plain)
        self.check(traced_dir, traced)
        self.compare(plain_dir, traced_dir, "traced run")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        self_total = sum(v for k, v in layers.items() if k.startswith("layer_self."))
        self.attempted += 1
        if abs(self_total - traced["wall_s"]) > 0.01 * traced["wall_s"] + 0.01:
            self.failed += 1
            self.problems.append(f"layer self times add to {self_total:.4f} s, traced wall is {traced['wall_s']:.4f} s")
        print(f"untraced wall_s = {plain['wall_s']:.4f} s; traced wall_s = {traced['wall_s']:.4f} s; "
              f"layer self times add to {self_total:.4f} s")
        for key in sorted(k for k in layers if k.startswith("layer_self.")):
            share = layers[key] / self_total if self_total else 0.0
            print(f"  {key[len('layer_self.'):]:<10} {layers[key]:9.3f} s  {100 * share:5.1f}%")
        result = report_metrics(SPEC["per_layer"], layers)
        self.environment(traced)
        return result

    def environment(self, report: dict) -> None:
        env = {
            "workload": self.workload,
            "seed": self.seed,
            "python": report["python"],
            "numpy": report["numpy"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            **git_state(self.root),
        }
        print("environment: " + json.dumps(env, sort_keys=True))


def setup_sample(report: dict) -> tuple[float, list[float]]:
    return report["setup_s"], report["setup_speed_samples_s"]


def at_reference_speed(seconds: float, speed_samples: list[float]) -> float:
    """``seconds`` measured on a host whose speed the samples give, scaled to SPEED_REF_S.

    The samples come at even intervals of wall time, so the harmonic mean of
    their durations is the one the host would have had at a steady speed.
    """
    return seconds * SPEED_REF_S / statistics.harmonic_mean(speed_samples)


def report_metrics(spec: list[dict], values: dict) -> dict:
    """Print each metric of ``spec`` by name and unit; return them for the result line."""
    for m in spec:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_state(root: Path) -> dict:
    """Commit and dirty flag, or nulls when the tree is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], env=env, capture_output=True, text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return {"git_sha": head.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "turanpin" / "cli.py").is_file():
        raise SystemExit("error: run from the repository root; src/turanpin/cli.py not found")
    h = Harness(args.workload, args.seed, root)
    try:
        metrics = h.traced() if args.trace else h.timed(args.seconds)
    finally:
        shutil.rmtree(h.work, ignore_errors=True)
    for p in h.problems[:50]:
        print(f"FAILED {p}")
    print(f"attempted {h.attempted}, failed {h.failed}, fail_fraction = {h.failed / h.attempted:.6g} ratio")
    print(json.dumps({"correct": h.failed == 0, "attempted": h.attempted, "failed": h.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
