"""One fresh process of the benchmark: set up, then run one workload's commands.

    python3 perfbench/worker.py --workload W --seed N --dir D [--trace] [--setup-only]

Runs with ``src`` on ``PYTHONPATH`` and works inside ``D``.  Set-up is the
import of ``turanpin.cli``, writing the input files and a warm-up run of
tiny commands.  The workload's commands then go through
``turanpin.cli.main`` one after another, each one's stdout and stderr kept
in ``cmd<k>.stdout`` / ``cmd<k>.stderr``.  Writes ``report.json`` with the
times, exit codes, peak memory and, with ``--trace``, the per-layer metrics.

A wall-clock timer interrupts the set-up every ``SETUP_PERIOD_S`` seconds,
and the commands of an untraced round every ``COMMAND_PERIOD_S`` seconds,
to time a small fixed piece of pure-Python work (``HostSpeed``).  The
harness uses these samples to scale the times to a reference host speed.
The interruptions' own time is left out of the set-up and command times.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402


SETUP_PERIOD_S = 0.03
COMMAND_PERIOD_S = 0.2
SAMPLE_LOOPS = 6_000


def spin(loops: int) -> int:
    """A fixed piece of integer, bit, list and dict work, like the solvers' inner loops."""
    acc = 0
    seen = {}
    stack = []
    for i in range(loops):
        x = (i * 2654435761) & 0xFFFFFFFFFFFF
        acc = (acc ^ (x >> 7)) + (x & ~acc & 0xFFFF).bit_count()
        stack.append(acc & 0xFFF)
        if len(stack) > 64:
            seen[stack.pop(0)] = i
    return acc + len(seen)


class HostSpeed:
    """Times ``spin(SAMPLE_LOOPS)`` on a wall-clock timer while it is started."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        spin(SAMPLE_LOOPS)
        self.samples.append(perf_counter() - t)

    def start(self, period: float) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> float:
        """Seconds taken by the samples so far."""
        return sum(self.samples)


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, as a separate process would give them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # an uncaught error ends a CLI process with exit 1 and a traceback
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    setup_speed = HostSpeed()
    setup_speed.start(SETUP_PERIOD_S)
    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)

    # ---- set-up: import, inputs, warm-up
    from turanpin.cli import main as cli_main
    import numpy

    if args.workload == "construct":
        for path, n, edges in W.construct_inputs():
            Path(path).write_text(W.edges_text(n, edges))
    os.makedirs("warmup", exist_ok=True)
    Path("warmup/pin.edges").write_text(W.edges_text(*W.WARMUP_PIN))
    warmup_failures = []
    for argv in W.warmup_commands(args.workload):
        rc, _, err = run_cli(cli_main, argv)
        if rc != 0:
            warmup_failures.append(f"exit {rc}: turanpin {' '.join(argv)}: {err.strip()[-300:]}")
    setup_speed.stop()
    report = {
        "setup_s": perf_counter() - T0 - setup_speed.spent(),
        "setup_speed_samples_s": setup_speed.samples,
        "warmup_failures": warmup_failures,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }

    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        runs = []
        speed = HostSpeed()
        if tracer is None:
            speed.start(COMMAND_PERIOD_S)
        for k, argv in enumerate(W.commands(args.workload, args.seed)):
            t = perf_counter()
            spent = speed.spent()
            if tracer is not None:
                idx = tracer.begin("main", "cli")
            rc, out, err = run_cli(cli_main, argv)
            if tracer is not None:
                tracer.end(idx)
            wall = perf_counter() - t - (speed.spent() - spent)
            Path(f"cmd{k}.stdout").write_text(out)
            Path(f"cmd{k}.stderr").write_text(err)
            runs.append({"argv": argv, "rc": rc, "wall_s": wall})
        speed.stop()
        report["commands"] = runs
        report["speed_samples_s"] = speed.samples
        report["wall_s"] = sum(r["wall_s"] for r in runs)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.layer_metrics()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path("report.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
