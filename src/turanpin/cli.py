"""Command-line front end and experiment harness.

Subcommands: bounds, construct, exact, scaling, worst-case, sample.

Exit codes: 0 success; 1 parse/config error; 2 semantic input error (for
example a pin that is not triangle-free, reported with a witness triangle);
3 search budget exhausted before certification; 70 internal error (an
invariant that should always hold failed, such as a certificate re-check).

Every command is deterministic under a fixed --seed.  Trial-level
parallelism (--jobs) derives one RNG stream per trial from the master seed,
and output rows are canonically sorted, so worker count never changes a
byte of output.  The default output directory is $TURANPIN_OUTPUT_DIR,
falling back to the current directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field, fields
from multiprocessing import get_context
from pathlib import Path

from turanpin.bounds import GammaUndefinedError, bounds_report, lower_bound
from turanpin.construct import MODES, certify, construct_admissible, write_construction
from turanpin.graphs import (
    Graph,
    GraphFormatError,
    find_triangle,
    read_graph,
    to_graph6,
)
from turanpin.mis import DEFAULT_NODE_BUDGET, max_independent_set
from turanpin.oracle import (
    DEFAULT_ORACLE_BUDGET,
    BudgetExhaustedError,
    exact_ex,
    iter_worst_case_rows,
)
from turanpin.randmodels import (
    TO_COMPLETION,
    derive_rng,
    erdos_renyi,
    model_stats,
    sample_uniform_triangle_free,
    stream_key,
    triangle_free_process,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 70

OUTPUT_DIR_ENV = "TURANPIN_OUTPUT_DIR"

MODELS = ("process", "uniform-tf", "erdos-renyi")

CSV_COLUMNS = (
    "n",
    "d",
    "trial",
    "e_P",
    "alpha",
    "delta",
    "lower_bound",
    "upper_bound",
    "ratio_lower",
    "ratio_upper",
)


class CliError(Exception):
    """Error with a contract exit code attached."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ------------------------------------------------------------------ helpers


def _at_least(k: int):
    """argparse type for an integer option that must be >= k."""

    def parse(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _finite_float(text: str) -> float:
    """argparse type for a float option that must be finite (not nan or inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite_float.__name__ = "float"  # argparse reports a non-number as "invalid float value"


def _load_pin(path: str, fmt: str | None) -> Graph:
    try:
        return read_graph(path, fmt)
    except (FileNotFoundError, IsADirectoryError) as err:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {err}") from err
    except (GraphFormatError, ValueError, OSError) as err:
        raise CliError(EXIT_USAGE, f"cannot parse {path}: {err}") from err


def _require_triangle_free(g: Graph) -> None:
    tri = find_triangle(g)
    if tri is not None:
        raise CliError(
            EXIT_SEMANTIC,
            f"input graph is not triangle-free: witness triangle {tri}",
        )


def _resolve_outdir(flag_value: str | None) -> Path:
    out = Path(flag_value or os.environ.get(OUTPUT_DIR_ENV) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ bounds


def cmd_bounds(args) -> int:
    g = _load_pin(args.graph, args.format)
    _require_triangle_free(g)
    rep = bounds_report(g, mis_budget=args.mis_budget)
    _emit(_dump_json(rep.to_json_dict()), args.output)
    return EXIT_OK


# --------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    g = _load_pin(args.graph, args.format)
    _require_triangle_free(g)
    result = construct_admissible(
        g,
        mode=args.mode,
        bipartitions=args.bipartitions,
        rng=derive_rng(args.seed),
        mis_budget=args.mis_budget,
    )
    cert = certify(result, g)
    if not cert.all_ok:
        sys.stderr.write(_dump_json(cert.to_json_dict()))
        print("internal error: construction failed its own certificate", file=sys.stderr)
        return EXIT_INTERNAL
    outdir = _resolve_outdir(args.output_dir)
    g6_path, cert_path = write_construction(result, g, str(outdir / args.prefix))
    summary = {
        "n": result.g.n,
        "pin_edges": g.edge_count,
        "edges": result.g.edge_count,
        "added_pairs": result.i_size,
        "formula_floor": result.formula_floor,
        "mis_exact": result.mis_exact,
        "graph6": to_graph6(result.g),
        "graph_path": g6_path,
        "certificate_path": cert_path,
    }
    _emit(_dump_json(summary), args.output)
    return EXIT_OK


# ------------------------------------------------------------------- exact


def cmd_exact(args) -> int:
    g = _load_pin(args.graph, args.format)
    _require_triangle_free(g)
    res = exact_ex(g, budget=args.budget)
    payload = {
        "n": g.n,
        "pin_edges": g.edge_count,
        "value": res.value,
        "proved": res.proved,
        "nodes": res.nodes,
        "witness": to_graph6(res.witness),
    }
    _emit(_dump_json(payload), args.output)
    if not res.proved:
        print(
            f"search budget exhausted: best found {res.value} is not certified optimal",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


# ----------------------------------------------------------------- scaling


@dataclass
class ExperimentConfig:
    """One scaling sweep: models x n_values x d_values x trials."""

    model: str = "process"
    n_values: list[int] = field(default_factory=list)
    d_values: list[float] = field(default_factory=list)
    trials: int = 1
    seed: int = 0
    mis_budget: int = DEFAULT_NODE_BUDGET
    chain_steps: int | None = None
    jobs: int = 1
    output_dir: str | None = None
    prefix: str = "scaling"

    def validate(self) -> None:
        if self.model not in MODELS:
            raise CliError(EXIT_USAGE, f"model must be one of {MODELS}, got {self.model!r}")
        if not self.n_values:
            raise CliError(EXIT_USAGE, "n_values must be non-empty")
        if not self.d_values:
            raise CliError(EXIT_USAGE, "d_values must be non-empty")
        if any(n < 3 for n in self.n_values):
            raise CliError(EXIT_USAGE, "every n must be >= 3")
        if not all(math.isfinite(d) for d in self.d_values):
            raise CliError(EXIT_USAGE, "every d must be finite")
        if any(not d > 1 for d in self.d_values):
            raise CliError(EXIT_USAGE, "every d must be > 1 (the ratio normalizer needs ln d > 0)")
        if self.trials < 1:
            raise CliError(EXIT_USAGE, "trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise CliError(EXIT_USAGE, "seed must be a 64-bit non-negative integer")
        if self.mis_budget < 1:
            raise CliError(EXIT_USAGE, "mis_budget must be >= 1")
        if self.jobs < 1:
            raise CliError(EXIT_USAGE, "jobs must be >= 1")
        if self.chain_steps is not None and self.chain_steps < 0:
            raise CliError(EXIT_USAGE, "chain_steps must be >= 0")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


_CONFIG_PARSERS = {
    "model": str,
    "n_values": _int_list,
    "d_values": _float_list,
    "trials": int,
    "seed": int,
    "mis_budget": int,
    "chain_steps": int,
    "jobs": int,
    "output_dir": str,
    "prefix": str,
}


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' comments and blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(EXIT_USAGE, f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_PARSERS:
            raise CliError(EXIT_USAGE, f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as err:
            raise CliError(EXIT_USAGE, f"config line {lineno}: bad value for {key}: {err}") from err
    return out


def _build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise CliError(EXIT_USAGE, f"cannot read config {args.config}: {err}") from err
        for key, value in parse_config_text(text).items():
            setattr(cfg, key, value)
    # the scaling options' dests are the config fields; unset ones stay None
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _trial_graph(model: str, n: int, d: float, rng, chain_steps: int | None) -> Graph:
    edges = round(n * d / 2)
    if model == "process":
        return triangle_free_process(n, steps=min(edges, n * (n - 1) // 2), rng=rng).graph
    if model == "uniform-tf":
        if edges > (n * n) // 4:
            raise ValueError(f"average degree {d} infeasible for a triangle-free graph on {n}")
        return sample_uniform_triangle_free(n, edges, chain_steps=chain_steps, rng=rng)
    if model == "erdos-renyi":
        if d > n - 1:
            raise ValueError(f"average degree {d} exceeds n-1 = {n - 1}")
        return erdos_renyi(n, d / (n - 1), rng)
    raise ValueError(f"unknown model {model!r}")


def _scaling_trial(spec) -> tuple[str, dict]:
    """One (n, d, trial) cell; returns ('row', ...) or ('fail', ...)."""
    model, n, d, d_idx, trial, seed, mis_budget, chain_steps = spec
    try:
        g = _trial_graph(model, n, d, derive_rng(seed, n, d_idx, trial), chain_steps)
    except ValueError as err:  # infeasible model parameters are logged, not fatal
        return ("fail", {"n": n, "d": d, "trial": trial, "error": f"{type(err).__name__}: {err}"})
    mis = max_independent_set(g, budget=mis_budget)
    alpha_lo, alpha_hi = mis.as_interval()
    upper = n * alpha_hi / 2
    try:
        lower = lower_bound(g)
    except GammaUndefinedError:
        lower = None
    norm = n * n * math.log(d) / d
    degs = g.degrees()
    return (
        "row",
        {
            "n": n,
            "d": d,
            "trial": trial,
            "e_P": g.edge_count,
            "alpha": alpha_lo,
            "delta": max(degs) if degs else 0,
            "lower_bound": lower,
            "upper_bound": upper,
            "ratio_lower": None if lower is None else lower / norm,
            "ratio_upper": upper / norm,
        },
    )


def _run_trials(specs, jobs: int, worker):
    if jobs <= 1 or len(specs) <= 1:
        return [worker(s) for s in specs]
    with get_context("fork").Pool(processes=jobs) as pool:
        return pool.map(worker, specs)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def _median_or_none(values: list[float], total: int):
    """Median over the defined values, required to be a majority of the cell."""
    if not values or 2 * len(values) < total:
        return None
    return statistics.median(values)


def _scaling_summary(cfg: ExperimentConfig, rows: list[dict], failures: list[dict]) -> dict:
    cells = []
    for n in cfg.n_values:
        for d in cfg.d_values:
            cell = [r for r in rows if r["n"] == n and r["d"] == d]
            defined = [r["ratio_lower"] for r in cell if r["ratio_lower"] is not None]
            cells.append(
                {
                    "n": n,
                    "d": d,
                    "rows": len(cell),
                    "lower_defined": len(defined),
                    "median_ratio_lower": _median_or_none(defined, len(cell)),
                    "median_ratio_upper": (
                        statistics.median([r["ratio_upper"] for r in cell]) if cell else None
                    ),
                }
            )

    def drift_of(medians: list[float]):
        if not medians:
            return None
        lo, hi = min(medians), max(medians)
        return {"cells_used": len(medians), "min": lo, "max": hi, "drift": hi / lo}

    drift = []
    for d in cfg.d_values:
        col = [c for c in cells if c["d"] == d]
        drift.append(
            {
                "d": d,
                "ratio_lower": drift_of(
                    [c["median_ratio_lower"] for c in col if c["median_ratio_lower"] is not None]
                ),
                "ratio_upper": drift_of(
                    [c["median_ratio_upper"] for c in col if c["median_ratio_upper"] is not None]
                ),
            }
        )
    return {
        "command": "scaling",
        "config": {
            "model": cfg.model,
            "n_values": cfg.n_values,
            "d_values": cfg.d_values,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "mis_budget": cfg.mis_budget,
            "chain_steps": cfg.chain_steps,
        },
        "rows_written": len(rows),
        "failure_count": len(failures),
        "failures": failures,
        "cells": cells,
        "drift": drift,
    }


def cmd_scaling(args) -> int:
    cfg = _build_config(args)
    specs = [
        (cfg.model, n, d, d_idx, t, cfg.seed, cfg.mis_budget, cfg.chain_steps)
        for n in cfg.n_values
        for d_idx, d in enumerate(cfg.d_values)
        for t in range(cfg.trials)
    ]
    results = _run_trials(specs, cfg.jobs, _scaling_trial)
    rows = sorted(
        (payload for kind, payload in results if kind == "row"),
        key=lambda r: (r["n"], r["d"], r["trial"]),
    )
    failures = sorted(
        (payload for kind, payload in results if kind == "fail"),
        key=lambda r: (r["n"], r["d"], r["trial"]),
    )
    for f in failures:
        print(f"trial failed (n={f['n']}, d={f['d']}, trial={f['trial']}): {f['error']}", file=sys.stderr)

    outdir = _resolve_outdir(cfg.output_dir)
    csv_path = outdir / f"{cfg.prefix}.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_csv_cell(r[c]) for c in CSV_COLUMNS])
    csv_path.write_text(buf.getvalue())

    summary = _scaling_summary(cfg, rows, failures)
    summary_path = outdir / f"{cfg.prefix}.summary.json"
    summary_text = _dump_json(summary)
    summary_path.write_text(summary_text)
    summary["csv_path"] = str(csv_path)
    summary["summary_path"] = str(summary_path)
    sys.stdout.write(_dump_json(summary))
    return EXIT_OK


# -------------------------------------------------------------- worst-case


def cmd_worst_case(args) -> int:
    outdir = _resolve_outdir(args.output_dir)
    rows_path = outdir / f"{args.prefix}.rows.jsonl"
    rows = []
    try:
        with open(rows_path, "w") as fh:
            for row in iter_worst_case_rows(args.m, args.n, budget=args.budget):
                fh.write(row.to_json_line() + "\n")
                rows.append(row)
    except BudgetExhaustedError as err:
        print(f"search budget exhausted: {err}", file=sys.stderr)
        print(f"partial rows kept in {rows_path}", file=sys.stderr)
        return EXIT_BUDGET
    best = min(rows, key=lambda r: r.value)
    payload = {
        "m": args.m,
        "n": args.n,
        "value": best.value,
        "minimizer": to_graph6(best.pin),
        "minimizer_edges": best.edges,
        "rows": len(rows),
        "rows_path": str(rows_path),
    }
    _emit(_dump_json(payload), args.output)
    return EXIT_OK


# ------------------------------------------------------------------ sample


def _sample_trial(spec) -> tuple[str, str]:
    model, n, value, steps_spec, trial, seed, mis_budget, chain_steps = spec
    rng = derive_rng(seed, trial)
    if model == "process":
        g = triangle_free_process(n, steps=steps_spec, rng=rng).graph
    elif model == "uniform-tf":
        g = sample_uniform_triangle_free(n, value, chain_steps=chain_steps, rng=rng)
    else:
        g = erdos_renyi(n, value, rng)
    stats = model_stats(g, mis_budget=mis_budget, seed=stream_key(seed, trial))
    return to_graph6(g), stats.to_json_line()


def cmd_sample(args) -> int:
    n = args.n
    chosen = [x for x in (args.edges, args.d, args.p, args.steps) if x is not None]
    if len(chosen) > 1:
        raise CliError(EXIT_USAGE, "give at most one of --edges / --d / --p / --steps")

    value = None
    steps_spec = None
    if args.model == "process":
        if args.edges is not None or args.p is not None:
            raise CliError(EXIT_USAGE, "the process model takes --steps or --d")
        if args.d is not None:
            steps_spec = round(n * args.d / 2)
        elif args.steps is not None:
            if args.steps == TO_COMPLETION:
                steps_spec = TO_COMPLETION
            else:
                try:
                    steps_spec = int(args.steps)
                except ValueError as err:
                    raise CliError(EXIT_USAGE, f'--steps takes an integer or "{TO_COMPLETION}"') from err
        else:
            steps_spec = TO_COMPLETION
        if steps_spec != TO_COMPLETION and not 0 <= steps_spec <= n * (n - 1) // 2:
            raise CliError(EXIT_USAGE, f"steps must lie in [0, {n * (n - 1) // 2}]")
    elif args.model == "uniform-tf":
        if args.p is not None or args.steps is not None:
            raise CliError(EXIT_USAGE, "the uniform-tf model takes --edges or --d")
        if args.d is not None:
            value = round(n * args.d / 2)
        elif args.edges is not None:
            value = args.edges
        else:
            raise CliError(EXIT_USAGE, "uniform-tf needs --edges or --d")
        if not 0 <= value <= (n * n) // 4:
            raise CliError(EXIT_USAGE, f"edge count {value} infeasible (max {(n * n) // 4})")
    else:  # erdos-renyi
        if args.edges is not None or args.steps is not None:
            raise CliError(EXIT_USAGE, "the erdos-renyi model takes --p or --d")
        if args.d is not None:
            if n < 2 or args.d > n - 1:
                raise CliError(EXIT_USAGE, "need d <= n-1 for an edge probability")
            value = args.d / (n - 1)
        elif args.p is not None:
            value = args.p
        else:
            raise CliError(EXIT_USAGE, "erdos-renyi needs --p or --d")
        if not 0 <= value <= 1:
            raise CliError(EXIT_USAGE, f"edge probability {value} outside [0, 1]")

    specs = [
        (args.model, n, value, steps_spec, t, args.seed, args.mis_budget, args.chain_steps)
        for t in range(args.trials)
    ]
    results = _run_trials(specs, args.jobs, _sample_trial)

    outdir = _resolve_outdir(args.output_dir)
    g6_path = outdir / f"{args.prefix}.g6"
    stats_path = outdir / f"{args.prefix}.stats.jsonl"
    g6_path.write_text("".join(line + "\n" for line, _ in results))
    stats_path.write_text("".join(line + "\n" for _, line in results))
    payload = {
        "model": args.model,
        "n": n,
        "trials": args.trials,
        "seed": args.seed,
        "graph6_path": str(g6_path),
        "stats_path": str(stats_path),
    }
    _emit(_dump_json(payload), args.output)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_graph_input(sub) -> None:
    sub.add_argument("graph", help="input graph file (graph6 or edge-list)")
    sub.add_argument("--format", choices=("g6", "edges"), default=None, help="override format inference")


def build_parser() -> _Parser:
    parser = _Parser(prog="turanpin", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("bounds", help="two-sided pinned edge-count bounds for a pin")
    _add_graph_input(p)
    p.add_argument(
        "--mis-budget", type=_at_least(1), default=DEFAULT_NODE_BUDGET, help="node budget for the exact alpha"
    )
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("construct", help="build an admissible supergraph with certificate")
    _add_graph_input(p)
    p.add_argument("--mode", choices=MODES, default="exact-mis")
    p.add_argument("--bipartitions", type=_at_least(0), default=0, help="extra random balanced splits to try")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--mis-budget", type=_at_least(1), default=DEFAULT_NODE_BUDGET)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--prefix", default="construction")
    p.add_argument("--output", default=None, help="write the summary JSON here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("exact", help="exact pinned maximum edge count")
    _add_graph_input(p)
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_ORACLE_BUDGET)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_exact)

    p = subs.add_parser("scaling", help="bound-ratio sweep over models of random pins")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--model", choices=MODELS, default=None)
    p.add_argument("--n-values", type=_int_list, default=None)
    p.add_argument("--d-values", type=_float_list, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mis-budget", type=int, default=None)
    p.add_argument("--chain-steps", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--prefix", default=None)
    p.set_defaults(func=cmd_scaling)

    p = subs.add_parser("worst-case", help="minimum pinned value over pins with at most m edges")
    p.add_argument("m", type=_at_least(1))
    p.add_argument("n", type=_at_least(3))
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_ORACLE_BUDGET)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--prefix", default="worst_case")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_worst_case)

    p = subs.add_parser("sample", help="draw random-model graphs with summary stats")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--d", type=_finite_float, default=None)
    p.add_argument("--p", type=_finite_float, default=None)
    p.add_argument("--steps", default=None, help='process step count or "to-completion"')
    p.add_argument("--trials", type=_at_least(1), default=1)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--mis-budget", type=_at_least(1), default=DEFAULT_NODE_BUDGET)
    p.add_argument("--chain-steps", type=_at_least(0), default=None)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--prefix", default="sample")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as err:
        return 0 if err.code is None else int(err.code)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BudgetExhaustedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except RuntimeError as err:  # a broken internal invariant, not bad input
        print(f"error: internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except GraphFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
