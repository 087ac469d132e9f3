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
from contextlib import contextmanager
from multiprocessing import get_context
from pathlib import Path

from turanpin.bounds import bounds_report
from turanpin.construct import MODES, construct_admissible, write_construction
from turanpin.graphs import (
    Graph,
    GraphFormatError,
    find_triangle,
    pair_count,
    read_graph,
    to_graph6,
)
from turanpin.mis import DEFAULT_NODE_BUDGET
from turanpin.oracle import (
    DEFAULT_ORACLE_BUDGET,
    BudgetExhaustedError,
    exact_ex,
    iter_worst_case_rows,
)
from turanpin.randmodels import (
    MODELS,
    TO_COMPLETION,
    derive_rng,
    draw,
    model_stats,
    size_for_degree,
    stream_key,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 70

OUTPUT_DIR_ENV = "TURANPIN_OUTPUT_DIR"

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


def _checked(parse, ok, rule: str):
    """argparse type: ``parse`` the text, then require ``ok`` of the value."""

    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    check.__name__ = parse.__name__  # argparse reports a non-integer as "invalid int value"
    return check


def _at_least(k: int):
    """argparse type for an integer option that must be >= k."""
    return _checked(int, lambda value: value >= k, f">= {k}")


_finite_float = _checked(float, math.isfinite, "finite")

# every command's seed: an unsigned 64-bit integer
_seed = _checked(int, lambda seed: 0 <= seed < 2**64, "in [0, 2**64)")


def _list_of(item):
    """argparse type for a comma- or space-separated list of ``item`` values."""

    def parse(text: str) -> list:
        return [item(x) for x in text.replace(",", " ").split()]

    parse.__name__ = "list"
    return parse


def _steps(text: str):
    """argparse type for a process step count or "to-completion"."""
    if text == TO_COMPLETION:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f'takes an integer or "{TO_COMPLETION}", got {text}') from None


# --format choices, by the names graphs.read_graph knows them by
_FORMATS = {"g6": "graph6", "edges": "edge-list"}


def _load_pin(path: str, fmt: str | None) -> Graph:
    try:
        return read_graph(path, _FORMATS.get(fmt))
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


@contextmanager
def _writing(path):
    """Report an OSError raised while writing ``path`` as a file error (exit 1)."""
    try:
        yield
    except OSError as err:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {err}") from err


def _resolve_outdir(flag_value: str | None) -> Path:
    out = Path(flag_value or os.environ.get(OUTPUT_DIR_ENV) or ".")
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path, text: str) -> None:
    with _writing(path):
        Path(path).write_text(text)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        _write_text(output, text)
    else:  # a closed stdout stays a BrokenPipeError, which exits 0
        sys.stdout.write(text)


# ------------------------------------------------------------------ bounds


def cmd_bounds(args) -> int:
    g = _load_pin(args.graph, args.format)
    _require_triangle_free(g)
    try:
        rep = bounds_report(g, mis_budget=args.mis_budget)
    except ValueError as err:  # fewer than 3 vertices
        raise CliError(EXIT_SEMANTIC, f"cannot bound {args.graph}: {err}") from err
    _emit(_dump_json(rep.to_json_dict()), args.output)
    return EXIT_OK


# --------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    g = _load_pin(args.graph, args.format)
    _require_triangle_free(g)
    outdir = _resolve_outdir(args.output_dir)
    result = construct_admissible(
        g,
        mode=args.mode,
        bipartitions=args.bipartitions,
        rng=derive_rng(args.seed),
        mis_budget=args.mis_budget,
    )
    prefix = str(outdir / args.prefix)
    with _writing(f"{prefix}.*"):
        g6_path, cert_path = write_construction(result, g, prefix)
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


# Every scaling setting: config key -> (parser that checks its range,
# default).  The setting's flag is the key with dashes (--n-values), and the
# config file and the flag go through the same parser.  d > 1 because the
# ratio normalizer needs ln d > 0.
_SCALING_SETTINGS = {
    "model": (_checked(str, lambda model: model in MODELS, f"one of {', '.join(MODELS)}"), "process"),
    "n_values": (_list_of(_at_least(3)), None),
    "d_values": (_list_of(_checked(float, lambda d: math.isfinite(d) and d > 1, "finite and > 1")), None),
    "trials": (_at_least(1), 1),
    "seed": (_seed, 0),
    "mis_budget": (_at_least(1), DEFAULT_NODE_BUDGET),
    "chain_steps": (_at_least(0), None),
    "jobs": (_at_least(1), 1),
    "output_dir": (str, None),
    "prefix": (str, "scaling"),
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
        if key not in _SCALING_SETTINGS:
            raise CliError(EXIT_USAGE, f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = _SCALING_SETTINGS[key][0](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise CliError(EXIT_USAGE, f"config line {lineno}: bad value for {key}: {err}") from err
    return out


def _build_config(args) -> argparse.Namespace:
    """Scaling settings: the defaults, then the config file, then the flags."""
    cfg = {key: default for key, (_, default) in _SCALING_SETTINGS.items()}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise CliError(EXIT_USAGE, f"cannot read config {args.config}: {err}") from err
        cfg.update(parse_config_text(text))
    # the scaling flags' dests are the setting keys; unset ones stay None
    cfg.update((key, getattr(args, key)) for key in _SCALING_SETTINGS if getattr(args, key) is not None)
    for key in ("n_values", "d_values"):
        if not cfg[key]:
            raise CliError(EXIT_USAGE, f"{key} must be non-empty")
    return argparse.Namespace(**cfg)


def _trial_graph(model: str, n: int, d: float, rng, chain_steps: int | None) -> Graph:
    size = size_for_degree(model, n, d)
    if model == "process":  # more steps than pairs: the process runs to its end
        size = min(size, pair_count(n))
    return draw(model, n, size, rng, chain_steps)


def _scaling_trial(spec) -> tuple[str, dict]:
    """One (n, d, trial) cell; returns ('row', ...) or ('fail', ...)."""
    model, n, d, d_idx, trial, seed, mis_budget, chain_steps = spec
    try:
        g = _trial_graph(model, n, d, derive_rng(seed, n, d_idx, trial), chain_steps)
    except ValueError as err:  # infeasible model parameters are logged, not fatal
        return ("fail", {"n": n, "d": d, "trial": trial, "error": f"{type(err).__name__}: {err}"})
    rep = bounds_report(g, mis_budget=mis_budget)
    upper = float(rep.upper_bound)
    lower = rep.lower_bound
    norm = n * n * math.log(d) / d
    degs = g.degrees()
    return (
        "row",
        {
            "n": n,
            "d": d,
            "trial": trial,
            "e_P": g.edge_count,
            "alpha": rep.alpha_lo,
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


def _scaling_summary(cfg: argparse.Namespace, rows: list[dict], failures: list[dict]) -> dict:
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
    outdir = _resolve_outdir(cfg.output_dir)
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

    csv_path = outdir / f"{cfg.prefix}.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_csv_cell(r[c]) for c in CSV_COLUMNS])
    _write_text(csv_path, buf.getvalue())

    summary = _scaling_summary(cfg, rows, failures)
    summary_path = outdir / f"{cfg.prefix}.summary.json"
    summary_text = _dump_json(summary)
    _write_text(summary_path, summary_text)
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
        with _writing(rows_path), open(rows_path, "w") as fh:
            for row in iter_worst_case_rows(args.m, args.n, budget=args.budget):
                fh.write(row.to_json_line() + "\n")
                rows.append(row)
    except BudgetExhaustedError as err:
        print(err, file=sys.stderr)
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
    """One draw; the spec's size is its third entry (its fourth is unused)."""
    model, n, size, _, trial, seed, mis_budget, chain_steps = spec
    g = draw(model, n, size, derive_rng(seed, trial), chain_steps)
    stats = model_stats(g, mis_budget=mis_budget, seed=stream_key(seed, trial))
    return to_graph6(g), stats.to_json_line()


# model: (the option giving its size, the largest size on n vertices, the
# size when neither that option nor --d is given)
_SAMPLE_SIZES = {
    "process": ("steps", pair_count, TO_COMPLETION),
    "uniform-tf": ("edges", lambda n: (n * n) // 4, None),
    "erdos-renyi": ("p", lambda n: 1, None),
}


def cmd_sample(args) -> int:
    n = args.n
    option, largest, size = _SAMPLE_SIZES[args.model]
    given = [name for name in ("edges", "d", "p", "steps") if getattr(args, name) is not None]
    if len(given) > 1:
        raise CliError(EXIT_USAGE, "give at most one of --edges / --d / --p / --steps")
    if given and given[0] not in (option, "d"):
        raise CliError(EXIT_USAGE, f"the {args.model} model takes --{option} or --d")
    if args.d is not None:
        try:
            size = size_for_degree(args.model, n, args.d)
        except ValueError as err:
            raise CliError(EXIT_USAGE, str(err)) from err
    elif given:
        size = getattr(args, option)
    elif size is None:
        raise CliError(EXIT_USAGE, f"{args.model} needs --{option} or --d")
    if size != TO_COMPLETION and not 0 <= size <= largest(n):
        raise CliError(EXIT_USAGE, f"{option} {size} outside [0, {largest(n)}]")

    specs = [
        (args.model, n, size, None, t, args.seed, args.mis_budget, args.chain_steps)
        for t in range(args.trials)
    ]
    outdir = _resolve_outdir(args.output_dir)
    results = _run_trials(specs, args.jobs, _sample_trial)

    g6_path = outdir / f"{args.prefix}.g6"
    stats_path = outdir / f"{args.prefix}.stats.jsonl"
    _write_text(g6_path, "".join(line + "\n" for line, _ in results))
    _write_text(stats_path, "".join(line + "\n" for _, line in results))
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
    sub.add_argument("--format", choices=tuple(_FORMATS), default=None, help="override format inference")


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
    p.add_argument("--seed", type=_seed, default=0)
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
    for key, (parse, _) in _SCALING_SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=parse, choices=MODELS if key == "model" else None)
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
    p.add_argument("--steps", type=_steps, default=None, help='process step count or "to-completion"')
    p.add_argument("--trials", type=_at_least(1), default=1)
    p.add_argument("--seed", type=_seed, default=0)
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
