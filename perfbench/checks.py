"""Correctness checks on one run's outputs, built on facts rather than digests.

A faster or tighter solver still passes: a value the reference commit proved
(``facts.json``) must be reproduced exactly when the new result claims a
proof, and must lie inside the new certified interval when it does not.
Graphs are re-read from graph6 by this module's own decoder and checked
here: triangle-free, containing the pin, counts matching the report.
Nothing here imports ``turanpin``.

Every output item (a command's summary, a sweep row, a draw, a table row, a
construction) is one attempted item; an item with any problem is failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema

import workloads as W

SCHEMAS = Path("src/turanpin/schemas")
CSV_COLUMNS = ["n", "d", "trial", "e_P", "alpha", "delta", "lower_bound", "upper_bound", "ratio_lower", "ratio_upper"]


class Tally:
    """Attempted and failed items, with the quality of each result item.

    ``exact`` says the item's value was proved; ``ratio`` is the lower end
    of its certified interval over the upper end.  A failed result item
    counts as unproved with ratio 0.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exact: list[bool] = []
        self.ratio: list[float] = []

    def item(self, where: str, problems: list[str], exact: bool | None = None, ratio: float | None = None):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)
        if exact is not None:
            self.exact.append(exact and not problems)
            self.ratio.append(0.0 if problems else ratio)

    def missing(self, where: str, count: int, why: str) -> None:
        for _ in range(count):
            self.item(where, [why], False, 0.0)

    @property
    def exact_fraction(self) -> float:
        return sum(self.exact) / len(self.exact) if self.exact else 0.0

    @property
    def mean_ratio(self) -> float:
        return sum(self.ratio) / len(self.ratio) if self.ratio else 0.0


# ----------------------------------------------------------------- graphs


def from_graph6(line: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) of one graph6 line."""
    s = line.strip()
    vals = [ord(c) - 63 for c in s]
    if any(not 0 <= v < 64 for v in vals):
        raise ValueError("invalid graph6 character")
    if vals[0] < 63:
        n, body = vals[0], vals[1:]
    elif vals[1] < 63:
        n, body = (vals[1] << 12) | (vals[2] << 6) | vals[3], vals[4:]
    else:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        body = vals[8:]
    pairs = n * (n - 1) // 2
    if len(body) != (pairs + 5) // 6:
        raise ValueError(f"graph6 body of {len(body)} chars does not fit n={n}")
    adj = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if body[k // 6] >> (5 - k % 6) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return n, adj


def edge_count(adj: list[int]) -> int:
    return sum(row.bit_count() for row in adj) // 2


def has_triangle(adj: list[int]) -> bool:
    for u, row in enumerate(adj):
        r = row >> (u + 1)
        while r:
            low = r & -r
            v = u + low.bit_length()
            if row & adj[v]:
                return True
            r ^= low
    return False


def is_maximal_triangle_free(adj: list[int]) -> bool:
    """Every non-edge closes a triangle."""
    n = len(adj)
    return all(adj[u] >> v & 1 or adj[u] & adj[v] for u in range(n) for v in range(u + 1, n))


def greedy_independent(adj: list[int]) -> int:
    """Size of a first-fit independent set: a lower bound on alpha."""
    taken = 0
    blocked = 0
    for v, row in enumerate(adj):
        if not blocked >> v & 1:
            taken += 1
            blocked |= row | 1 << v
    return taken


def matching_cap(adj: list[int]) -> int:
    """n minus a maximal matching: an upper bound on alpha."""
    used = 0
    matched = 0
    for u, row in enumerate(adj):
        if used >> u & 1:
            continue
        free = row & ~used
        if free:
            used |= 1 << u | (free & -free)
            matched += 1
    return len(adj) - matched


def _read_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if ln.strip()]


def _validator(name: str):
    return jsonschema.Draft202012Validator(json.loads((SCHEMAS / name).read_text()))


def _command_payload(tally: Tally, rundir: Path, k: int, rc: int, where: str) -> dict | None:
    """The JSON a command printed, or None (and a failed item) if it did not succeed."""
    problems = [] if rc == 0 else [f"exit code {rc}: {(rundir / f'cmd{k}.stderr').read_text().strip()[-300:]}"]
    payload = None
    if not problems:
        try:
            payload = json.loads((rundir / f"cmd{k}.stdout").read_text())
        except (OSError, ValueError) as err:
            problems.append(f"unreadable stdout: {err}")
    tally.item(where, problems)
    return payload


# ---------------------------------------------------------------- workloads


def check_sweep(rundir: Path, seed: int, rcs: list[int], facts: dict) -> Tally:
    t = Tally()
    pool_seed = seed % W.POOL
    expected = [(n, float(d), k) for n in W.SWEEP_N for d in W.SWEEP_D for k in range(W.SWEEP_TRIALS)]
    summary = _command_payload(t, rundir, 0, rcs[0], "scaling")
    if summary is None:
        t.missing("scaling", len(expected), "command failed")
        return t
    problems = [f"schema: {e.message}" for e in _validator("scaling_summary.schema.json").iter_errors(summary)]
    if summary.get("rows_written") != len(expected):
        problems.append(f"rows_written {summary.get('rows_written')} != {len(expected)}")
    t.item("scaling summary", problems)
    for f in summary.get("failures", []):
        t.item(f"trial {f.get('n')}/{f.get('d')}/{f.get('trial')}", [f"reported failure: {f.get('error')}"])
    with open(rundir / W.OUT / "sweep.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = {}
        for rec in reader:
            if header == CSV_COLUMNS and len(rec) == len(CSV_COLUMNS):
                r = dict(zip(CSV_COLUMNS, rec))
                rows[(int(r["n"]), float(r["d"]), int(r["trial"]))] = r
    if header != CSV_COLUMNS:
        t.item("sweep.csv", [f"header {header}"])
    for n, d, k in expected:
        where = f"trial n={n} d={d} #{k}"
        r = rows.get((n, d, k))
        if r is None:
            t.missing(where, 1, "row missing")
            continue
        fact = facts["sweep"][W.sweep_key(pool_seed, n, d, k)]
        problems = []
        lo = int(r["alpha"])
        upper = float(r["upper_bound"])
        hi2 = 2 * upper / n
        hi = int(hi2)
        if hi != hi2:
            problems.append(f"upper_bound {upper} is not n * alpha_hi / 2")
        if int(r["e_P"]) != fact["e_P"]:
            problems.append(f"e_P {r['e_P']} != reference {fact['e_P']}")
        known = fact["alpha"]
        if not lo <= known <= hi:  # a proved alpha has lo == hi
            problems.append(f"alpha interval [{lo}, {hi}] misses known {known}")
        norm = n * n * math.log(d) / d
        if not math.isclose(float(r["ratio_upper"]), upper / norm, rel_tol=1e-9):
            problems.append("ratio_upper != upper_bound / (n^2 ln d / d)")
        if r["lower_bound"] and float(r["lower_bound"]) > upper:
            problems.append("lower_bound above upper_bound")
        t.item(where, problems, lo == hi, lo / hi if hi else 0.0)
    return t


def check_sample(rundir: Path, seed: int, rcs: list[int], facts: dict) -> Tally:
    t = Tally()
    pool_seed = seed % W.POOL
    validator = _validator("sample_stats.schema.json")
    specs = [("uniform", W.UNIFORM_N, W.UNIFORM_TRIALS), ("process", W.PROCESS_N, W.PROCESS_TRIALS)]
    for k, (prefix, n, trials) in enumerate(specs):
        payload = _command_payload(t, rundir, k, rcs[k], f"sample {prefix}")
        try:
            graphs = _read_lines(rundir / W.OUT / f"{prefix}.g6")
            stats = _read_lines(rundir / W.OUT / f"{prefix}.stats.jsonl")
        except OSError:
            graphs = stats = []
        if payload is None or len(graphs) != trials or len(stats) != trials:
            t.missing(f"sample {prefix}", trials, "draws missing")
            continue
        for trial, (g6, line) in enumerate(zip(graphs, stats)):
            rec = json.loads(line)
            problems = [f"schema: {e.message}" for e in validator.iter_errors(rec)]
            if problems:
                t.item(f"{prefix} draw {trial}", problems, False, 0.0)
                continue
            gn, adj = from_graph6(g6)
            e = edge_count(adj)
            lo, hi = rec["alpha_lo"], rec["alpha_hi"]
            if gn != n:
                problems.append(f"graph has {gn} vertices, asked for {n}")
            if has_triangle(adj):
                problems.append("graph has a triangle")
            if rec["edge_count"] != e or rec["max_degree"] != max(r.bit_count() for r in adj):
                problems.append("edge_count or max_degree disagrees with the graph")
            if rec["avg_degree"] != 2 * e / gn:
                problems.append("avg_degree != 2e/n")
            if rec["alpha_exact"] != (lo == hi) or lo > hi:
                problems.append(f"bad alpha interval [{lo}, {hi}] exact={rec['alpha_exact']}")
            if hi < greedy_independent(adj) or lo > matching_cap(adj):
                problems.append(f"alpha interval [{lo}, {hi}] contradicts greedy or matching bounds")
            if prefix == "uniform":
                known = facts["sample"][W.sample_key(pool_seed, trial)]["alpha"]
                if e != W.UNIFORM_EDGES:
                    problems.append(f"{e} edges, asked for {W.UNIFORM_EDGES}")
                if not lo <= known <= hi:
                    problems.append(f"alpha interval [{lo}, {hi}] misses known {known}")
            elif not is_maximal_triangle_free(adj):
                problems.append("process run to completion left an open pair")
            t.item(f"{prefix} draw {trial}", problems, lo == hi, lo / hi if hi else 0.0)
    return t


def _invariant(n: int, adj: list[int]) -> tuple:
    return (n, edge_count(adj), tuple(sorted(r.bit_count() for r in adj)))


def check_worst_case(rundir: Path, seed: int, rcs: list[int], facts: dict) -> Tally:
    t = Tally()
    known_rows = facts["worst_case"]["rows"]
    payload = _command_payload(t, rundir, 0, rcs[0], "worst-case")
    try:
        lines = _read_lines(rundir / W.OUT / "worst.rows.jsonl")
    except OSError:
        lines = []
    by_invariant: dict[tuple, list[int]] = {}
    for g6, value in known_rows.items():
        by_invariant.setdefault(_invariant(*from_graph6(g6)), []).append(value)
    cap = W.WORST_N * W.WORST_N // 4
    values = []
    for i, line in enumerate(lines):
        row = json.loads(line)
        problems = []
        n, adj = from_graph6(row["pin_graph6"])
        if has_triangle(adj):
            problems.append("pin has a triangle")
        if row["edges"] != edge_count(adj) or row["support"] != n or not 1 <= row["edges"] <= W.WORST_M:
            problems.append("edges or support disagree with the pin")
        value = row["value"]
        if not row["edges"] <= value <= cap:
            problems.append(f"value {value} outside [pin edges, floor(n^2/4)]")
        if row["pin_graph6"] in known_rows:
            if value != known_rows[row["pin_graph6"]]:
                problems.append(f"value {value} != known {known_rows[row['pin_graph6']]}")
        else:
            same = by_invariant.get(_invariant(n, adj))
            if same is None:
                problems.append("pin matches no pin of the reference table")
            elif not min(same) <= value <= max(same):
                problems.append(f"value {value} outside the values {sorted(set(same))} of like pins")
        values.append(value)
        t.item(f"row {i}", problems, bool(row["proved"]), 1.0)
    if len(lines) < len(known_rows):
        t.missing("worst-case table", len(known_rows) - len(lines), "row missing")
    problems = []
    if len(lines) > len(known_rows):
        problems.append(f"{len(lines)} rows, reference has {len(known_rows)}")
    if payload is not None and values:
        if payload.get("value") != min(values) or payload["value"] != min(known_rows.values()):
            problems.append(f"minimum {payload.get('value')} != {min(known_rows.values())}")
        if payload.get("rows") != len(lines):
            problems.append("rows count disagrees with the table")
    t.item("worst-case minimum", problems)
    return t


def check_construct(rundir: Path, seed: int, rcs: list[int], facts: dict) -> Tally:
    t = Tally()
    for k, (_, n, pin) in enumerate(W.construct_inputs()):
        where = f"construct pin{k}"
        summary = _command_payload(t, rundir, k, rcs[k], where)
        if summary is None:
            t.missing(where, 1, "no construction")
            continue
        problems = []
        try:
            g6 = (rundir / W.OUT / f"c{k}.g6").read_text().strip()
            cert = json.loads((rundir / W.OUT / f"c{k}.cert.json").read_text())
            gn, adj = from_graph6(g6)
        except (OSError, ValueError) as err:
            t.item(where, [f"unreadable artifacts: {err}"], False, 0.0)
            continue
        e = edge_count(adj)
        if gn != n:
            problems.append(f"{gn} vertices, pin has {n}")
        elif any(not adj[u] >> v & 1 for u, v in pin):
            problems.append("construction does not contain the pin")
        if has_triangle(adj):
            problems.append("construction has a triangle")
        if not summary["edges"] == e == cert["result"]["edges"]:
            problems.append(f"edge count {e} disagrees with the report")
        if summary["pin_edges"] != len(pin) or summary["edges"] != len(pin) + summary["added_pairs"]:
            problems.append("edges != pin edges + added pairs")
        if summary["graph6"] != g6:
            problems.append("reported graph6 differs from the written graph")
        if not cert["certificate"]["all_ok"] or cert["result"]["mis_exact"] != summary["mis_exact"]:
            problems.append("certificate disagrees")
        t.item(where, problems, bool(summary["mis_exact"]), e / (n * n // 4))
    return t


CHECKS = {
    "sweep": check_sweep,
    "sample": check_sample,
    "worst_case": check_worst_case,
    "construct": check_construct,
}


def same_outputs(a: Path, b: Path) -> list[str]:
    """Files that differ between two run directories, set-up files aside."""
    def files(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file() and p.name != "report.json" and p.relative_to(root).parts[0] != "warmup"
        }

    fa, fb = files(a), files(b)
    return sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
