"""Spans and counters for the traced run.

``Tracer.install`` rebinds the public functions at each layer boundary to
timing wrappers, in every ``turanpin`` module namespace that holds them, so
each caller's own global look-up reaches the wrapper and no file under
``src/`` changes.  A wrapper records a span (name, layer, start, end,
parent) and reads the counters the layer already returns.  Spans inside the
layers are not recorded: work a layer does in a function that is not wrapped
counts as its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, function, layer, kind).  kind "gen" times each next() of a generator.
HOOKS = (
    ("turanpin.mis", "max_independent_set", "mis", "call"),
    ("turanpin.mis", "greedy_independent_set", "mis", "call"),
    ("turanpin.oracle", "exact_ex", "oracle", "call"),
    ("turanpin.oracle", "iter_worst_case_rows", "oracle", "gen"),
    ("turanpin.oracle", "enumerate_pinned", "oracle", "gen"),
    ("turanpin.oracle", "canonical_key", "oracle", "call"),
    ("turanpin.construct", "construct_admissible", "construct", "call"),
    ("turanpin.construct", "certify", "construct", "call"),
    ("turanpin.construct", "write_construction", "construct", "call"),
    ("turanpin.construct", "pin_bipartite_completion", "construct", "call"),
    ("turanpin.conflict", "build_aux_slice", "conflict", "call"),
    ("turanpin.conflict", "is_admissible", "conflict", "call"),
    ("turanpin.conflict", "build_b1", "conflict", "call"),
    ("turanpin.randmodels", "triangle_free_process", "randmodels", "call"),
    ("turanpin.randmodels", "sample_uniform_triangle_free", "randmodels", "call"),
    ("turanpin.randmodels", "model_stats", "randmodels", "call"),
    ("turanpin.randmodels", "derive_rng", "randmodels", "call"),
    ("turanpin.randmodels", "stream_key", "randmodels", "call"),
    ("turanpin.bounds", "psi", "bounds", "call"),
    ("turanpin.bounds", "lower_bound", "bounds", "call"),
    ("turanpin.bounds", "upper_bound", "bounds", "call"),
    ("turanpin.bounds", "bounds_report", "bounds", "call"),
    ("turanpin.graphs", "find_triangle", "graphs", "call"),
    ("turanpin.graphs", "is_triangle_free", "graphs", "call"),
    ("turanpin.graphs", "to_graph6", "graphs", "call"),
    ("turanpin.graphs", "from_graph6", "graphs", "call"),
    ("turanpin.graphs", "read_graph", "graphs", "call"),
    ("turanpin.graphs", "subgraph_of", "graphs", "call"),
    ("turanpin.graphs", "components", "graphs", "call"),
)

LAYERS = ("cli", "mis", "oracle", "construct", "conflict", "randmodels", "bounds", "graphs")

NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    """Span recorder; spans stay in memory until ``layer_metrics`` reads them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    # ------------------------------------------------------------ wrappers

    def _wrap_call(self, fn, name: str, layer: str):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self.counts, result)
            return result

        return wrapper

    def _wrap_gen(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield item

        return wrapper

    def _wrap_chain_run(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(chain, proposals):
            before = chain.proposed, chain.accepted
            idx = self.begin("chain_run", "randmodels")
            try:
                fn(chain, proposals)
            finally:
                self.end(idx)
            counts["chain_proposed"] += chain.proposed - before[0]
            counts["chain_accepted"] += chain.accepted - before[1]

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "turanpin" and not modname.startswith("turanpin."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        for modname, fname, layer, kind in HOOKS:
            original = getattr(importlib.import_module(modname), fname)
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            self._rebind(original, wrap(original, fname, layer))
        from turanpin.randmodels import MetropolisChain

        original_run = MetropolisChain.run
        MetropolisChain.run = self._wrap_chain_run(original_run)
        self._undo.append((MetropolisChain, "run", original_run))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- metrics

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, plus ``layer_self.<layer>`` self-time totals."""
        spans, c = self.spans, self.counts
        own = self.self_times()
        layer_self = Counter()
        dur = Counter()  # inclusive time of outermost spans of one name
        calls = Counter()  # outermost spans of one name
        name_self = Counter()
        seed_s = 0.0
        for i, s in enumerate(spans):
            layer_self[s[LAYER]] += own[i]
            name_self[s[NAME]] += own[i]
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            if parent is None or parent[NAME] != s[NAME]:
                dur[s[NAME]] += s[END] - s[START]
                calls[s[NAME]] += 1
            if s[LAYER] == "construct" and parent is not None and parent[NAME] == "exact_ex":
                seed_s += s[END] - s[START]
        triangle = ("find_triangle", "is_triangle_free")
        triangle_outer = [
            i for i, s in enumerate(spans)
            if s[NAME] in triangle and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in triangle)
        ]
        bounds_outer = [
            s for s in spans if s[LAYER] == "bounds" and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "bounds")
        ]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "mis.calls": calls["max_independent_set"],
            "mis.self_s": layer_self["mis"],
            "mis.nodes": c["mis_nodes"],
            "mis.nodes_per_s": ratio(c["mis_nodes"], name_self["max_independent_set"]),
            "mis.exhausted": c["mis_exhausted"],
            "mis.exact_ratio": ratio(c["mis_exact"], calls["max_independent_set"]),
            "mis.greedy_s": dur["greedy_independent_set"],
            "oracle.calls": calls["exact_ex"],
            "oracle.self_s": layer_self["oracle"],
            "oracle.nodes": c["oracle_nodes"],
            "oracle.nodes_per_s": ratio(c["oracle_nodes"], name_self["exact_ex"]),
            "oracle.proved_ratio": ratio(c["oracle_proved"], calls["exact_ex"]),
            "oracle.enumerate_s": dur["enumerate_pinned"],
            "oracle.canonical_calls": calls["canonical_key"],
            "construct.calls": calls["construct_admissible"],
            "construct.self_s": layer_self["construct"],
            "construct.certify_s": dur["certify"],
            "construct.seed_s": seed_s,
            "conflict.slice_calls": calls["build_aux_slice"],
            "conflict.slice_s": dur["build_aux_slice"],
            "conflict.slice_vertices": c["slice_vertices"],
            "conflict.slice_edges": c["slice_edges"],
            "conflict.admissible_s": dur["is_admissible"],
            "randmodels.chain_s": dur["chain_run"],
            "randmodels.chain_proposals": c["chain_proposed"],
            "randmodels.chain_accept_ratio": ratio(c["chain_accepted"], c["chain_proposed"]),
            "randmodels.proposals_per_s": ratio(c["chain_proposed"], dur["chain_run"]),
            "randmodels.process_s": dur["triangle_free_process"],
            "randmodels.process_steps": c["process_steps"],
            "bounds.calls": len(bounds_outer),
            "bounds.self_s": layer_self["bounds"],
            "graphs.triangle_calls": len(triangle_outer),
            "graphs.triangle_s": sum(spans[i][END] - spans[i][START] for i in triangle_outer),
            "graphs.g6_s": dur["to_graph6"] + dur["from_graph6"],
            "cli.self_s": layer_self["cli"],
        }
        for layer in LAYERS:
            m[f"layer_self.{layer}"] = layer_self[layer]
        return m


def _after_mis(c: Counter, r) -> None:
    c["mis_nodes"] += r.nodes_explored
    c["mis_exhausted"] += r.budget_exhausted
    c["mis_exact"] += r.exact


def _after_oracle(c: Counter, r) -> None:
    c["oracle_nodes"] += r.nodes
    c["oracle_proved"] += r.proved


def _after_slice(c: Counter, r) -> None:
    c["slice_vertices"] += len(r.s_prime)
    c["slice_edges"] += r.slice_edge_count()


def _after_process(c: Counter, r) -> None:
    c["process_steps"] += len(r.trace)


_AFTER = {
    "max_independent_set": _after_mis,
    "exact_ex": _after_oracle,
    "build_aux_slice": _after_slice,
    "triangle_free_process": _after_process,
}
