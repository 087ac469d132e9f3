"""Bitset-backed labeled simple graphs on vertex set {0, ..., n-1}.

Adjacency is stored as one Python int per vertex: bit w of ``adj[v]`` is set
iff vw is an edge.  Arbitrary-precision ints make the same code work for any
n; the hot paths (triangle tests, neighborhood intersections) stay single
machine ops for n <= 64 and word-parallel beyond.

Graphs are immutable after construction and safe to share across workers.
A vertex pair {u, v} is the tuple (u, v) with u < v; sorting such tuples
gives lexicographic order.  There are ``pair_count(n)`` = C(n, 2) of them,
which is also the number of bits a graph6 body encodes.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Raised for malformed graph files (bad header, bad vertex, loop)."""


class DimensionMismatchError(ValueError):
    """Raised when two graphs expected on the same vertex set differ in n."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph with bitset adjacency rows."""

    __slots__ = ("n", "adj", "_edge_count")

    def __init__(self, n: int, adj: Iterable[int] = (), validate: bool = True):
        rows = tuple(adj) if adj else tuple([0] * n)
        if validate:
            if n < 0:
                raise ValueError("vertex count must be >= 0")
            if len(rows) != n:
                raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
            for v, row in enumerate(rows):
                if row >> n:
                    raise ValueError(f"adjacency row {v} has bits beyond vertex {n - 1}")
                if row & (1 << v):
                    raise ValueError(f"self-loop at vertex {v}")
            for v, row in enumerate(rows):
                for w in iter_bits(row):
                    if not rows[w] & (1 << v):
                        raise ValueError(f"asymmetric adjacency between {v} and {w}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", rows)
        object.__setattr__(self, "_edge_count", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n, validate=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, validate=False)

    @property
    def edge_count(self) -> int:
        count = self._edge_count
        if count is None:
            count = sum(row.bit_count() for row in self.adj) // 2
            object.__setattr__(self, "_edge_count", count)
        return count

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1)):
                yield (u, v + u + 1)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges added."""
        rows = list(self.adj)
        for u, v in extra:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(self.n, rows, validate=False)

    def padded(self, n: int) -> "Graph":
        """Embed into a larger vertex set by appending isolated vertices."""
        if n < self.n:
            raise ValueError("cannot shrink a graph by padding")
        return Graph(n, list(self.adj) + [0] * (n - self.n), validate=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def pair_count(n: int) -> int:
    """C(n, 2): the number of vertex pairs."""
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Triangle primitives


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Some triangle (u, v, w), or None.  Checks every edge's endpoint rows."""
    adj = g.adj
    for u in range(g.n):
        row = adj[u] >> (u + 1)
        for v in iter_bits(row):
            common = adj[u] & adj[u + 1 + v]
            if common:
                w = (common & -common).bit_length() - 1
                return (u, u + 1 + v, w)
    return None


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent."""
    return find_triangle(g) is None


def count_cherries(g: Graph) -> int:
    """Number of two-edge paths: sum over vertices of C(deg, 2)."""
    return sum(math.comb(d, 2) for d in g.degrees())


def subgraph_of(p: Graph, g: Graph) -> bool:
    """Labeled containment: every edge of p is an edge of g (no relabeling)."""
    if p.n != g.n:
        raise DimensionMismatchError(f"vertex counts differ: {p.n} != {g.n}")
    return all(prow & ~grow == 0 for prow, grow in zip(p.adj, g.adj))


def components(g: Graph) -> list[int]:
    """Connected components as vertex bitmasks, ordered by lowest vertex."""
    comps = []
    rem = (1 << g.n) - 1
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            grown = 0
            for v in iter_bits(frontier):
                grown |= g.adj[v]
            frontier = grown & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def induced_rows(g: Graph, mask: int) -> tuple[list[int], list[int]]:
    """The vertices of ``mask`` in increasing order, and the adjacency rows
    of the subgraph they induce, renumbered 0..k-1 in that order."""
    verts = list(iter_bits(mask))
    index = {v: i for i, v in enumerate(verts)}
    return verts, [sum(1 << index[w] for w in iter_bits(g.adj[v] & mask)) for v in verts]


# ---------------------------------------------------------------------------
# Small named constructions used throughout tests and demos


def cycle_graph(k: int, n: int | None = None) -> Graph:
    """Cycle on vertices 0..k-1, optionally padded with isolated vertices."""
    g = Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
    return g.padded(n) if n is not None else g


def path_graph(k: int, n: int | None = None) -> Graph:
    """Path with k vertices (k - 1 edges)."""
    g = Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
    return g.padded(n) if n is not None else g


def star_graph(m: int, n: int | None = None) -> Graph:
    """Star with center 0 and m leaves."""
    g = Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
    return g.padded(n) if n is not None else g


def complete_bipartite(a: int, b: int, n: int | None = None) -> Graph:
    """Complete bipartite graph with parts 0..a-1 and a..a+b-1."""
    g = Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    return g.padded(n) if n is not None else g


def matching_graph(k: int, n: int | None = None) -> Graph:
    """Perfect matching on 2k vertices: edges (0,1), (2,3), ..."""
    g = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    return g.padded(n) if n is not None else g


def balanced_bipartition(n: int) -> tuple[int, int]:
    """Default split as vertex masks: {0..ceil(n/2)-1} versus the rest."""
    a = (n + 1) // 2
    left = (1 << a) - 1
    right = ((1 << n) - 1) ^ left
    return left, right


def crossing_pairs(left_mask: int, right_mask: int, n: int) -> list[tuple[int, int]]:
    """All pairs (u, v), u < v, with one endpoint on each side of a split of
    the n vertices, in lexicographic order."""
    out = [(u, v) if u < v else (v, u) for u in iter_bits(left_mask) for v in iter_bits(right_mask)]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# graph6 encoding (bit-exact standard format) and plain edge lists


# str.translate table: a graph6 character chr(63 + value) -> value's six bits, high bit first
_SIX_BITS = {63 + value: f"{value:06b}" for value in range(64)}


def to_graph6(g: Graph) -> str:
    """Standard graph6 line: the size field, then column v = 1..n-1 of the
    upper triangle (the pairs uv, u = 0..v-1), six bits per character."""
    n = g.n
    if n < 63:
        prefix, width = "", 6
    elif n < 258048:  # a first character of 126 would read as "~~"
        prefix, width = "~", 18
    elif n < 1 << 36:
        prefix, width = "~~", 36
    else:
        raise ValueError("graph too large for graph6")
    # bits u = 0..v-1 of adj[v] in increasing u: the binary string reversed
    bits = format(n, f"0{width}b") + "".join(
        format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n)
    )
    bits += "0" * (-len(bits) % 6)
    return prefix + "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header tolerated)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphFormatError("empty graph6 string")
    for c in (min(s), max(s)):
        if not "?" <= c <= "~":
            raise GraphFormatError(f"invalid graph6 character {c!r}")
    tildes = 2 if s.startswith("~~") else 1 if s.startswith("~") else 0
    width = (1, 3, 6)[tildes]
    field, body = s[tildes : tildes + width], s[tildes + width :]
    if len(field) < width:
        raise GraphFormatError("truncated graph6 size field")
    n = int(field.translate(_SIX_BITS), 2)
    need = pair_count(n)
    nbytes = (need + 5) // 6
    if len(body) != nbytes:
        raise GraphFormatError(f"graph6 body has {len(body)} chars, expected {nbytes} for n={n}")
    bits = body.translate(_SIX_BITS)
    if "1" in bits[need:]:
        raise GraphFormatError("nonzero padding bits in graph6 body")
    rows = [0] * n
    for v in range(1, n):
        start = v * (v - 1) // 2
        col = int(bits[start : start + v][::-1], 2)  # bit u: the pair uv
        rows[v] |= col
        for u in iter_bits(col):
            rows[u] |= 1 << v
    return Graph(n, rows, validate=False)


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty edge-list file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"malformed header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError(f"negative counts in header {lines[0]!r}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} edges, file has {len(lines) - 1}")
    rows = [0] * n
    seen = set()
    dupes = 0
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"malformed edge line {ln!r}") from exc
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range in edge ({u}, {v}), n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            dupes += 1
            continue
        seen.add(key)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if dupes:
        warnings.warn(f"deduplicated {dupes} repeated edge(s)", stacklevel=2)
    return Graph(n, rows, validate=False)


def write_graph(g: Graph, path, fmt: str | None = None) -> None:
    """Write a graph file; format inferred from the extension unless given."""
    fmt = fmt or _infer_format(path)
    with open(path, "w") as fh:
        if fmt == "graph6":
            fh.write(to_graph6(g) + "\n")
        elif fmt == "edge-list":
            fh.write(to_edge_list_text(g))
        else:
            raise ValueError(f"unknown graph format {fmt!r}")


def read_graph(path, fmt: str | None = None) -> Graph:
    """Read a graph file; format inferred from the extension unless given.

    A graph6 file must hold exactly one graph: one non-empty line.
    """
    fmt = fmt or _infer_format(path)
    with open(path) as fh:
        text = fh.read()
    if fmt == "graph6":
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) != 1:
            raise GraphFormatError(f"{path} holds {len(lines)} graph6 lines, expected one graph")
        return from_graph6(lines[0])
    if fmt == "edge-list":
        return from_edge_list_text(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def _infer_format(path) -> str:
    name = str(path)
    if name.endswith((".g6", ".graph6")):
        return "graph6"
    if name.endswith((".el", ".edges", ".txt")):
        return "edge-list"
    raise ValueError(f"cannot infer graph format from {name!r}; pass fmt=")
