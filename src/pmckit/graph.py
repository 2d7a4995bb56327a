"""Undirected simple graphs on vertices 0..n-1: queries, generators, PACE I/O."""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bitset import VertexSet, iter_bits
from .errors import GrParseError, InputError

# Largest vertex count accepted from a .gr header or a generator parameter,
# checked before anything of that size is allocated or looped over.
MAX_VERTICES = 4096
# Largest .gr file read_gr accepts. The complete graph on MAX_VERTICES vertices,
# written without comments or duplicate edges, takes 79,332,453 bytes.
MAX_GR_BYTES = 256 << 20


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable undirected simple graph.

    ``adj[v]`` is the neighbor bitmask of vertex ``v``; ``m`` is the edge
    count, fixed at construction. Instances are safe to share across worker
    processes without synchronization.
    """

    n: int
    adj: tuple[int, ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InputError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise InputError(f"vertex index out of range: edge ({u}, {v}) with n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return _graph_from_adj(n, adj)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            higher = self.adj[u] & ~((1 << (u + 1)) - 1)
            for v in iter_bits(higher):
                yield (u, v)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex index out of range: {v} with n={self.n}")


def _graph_from_adj(n: int, adj: list[int]) -> Graph:
    m = sum(a.bit_count() for a in adj) // 2
    return Graph(n=n, adj=tuple(adj), m=m)


def _validate_subset(g: Graph, s: VertexSet) -> None:
    if s.mask & ~g.full_mask:
        raise InputError("vertex set contains out-of-range vertex indices")


def _grow(adj: tuple[int, ...], seed: int, space: int) -> tuple[int, int]:
    """(C, R): C is the component of the subgraph on ``space`` holding ``seed``.

    ``seed`` is one vertex bit inside ``space``. R is the union of adj[v]
    over v in C, gathered from the BFS frontiers: it holds C's neighbourhood
    in the whole graph ``adj``, so callers take R & ~C for N(C), and R | C
    for N[C]. This is the one frontier search of the package; every search
    for the components of G - X runs through it.
    """
    comp = frontier = seed
    reach = 0
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        reach |= nxt
        frontier = nxt & space & ~comp
        comp |= frontier
    return comp, reach


def _components_with_nbrs(adj: tuple[int, ...], space: int) -> Iterator[tuple[int, int]]:
    """(C, N(C)) for each connected component C of the subgraph induced on ``space``.

    Components come ordered by their minimum vertex. N(C) is the neighborhood
    of C in the whole graph ``adj``; callers working inside ``space``
    intersect it with ``space``.
    """
    rem = space
    while rem:
        comp, reach = _grow(adj, rem & -rem, rem)
        yield comp, reach & ~comp
        rem &= ~comp


def _component_table(adj: tuple[int, ...], n: int) -> tuple[array, array]:
    """(first, nbr): for each vertex set 0 <= U < 2^n, one component of G[U].

    ``first[U]`` is the component C of G[U] holding U's lowest vertex and
    ``nbr[U]`` is N(C) in the whole graph. C has no edge to U - C, so the
    components of G[U] are C followed by those of G[U - C]: walking
    U, U - first[U], ... lists them all, ordered by their minimum vertex.
    Entries are filled for increasing U from U' = U - h, h its highest vertex:
    if h touches no vertex of first[U'], the entry is U''s; otherwise h joins
    first[U'] with every component of G[U'] it touches.
    """
    total = 1 << n
    code = next(c for c in "HIQ" if array(c).itemsize * 8 >= n)
    first = array(code, [0]) * total
    nbr = array(code, [0]) * total
    for h in range(n):
        hb, ah = 1 << h, adj[h]
        first[hb], nbr[hb] = hb, ah
        for rest in range(1, hb):
            low = first[rest]
            u = rest | hb
            if not ah & low:
                first[u], nbr[u] = low, nbr[rest]
                continue
            comp, nb = low | hb, nbr[rest] | ah
            left = rest ^ low
            while left & ah:
                low = first[left]
                if low & ah:
                    comp |= low
                    nb |= nbr[left]
                left ^= low
            first[u], nbr[u] = comp, nb & ~comp
    return first, nbr


def components(g: Graph, removed: VertexSet) -> list[VertexSet]:
    """Connected components of g - removed, ordered by minimum vertex."""
    _validate_subset(g, removed)
    space = g.full_mask & ~removed.mask
    return [VertexSet(c) for c, _ in _components_with_nbrs(g.adj, space)]


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, list[int]]:
    """Subgraph induced on ``keep``, relabeled to 0..k-1.

    Returns the new graph and the list mapping new indices to old ones.
    Graphs are immutable, so keeping every vertex returns g itself.
    """
    _validate_subset(g, keep)
    if keep.mask == g.full_mask:
        return g, list(range(g.n))
    old = keep.to_list()
    pos = {v: i for i, v in enumerate(old)}
    adj = [0] * len(old)
    for i, v in enumerate(old):
        for w in iter_bits(g.adj[v] & keep.mask):
            adj[i] |= 1 << pos[w]
    return _graph_from_adj(len(old), adj), old


def prefix_graph(g: Graph, k: int) -> Graph:
    """Subgraph induced on vertices 0..k-1 (labels preserved)."""
    if not (0 <= k <= g.n):
        raise InputError(f"prefix length {k} out of range for n={g.n}")
    lo = (1 << k) - 1
    return _graph_from_adj(k, [g.adj[v] & lo for v in range(k)])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def cube() -> Graph:
    """The 3-cube: 4-cycles a-b-c-d (0..3) and e-f-g-h (4..7), rungs a-e, b-f, c-g, d-h."""
    ring1 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    ring2 = [(4, 5), (5, 6), (6, 7), (7, 4)]
    rungs = [(0, 4), (1, 5), (2, 6), (3, 7)]
    return Graph.from_edges(8, ring1 + ring2 + rungs)


def watermelon(p: int, q: int) -> Graph:
    """p disjoint paths of q vertices; a hub u sees every left path end and a hub v every right end.

    Path i occupies indices i*q .. i*q+q-1 in order; u = p*q and v = p*q + 1.
    """
    if p < 1 or q < 1:
        raise InputError("watermelon parameters must be positive")
    u, v = p * q, p * q + 1
    edges = []
    for i in range(p):
        base = i * q
        for j in range(q - 1):
            edges.append((base + j, base + j + 1))
        edges.append((u, base))
        edges.append((v, base + q - 1))
    return Graph.from_edges(p * q + 2, edges)


def watermelon_hubs(p: int, q: int) -> tuple[int, int]:
    """Indices of the two hub vertices of watermelon(p, q)."""
    return p * q, p * q + 1


def path(n: int) -> Graph:
    if n < 1:
        raise InputError("path length must be positive")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("a simple cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError("vertex count must be positive")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("vertex count must be positive")
    return Graph.from_edges(n, [])


def gnp(n: int, prob: float, seed: int) -> Graph:
    """G(n, p) with a fixed pair order, deterministic for a given seed."""
    if n < 1:
        raise InputError("vertex count must be positive")
    if not 0.0 <= prob <= 1.0:
        raise InputError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    return Graph.from_edges(n, edges)


_FAMILIES = {
    "cube": ((), cube),
    "watermelon": (("p", "q"), watermelon),
    "path": (("n",), path),
    "cycle": (("n",), cycle),
    "complete": (("n",), complete),
    "empty": (("n",), empty_graph),
    "gnp": (("n", "prob", "seed"), gnp),
}


def generate(family: str, **params) -> Graph:
    """Build a named graph family; see _FAMILIES for the accepted parameters."""
    try:
        wanted, builder = _FAMILIES[family]
    except KeyError:
        raise InputError(f"unknown graph family: {family!r}") from None
    missing = [k for k in wanted if k not in params]
    extra = [k for k in params if k not in wanted]
    if missing:
        raise InputError(f"family {family!r} needs parameters {missing}")
    if extra:
        raise InputError(f"family {family!r} does not take parameters {extra}")
    n = params["p"] * params["q"] + 2 if family == "watermelon" else params.get("n", 0)
    if n > MAX_VERTICES:
        raise InputError(f"family {family!r} would have {n} vertices, above {MAX_VERTICES}")
    return builder(**params)


# ---------------------------------------------------------------------------
# PACE .gr I/O (1-based vertex indices on the wire, 0-based internally)
# ---------------------------------------------------------------------------

def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split one block of about 4 KiB at a time.

    Each block ends just after a line feed, so no CR LF pair is cut and a
    block's last line is whole: the blocks' lines are the whole text's
    lines, and only one block's list of lines is held at a time. Text with
    no line feed after the first 4 KiB is one block.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 12)) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_gr(text: str) -> Graph:
    """Parse PACE .gr: 'c' comments, one 'p tw <n> <m>' header, '<u> <v>' edge lines.

    Duplicate edges are collapsed; self-loops are rejected. Line numbers in
    errors count lines as ``str.splitlines`` does. Each edge is OR-ed into the
    adjacency masks as its line is read, so memory beyond the text is the
    masks, about n^2/8 bytes, whatever the number of lines.
    """
    n: int | None = None
    adj: list[int] = []
    for ln, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GrParseError("duplicate 'p' header", ln)
            if len(parts) != 4 or parts[1] != "tw":
                raise GrParseError("expected header 'p tw <n> <m>'", ln)
            try:
                n = int(parts[2])
                m = int(parts[3])
            except ValueError:
                raise GrParseError("non-integer header fields", ln) from None
            if n < 0 or m < 0:
                raise GrParseError("negative header fields", ln)
            if n > MAX_VERTICES:
                raise GrParseError(f"{n} vertices, above the limit of {MAX_VERTICES}", ln)
            adj = [0] * n
        else:
            if n is None:
                raise GrParseError("edge line before 'p tw' header", ln)
            if len(parts) != 2:
                raise GrParseError("expected edge line '<u> <v>'", ln)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GrParseError("non-integer edge endpoints", ln) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GrParseError(f"vertex index out of range: {u} {v}", ln)
            if u == v:
                raise GrParseError(f"self-loop at vertex {u}", ln)
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
    if n is None:
        raise GrParseError("missing 'p tw' header")
    return _graph_from_adj(n, adj)


def read_gr(path: str) -> Graph:
    """Parse the .gr file at ``path``: UTF-8 text, with or without a byte-order mark."""
    # read in chunks: one read of MAX_GR_BYTES + 1 would allocate that much for any file
    data = bytearray()
    with open(path, "rb") as fh:
        while len(data) <= MAX_GR_BYTES and (chunk := fh.read(1 << 16)):
            data += chunk
    if len(data) > MAX_GR_BYTES:
        raise GrParseError(f"file is longer than the limit of {MAX_GR_BYTES} bytes")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise GrParseError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    return parse_gr(text)


def write_gr(g: Graph) -> str:
    """Serialize to .gr with edges u < v in ascending order."""
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
