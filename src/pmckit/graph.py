"""Undirected simple graphs on vertices 0..n-1: queries, generators, PACE I/O."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bitset import VertexSet, iter_bits
from .errors import GrParseError, InputError

# Vertex labels used by the cube generator: two stacked 4-cycles plus rungs.
CUBE_INDEX = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5, "g": 6, "h": 7}


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

    def vertices(self) -> VertexSet:
        return VertexSet(self.full_mask)

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet(self.adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self.adj[u] >> v) & 1 == 1

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


def _validate_subset(g: Graph, s: VertexSet, what: str = "vertex set") -> None:
    if s.mask & ~g.full_mask:
        raise InputError(f"{what} contains out-of-range vertex indices")


def _nbr_mask(adj: tuple[int, ...], smask: int) -> int:
    """Union of neighborhoods of the vertices in ``smask``, minus ``smask``."""
    acc = 0
    for v in iter_bits(smask):
        acc |= adj[v]
    return acc & ~smask


def _components_with_nbrs(adj: tuple[int, ...], space: int) -> Iterator[tuple[int, int]]:
    """(C, N(C)) for each connected component C of the subgraph induced on ``space``.

    Components come ordered by their minimum vertex. N(C) is the neighborhood
    of C in the whole graph ``adj``, gathered from the BFS frontiers; callers
    working inside ``space`` intersect it with ``space``.
    """
    rem = space
    while rem:
        comp = rem & -rem
        frontier = comp
        reach = 0
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            reach |= nxt
            frontier = nxt & rem & ~comp
            comp |= frontier
        yield comp, reach & ~comp
        rem &= ~comp


def _components_masks(adj: tuple[int, ...], space: int) -> list[int]:
    """Connected components of the subgraph induced on ``space``, as masks.

    Ordered by their minimum vertex.
    """
    return [comp for comp, _ in _components_with_nbrs(adj, space)]


def neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """N(s): union of the members' neighborhoods, minus s itself."""
    _validate_subset(g, s)
    return VertexSet(_nbr_mask(g.adj, s.mask))


def components(g: Graph, removed: VertexSet) -> list[VertexSet]:
    """Connected components of g - removed, ordered by minimum vertex."""
    _validate_subset(g, removed)
    space = g.full_mask & ~removed.mask
    return [VertexSet(c) for c in _components_masks(g.adj, space)]


def full_components(g: Graph, s: VertexSet) -> list[VertexSet]:
    """Components C of g - s whose neighborhood is exactly s."""
    _validate_subset(g, s)
    space = g.full_mask & ~s.mask
    return [VertexSet(comp) for comp, nb in _components_with_nbrs(g.adj, space) if nb == s.mask]


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, list[int]]:
    """Subgraph induced on ``keep``, relabeled to 0..k-1.

    Returns the new graph and the list mapping new indices to old ones.
    """
    _validate_subset(g, keep)
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
    return builder(**params)


# ---------------------------------------------------------------------------
# PACE .gr I/O (1-based vertex indices on the wire, 0-based internally)
# ---------------------------------------------------------------------------

def parse_gr(text: str) -> Graph:
    """Parse PACE .gr: 'c' comments, one 'p tw <n> <m>' header, '<u> <v>' edge lines.

    Duplicate edges are collapsed; self-loops are rejected.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
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
            edges.append((u - 1, v - 1))
    if n is None:
        raise GrParseError("missing 'p tw' header")
    return Graph.from_edges(n, edges)


def read_gr(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gr(fh.read())


def write_gr(g: Graph) -> str:
    """Serialize to .gr with edges u < v in ascending order."""
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
