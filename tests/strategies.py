"""Hypothesis strategies and graph builders shared across the test modules."""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from pmckit import (Graph, VertexSet, complete, cycle, empty_graph, expand_graph, gnp, modular_decomposition,
                    path)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    """Arbitrary simple graphs with a shrink-friendly edge selection."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        chosen = []
    return Graph.from_edges(n, chosen)


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, in order, with no edge between them."""
    graph, _ = expand_graph(empty_graph(len(graphs)), list(graphs))
    return graph


def join(a: Graph, b: Graph) -> Graph:
    """a and b side by side, every vertex of a adjacent to every vertex of b."""
    graph, _ = expand_graph(complete(2), [a, b])
    return graph


def threshold(n: int) -> Graph:
    """Odd i joined to every earlier vertex: a cograph whose modular tree nests about n levels."""
    return Graph.from_edges(n, [(i, j) for i in range(1, n, 2) for j in range(i)])


@st.composite
def graph_with_subset(draw, min_n: int = 1, max_n: int = 8):
    """A graph together with an arbitrary subset of its vertices."""
    g = draw(graphs(min_n=min_n, max_n=max_n))
    mask = draw(st.integers(0, g.full_mask))
    return g, VertexSet(mask)


@st.composite
def disconnected_graphs(draw, max_part: int = 5) -> Graph:
    """Two arbitrary graphs side by side, their vertices shuffled together."""
    a = draw(graphs(max_n=max_part))
    b = draw(graphs(max_n=max_part))
    n = a.n + b.n
    place = draw(st.permutations(range(n)))
    edges = [*a.edges(), *((u + a.n, v + a.n) for u, v in b.edges())]
    return Graph.from_edges(n, [(place[u], place[v]) for u, v in edges])


@st.composite
def _quotients(draw, k: int) -> Graph:
    kind = draw(st.sampled_from(("gnp", "path", "cycle", "complete", "empty")))
    if kind == "gnp":
        return gnp(k, draw(st.sampled_from((0.3, 0.5, 0.7))), draw(st.integers(0, 1 << 16)))
    if kind == "cycle" and k >= 3:
        return cycle(k)
    return {"complete": complete, "empty": empty_graph}.get(kind, path)(k)


@st.composite
def module_graphs(draw, max_n: int = 14, depth: int = 3) -> Graph:
    """Nested expand_graph: a gnp, path, cycle, complete or empty quotient whose
    vertices stay single or become module graphs drawn the same way; at most max_n
    (>= 2) vertices in all."""
    k = draw(st.integers(2, min(6, max_n)))
    room = max_n - k
    modules = []
    for _ in range(k):
        module = empty_graph(1)
        if room and depth and draw(st.booleans()):
            module = draw(module_graphs(max_n=room + 1, depth=depth - 1))
            room -= module.n - 1
        modules.append(module)
    return expand_graph(draw(_quotients(k)), modules)[0]


def is_prime(g: Graph) -> bool:
    """True when g is its own prime quotient: no module but V and single vertices."""
    root = modular_decomposition(g).root
    return root.kind == "prime" and len(root.children) == g.n


@st.composite
def prime_module_graphs(draw, min_k: int, max_k: int, max_n: int) -> Graph:
    """A prime path, cycle or gnp quotient of min_k..max_k (>= 5) vertices, one to three
    of them module graphs that themselves hold modules (module_graphs, depth 1); at most
    max_n vertices in all."""
    k = draw(st.integers(min_k, max_k))
    kind = draw(st.sampled_from(("path", "cycle", "gnp")))
    if kind == "gnp":
        quotient = gnp(k, draw(st.sampled_from((0.3, 0.5))), draw(st.integers(0, 1 << 16)))
        assume(is_prime(quotient))
    else:
        quotient = (path if kind == "path" else cycle)(k)
    modules, room = [empty_graph(1)] * k, max_n - k
    for i in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3, unique=True)):
        if room:
            modules[i] = draw(module_graphs(max_n=min(room + 1, 5), depth=1))
            room -= modules[i].n - 1
    return expand_graph(quotient, modules)[0]
