"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from pmckit import Graph, VertexSet


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
