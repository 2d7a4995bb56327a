"""Three-way agreement (oracle / vc route / mw route) across graph shapes.

The seeded gnp corpus lives in the acceptance suite; this module covers
structured families random graphs rarely produce, plus a hypothesis sweep.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import strategies
from pmckit import (
    Graph,
    brute_force_lists,
    complete,
    cycle,
    empty_graph,
    enumerate_by_mw,
    expand_graph,
    minimum_vertex_cover,
    path,
    pmcs_by_vc,
    separators_by_vc,
    watermelon,
)

PROPERTY = settings(max_examples=50, deadline=None)


def star(k: int) -> Graph:
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid2(k: int) -> Graph:
    edges = []
    for i in range(k - 1):
        edges += [(i, i + 1), (k + i, k + i + 1)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def binary_tree(depth: int) -> Graph:
    n = 2 ** (depth + 1) - 1
    return Graph.from_edges(n, [(v, (v - 1) // 2) for v in range(1, n)])


def two_components() -> Graph:
    return Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)])


def cograph() -> Graph:
    g, _ = expand_graph(complete(2), [empty_graph(2), path(2)])
    h, _ = expand_graph(empty_graph(2), [g, complete(3)])
    return h


STRUCTURED = (
    [(f"path({n})", path(n)) for n in (1, 2, 5, 8)]
    + [(f"cycle({n})", cycle(n)) for n in (3, 5, 8)]
    + [(f"complete({n})", complete(n)) for n in (1, 4, 6)]
    + [(f"empty({n})", empty_graph(n)) for n in (1, 5)]
    + [("star(5)", star(5)), ("star(8)", star(8))]
    + [("K23", complete_bipartite(2, 3)), ("K33", complete_bipartite(3, 3))]
    + [("grid2x4", grid2(4)), ("grid2x5", grid2(5))]
    + [("btree2", binary_tree(2))]
    + [("watermelon(2,2)", watermelon(2, 2)), ("watermelon(3,2)", watermelon(3, 2))]
    + [("two_components", two_components()), ("cograph", cograph())]
)


def assert_three_way(g: Graph, label: str) -> None:
    seps, catalog = brute_force_lists(g)
    oracle_seps, oracle_pmcs = {s.mask for s in seps}, catalog.mask_set()
    vc_seps = {s.mask for s in separators_by_vc(g, minimum_vertex_cover(g))}
    mw_seps, mw_catalog = enumerate_by_mw(g)
    assert vc_seps == oracle_seps, label
    assert {s.mask for s in mw_seps} == oracle_seps, label
    assert pmcs_by_vc(g).mask_set() == oracle_pmcs, label
    assert mw_catalog.mask_set() == oracle_pmcs, label


@pytest.mark.parametrize("label,graph", STRUCTURED, ids=[l for l, _ in STRUCTURED])
def test_structured_families(label, graph):
    assert_three_way(graph, label)


@PROPERTY
@given(strategies.graphs(max_n=7))
def test_random_graphs(g):
    assert_three_way(g, "hypothesis")
