"""Treewidth / fill-in DP against elimination-order oracles and literal search."""

from __future__ import annotations

import time
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies
from pmckit import (
    CapExceeded,
    InputError,
    VertexSet,
    brute_force_fill_in,
    brute_force_lists,
    brute_force_treewidth,
    complete,
    cycle,
    empty_graph,
    enumerate_by_mw,
    expand_graph,
    gnp,
    induced_subgraph,
    min_fill_in,
    minimum_vertex_cover,
    modular_decomposition,
    path,
    pmcs_by_vc,
    treewidth,
    watermelon,
)
import pmckit.solvers
from pmckit.bitset import iter_bits
from pmckit.cli import solve_value
from pmckit.graph import Graph
from reference import full_components
from strategies import disjoint_union

PROPERTY = settings(max_examples=40, deadline=None)


def simulate_order(g: Graph, order) -> tuple[int, int]:
    """Eliminate vertices in the given order; return (max bag, edges added)."""
    adj = list(g.adj)
    alive = g.full_mask
    width = -1
    added = 0
    for v in order:
        nb = adj[v] & alive & ~(1 << v)
        width = max(width, nb.bit_count())
        for u in iter_bits(nb):
            added += (nb & ~adj[u] & ~((1 << (u + 1)) - 1)).bit_count()
        for u in iter_bits(nb):
            adj[u] |= nb & ~(1 << u)
        alive &= ~(1 << v)
    return width, added


def literal_minima(g: Graph) -> tuple[int, int]:
    best_w = g.n
    best_f = g.n * g.n
    for order in permutations(range(g.n)):
        w, f = simulate_order(g, order)
        best_w = min(best_w, w)
        best_f = min(best_f, f)
    return best_w, best_f


class TestOracles:
    def test_named_values(self):
        assert brute_force_treewidth(complete(4)) == 3
        assert brute_force_fill_in(complete(4)) == 0
        assert brute_force_treewidth(path(5)) == 1
        assert brute_force_fill_in(path(5)) == 0
        assert brute_force_treewidth(cycle(5)) == 2
        assert brute_force_fill_in(cycle(5)) == 2
        assert brute_force_fill_in(cycle(6)) == 3

    def test_cube(self, cube_graph):
        assert brute_force_treewidth(cube_graph) == 3

    def test_caps(self):
        with pytest.raises(CapExceeded):
            brute_force_treewidth(empty_graph(17))
        with pytest.raises(CapExceeded):
            brute_force_fill_in(empty_graph(17))
        assert brute_force_treewidth(empty_graph(10), cap=10) == 0

    @PROPERTY
    @given(strategies.graphs(max_n=6))
    def test_matches_literal_order_search(self, g):
        w, f = literal_minima(g)
        assert brute_force_treewidth(g) == w
        assert brute_force_fill_in(g) == f

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_under_vertex_deletion(self, seed):
        from pmckit import induced_subgraph

        g = gnp(8, 0.4, seed)
        tw = brute_force_treewidth(g)
        for v in range(g.n):
            sub, _ = induced_subgraph(g, VertexSet(g.full_mask & ~(1 << v)))
            assert brute_force_treewidth(sub) <= tw


class TestDynamicProgram:
    def test_trees_and_cliques(self):
        tree = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        cat = brute_force_lists(tree)[1]
        assert treewidth(tree, cat) == 1
        assert min_fill_in(tree, cat) == 0
        k5 = complete(5)
        cat = brute_force_lists(k5)[1]
        assert treewidth(k5, cat) == 4
        assert min_fill_in(k5, cat) == 0

    def test_cycles(self):
        c6 = cycle(6)
        cat = brute_force_lists(c6)[1]
        assert treewidth(c6, cat) == 2
        assert min_fill_in(c6, cat) == 3

    def test_cube_both_catalog_routes(self, cube_graph):
        for catalog in (pmcs_by_vc(cube_graph), enumerate_by_mw(cube_graph)[1]):
            assert treewidth(cube_graph, catalog) == 3
            assert min_fill_in(cube_graph, catalog) == brute_force_fill_in(cube_graph)

    def test_single_vertex(self):
        g = empty_graph(1)
        cat = brute_force_lists(g)[1]
        assert treewidth(g, cat) == 0
        assert min_fill_in(g, cat) == 0

    def test_solves_disconnected(self):
        # each vertex is a component, folded by the root as a block (empty, {v})
        g = empty_graph(2)
        cat = brute_force_lists(g)[1]
        assert (treewidth(g, cat), min_fill_in(g, cat)) == (0, 0)

    # at most 10 vertices: three catalogs and both oracles, a few ms an example
    @PROPERTY
    @given(strategies.disconnected_graphs())
    def test_disconnected_graphs_match_oracles(self, g):
        want = (brute_force_treewidth(g), brute_force_fill_in(g))
        for catalog in (brute_force_lists(g)[1], pmcs_by_vc(g), enumerate_by_mw(g)[1]):
            assert (treewidth(g, catalog), min_fill_in(g, catalog)) == want

    def test_rejects_foreign_catalog(self):
        with pytest.raises(InputError):
            treewidth(path(4), brute_force_lists(path(5))[1])

    def test_matches_oracles_on_corpus(self, quick_corpus):
        for name, g in quick_corpus:
            if g.n <= 9:
                want = brute_force_treewidth(g)
                assert solve_value(g, "tw", "vc") == want, name
                assert solve_value(g, "tw", "mw") == want, name
            if g.n <= 8:
                want = brute_force_fill_in(g)
                assert solve_value(g, "fillin", "vc") == want, name
                assert solve_value(g, "fillin", "mw") == want, name

    # The hub separators of these watermelons have three or more full
    # components, so one block is reached through several pieces of a PMC.
    @pytest.mark.parametrize("p, q", [(3, 1), (3, 2), (4, 2)])
    def test_matches_oracles_on_watermelons(self, p, q):
        g = watermelon(p, q)
        want_tw = brute_force_treewidth(g, cap=g.n)
        want_fill = brute_force_fill_in(g, cap=g.n)
        for catalog in (pmcs_by_vc(g), enumerate_by_mw(g)[1]):
            assert treewidth(g, catalog) == want_tw
            assert min_fill_in(g, catalog) == want_fill

    def test_treewidth_bounded_by_cover(self, quick_corpus):
        for name, g in quick_corpus:
            if g.n <= 9:
                assert brute_force_treewidth(g) <= len(minimum_vertex_cover(g)), name


class TestBlocks:
    def test_blocks_satisfy_invariants(self, quick_corpus):
        from pmckit import components, dp_blocks, is_minimal_separator

        checked = 0
        for name, g in quick_corpus:
            if len(components(g, VertexSet())) != 1 or g.n > 8:
                continue
            for block in dp_blocks(g, brute_force_lists(g)[1]):
                assert is_minimal_separator(g, block.sep), name
                assert block.comp in full_components(g, block.sep), name
                checked += 1
        assert checked > 0

    def test_clique_has_no_blocks(self):
        from pmckit import dp_blocks

        g = complete(4)
        assert dp_blocks(g, brute_force_lists(g)[1]) == []


class TestSolveValue:
    def test_splits_components(self):
        # triangle plus a path: max for width, sum for fill
        g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3), (6, 7)])
        assert solve_value(g, "tw", "vc") == 2
        assert solve_value(g, "fillin", "vc") == 1  # the 4-cycle needs one chord

    def test_chordal_fill_zero(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)])
        assert solve_value(g, "fillin", "mw") == 0


def complete_multipartite(parts) -> Graph:
    graph, _ = expand_graph(complete(len(parts)), [empty_graph(a) for a in parts])
    return graph


class TestTreeSolver:
    # each example runs both oracles on up to 14 vertices, about 0.2 s
    @settings(max_examples=25, deadline=None)
    @given(strategies.module_graphs())
    def test_matches_vc_route_and_oracles(self, g):
        for problem, oracle in (("tw", brute_force_treewidth), ("fillin", brute_force_fill_in)):
            value = solve_value(g, problem, "mw")
            assert value == solve_value(g, problem, "vc"), problem
            if g.n <= 14:
                assert value == oracle(g), problem

    @pytest.mark.parametrize("seed", range(6))
    def test_catalog_fallback_above_the_quotient_cap(self, monkeypatch, seed):
        # a gnp quotient of path, clique and independent modules: a prime
        # node with module children, solved from the catalog of its subgraph
        # once the cap is below its quotient size; tw lists that catalog only
        # when the subgraph's bracket stays open
        quotient = gnp(7, 0.45, seed)
        g, _ = expand_graph(quotient, [(path(3), complete(2), empty_graph(2), empty_graph(1))[i % 4]
                                       for i in range(7)])
        want = {p: solve_value(g, p, "vc") for p in ("tw", "fillin")}
        monkeypatch.setattr(pmckit.solvers, "_QUOTIENT_DP_CAP", 2)
        with mock.patch.object(pmckit.solvers, "enumerate_by_mw",
                               wraps=pmckit.solvers.enumerate_by_mw) as fallback:
            assert {p: solve_value(g, p, "mw") for p in want} == want
        roots = [modular_decomposition(g).root]
        primes = opened = 0
        while roots:
            node = roots.pop()
            if node.kind == "prime" and any(c.kind != "leaf" for c in node.children):
                sub, _ = induced_subgraph(g, node.vertices)
                lb, ub = pmckit.solvers._tw_bracket(sub.adj, sub.full_mask)
                primes, opened = primes + 1, opened + (lb != ub)
            if node.kind != "prime":
                roots.extend(node.children)
        assert fallback.call_count == primes + opened and primes > 0

    @pytest.mark.parametrize("parts", [(1, 1), (2, 2), (1, 2, 3), (3, 3, 1, 4), (5, 2, 2)])
    def test_join_of_independent_sets(self, parts):
        # every part but a largest one becomes a clique
        g = complete_multipartite(parts)
        assert solve_value(g, "tw", "mw") == g.n - max(parts)
        assert solve_value(g, "fillin", "mw") == sum(a * (a - 1) // 2 for a in parts) - max(
            a * (a - 1) // 2 for a in parts)

    def test_union_takes_max_and_sum(self):
        g = disjoint_union(cycle(4), cycle(5), complete(4), path(3))
        tree = modular_decomposition(g)
        assert tree.root.kind == "union"
        assert pmckit.solvers._solve_tree(tree, "tw") == 3
        assert pmckit.solvers._solve_tree(tree, "fillin") == 1 + 2

    def test_join_of_unions(self):
        # a join whose children are unions: each union is solved by max and
        # sum, then the join completes all but one child
        g, _ = expand_graph(complete(2), [disjoint_union(cycle(4), path(2)), cycle(5)])
        assert solve_value(g, "tw", "mw") == brute_force_treewidth(g) == solve_value(g, "tw", "vc")
        assert solve_value(g, "fillin", "mw") == brute_force_fill_in(g)

    # expanded graphs of at most 14 vertices; 30 examples take well under a second
    @settings(max_examples=30, deadline=None)
    @given(strategies.graphs(max_n=5), st.data())
    def test_weighted_search_matches_the_expanded_graph(self, quotient, data):
        # the weighted elimination search on a quotient of arbitrary modules
        # against the block DP over the subset scan of the expanded graph
        modules = [data.draw(strategies.graphs(max_n=3)) for _ in range(quotient.n)]
        assume(sum(m.n for m in modules) <= 14)
        g, _ = expand_graph(quotient, modules)
        for problem in ("tw", "fillin"):
            triples = [(solve_value(m, problem, "brute"), m.n, m.m) for m in modules]
            value = pmckit.solvers._elimination_search(quotient.adj, triples, problem)
            assert value - (0 if problem == "tw" else g.m) == solve_value(g, problem, "brute"), problem

    def test_deep_cograph_solves_fast(self):
        g = strategies.threshold(300)
        t0 = time.perf_counter()
        assert (solve_value(g, "tw", "mw"), solve_value(g, "fillin", "mw")) == (150, 0)
        assert time.perf_counter() - t0 < 1.0


class TestTwBracket:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(strategies.graphs(max_n=10), strategies.module_graphs(max_n=12),
                     strategies.disconnected_graphs()))
    def test_brackets_the_oracle(self, g):
        lb, ub = pmckit.solvers._tw_bracket(g.adj, g.full_mask)
        assert lb <= brute_force_treewidth(g) <= ub

    def test_solve_tw_matches_the_oracle_where_the_bracket_closes_and_where_not(self, mw_solve_quotients):
        # 12-vertex prime quotients of single vertices; the same with a module
        # at vertex 0, a prime node above _QUOTIENT_DP_CAP children that goes
        # to the catalog of its subgraph; and 8-vertex quotients of modules,
        # below the cap, where the weighted search runs without a bracket (the
        # vc route brackets every side)
        quotients = mw_solve_quotients[:5]
        sides = {
            "leaves": quotients,
            "above cap": [expand_graph(q, [module] + [empty_graph(1)] * (q.n - 1))[0]
                          for q in quotients for module in (complete(2), path(3))],
            "below cap": [expand_graph(gnp(8, 0.45, seed), [(complete(2), empty_graph(2), empty_graph(1))[i % 3]
                                                            for i in range(8)])[0] for seed in (0, 2, 3)],
        }
        for side, graphs in sides.items():
            closes = set()
            for g in graphs:
                root = modular_decomposition(g).root
                assert root.kind == "prime" and (pmckit.solvers._by_catalog(root) == (side == "above cap"))
                lb, ub = pmckit.solvers._tw_bracket(g.adj, g.full_mask)
                closes.add(lb == ub)
                assert solve_value(g, "tw", "mw") == solve_value(g, "tw", "vc") == brute_force_treewidth(g), side
            assert closes == {True, False}, side
