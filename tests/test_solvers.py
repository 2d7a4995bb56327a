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


# the distinct prime graphs among gnp(k, 0.5, seed) for k 4..6 and 40 seeds
SMALL_PRIMES = list({g.adj: g for g in (gnp(k, 0.5, seed) for k in (4, 5, 6) for seed in range(40))
                     if strategies.is_prime(g)}.values())


def spy(name):
    """Patch pmckit.solvers.<name> with a mock that records each call and runs the original."""
    return mock.patch.object(pmckit.solvers, name, wraps=getattr(pmckit.solvers, name))


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

    # prime quotients of module children of up to 11 children and of 12-14;
    # on the wider ones the vc route takes up to about 0.7 s an example
    @pytest.mark.parametrize("min_k, max_k, max_n", [(5, 11, 14), (12, 14, 18)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_prime_quotients_of_modules_match_oracles_and_vc_route(self, min_k, max_k, max_n, data):
        g = data.draw(strategies.prime_module_graphs(min_k, max_k, max_n))
        root = modular_decomposition(g).root
        assert root.kind == "prime" and min_k <= len(root.children) <= max_k
        for problem, oracle in (("tw", brute_force_treewidth), ("fillin", brute_force_fill_in)):
            value = solve_value(g, problem, "mw")
            assert value == solve_value(g, problem, "vc"), problem
            if g.n <= 14:
                assert value == oracle(g), problem

    @pytest.mark.parametrize("seed", range(6))
    def test_catalog_fallback_above_the_quotient_cap(self, seed):
        # a 13-vertex gnp quotient of cycle, path, clique, independent and
        # single-vertex modules (more than 11 children, which the name recalls
        # a catalog fallback for): the module quotient is listed once, whole,
        # and never bracketed; each all-leaf quotient inside (C5, P4) is
        # bracketed for tw, and listed on its simplicial core only when that
        # stays open: C5 for fill-in only, the chordal P4 never
        quotient = gnp(13, 0.45, seed)
        modules = [(cycle(5), path(4), complete(2), empty_graph(2), empty_graph(1))[i % 5] for i in range(13)]
        g, _ = expand_graph(quotient, modules)
        root = modular_decomposition(g).root
        assert root.kind == "prime" and len(root.children) == 13
        catalog = enumerate_by_mw(g)[1]
        want = {"tw": treewidth(g, catalog), "fillin": min_fill_in(g, catalog)}
        cycles, paths = modules.count(cycle(5)), modules.count(path(4))
        for problem in want:
            with spy("_pmc_listing") as listing, spy("_tw_bracket") as bracket:
                assert solve_value(g, problem, "mw") == want[problem], problem
            spaces = sorted(call.args[1].bit_count() for call in listing.call_args_list)
            assert spaces == [5] * cycles * (problem == "fillin") + [13], problem
            assert bracket.call_count == (cycles + paths if problem == "tw" else 0), problem

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
    @given(st.sampled_from(SMALL_PRIMES), st.data())
    def test_weighted_dp_matches_the_expanded_graph(self, quotient, data):
        # the weighted block DP on a prime quotient of arbitrary modules
        # against the block DP over the subset scan of the expanded graph
        modules = [data.draw(strategies.graphs(max_n=3)) for _ in range(quotient.n)]
        assume(sum(m.n for m in modules) <= 14)
        g, _ = expand_graph(quotient, modules)
        entries = pmckit.solvers._pmc_listing(quotient.adj, quotient.full_mask)[1].items()
        for problem in ("tw", "fillin"):
            kids = [(solve_value(m, problem, "brute"), m.n, m.m) for m in modules]
            value = pmckit.solvers._block_dp(quotient.adj, quotient.full_mask, entries, problem, kids)
            assert value == solve_value(g, problem, "brute"), problem

    def test_deep_cograph_solves_fast(self):
        g = strategies.threshold(300)
        t0 = time.perf_counter()
        assert (solve_value(g, "tw", "mw"), solve_value(g, "fillin", "mw")) == (150, 0)
        assert time.perf_counter() - t0 < 1.0


class TestSimplicialCore:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(strategies.graphs(max_n=9), strategies.module_graphs(max_n=10)))
    def test_core_keeps_treewidth_and_fill_in(self, g):
        # tw(G) = max(low, tw(core)) and fill(G) = fill(core); the core is
        # empty exactly on chordal graphs, those of fill-in 0
        low, core = pmckit.solvers._simplicial_core(g.adj, g.full_mask)
        fill = brute_force_fill_in(g)
        assert (core == 0) == (fill == 0)
        if core:
            sub, _ = induced_subgraph(g, VertexSet(core))
            assert brute_force_treewidth(g) == max(low, brute_force_treewidth(sub))
            assert fill == brute_force_fill_in(sub)
        else:
            assert brute_force_treewidth(g) == low

    def test_rechecks_only_the_neighbours_of_a_removal(self):
        # a 4,000-leaf star: each leaf goes, then the hub, at degree 1
        g = Graph.from_edges(4001, [(0, i) for i in range(1, 4001)])
        with spy("iter_bits") as scans:
            assert pmckit.solvers._simplicial_core(g.adj, g.full_mask) == (1, 0)
        assert scans.call_count <= 2 * g.n


class TestTwBracket:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(strategies.graphs(max_n=10), strategies.module_graphs(max_n=12),
                     strategies.disconnected_graphs()))
    def test_brackets_the_oracle(self, g):
        lb, ub = pmckit.solvers._tw_bracket(g.adj, g.full_mask)
        assert lb <= brute_force_treewidth(g) <= ub

    def test_solve_tw_matches_the_oracle_where_the_bracket_closes_and_where_not(self, mw_solve_quotients):
        # 12-vertex prime quotients of single vertices, bracketed on their
        # simplicial cores by the mw route; the same with a module at vertex
        # 0, and 8-vertex gnp quotients of modules, where the weighted DP
        # runs with no bracket. The vc route brackets every graph whole.
        quotients = mw_solve_quotients[:5]
        sides = {
            "leaves": quotients,
            "modules": [expand_graph(q, [module] + [empty_graph(1)] * (q.n - 1))[0]
                        for q in quotients for module in (complete(2), path(3))]
                       + [expand_graph(gnp(8, 0.45, seed), [(complete(2), empty_graph(2), empty_graph(1))[i % 3]
                                                            for i in range(8)])[0] for seed in (0, 2, 3)],
        }
        for side, graphs in sides.items():
            closes, leaves = set(), side == "leaves"
            for g in graphs:
                root = modular_decomposition(g).root
                assert root.kind == "prime" and all(c.kind == "leaf" for c in root.children) == leaves
                low, core = pmckit.solvers._simplicial_core(g.adj, g.full_mask) if leaves else (0, g.full_mask)
                lb, ub = pmckit.solvers._tw_bracket(g.adj, core)
                closes.add(max(low, lb) == max(low, ub))
                with spy("_tw_bracket") as bracket:
                    assert solve_value(g, "tw", "mw") == solve_value(g, "tw", "vc") == brute_force_treewidth(g)
                assert bracket.call_count == leaves, side
            assert closes == {True, False}, side
