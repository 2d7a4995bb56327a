"""Modular decomposition and modular-width-parameterized enumeration."""

from __future__ import annotations

import ast
import inspect
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from pmckit import (
    InputError,
    VertexSet,
    base_enumerate,
    brute_force_lists,
    complete,
    cube,
    cycle,
    empty_graph,
    enumerate_by_mw,
    expand,
    expand_graph,
    gnp,
    modular_decomposition,
    modular_width,
    path,
    tree_to_json,
    write_gr,
)
from pmckit import cli, graph, modular, recognition, solvers
from pmckit.bitset import iter_bits
from pmckit.graph import Graph
from reference import neighborhood, vset

PROPERTY = settings(max_examples=60, deadline=None)


def has_nontrivial_module(q: Graph) -> bool:
    for m in range(1, 1 << q.n):
        if m.bit_count() in (1, q.n):
            continue
        if all(q.adj[x] & m in (0, m) for x in iter_bits(q.full_mask & ~m)):
            return True
    return False


def check_tree_invariants(g: Graph, node) -> None:
    space = node.vertices.mask
    if node.kind == "leaf":
        assert space.bit_count() == 1
        assert node.children == () and node.quotient is None
        return
    assert len(node.children) >= 2
    union = 0
    for child in node.children:
        cm = child.vertices.mask
        assert cm & union == 0
        union |= cm
        # module property: inside this node, outside vertices see all or none
        for x in iter_bits(space & ~cm):
            inter = g.adj[x] & cm
            assert inter == 0 or inter == cm
        check_tree_invariants(g, child)
    assert union == space
    q = node.quotient
    assert q.n == len(node.children)
    if node.kind == "union":
        assert q.m == 0
    elif node.kind == "join":
        assert q.m == q.n * (q.n - 1) // 2
    elif q.n <= 10:  # primality brute check only where affordable
        assert not has_nontrivial_module(q)


def pairwise_prime_partition(adj, space):
    """Reference split of a prime node: one module closure per vertex pair.

    The block containing x is the union of all proper minimal modules through
    x; blocks of distinct unassigned vertices never overlap.
    """
    parts = []
    assigned = 0
    for x in iter_bits(space):
        if (assigned >> x) & 1:
            continue
        block = 1 << x
        for y in iter_bits(space & ~(1 << x)):
            if (block >> y) & 1:
                continue
            closure = modular._module_closure(adj, space, (1 << x) | (1 << y))
            if closure != space:
                block |= closure
        assert block & assigned == 0, "strong modules must not overlap"
        parts.append(block)
        assigned |= block
    return parts


def assert_matches_reference(g: Graph) -> None:
    fast = tree_to_json(modular_decomposition(g))
    with mock.patch.object(modular, "_prime_partition", pairwise_prime_partition):
        assert fast == tree_to_json(modular_decomposition(g))


def assert_mw_matches_oracle(g: Graph, name: str = "") -> None:
    seps, catalog = enumerate_by_mw(g)
    oracle_seps, oracle_catalog = brute_force_lists(g)
    assert {s.mask for s in seps} == {s.mask for s in oracle_seps}, name
    assert catalog.mask_set() == oracle_catalog.mask_set(), name


def nested_composition(rng: random.Random, depth: int) -> Graph:
    """gnp quotients whose vertices are replaced by nested gnp compositions."""
    if depth == 0:
        return gnp(rng.randint(1, 4), rng.random(), rng.randrange(1 << 20))
    quotient = gnp(rng.randint(2, 5), rng.random(), rng.randrange(1 << 20))
    return expand_graph(quotient, [nested_composition(rng, depth - 1) for _ in range(quotient.n)])[0]


def tree_nodes(node) -> list:
    out = [node]
    for child in node.children:
        out += tree_nodes(child)
    return out


def padded_per_level(g: Graph, node, what: str) -> tuple[set[int], set[int]]:
    """Reference candidates: each level pads its children's candidates again with the child's N(X)."""
    if node.kind == "leaf":
        return set(), {node.vertices.mask}
    space = node.vertices.mask
    seps, pmcs = {"union": ({0}, set()), "join": (set(), {space})}.get(node.kind, (set(), set()))
    if node.kind == "prime":
        q_seps, q_pmcs = base_enumerate(node.quotient, what)
        child_sets = [c.vertices for c in node.children]
        seps |= {expand(s, child_sets).mask for s in q_seps or ()}
        pmcs |= {expand(o, child_sets).mask for o in q_pmcs or ()}
    for child in node.children:
        child_seps, child_pmcs = padded_per_level(g, child, what)
        nh = neighborhood(g, child.vertices).mask & space
        seps |= {s | nh for s in child_seps}
        pmcs |= {o | nh for o in child_pmcs}
    return seps, pmcs


def rebuilt_edges(node) -> set[tuple[int, int]]:
    if node.kind == "leaf":
        return set()
    edges = set()
    for child in node.children:
        edges |= rebuilt_edges(child)
    q = node.quotient
    for i in range(q.n):
        for j in iter_bits(q.adj[i]):
            if j <= i:
                continue
            for u in node.children[i].vertices:
                for v in node.children[j].vertices:
                    edges.add((min(u, v), max(u, v)))
    return edges


class TestDecomposition:
    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            modular_decomposition(Graph.from_edges(0, []))

    def test_single_vertex(self):
        t = modular_decomposition(empty_graph(1))
        assert t.root.kind == "leaf"
        assert modular_width(t) == 0

    def test_complete_is_join_of_leaves(self):
        t = modular_decomposition(complete(5))
        assert t.root.kind == "join"
        assert all(c.kind == "leaf" for c in t.root.children)
        assert modular_width(t) == 0

    def test_edgeless_is_union_of_leaves(self):
        t = modular_decomposition(empty_graph(4))
        assert t.root.kind == "union"
        assert all(c.kind == "leaf" for c in t.root.children)
        assert modular_width(t) == 0

    def test_p4_is_prime(self):
        t = modular_decomposition(path(4))
        assert t.root.kind == "prime"
        assert len(t.root.children) == 4
        assert modular_width(t) == 4
        assert not has_nontrivial_module(path(4))

    def test_c4_is_a_cograph(self):
        t = modular_decomposition(cycle(4))
        assert t.root.kind == "join"
        assert modular_width(t) == 0

    def test_cube_is_prime_width_8(self, cube_graph):
        t = modular_decomposition(cube_graph)
        assert t.root.kind == "prime"
        assert modular_width(t) == 8
        assert not has_nontrivial_module(cube_graph)

    def test_nested_example(self):
        # two triangles joined by no edges: union of two joins
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        t = modular_decomposition(g)
        assert t.root.kind == "union"
        assert [c.kind for c in t.root.children] == ["join", "join"]
        assert modular_width(t) == 0

    @PROPERTY
    @given(strategies.graphs(max_n=8))
    def test_invariants_and_reconstruction(self, g):
        t = modular_decomposition(g)
        check_tree_invariants(g, t.root)
        assert rebuilt_edges(t.root) == set(g.edges())

    @PROPERTY
    @given(st.one_of(strategies.graphs(max_n=9), strategies.module_graphs()))
    def test_every_node_is_a_module(self, g):
        # the mw candidates read N(X) at X's lowest vertex
        for node in tree_nodes(modular_decomposition(g).root):
            x = node.vertices.mask
            assert {g.adj[v] & ~x for v in iter_bits(x)} == {neighborhood(g, node.vertices).mask}

    def test_json_rendering(self):
        t = modular_decomposition(path(4))
        blob = tree_to_json(t)
        assert blob["modular_width"] == 4
        assert blob["root"]["kind"] == "prime"
        assert blob["root"]["quotient"]["n"] == 4


class TestPrimeSplit:
    """The refinement split against the pairwise-closure reference."""

    @PROPERTY
    @given(strategies.graphs(max_n=8))
    def test_matches_reference(self, g):
        assert_matches_reference(g)

    def test_matches_reference_on_corpus(self, quick_corpus):
        for _, g in quick_corpus:
            assert_matches_reference(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_on_nested_compositions(self, seed):
        assert_matches_reference(nested_composition(random.Random(seed), 3))

    @pytest.mark.parametrize("quotient", [path(9), cycle(10)], ids=["path(9)", "cycle(10)"])
    def test_matches_reference_on_benchmark_shapes(self, mw_solve_quotients, quotient):
        assert_matches_reference(expand_graph(quotient, mw_solve_quotients[: quotient.n])[0])

    def test_no_pairwise_closures(self, monkeypatch, mw_solve_quotients):
        # the pairwise reference makes 2,061 closures on this 108-vertex graph
        g, _ = expand_graph(path(9), mw_solve_quotients[:9])
        calls = []
        closure = modular._module_closure

        def counted(*args):
            calls.append(args)
            return closure(*args)

        monkeypatch.setattr(modular, "_module_closure", counted)
        t = modular_decomposition(g)
        assert modular_width(t) == 12
        assert 0 < len(calls) < g.n


class TestExpand:
    def test_fixtures(self):
        children = [vset(0, 1), vset(2)]
        assert expand(VertexSet(), children) == VertexSet()
        assert expand(vset(0), children) == vset(0, 1)
        assert expand(vset(0, 1), children) == vset(0, 1, 2)

    @PROPERTY
    @given(strategies.graphs(min_n=2, max_n=6))
    def test_expand_is_union_of_child_masks(self, q):
        modules = [path(1 + (i % 3)) for i in range(q.n)]
        _, children = expand_graph(q, modules)
        for qmask in range(1 << q.n):
            union = 0
            for i in range(q.n):
                if qmask >> i & 1:
                    union |= children[i].mask
            assert expand(VertexSet(qmask), children) == VertexSet(union)


class TestExpandGraph:
    def test_shapes(self):
        h, children = expand_graph(path(2), [complete(2), empty_graph(2)])
        # K2 joined to two isolated vertices: every cross pair present
        assert h.n == 4
        assert h.adj == (0b1110, 0b1101, 0b0011, 0b0011)
        assert [c.to_list() for c in children] == [[0, 1], [2, 3]]

    def test_separator_trace_matches_child(self):
        # separators meeting a module partially: trace is a child separator
        # and the remainder is the module's outside neighborhood
        quotient = path(3)
        modules = [path(3), complete(2), empty_graph(1)]
        h, children = expand_graph(quotient, modules)
        for s in brute_force_lists(h)[0]:
            for child, mod in zip(children, modules):
                inter = s.mask & child.mask
                if inter in (0, child.mask):
                    continue
                nh = 0
                for v in iter_bits(child.mask):
                    nh |= h.adj[v]
                nh &= ~child.mask
                assert s.mask & ~child.mask == nh
                local = vset(*(child.to_list().index(v) for v in iter_bits(inter)))
                from pmckit import is_minimal_separator

                assert is_minimal_separator(mod, local)

    def test_count_bounds(self):
        combos = [
            (path(3), [complete(2), path(2), empty_graph(2)]),
            (cycle(4), [complete(1), complete(2), path(3), empty_graph(2)]),
            (path(4), [complete(2), complete(1), complete(1), path(2)]),
        ]
        for quotient, modules in combos:
            h, _ = expand_graph(quotient, modules)
            parts = [brute_force_lists(x) for x in (quotient, *modules)]
            seps, catalog = brute_force_lists(h)
            assert len(seps) <= sum(len(part_seps) for part_seps, _ in parts)
            assert len(catalog) <= sum(len(part_pmcs) for _, part_pmcs in parts)


class TestBaseEnumerate:
    def test_clique(self):
        seps, catalog = base_enumerate(complete(5))
        assert seps == []
        assert [vs.to_list() for vs in catalog] == [[0, 1, 2, 3, 4]]

    def test_p4(self):
        seps, _ = base_enumerate(path(4))
        assert [s.to_list() for s in seps] == [[1], [2]]

    def test_edgeless(self):
        seps, _ = base_enumerate(empty_graph(3))
        assert VertexSet() in seps

    @pytest.mark.parametrize("name", ["cube", "path5", "gnp9"])
    def test_lists_only_what_is_asked(self, monkeypatch, name):
        g = {"cube": cube(), "path5": path(5), "gnp9": gnp(9, 0.4, 3)}[name]
        seps, catalog = base_enumerate(g)
        assert base_enumerate(g, "pmcs") == (None, catalog)
        monkeypatch.setattr(modular, "_pmc_listing", None)
        assert base_enumerate(g, "seps") == (seps, None)

    def test_no_size_cap(self):
        # 21 vertices: no size cap refuses it
        seps, catalog = base_enumerate(empty_graph(21))
        assert seps == [VertexSet()]
        assert [vs.to_list() for vs in catalog] == [[v] for v in range(21)]


class TestEnumerationByMw:
    def test_join_of_two_edges_is_complete(self):
        g, _ = expand_graph(complete(2), [complete(2), complete(2)])
        assert enumerate_by_mw(g)[0] == []
        assert [vs.to_list() for vs in enumerate_by_mw(g)[1]] == [[0, 1, 2, 3]]

    def test_union_of_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert enumerate_by_mw(g)[0] == [VertexSet()]
        assert [vs.to_list() for vs in enumerate_by_mw(g)[1]] == [[0, 1, 2], [3, 4, 5]]

    def test_cube_falls_through_to_base(self, cube_graph):
        assert_mw_matches_oracle(cube_graph)

    def test_matches_oracle_on_corpus(self, quick_corpus):
        for name, g in quick_corpus:
            assert_mw_matches_oracle(g, name)

    @pytest.mark.parametrize("depth", [1, 2], ids=["path4", "nested"])
    def test_deep_tree_with_modules(self, depth):
        # prime quotients expanded by non-trivial modules, then checked exactly;
        # the inner prime node of the nested graph yields an invalid PMC
        # candidate, which only the filter on the whole graph drops
        h, _ = expand_graph(path(4), [complete(2), path(3), empty_graph(2), complete(1)])
        if depth == 2:
            h, _ = expand_graph(path(4), [h, complete(2), empty_graph(3), complete(1)])
        assert_mw_matches_oracle(h)

    def test_recognizers_run_once_per_candidate(self):
        # a threshold graph is a cograph about n levels deep; filtering at
        # every level would cost ~n^2/4 calls
        n = 100
        g = strategies.threshold(n)
        with mock.patch.object(
            modular, "_min_sep_mask", wraps=modular._min_sep_mask
        ) as sep_calls, mock.patch.object(
            recognition, "_pmc_pieces", wraps=recognition._pmc_pieces
        ) as pmc_calls:
            seps, catalog = enumerate_by_mw(g)
        assert (len(seps), len(catalog)) == (49, 50)
        assert sep_calls.call_count <= 2 * n
        assert pmc_calls.call_count <= 2 * n

    @pytest.mark.parametrize("what", ["seps", "pmcs", "both"])
    def test_candidates_match_per_level_padding(self, what, mw_solve_quotients):
        # each node's own objects padded once with N(X) are the candidates
        # that padding again at every level gathers
        graphs = [expand_graph(path(4), mw_solve_quotients[:4])[0],
                  expand_graph(cycle(5), [mw_solve_quotients[4], complete(2), path(3),
                                          mw_solve_quotients[5], empty_graph(2)])[0],
                  strategies.threshold(60)]
        rng = random.Random(3)
        graphs += [nested_composition(rng, depth) for depth in (1, 2, 2, 3, 3)]
        graphs += [gnp(12, p, seed) for p in (0.2, 0.35, 0.6) for seed in range(2)]
        for g in graphs:
            for node in tree_nodes(modular_decomposition(g).root):
                assert modular._node_candidates(g, node, what) == padded_per_level(g, node, what)

    def test_tree_for_wrong_graph_rejected(self):
        t = modular_decomposition(path(4))
        with pytest.raises(InputError):
            enumerate_by_mw(cycle(4), t)


class TestTreeWalks:
    def test_no_function_calls_itself(self):
        # every modular-tree pass, the listings and the report writer run on
        # explicit stacks; a self-call would bring back a Python frame per tree
        # level or search step
        for module in (modular, solvers, recognition, graph, cli):
            for fn in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(fn, ast.FunctionDef):
                    called = {c.func.id for c in ast.walk(fn)
                              if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                    assert fn.name not in called, f"{module.__name__}.{fn.name}"

    def test_deep_tree_passes_run_on_a_shallow_stack(self, capsys, tmp_path):
        # threshold(300) nests 300 modules; with the limit just above the
        # caller's depth, a pass that took a frame per level would raise
        g = strategies.threshold(300)
        gr = tmp_path / "threshold.gr"
        gr.write_text(write_gr(g))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            tree = modular_decomposition(g)
            seps, catalog = enumerate_by_mw(g, tree)
            rendered = tree_to_json(tree)
            width = modular_width(tree)
            tw = solvers._solve_tree(tree, "tw")
            code = cli.main(["decompose", "--input", str(gr)])
        finally:
            sys.setrecursionlimit(limit)
        assert (len(seps), len(catalog), width, tw) == (149, 150, 0, 150)
        assert rendered["modular_width"] == 0 and rendered["root"]["kind"] == "join"
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"]["decomposition"] == rendered
