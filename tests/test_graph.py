"""Graph queries, generators, and PACE .gr round trips."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings

import strategies
from pmckit import (
    Graph,
    GrParseError,
    InputError,
    VertexSet,
    complete,
    components,
    cube,
    cycle,
    empty_graph,
    generate,
    gnp,
    induced_subgraph,
    parse_gr,
    path,
    prefix_graph,
    watermelon,
    write_gr,
)
from pmckit.graph import _component_table, _components_with_nbrs, _grow, _lines
from reference import CUBE_INDEX, full_components, neighborhood, vset

PROPERTY = settings(max_examples=80, deadline=None)


class TestConstruction:
    def test_from_edges_dedupes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        assert g.m == 2
        assert g.adj == (0b010, 0b101, 0b010)

    def test_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])

    def test_edges_ascending(self):
        g = cycle(4)
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


class TestQueries:
    def test_neighborhood_cube_corner(self, cube_graph):
        a = CUBE_INDEX["a"]
        got = neighborhood(cube_graph, vset(a))
        assert got == vset(CUBE_INDEX["b"], CUBE_INDEX["d"], CUBE_INDEX["e"])

    def test_neighborhood_empty_set(self, cube_graph):
        assert neighborhood(cube_graph, VertexSet()) == VertexSet()

    def test_neighborhood_watermelon_hub(self):
        g = watermelon(2, 3)
        assert neighborhood(g, vset(6)) == vset(0, 3)  # hub u sees both left ends

    def test_components_cube_separator(self, cube_graph):
        # removing {a,e,g,c} splits the cube into {b,f} and {d,h}
        got = components(cube_graph, vset(0, 4, 6, 2))
        assert got == [vset(1, 5), vset(3, 7)]

    def test_components_trivial(self):
        assert components(complete(4), VertexSet()) == [vset(0, 1, 2, 3)]
        assert components(empty_graph(3), VertexSet()) == [vset(0), vset(1), vset(2)]

    def test_full_components(self, cube_graph):
        assert full_components(cube_graph, vset(0, 4, 6, 2)) == [vset(1, 5), vset(3, 7)]
        assert full_components(path(3), vset(1)) == [vset(0), vset(2)]
        assert full_components(complete(4), vset(0, 1)) == [vset(2, 3)]

    @PROPERTY
    @given(strategies.graph_with_subset())
    def test_components_partition_leftover(self, gs):
        g, removed = gs
        comps = components(g, removed)
        union = 0
        for c in comps:
            assert c.mask & removed.mask == 0
            assert union & c.mask == 0
            union |= c.mask
        assert union == g.full_mask & ~removed.mask
        # no edge joins two distinct components
        for c in comps:
            reach = 0
            for v in c:
                reach |= g.adj[v]
            assert reach & union & ~c.mask == 0

    @PROPERTY
    @given(strategies.graph_with_subset())
    def test_full_components_subset(self, gs):
        g, s = gs
        fulls = full_components(g, s)
        all_comps = components(g, s)
        for c in fulls:
            assert c in all_comps
            assert neighborhood(g, c) == s


class TestGenerators:
    def test_cube_shape(self, cube_graph):
        assert (cube_graph.n, cube_graph.m) == (8, 12)
        assert all(a.bit_count() == 3 for a in cube_graph.adj)

    def test_watermelon_shape(self):
        g = watermelon(2, 3)
        assert (g.n, g.m) == (8, 8)
        for p, q in [(1, 1), (3, 3), (4, 2), (8, 3)]:
            g = watermelon(p, q)
            assert g.n == p * q + 2
            assert g.m == p * (q - 1) + 2 * p

    def test_gnp_deterministic(self):
        assert gnp(10, 0.3, seed=1) == gnp(10, 0.3, seed=1)
        assert gnp(10, 0.3, seed=1) != gnp(10, 0.3, seed=2)

    def test_named_families(self):
        assert path(4).m == 3
        assert cycle(5).m == 5
        assert complete(5).m == 10
        assert empty_graph(4).m == 0

    def test_generate_dispatch(self):
        assert generate("cube") == cube()
        assert generate("watermelon", p=2, q=3) == watermelon(2, 3)
        with pytest.raises(InputError):
            generate("nope")
        with pytest.raises(InputError):
            generate("gnp", n=5)  # missing prob and seed
        with pytest.raises(InputError):
            generate("cube", n=3)  # extra parameter

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            watermelon(0, 3)
        with pytest.raises(InputError):
            cycle(2)
        with pytest.raises(InputError):
            gnp(5, 1.5, 0)


def naive_components_with_nbrs(adj, space):
    """(C, N(C)) for each component of the graph on ``space``, by a plain vertex BFS."""
    out, seen = [], 0
    for v in range(len(adj)):
        if not (space >> v) & 1 or (seen >> v) & 1:
            continue
        comp, queue = 1 << v, [v]
        while queue:
            u = queue.pop()
            for w in range(len(adj)):
                if (adj[u] >> w) & 1 and (space >> w) & 1 and not (comp >> w) & 1:
                    comp |= 1 << w
                    queue.append(w)
        seen |= comp
        nb = 0
        for u in range(len(adj)):
            if (comp >> u) & 1:
                nb |= adj[u]
        out.append((comp, nb & ~comp))
    return out


class TestComponentKernel:
    def test_neighborhoods_reach_outside_space(self, cube_graph):
        # a and c of the cube, without their common neighbors b and d
        a, c = CUBE_INDEX["a"], CUBE_INDEX["c"]
        got = list(_components_with_nbrs(cube_graph.adj, (1 << a) | (1 << c)))
        assert got == [(1 << a, cube_graph.adj[a]), (1 << c, cube_graph.adj[c])]

    def test_empty_space(self, cube_graph):
        assert list(_components_with_nbrs(cube_graph.adj, 0)) == []

    @PROPERTY
    @given(strategies.graph_with_subset())
    def test_matches_naive_bfs(self, gs):
        g, space = gs
        got = list(_components_with_nbrs(g.adj, space.mask))
        assert got == naive_components_with_nbrs(g.adj, space.mask)
        mins = [(comp & -comp).bit_length() for comp, _ in got]
        assert mins == sorted(mins)

    @PROPERTY
    @given(strategies.graph_with_subset())
    def test_grow_matches_naive_bfs_from_every_vertex(self, gs):
        # the component of G[space] holding v, with the union of its
        # vertices' adjacency (which holds C itself unless C is one vertex)
        g, space = gs
        for comp, _ in naive_components_with_nbrs(g.adj, space.mask):
            union = 0
            for u in range(g.n):
                if (comp >> u) & 1:
                    union |= g.adj[u]
            for v in range(g.n):
                if (comp >> v) & 1:
                    assert _grow(g.adj, 1 << v, space.mask) == (comp, union)


class TestComponentTable:
    def test_null_graph_and_k1(self):
        assert [list(t) for t in _component_table((), 0)] == [[0], [0]]
        assert [list(t) for t in _component_table((0,), 1)] == [[0, 1], [0, 0]]

    def test_narrowest_typecode(self):
        assert _component_table(empty_graph(16).adj, 16)[0].typecode == "H"
        first, nbr = _component_table(cube().adj, 8)
        assert first.typecode == nbr.typecode == "H"
        wide = _component_table(path(17).adj, 17)[0]
        assert wide.itemsize * 8 >= 17
        assert wide[(1 << 17) - 1] == (1 << 17) - 1

    @PROPERTY
    @given(strategies.graphs(max_n=9))
    def test_matches_first_component(self, g):
        first, nbr = _component_table(g.adj, g.n)
        assert len(first) == len(nbr) == 1 << g.n
        for u in range(1 << g.n):
            assert (first[u], nbr[u]) == next(_components_with_nbrs(g.adj, u), (0, 0))

    @PROPERTY
    @given(strategies.graph_with_subset())
    def test_chain_lists_every_component(self, gs):
        g, space = gs
        first, nbr = _component_table(g.adj, g.n)
        chain, rest = [], space.mask
        while rest:
            chain.append((first[rest], nbr[rest]))
            rest ^= first[rest]
        assert chain == list(_components_with_nbrs(g.adj, space.mask))


class TestSubgraphs:
    def test_induced_subgraph_relabels(self, cube_graph):
        sub, old = induced_subgraph(cube_graph, vset(1, 5, 3, 7))
        assert old == [1, 3, 5, 7]
        assert sub.n == 4 and sub.m == 2  # edges b-f and d-h survive
        assert sub.adj == (0b0100, 0b1000, 0b0001, 0b0010)

    def test_induced_subgraph_on_every_vertex_is_the_graph(self, cube_graph):
        sub, old = induced_subgraph(cube_graph, VertexSet(cube_graph.full_mask))
        assert sub is cube_graph and old == list(range(8))

    def test_prefix_graph(self):
        g = cycle(5)
        pg = prefix_graph(g, 3)
        assert pg.n == 3 and list(pg.edges()) == [(0, 1), (1, 2)]


class TestGrFormat:
    def test_parse_simple(self):
        g = parse_gr("p tw 3 2\n1 2\n2 3\n")
        assert g == path(3)

    def test_comments_and_duplicates(self):
        g = parse_gr("c hello\np tw 3 3\n1 2\n2 1\nc mid\n2 3\n")
        assert g == path(3)

    def test_roundtrip(self, cube_graph):
        assert parse_gr(write_gr(cube_graph)) == cube_graph

    @PROPERTY
    @given(strategies.graphs())
    def test_roundtrip_random(self, g):
        assert parse_gr(write_gr(g)) == g

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p tw 2 1\n1 1\n", 2),          # self-loop
            ("p tw 2 1\n1 3\n", 2),          # out of range
            ("1 2\np tw 2 1\n", 1),          # edge before header
            ("p tw 2 1\np tw 2 1\n", 2),     # duplicate header
            ("p foo 2 1\n1 2\n", 1),         # wrong descriptor
            ("p tw x 1\n", 1),               # non-integer
            ("p tw 2 1\n1 2 3\n", 2),        # bad edge line
            ("p tw 10000000000 0\n", 1),     # above MAX_VERTICES, refused before allocating
            ("p tw 2 1\r\n1 1\r\n", 2),      # lines count as str.splitlines counts them
            ("p tw 2 1\r1 1\r", 2),
            ("p tw 2 1\x0c1 1\x0c", 2),
            ("c a\r\n\rp tw 2 1\x0c\n1 3\n", 5),
        ],
    )
    def test_parse_errors_carry_line(self, text, line):
        with pytest.raises(GrParseError) as exc:
            parse_gr(text)
        assert exc.value.line == line

    def test_missing_header(self):
        with pytest.raises(GrParseError):
            parse_gr("c nothing else\n")

    @pytest.mark.parametrize("pad", range(6))
    def test_lines_across_blocks_are_splitlines(self, pad):
        # CR LF pairs, lone CRs and form feeds fall on every side of the
        # block cuts as the padding shifts them
        text = "c" * pad + "\n" + "1 2\r\n\r1 2\x0c\n\n" * 2000 + "1 2"
        assert list(_lines(text)) == text.splitlines()
        bad = text + "\r\n2 2\r"
        with pytest.raises(GrParseError) as exc:
            parse_gr("p tw 2 1\r\n" + bad)
        assert exc.value.line == len(bad.splitlines()) + 1

    def test_repeated_edges_take_no_memory_per_line(self):
        # edges go into the adjacency masks as lines are read: no list of
        # every line or of every edge is kept
        text = "p tw 2 1\n" + "1 2\n" * (1 << 16)
        tracemalloc.start()
        try:
            g = parse_gr(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (2, 1)
        assert peak < len(text) // 2
