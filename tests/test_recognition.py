"""Recognizer correctness, cube fixtures, and oracle consistency."""

from __future__ import annotations

import multiprocessing
import random
import sys
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmckit.graph
import pmckit.recognition
import pmckit.solvers
import strategies
from pmckit import (
    CapExceeded,
    InputError,
    PmcCatalog,
    VertexSet,
    brute_force_fill_in,
    brute_force_lists,
    brute_force_treewidth,
    complete,
    components,
    cycle,
    empty_graph,
    enumerate_by_mw,
    expand,
    expand_graph,
    gnp,
    induced_subgraph,
    is_minimal_separator,
    is_minimal_uv_separator,
    is_pmc,
    minimum_vertex_cover,
    modular_decomposition,
    path,
)
from pmckit.modular import _node_candidates, base_enumerate
from pmckit.graph import Graph, _components_with_nbrs
from pmckit.recognition import (
    _min_sep_mask,
    _oracle_chunk,
    _pairs_covered,
    _pmc_listing,
    _prefix_separators,
    _separator_closure,
)
from reference import (
    CUBE_INDEX,
    active_separators,
    cube_set,
    full_components,
    neighborhood,
    pmc_separators,
    vset,
)
from strategies import disjoint_union, join

PROPERTY = settings(max_examples=80, deadline=None)


def separates_uv(g, smask, u, v):
    for comp in components(g, VertexSet(smask)):
        if u in comp:
            return v not in comp
    return False


def minimal_separator_by_definition(g, s: VertexSet) -> bool:
    """Inclusion-minimal u,v-separator test straight from the definition.

    Independent of the full-component characterization the recognizer uses:
    a separator is minimal iff it separates some pair and no one-vertex-smaller
    subset still separates that pair.
    """
    outside = [v for v in range(g.n) if v not in s]
    for i, u in enumerate(outside):
        for v in outside[i + 1:]:
            if not separates_uv(g, s.mask, u, v):
                continue
            if all(
                not separates_uv(g, s.mask & ~(1 << w), u, v) for w in s
            ):
                return True
    return False


class TestMinimalSeparator:
    def test_cube_fixture(self, cube_graph):
        assert is_minimal_separator(cube_graph, cube_set("aegc"))
        assert is_minimal_separator(cube_graph, cube_set("ahc"))

    def test_complete_graph_has_none(self):
        g = complete(5)
        assert not any(
            is_minimal_separator(g, VertexSet(m)) for m in range(1 << 5)
        )

    def test_empty_separator_of_disconnected(self):
        assert is_minimal_separator(empty_graph(2), VertexSet())
        assert not is_minimal_separator(path(2), VertexSet())

    @PROPERTY
    @given(strategies.graph_with_subset(max_n=7))
    def test_matches_definition(self, gs):
        g, s = gs
        assert is_minimal_separator(g, s) == minimal_separator_by_definition(g, s)

    @PROPERTY
    @given(strategies.graph_with_subset(max_n=8))
    @example((Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), VertexSet(0b111111)))
    def test_recognizer_counts_full_components(self, gs):
        # every s inside the space, the empty set included, on spaces that
        # are often disconnected: two full components make a separator
        g, space = gs
        s = space.mask
        while True:
            fulls = sum(nb & space.mask == s
                        for _, nb in _components_with_nbrs(g.adj, space.mask & ~s))
            assert _min_sep_mask(g.adj, s, space.mask) == (fulls >= 2), (g.adj, space, s)
            if not s:
                break
            s = (s - 1) & space.mask

    @PROPERTY
    @given(strategies.graph_with_subset(max_n=7))
    def test_uv_variant_consistent(self, gs):
        g, s = gs
        has_pair = any(
            is_minimal_uv_separator(g, s, u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        assert has_pair == is_minimal_separator(g, s)

    @PROPERTY
    @given(strategies.graph_with_subset(max_n=7))
    def test_uv_variant_per_pair(self, gs):
        # true exactly when u and v lie in two different full components of s
        g, s = gs
        home = {x: i for i, c in enumerate(full_components(g, s)) for x in c}
        for u in range(g.n):
            for v in range(g.n):
                separated = u in home and v in home and home[u] != home[v]
                assert is_minimal_uv_separator(g, s, u, v) == separated, (u, v)


class TestPmcRecognition:
    def test_cube_fixtures(self, cube_graph):
        assert is_pmc(cube_graph, cube_set("aegch"))
        assert is_pmc(cube_graph, cube_set("acfh"))
        assert not is_pmc(cube_graph, cube_set("abcd"))

    def test_clique_cases(self):
        g = complete(4)
        assert is_pmc(g, VertexSet(g.full_mask))
        for m in range(1, 1 << 4):
            if m != g.full_mask:
                assert not is_pmc(g, VertexSet(m))

    def test_empty_omega_rejected(self, cube_graph):
        with pytest.raises(InputError):
            is_pmc(cube_graph, VertexSet())


class TestPmcSeparators:
    def test_cube_omega1(self, cube_graph):
        got = pmc_separators(cube_graph, cube_set("aegch"))
        assert got == [cube_set("aegc"), cube_set("ahc")]

    def test_cube_omega2(self, cube_graph):
        got = pmc_separators(cube_graph, cube_set("acfh"))
        assert got == [
            cube_set("acf"),
            cube_set("ach"),
            cube_set("afh"),
            cube_set("cfh"),
        ]

    def test_clique_has_no_separators(self):
        g = complete(4)
        assert pmc_separators(g, VertexSet(g.full_mask)) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_members_are_minimal_separators_inside_one_full_component(self, seed):
        g = gnp(8, 0.4, seed)
        for omega in brute_force_lists(g)[1]:
            for s in pmc_separators(g, omega):
                assert is_minimal_separator(g, s)
                rest = omega.mask & ~s.mask
                homes = [
                    c for c in components(g, s) if c.mask & rest
                ]
                assert len(homes) == 1
                assert rest & ~homes[0].mask == 0
                assert neighborhood(g, homes[0]) == s  # the component is full


class TestActiveSeparators:
    def test_cube_omega1_active_with_expected_pair(self, cube_graph):
        wits = active_separators(cube_graph, cube_set("aegch"))
        by_sep = {w.separator: w for w in wits}
        w1 = by_sep[cube_set("aegc")]
        e, g_ = CUBE_INDEX["e"], CUBE_INDEX["g"]
        assert (e, g_) in w1.pairs
        assert w1.pair == min(w1.pairs)
        assert w1.component == cube_set("dh")
        assert cube_set("ahc") in by_sep  # the other separator is active too

    def test_cube_omega2_has_no_active_separator(self, cube_graph):
        assert active_separators(cube_graph, cube_set("acfh")) == []

    def test_clique_trivial(self):
        g = complete(4)
        assert active_separators(g, VertexSet(g.full_mask)) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_pairs_are_separated_inside_component(self, seed):
        # omega minus the separator is a minimal x,y-separator of the graph
        # induced on the component plus the pair
        g = gnp(8, 0.4, seed)
        for omega in brute_force_lists(g)[1]:
            for w in active_separators(g, omega):
                rest = VertexSet(omega.mask & ~w.separator.mask)
                for x, y in w.pairs:
                    assert x in w.separator and y in w.separator
                    keep = VertexSet(w.component.mask | (1 << x) | (1 << y))
                    sub, old = induced_subgraph(g, keep)
                    relabel = {v: i for i, v in enumerate(old)}
                    sub_rest = vset(*(relabel[v] for v in rest))
                    assert is_minimal_uv_separator(sub, sub_rest, relabel[x], relabel[y])


def search_pieces(g, om):
    """(N(C), C) for each component C of g - om, searched afresh."""
    return tuple((nb, comp) for comp, nb in _components_with_nbrs(g.adj, g.full_mask & ~om))


class TestPairsCovered:
    @PROPERTY
    @given(strategies.graph_with_subset(max_n=8), st.data())
    def test_matches_its_definition(self, g_om, data):
        g, om = g_om
        drawn = [s & om.mask for s in data.draw(st.lists(st.integers(0, g.full_mask), max_size=6))]
        # the PMC recognizer passes the neighbourhoods of the components of g - om
        pieces = [nb for _, nb in _components_with_nbrs(g.adj, g.full_mask & ~om.mask)]
        for seps in (drawn, pieces, drawn + pieces):
            want = all(g.adj[x] >> y & 1 or any(s >> x & s >> y & 1 for s in seps)
                       for x in om for y in om if x < y)
            assert _pairs_covered(g.adj, om.mask, seps) == want


class TestPmcCatalog:
    def test_collect_filters_and_orders(self, cube_graph):
        good = cube_set("aegch").mask
        junk = cube_set("ab").mask
        catalog = PmcCatalog.collect(cube_graph, [junk, good, good, 0])
        assert [vs.to_list() for vs in catalog] == [[0, 2, 4, 6, 7]]
        assert len(catalog) == 1
        assert cube_set("aegch") in catalog
        assert cube_set("ab") not in catalog

    @PROPERTY
    @given(strategies.graphs(max_n=8), st.randoms(use_true_random=False))
    def test_collect_keeps_the_pieces_of_a_fresh_search(self, g, rng):
        # every subset, in a random order: the memo meets each component of
        # G - X many times, from candidates where it is and is not one
        cands = list(range(1 << g.n))
        rng.shuffle(cands)
        catalog = PmcCatalog.collect(g, cands)
        assert catalog == brute_force_lists(g)[1]
        assert catalog._pieces == tuple(search_pieces(g, vs.mask) for vs in catalog.members)

    @PROPERTY
    @given(st.one_of(strategies.graphs(max_n=8), strategies.disconnected_graphs(max_part=4)))
    def test_every_producer_keeps_the_pieces_of_a_fresh_search(self, g):
        # the subset scan rebuilds them from its table, the listing keeps
        # its recognizer's; both must equal a search of g - Omega
        for catalog in (brute_force_lists(g)[1], base_enumerate(g)[1]):
            assert catalog._pieces == tuple(search_pieces(g, vs.mask) for vs in catalog.members)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("g", [
        gnp(9, 0.3, 1), gnp(10, 0.45, 2), cycle(7),
        disjoint_union(gnp(5, 0.5, 3), path(4)), disjoint_union(cycle(4), empty_graph(1), path(3)),
    ], ids=["gnp9", "gnp10", "cycle7", "gnp5+path4", "cycle4+K1+path3"])
    def test_scan_keeps_the_pieces_with_any_jobs(self, g, jobs):
        catalog = brute_force_lists(g, jobs=jobs)[1]
        assert catalog._pieces == tuple(search_pieces(g, vs.mask) for vs in catalog.members)
        assert catalog == base_enumerate(g)[1]

    def test_collect_is_independent_of_candidate_order(self, mw_solve_quotients):
        g, _ = expand_graph(path(4), mw_solve_quotients[:4])
        cands = list(_node_candidates(g, modular_decomposition(g).root, "pmcs")[1])
        first = PmcCatalog.collect(g, cands)
        for seed in range(3):
            random.Random(seed).shuffle(cands)
            again = PmcCatalog.collect(g, cands)
            assert (again.members, again._pieces) == (first.members, first._pieces)
        assert first._pieces == tuple(search_pieces(g, vs.mask) for vs in first.members)
        assert first == enumerate_by_mw(g)[1]


def test_omega_argument_errors(cube_graph):
    with pytest.raises(InputError, match="omega must be nonempty"):
        is_pmc(cube_graph, VertexSet())
    with pytest.raises(InputError, match="out-of-range"):
        is_pmc(cube_graph, vset(0, 8))
    assert not is_pmc(cube_graph, cube_set("ab"))


class TestOracles:
    def test_path_fixtures(self):
        seps, catalog = brute_force_lists(path(3))
        assert seps == [vset(1)]
        assert [vs.to_list() for vs in catalog] == [[0, 1], [1, 2]]

    def test_complete_fixtures(self):
        seps, catalog = brute_force_lists(complete(4))
        assert seps == []
        assert [vs.to_list() for vs in catalog] == [[0, 1, 2, 3]]

    def test_cube_contains_worked_examples(self, cube_graph):
        seps, catalog = brute_force_lists(cube_graph)
        for letters in ("aegc", "ahc", "acf", "ach", "afh", "cfh"):
            assert cube_set(letters) in seps
        assert cube_set("aegch") in catalog and cube_set("acfh") in catalog

    def test_cap_refusal(self):
        g = empty_graph(17)
        with pytest.raises(CapExceeded):
            brute_force_lists(g)
        # explicit cap override allows it
        assert brute_force_lists(g, cap=17)[0][0] == VertexSet()

    def test_jobs_do_not_change_results(self):
        g = gnp(9, 0.4, 5)
        seps, catalog = brute_force_lists(g, jobs=3)
        want_seps, want_catalog = brute_force_lists(g)
        assert seps == want_seps
        assert catalog.members == want_catalog.members

    def test_scan_runs_no_component_bfs(self, monkeypatch):
        real, calls = pmckit.graph._grow, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        importers = [mod for name, mod in sys.modules.items()
                     if name.startswith("pmckit.") and getattr(mod, "_grow", None) is real]
        assert {pmckit.graph, pmckit.recognition} <= set(importers)
        for mod in importers:
            monkeypatch.setattr(mod, "_grow", counted)
        seps, catalog = brute_force_lists(gnp(12, 0.3, 1))
        assert seps and len(catalog)
        assert calls == []  # connected sets grow by their own frontier; a PMC's pieces are its blocks

    @pytest.mark.parametrize("oracle", [
        lambda g: brute_force_lists(g, cap=30, jobs=2),
        lambda g: brute_force_treewidth(g, cap=30),
        lambda g: brute_force_fill_in(g, cap=30),
    ], ids=["lists", "treewidth", "fill_in"])
    def test_ceiling_refuses_before_any_table(self, monkeypatch, oracle):
        def never(*args, **kwargs):
            raise AssertionError("allocated for a graph above the ceiling")

        for mod in (pmckit.graph, pmckit.solvers):
            monkeypatch.setattr(mod, "_component_table", never)
        monkeypatch.setattr(pmckit.recognition, "_oracle_chunk", never)
        monkeypatch.setattr(multiprocessing, "Pool", never)
        with pytest.raises(CapExceeded, match="n=21 exceeds cap 20"):
            oracle(empty_graph(21))

    @pytest.mark.parametrize("g, connected", [
        (empty_graph(1), True),
        (empty_graph(3), False),
        (Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), False),
    ], ids=["K1", "edgeless3", "path_and_edge"])
    def test_empty_set_separates_exactly_the_disconnected_graphs(self, g, connected):
        seps, catalog = brute_force_lists(g)
        assert (VertexSet() in seps) == (not connected)
        assert VertexSet() not in catalog
        if g.n == 1:
            assert seps == [] and [vs.to_list() for vs in catalog] == [[0]]

    def test_null_graph_lists_nothing(self):
        seps, catalog = brute_force_lists(Graph.from_edges(0, []))
        assert seps == [] and len(catalog) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_membership_matches_recognizers(self, seed):
        assert_lists_keep_recognized_subsets(gnp(7, 0.35, seed))

    @pytest.mark.parametrize("g", [
        gnp(12, 0.15, 1), gnp(12, 0.3, 1), gnp(12, 0.5, 1),
        disjoint_union(gnp(6, 0.4, 2), cycle(6)),
    ], ids=["p0.15", "p0.3", "p0.5", "disconnected"])
    def test_membership_matches_recognizers_at_12(self, g):
        # at 12 vertices most subsets are no union of full blocks, so the
        # scan's walk never meets them
        assert_lists_keep_recognized_subsets(g)

    @pytest.mark.parametrize("g", [
        complete(6), join(complete(1), path(6)), join(complete(1), empty_graph(10)),
        join(empty_graph(3), empty_graph(4)), cycle(10),
        disjoint_union(join(complete(1), empty_graph(5)), cycle(5)),
        empty_graph(10), disjoint_union(cycle(5), complete(1), complete(1), path(3)),
    ], ids=["complete6", "K1+path6", "star10", "K34", "cycle10", "star5_cycle5",
            "edgeless10", "cycle5_K1_K1_path3"])
    def test_lists_and_pieces_where_the_scan_prunes_or_walks_wide(self, g):
        # a connected set holding an apex dominates, so the scan skips it;
        # stars, K(3,4), cycles and unions of parts have many unions of full
        # blocks, most of them cut before the pair test
        assert_lists_keep_recognized_subsets(g)
        _, catalog = brute_force_lists(g)
        assert catalog._pieces == tuple(search_pieces(g, vs.mask) for vs in catalog.members)

    def test_pair_test_runs_on_few_subsets_of_a_path(self, monkeypatch):
        calls = count_calls(monkeypatch, "_pairs_covered")
        seps, catalog = brute_force_lists(path(16))
        assert len(seps) == 14 and len(catalog) == 15
        assert len(calls) < (1 << 16) // 100

    @pytest.mark.parametrize("g, n_seps, n_pmcs, most", [
        (empty_graph(16), 1, 16, 300),
        (join(complete(1), empty_graph(15)), 1, 15, 300),
        (cycle(16), 16 * 13 // 2, 16 * 15 * 14 // 6, 2000),
    ], ids=["edgeless16", "star16", "cycle16"])
    def test_pair_test_skips_unions_that_cannot_pass(self, monkeypatch, g, n_seps, n_pmcs, most):
        # every union of these graphs' full blocks is walked unless cut: 2^16,
        # 2^15 and nearly 2^16 pair tests without the cut
        calls = count_calls(monkeypatch, "_pairs_covered")
        seps, catalog = brute_force_lists(g)
        assert len(seps) == n_seps and len(catalog) == n_pmcs
        assert len(calls) <= most

    def test_pair_test_skips_unions_the_prune_decided(self, monkeypatch):
        # the twelve verify-oracle graphs of benchmark seed 1, drawn as
        # bench/run.py draws them: 2,145 pair tests when every union that
        # survived the prune ran one, 1,779 when a prune with no later
        # vertex stands for the test
        rng, graphs = random.Random("verify-oracle/1"), []
        while len(graphs) < 12:
            g = gnp(15, 0.17, rng.randrange(1 << 31))
            if len(minimum_vertex_cover(g)) == 6:
                graphs.append(g)
        calls = count_calls(monkeypatch, "_pairs_covered")
        for g in graphs:
            brute_force_lists(g)
        assert 0 < len(calls) <= 1779

    @pytest.mark.parametrize("g", [gnp(12, 0.3, 1), disjoint_union(gnp(6, 0.4, 2), cycle(6))],
                             ids=["connected", "disconnected"])
    def test_pair_test_sees_only_other_separators(self, monkeypatch, g):
        seps = {s.mask for s in brute_force_lists(g)[0]}
        real, calls = pmckit.recognition._pairs_covered, []

        def checked(adj, om, nbs):
            assert all(s in seps and s != om for s in nbs)
            calls.append(om)
            return real(adj, om, nbs)

        monkeypatch.setattr(pmckit.recognition, "_pairs_covered", checked)
        _, catalog = brute_force_lists(g)
        # a PMC met where the prune already ran the pair test skips the call,
        # and passes it all the same
        for om, pieces in zip(catalog.members, catalog._pieces):
            assert real(g.adj, om.mask, [s for s, _ in pieces])
        assert calls and len(calls) < 1 << g.n  # most subsets never reach the pair test

    def test_chunks_split_a_disconnected_scan(self, monkeypatch):
        cuts = count_calls(monkeypatch, "_stranded", keep=True)
        for g in (disjoint_union(path(4), cycle(5)),
                  disjoint_union(cycle(5), complete(1), complete(1), path(3))):
            cuts.clear()
            total = 1 << g.n
            whole = _oracle_chunk((g.adj, g.n, 0, total))
            assert whole[0][0] == 0  # the empty set separates the parts
            for k in (0, 1, 37, total // 2, total - 1, total):
                low = _oracle_chunk((g.adj, g.n, 0, k))
                high = _oracle_chunk((g.adj, g.n, k, total))
                assert low[0] + high[0] == whole[0]
                assert list({**low[1], **high[1]}.items()) == list(whole[1].items())
            assert any(cuts)  # the prune fired, and every share still holds its part
            seps, pmcs = whole
            assert seps == sorted(set(seps)) and list(pmcs) == sorted(pmcs)
            assert all(pieces == search_pieces(g, m) for m, pieces in pmcs.items())
            assert whole == reference_chunk(g)
            seps, catalog = brute_force_lists(g, jobs=2)
            want_seps, want_catalog = brute_force_lists(g)
            assert seps == want_seps and VertexSet() in seps
            assert catalog.members == want_catalog.members

    @PROPERTY
    @given(strategies.graphs(max_n=8))
    def test_lists_keep_exactly_the_recognized_subsets(self, g):
        assert_lists_keep_recognized_subsets(g)

    @PROPERTY
    @given(strategies.disconnected_graphs())
    def test_scan_of_a_disconnected_graph_is_its_recognized_subsets(self, g):
        assert _oracle_chunk((g.adj, g.n, 0, 1 << g.n)) == reference_chunk(g)


def count_calls(monkeypatch, name: str, keep: bool = False) -> list:
    """Wrap pmckit.recognition.<name>; the list gets its second argument per call, or its result with keep."""
    real, calls = getattr(pmckit.recognition, name), []

    def counted(*args):
        result = real(*args)
        calls.append(result if keep else args[1])
        return result

    monkeypatch.setattr(pmckit.recognition, name, counted)
    return calls


def reference_chunk(g):
    """What _oracle_chunk must return for all of g's subsets, found subset by subset by the recognizers."""
    seps = [m for m in range(1 << g.n) if is_minimal_separator(g, VertexSet(m))]
    pmcs = {m: search_pieces(g, m) for m in range(1, 1 << g.n) if is_pmc(g, VertexSet(m))}
    return seps, pmcs


def assert_lists_keep_recognized_subsets(g):
    """brute_force_lists keeps exactly the subsets that pass a recognizer, once each."""
    seps, catalog = brute_force_lists(g)
    sep_masks, pmc_masks = {s.mask for s in seps}, catalog.mask_set()
    assert len(sep_masks) == len(seps)
    for m in range(1 << g.n):
        assert (m in sep_masks) == is_minimal_separator(g, VertexSet(m))
        assert (m in pmc_masks) == (m != 0 and is_pmc(g, VertexSet(m)))


def assert_listings_match_oracles(g, name=""):
    """Both output-sensitive listings equal the subset oracles, without repeats, pieces included."""
    oracle_seps, oracle_catalog = brute_force_lists(g)
    seps = sorted(s.mask for s in oracle_seps)
    assert sorted(_separator_closure(g.adj, g.full_mask)) == seps, name
    listed_seps, listed_pmcs = _pmc_listing(g.adj, g.full_mask)
    assert sorted(listed_seps) == seps, name
    assert sorted(listed_pmcs) == sorted(oracle_catalog.mask_set()), name
    assert listed_pmcs == {vs.mask: search_pieces(g, vs.mask) for vs in oracle_catalog}, name


class TestOutputSensitiveListings:
    def test_quick_corpus(self, quick_corpus):
        for name, g in quick_corpus:
            assert_listings_match_oracles(g, name)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_paths_and_cycles(self, n):
        assert_listings_match_oracles(path(n))
        assert_listings_match_oracles(cycle(n))

    @pytest.mark.parametrize("g", [
        empty_graph(1),
        empty_graph(4),
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges(7, [(0, 3), (3, 5), (1, 2), (2, 6), (6, 1)]),
        Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)]),
    ], ids=["K1", "edgeless4", "two_triangles", "path_and_triangle", "isolated_first"])
    def test_one_vertex_and_disconnected(self, g):
        assert_listings_match_oracles(g)

    @PROPERTY
    @given(strategies.graphs(max_n=8))
    def test_property(self, g):
        assert_listings_match_oracles(g)

    @PROPERTY
    @given(strategies.graph_with_subset(max_n=8))
    def test_listings_stay_inside_space(self, pair):
        g, keep = pair
        h, old = induced_subgraph(g, keep)
        singletons = [vset(v) for v in old]

        def lift(masks):
            return sorted(expand(VertexSet(m), singletons).mask for m in masks)

        seps, pmcs = _pmc_listing(g.adj, keep.mask)
        assert sorted(_separator_closure(g.adj, keep.mask)) == sorted(seps)
        oracle_seps, oracle_catalog = brute_force_lists(h)
        assert sorted(seps) == lift(s.mask for s in oracle_seps)
        assert sorted(pmcs) == lift(oracle_catalog.mask_set())

    @PROPERTY
    @given(strategies.graph_with_subset(max_n=9))
    def test_prefix_separators_are_each_prefix_closure(self, pair):
        g, keep = pair
        prefixes = list(accumulate(1 << v for v in keep))
        listed = _prefix_separators(g.adj, keep.mask)
        assert len(listed) == len(prefixes)
        for seps, prefix in zip(listed, prefixes):
            assert sorted(seps) == sorted(_separator_closure(g.adj, prefix))

    def test_prime_quotients_of_the_mw_workload(self, mw_solve_quotients):
        for i, q in enumerate(mw_solve_quotients):
            assert_listings_match_oracles(q, f"module {i}")

    def test_pmcs_that_stay_are_not_grown(self, monkeypatch, mw_solve_quotients):
        # each PMC of the prefix is carried to the grown prefix by its pieces,
        # as itself or with a, and no candidate that is a separator or a known
        # PMC is tried: recognizing every old PMC again made 2,955 calls here,
        # and testing every PMC both ways 3,561. S + (C & T) takes only full
        # components C without a and separators T with a: every C and T made
        # 1,369 calls
        calls = []
        recognize = pmckit.recognition._pmc_pieces

        def counted(*args):
            calls.append(args)
            return recognize(*args)

        monkeypatch.setattr(pmckit.recognition, "_pmc_pieces", counted)
        listed = [_pmc_listing(q.adj, q.full_mask)[1] for q in mw_solve_quotients]
        assert sum(map(len, listed)) == 470
        assert len(calls) == 912
        assert not any(_min_sep_mask(adj, om, space) for adj, om, space in calls)
