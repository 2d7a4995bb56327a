"""Vertex cover computation and cover-parameterized enumeration."""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator, NamedTuple

import pytest
from hypothesis import given, settings

import strategies
import pmckit.vc
from pmckit import (
    InputError,
    PmcCatalog,
    VertexSet,
    active_pmcs_by_vc,
    brute_force_lists,
    complete,
    cube,
    empty_graph,
    gnp,
    is_vertex_cover,
    minimum_vertex_cover,
    path,
    pmcs_by_vc,
    prefix_graph,
    separators_by_vc,
    watermelon,
)
from pmckit.bitset import iter_bits
from pmckit.vc import _active_pmc_candidates, _pmc_walk, _sep_walk, _walk_parts
from reference import active_separators, full_components, vset
from strategies import disjoint_union

PROPERTY = settings(max_examples=60, deadline=None)


class ThreePartition(NamedTuple):
    """Split of a vertex cover into two component sides and a separator part (bitmasks)."""

    d1: int
    sep: int
    d2: int


class FourPartition(NamedTuple):
    """Split of a vertex cover into far side, x-side, y-side and clique part (bitmasks)."""

    ds: int
    dx: int
    dy: int
    om: int


def three_partitions(wmask: int) -> Iterator[ThreePartition]:
    """Every three-partition of the cover, the unpruned reference for _sep_walk."""
    bits = [1 << v for v in iter_bits(wmask)]
    for assign in product(range(3), repeat=len(bits)):
        parts = [0, 0, 0]
        for b, a in zip(bits, assign):
            parts[a] |= b
        yield ThreePartition(*parts)


def four_partitions(wmask: int) -> Iterator[FourPartition]:
    """Every four-partition of the cover, the unpruned reference for _pmc_walk."""
    bits = [1 << v for v in iter_bits(wmask)]
    for assign in product(range(4), repeat=len(bits)):
        parts = [0, 0, 0, 0]
        for b, a in zip(bits, assign):
            parts[a] |= b
        yield FourPartition(*parts)


def joined(g, a: int, b: int) -> bool:
    """Whether some edge of g joins vertex sets a and b."""
    return any(g.adj[v] & b for v in iter_bits(a))


def other_covers(g) -> list[tuple[str, VertexSet]]:
    """A random superset of the minimum cover, and all of V (every edge is a cover edge)."""
    w = minimum_vertex_cover(g).mask
    rng = random.Random(g.n * 1000 + g.m)
    extra = sum(1 << v for v in iter_bits(g.full_mask & ~w) if rng.random() < 0.5)
    return [("superset", VertexSet(w | extra)), ("V", VertexSet(g.full_mask))]


def brute_min_vc_size(g) -> int:
    for size in range(g.n + 1):
        for mask in range(1 << g.n):
            if mask.bit_count() != size:
                continue
            if all(g.adj[v] & ~mask == 0 for v in iter_bits(g.full_mask & ~mask)):
                return size
    return g.n


class TestMinimumVertexCover:
    def test_named_sizes(self):
        assert minimum_vertex_cover(empty_graph(5)) == VertexSet()
        assert len(minimum_vertex_cover(complete(6))) == 5
        assert len(minimum_vertex_cover(path(4))) == 2
        for k in (2, 3, 5, 8):
            assert len(minimum_vertex_cover(watermelon(k, 3))) == k + 2

    def test_deterministic(self):
        g = gnp(12, 0.4, 3)
        assert minimum_vertex_cover(g) == minimum_vertex_cover(g)

    @PROPERTY
    @given(strategies.graphs(max_n=8))
    def test_exact_and_feasible(self, g):
        cover = minimum_vertex_cover(g)
        assert is_vertex_cover(g, cover)
        assert len(cover) == brute_min_vc_size(g)


class TestPartitionSpaces:
    def test_three_partitions_enumerate_all(self):
        w = 0b1011
        seen = set()
        for part in three_partitions(w):
            assert part.d1 | part.sep | part.d2 == w
            assert part.d1 & part.sep == part.d1 & part.d2 == part.sep & part.d2 == 0
            seen.add(part)
        assert len(seen) == 27

    def test_four_partitions_enumerate_all(self):
        w = 0b111
        seen = set()
        for part in four_partitions(w):
            assert part.ds | part.dx | part.dy | part.om == w
            union = 0
            for piece in part:
                assert union & piece == 0
                union |= piece
            seen.add(part)
        assert len(seen) == 64

    def test_three_partition_walk_matches_generator(self, quick_corpus):
        for name, g in quick_corpus:
            w = minimum_vertex_cover(g).mask
            nonw = [(x, g.adj[x]) for x in iter_bits(g.full_mask & ~w)]
            want = set()
            for d1, sep, d2 in three_partitions(w):
                if joined(g, d1, d2):
                    continue
                want.add(sep | sum(1 << x for x, ax in nonw if ax & d1 and ax & d2))
            assert _sep_walk(g.adj, w, set()) == want, name

    def test_four_partition_walk_matches_generator(self, quick_corpus):
        for name, g in quick_corpus[::4]:
            w = minimum_vertex_cover(g).mask
            nonw = g.full_mask & ~w
            want = set()
            for ds, dx, dy, om in four_partitions(w):
                if joined(g, ds, dx) or joined(g, ds, dy) or joined(g, dx, dy):
                    continue
                sees = [sum(1 << z for z in iter_bits(nonw) if g.adj[z] & d) for d in (ds, dx, dy)]
                near = sees[1] | sees[2]
                quiet = nonw & ~sees[0]
                # the pair (x, y): no vertex, or a cover vertex of Om
                side_masks = {0} | {g.adj[x] & nonw for x in iter_bits(om)}
                for a in side_masks:
                    for b in side_masks:
                        want.add(om | (sees[0] & near) | (quiet & near & (sees[1] | a) & (sees[2] | b)))
            assert _pmc_walk(g.adj, w, set()) == want, name

    def test_pair_choice_candidate_count(self):
        # pins the pair cut, so candidates per graph cannot grow back unseen:
        # (x, y) ranges over no vertex and Om's cover vertices only
        g = gnp(24, 0.15, 1)
        assert len(_pmc_walk(g.adj, minimum_vertex_cover(g).mask, set())) == 79016


class TestSeparatorsByVc:
    def test_requires_cover(self):
        g = path(4)
        with pytest.raises(InputError):
            separators_by_vc(g, vset(0))

    def test_clique_has_none(self):
        g = complete(5)
        assert separators_by_vc(g, minimum_vertex_cover(g)) == []

    def test_watermelon_uv_count(self):
        from pmckit import is_minimal_uv_separator, watermelon_hubs

        g = watermelon(3, 3)
        seps = separators_by_vc(g, minimum_vertex_cover(g))
        u, v = watermelon_hubs(3, 3)
        uv = [s for s in seps if is_minimal_uv_separator(g, s, u, v)]
        assert len(uv) == 27

    def test_matches_oracle_on_corpus(self, quick_corpus):
        for name, g in quick_corpus:
            w = minimum_vertex_cover(g)
            got = {s.mask for s in separators_by_vc(g, w)}
            want = {s.mask for s in brute_force_lists(g)[0]}
            assert got == want, name

    def test_bound_three_power_cover(self, quick_corpus):
        for name, g in quick_corpus:
            w = minimum_vertex_cover(g)
            assert len(separators_by_vc(g, w)) <= 3 ** len(w), name

    def test_works_with_any_cover_not_just_minimum(self):
        g = gnp(8, 0.4, 1)
        cover = minimum_vertex_cover(g)
        bigger = VertexSet(cover.mask | (g.full_mask & ~cover.mask & -(g.full_mask & ~cover.mask)))
        got = {s.mask for s in separators_by_vc(g, bigger)}
        assert got == {s.mask for s in brute_force_lists(g)[0]}
        # gnp(10,0.4,3) has cover edges, unlike watermelon's independent
        # cover; with cover V every edge is one, so the walk prunes often
        g = gnp(10, 0.4, 3)
        assert separators_by_vc(g, VertexSet(g.full_mask)) == brute_force_lists(g)[0]

    def test_matches_oracle_on_corpus_with_other_covers(self, quick_corpus):
        for name, g in quick_corpus:
            want = brute_force_lists(g)[0]
            for kind, w in other_covers(g):
                assert separators_by_vc(g, w) == want, (name, kind)

    def test_partition_rebuilds_each_separator(self, quick_corpus):
        # for the partition induced by a separator, the assembled candidate
        # is the separator itself: separator part of the cover plus every
        # outside vertex seeing both sides
        for name, g in quick_corpus:
            w = minimum_vertex_cover(g).mask
            for s in brute_force_lists(g)[0]:
                fulls = full_components(g, s)
                assert len(fulls) >= 2
                d1 = fulls[0].mask
                d2 = g.full_mask & ~s.mask & ~d1
                d1w, d2w = d1 & w, d2 & w
                cand = s.mask & w
                for x in iter_bits(g.full_mask & ~w):
                    if g.adj[x] & d1w and g.adj[x] & d2w:
                        cand |= 1 << x
                assert cand == s.mask, (name, s)


class TestActivePmcsByVc:
    def test_requires_cover(self):
        with pytest.raises(InputError):
            active_pmcs_by_vc(path(4), vset(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_sound_and_covers_active(self, seed):
        g = gnp(9, 0.35, seed)
        catalog = active_pmcs_by_vc(g, minimum_vertex_cover(g))
        oracle = brute_force_lists(g)[1]
        assert catalog.mask_set() <= oracle.mask_set()
        for omega in oracle:
            if active_separators(g, omega):
                assert omega in catalog

    def test_cube_contains_active_fixture(self, cube_graph):
        catalog = active_pmcs_by_vc(cube_graph, minimum_vertex_cover(cube_graph))
        assert vset(0, 2, 4, 6, 7) in catalog  # a,e,g,c,h

    def test_clique(self):
        g = complete(5)
        catalog = active_pmcs_by_vc(g, minimum_vertex_cover(g))
        assert [vs.to_list() for vs in catalog] == [[0, 1, 2, 3, 4]]


class TestPmcsByVc:
    def test_single_vertex(self):
        assert [vs.to_list() for vs in pmcs_by_vc(empty_graph(1))] == [[0]]

    def test_path3(self):
        got = pmcs_by_vc(path(3))
        assert got.mask_set() == brute_force_lists(path(3))[1].mask_set()

    def test_cube(self, cube_graph):
        got = pmcs_by_vc(cube_graph)
        assert got.mask_set() == brute_force_lists(cube_graph)[1].mask_set()
        assert vset(0, 2, 4, 6, 7) in got
        assert vset(0, 2, 5, 7) in got

    def test_matches_oracle_on_corpus(self, quick_corpus):
        for name, g in quick_corpus:
            assert pmcs_by_vc(g).mask_set() == brute_force_lists(g)[1].mask_set(), name

    def test_matches_oracle_on_corpus_with_other_covers(self, quick_corpus):
        for name, g in quick_corpus:
            want = brute_force_lists(g)[1].mask_set()
            for kind, w in other_covers(g):
                assert pmcs_by_vc(g, w).mask_set() == want, (name, kind)

    def test_given_separators_give_the_same_catalog(self):
        g = gnp(12, 0.3, 1)
        w = minimum_vertex_cover(g)
        seps = separators_by_vc(g, w)
        assert pmcs_by_vc(g, w, separators=seps).mask_set() == pmcs_by_vc(g, w).mask_set()

    def test_prefix_of_cover_covers_prefix(self, quick_corpus):
        for name, g in quick_corpus:
            w = minimum_vertex_cover(g)
            for i in range(1, g.n + 1):
                gi = prefix_graph(g, i)
                wi = VertexSet(w.mask & gi.full_mask)
                assert is_vertex_cover(gi, wi), (name, i)

    @pytest.mark.parametrize("n, prob, seed", [(14, 0.3, 1), (15, 0.25, 2), (16, 0.2, 3)])
    def test_matches_oracle_on_larger_graphs(self, n, prob, seed):
        g = gnp(n, prob, seed)
        w = minimum_vertex_cover(g)
        assert len(w) >= 7
        seps, catalog = brute_force_lists(g)
        assert pmcs_by_vc(g, w).mask_set() == catalog.mask_set()
        assert separators_by_vc(g, w) == seps

    def test_any_given_cover(self):
        g = gnp(9, 0.35, 4)
        w = minimum_vertex_cover(g)
        bigger = VertexSet(w.mask | (g.full_mask & ~w.mask & -(g.full_mask & ~w.mask)))
        assert pmcs_by_vc(g, bigger).mask_set() == brute_force_lists(g)[1].mask_set()
        with pytest.raises(InputError):
            pmcs_by_vc(path(4), vset(0))

    def test_members_all_verified(self, quick_corpus):
        from pmckit import is_pmc

        for name, g in quick_corpus[:6]:
            for omega in pmcs_by_vc(g):
                assert is_pmc(g, omega), name

    def test_disconnected_input(self):
        g = empty_graph(3)
        got = pmcs_by_vc(g)
        assert [vs.to_list() for vs in got] == [[0], [1], [2]]

    @PROPERTY
    @given(strategies.disconnected_graphs())
    def test_matches_oracle_on_disconnected_graphs(self, g):
        w = minimum_vertex_cover(g)
        seps, pmcs = brute_force_lists(g)
        assert separators_by_vc(g, w) == seps
        assert pmcs_by_vc(g, w).mask_set() == pmcs.mask_set()


class TestPerComponentWalks:
    """A cover split over components is walked one component's part at a time."""

    PARTS = (cube(), watermelon(3, 3))

    def test_candidates_are_the_sum_of_each_components_own(self):
        g = disjoint_union(*self.PARTS)
        w = minimum_vertex_cover(g).mask
        seps, pmcs, offset = set(), set(), 0
        for part in self.PARTS:
            pw = w >> offset & part.full_mask
            seps |= {m << offset for m in _sep_walk(part.adj, pw, set())}
            pmcs |= {m << offset for m in _active_pmc_candidates(part, pw)}
            offset += part.n
        assert _walk_parts(g, w, _sep_walk) == seps
        assert _active_pmc_candidates(g, w) == pmcs
        # one walk of the whole cover pairs every choice in one part with every one in the other
        assert len(_sep_walk(g.adj, w, set())) > 10 * len(seps)
        assert len(_pmc_walk(g.adj, w, set())) > 10 * len(pmcs)

    def test_no_candidate_spans_two_components(self, monkeypatch):
        g = disjoint_union(*self.PARTS)
        seen = []

        class Recording(PmcCatalog):
            @classmethod
            def collect(cls, graph, candidate_masks):
                seen.extend(candidate_masks)
                return PmcCatalog.collect(graph, candidate_masks)

        monkeypatch.setattr(pmckit.vc, "PmcCatalog", Recording)
        w = minimum_vertex_cover(g)
        catalog = pmcs_by_vc(g, w)
        low = self.PARTS[0].full_mask
        assert seen and all(not m & low or not m & ~low for m in seen)
        want_seps, want = brute_force_lists(g, cap=g.n)
        assert separators_by_vc(g, w) == want_seps
        assert catalog.members == want.members and catalog._pieces == want._pieces
