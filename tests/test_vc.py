"""Vertex cover computation and cover-parameterized enumeration."""

from __future__ import annotations

import gc
import os
import random
import tracemalloc
from contextlib import redirect_stdout
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
from pmckit.cli import main
from pmckit.vc import (
    _active_pmc_candidates,
    _cover_parts,
    _pmc_grow,
    _pmc_walk,
    _sep_grow,
    _sep_masks_by_vc,
    _sep_parts,
)
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
    """Every three-partition of the cover, the unpruned reference for _sep_parts."""
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


def sep_candidates(adj, wmask: int) -> set[int]:
    """The union of _sep_parts' sets, checking that each holds one separator part and no set repeats one."""
    out: set[int] = set()
    for part in _sep_parts(adj, wmask):
        assert len({m & wmask for m in part}) == 1 and not part & out
        out |= part
    return out


def side_mask(g, d: int, wmask: int) -> int:
    """A side as the walks carry it: its cover vertices d and the non-cover vertices that see them."""
    return d | sum(1 << z for z in iter_bits(g.full_mask & ~wmask) if g.adj[z] & d)


def first_side_leads(a: int, b: int) -> bool:
    """Whether a partition is walked rather than its mirror: side a holds the lowest sided vertex."""
    return not b or 0 < a & -a < b & -b


def walked(adj, wmask: int, sides: tuple[int, ...], grow) -> list[tuple[int, ...]]:
    """Every (part, *sides) that _cover_parts yields, sorted, checking that no part comes twice."""
    out, parts = [], set()
    for part, tups in _cover_parts(adj, wmask, sides, grow):
        assert part not in parts and tups
        parts.add(part)
        out += [(part, *tup) for tup in tups]
    return sorted(out)


def traced_peak(fn) -> int:
    """Peak traced bytes of fn(), above what was traced when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
            assert sep_candidates(g.adj, w) == want, name

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
                on_no_side = nonw & ~(sees[0] | near)
                # the pair (x, y): no vertex, or a cover vertex of Om that sees
                # Ds, a vertex seeing Ds or a non-cover vertex on no side, and
                # no vertex of the other near side; two cover members are
                # distinct and non-adjacent
                xs = [None] + [x for x in iter_bits(om)
                               if g.adj[x] & (ds | sees[0] | on_no_side) and not g.adj[x] & dy]
                ys = [None] + [y for y in iter_bits(om)
                               if g.adj[y] & (ds | sees[0] | on_no_side) and not g.adj[y] & dx]
                for x in xs:
                    for y in ys:
                        if x is not None and y is not None and (x == y or g.adj[x] >> y & 1):
                            continue
                        a = 0 if x is None else g.adj[x] & nonw
                        b = 0 if y is None else g.adj[y] & nonw
                        want.add(om | (sees[0] & near) | (quiet & near & (sees[1] | a) & (sees[2] | b)))
            assert _pmc_walk(g.adj, w, set()) == want, name

    def test_walk_visits_each_unpruned_partition_once(self, quick_corpus):
        # one side tuple per partition with no cover edge between two sides,
        # and of a partition and its mirror only the one whose first side
        # takes the lowest sided vertex
        for name, g in quick_corpus:
            w = minimum_vertex_cover(g).mask
            want = sorted((sep, side_mask(g, d1, w), side_mask(g, d2, w))
                          for d1, sep, d2 in three_partitions(w)
                          if not joined(g, d1, d2) and first_side_leads(d1, d2))
            assert walked(g.adj, w, (0, 0), _sep_grow) == want, name
        for name, g in quick_corpus[::4]:
            w = minimum_vertex_cover(g).mask
            want = sorted((om, side_mask(g, ds, w), side_mask(g, dx, w), side_mask(g, dy, w))
                          for ds, dx, dy, om in four_partitions(w)
                          if not (joined(g, ds, dx) or joined(g, ds, dy) or joined(g, dx, dy))
                          and first_side_leads(dx, dy))
            assert walked(g.adj, w, (0, 0, 0), _pmc_grow) == want, name

    def test_pmc_walk_groups_candidates_by_om(self, monkeypatch, quick_corpus):
        # each part Om of the walk gives candidates whose cover vertices are
        # Om, and no Om comes twice, as each of the separator sweep's sets
        # holds one separator part
        groups: list[tuple[int, list[int]]] = []
        real = pmckit.vc._cover_parts

        def logged(*args):
            for om, sides in real(*args):
                groups.append((om, []))
                yield om, sides

        class Logged(set):
            def add(self, m):
                groups[-1][1].append(m)
                super().add(m)

            def update(self, ms):
                groups[-1][1].extend(ms)
                super().update(ms)

        monkeypatch.setattr(pmckit.vc, "_cover_parts", logged)
        for name, g in quick_corpus + [("gnp(16,0.25,1)", gnp(16, 0.25, 1))]:
            w = minimum_vertex_cover(g).mask
            groups.clear()
            out = _pmc_walk(g.adj, w, Logged())
            assert len({om for om, _ in groups}) == len(groups), name
            assert all(cands and all(m & w == om for m in cands) for om, cands in groups), name
            assert set().union(*(cands for _, cands in groups)) == out, name

    def test_pair_choice_candidate_count(self):
        # pins the pair cut, so candidates per graph cannot grow back unseen:
        # (x, y) ranges over no vertex and Om's cover vertices that see Ds or
        # a vertex on no side and no vertex of the other near side, two cover
        # members non-adjacent; with every cover vertex of Om it was 79,016
        g = gnp(24, 0.15, 1)
        assert len(_pmc_walk(g.adj, minimum_vertex_cover(g).mask, set())) == 43978


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
            seps |= {m << offset for m in sep_candidates(part.adj, pw)}
            pmcs |= {m << offset for m in _active_pmc_candidates(part, pw)}
            offset += part.n
        low = self.PARTS[0].full_mask
        assert sep_candidates(g.adj, w & low) | sep_candidates(g.adj, w & ~low) == seps
        assert _active_pmc_candidates(g, w) == pmcs
        # one walk of the whole cover pairs every choice in one part with every one in the other
        assert len(sep_candidates(g.adj, w)) > 10 * len(seps)
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


class TestSweepMemory:
    """The sweeps hold what they keep and one separator part's candidates, not every candidate."""

    def test_separator_sweep_holds_one_part(self):
        # every candidate at once: 3.1 MiB here (26,499 of them, 6,602 kept)
        g = watermelon(8, 3)
        w = minimum_vertex_cover(g).mask
        assert traced_peak(lambda: _sep_masks_by_vc(g, w)) < 1 << 20

    def test_enum_seps_on_the_benchmark_watermelon(self):
        # every candidate and the whole listing's text at once: 3.6 MiB
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            argv = ["enum", "seps", "--family", "watermelon", "--p", "8", "--q", "3", "--method", "vc"]
            assert traced_peak(lambda: main(argv)) < 2.5 * (1 << 20)

    def test_walks_free_what_they_hold_without_the_cyclic_collector(self):
        # a recursive closure refers to itself through its cell; while that
        # cycle stands, the candidates it reaches stay until the collector
        # runs: 3.2 MiB after pmcs_by_vc here, and 2.9 MiB after the old
        # sweep of watermelon(8,3). What stays now is the interpreter's free
        # lists of small tuples and lists
        g, wm = gnp(18, 0.2, 1), watermelon(8, 3)
        runs = [lambda: pmcs_by_vc(g), lambda: _sep_masks_by_vc(wm, minimum_vertex_cover(wm).mask)]
        for run in runs:
            run()  # the first call may fill caches the second finds
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                run()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                gc.enable()
            assert held < 512 << 10
