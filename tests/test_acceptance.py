"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
The random corpus is shared by criteria 3-5 and computed once per session.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from pmckit import (
    brute_force_fill_in,
    brute_force_lists,
    brute_force_treewidth,
    complete,
    cube,
    cycle,
    empty_graph,
    enumerate_by_mw,
    expand_graph,
    gnp,
    is_minimal_uv_separator,
    minimum_vertex_cover,
    path,
    pmcs_by_vc,
    separators_by_vc,
    watermelon,
    watermelon_hubs,
)
from pmckit.cli import main, solve_value
from reference import CUBE_INDEX, active_separators, cube_set, pmc_separators

CORPUS_NS = (5, 6, 7, 8, 9, 10)
CORPUS_PROBS = (0.2, 0.35, 0.5)
CORPUS_SEEDS = range(12)  # 6 * 3 * 12 = 216 graphs


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS", flush=True)


@dataclass
class CorpusEntry:
    name: str
    graph: object
    vc_size: int
    brute_seps: frozenset
    vc_seps: frozenset
    mw_seps: frozenset
    brute_pmcs: frozenset
    vc_pmcs: frozenset
    mw_pmcs: frozenset


@pytest.fixture(scope="module")
def corpus():
    entries = []
    t0 = time.perf_counter()
    for n in CORPUS_NS:
        for prob in CORPUS_PROBS:
            for seed in CORPUS_SEEDS:
                g = gnp(n, prob, seed)
                cover = minimum_vertex_cover(g)
                mw_seps, mw_cat = enumerate_by_mw(g)
                brute_seps, brute_cat = brute_force_lists(g)
                entries.append(
                    CorpusEntry(
                        name=f"gnp({n},{prob},{seed})",
                        graph=g,
                        vc_size=len(cover),
                        brute_seps=frozenset(s.mask for s in brute_seps),
                        vc_seps=frozenset(s.mask for s in separators_by_vc(g, cover)),
                        mw_seps=frozenset(s.mask for s in mw_seps),
                        brute_pmcs=brute_cat.mask_set(),
                        vc_pmcs=pmcs_by_vc(g).mask_set(),
                        mw_pmcs=mw_cat.mask_set(),
                    )
                )
    elapsed = time.perf_counter() - t0
    return entries, elapsed


def test_criterion_1_watermelon_tightness():
    with criterion(1, "watermelon tightness, k=8"):
        t0 = time.perf_counter()
        k = 8
        g = watermelon(k, 3)
        cover = minimum_vertex_cover(g)
        assert len(cover) == 10
        seps = separators_by_vc(g, cover)
        u, v = watermelon_hubs(k, 3)
        uv_count = sum(1 for s in seps if is_minimal_uv_separator(g, s, u, v))
        assert uv_count == 3**8 == 6561
        assert len(seps) >= 6561
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_cube_fixtures():
    with criterion(2, "cube worked examples"):
        g = cube()
        omega1 = cube_set("aegch")
        omega2 = cube_set("acfh")
        for catalog in (pmcs_by_vc(g), enumerate_by_mw(g)[1]):
            assert omega1 in catalog
            assert omega2 in catalog
        assert pmc_separators(g, omega1) == [cube_set("aegc"), cube_set("ahc")]
        assert pmc_separators(g, omega2) == [
            cube_set("acf"),
            cube_set("ach"),
            cube_set("afh"),
            cube_set("cfh"),
        ]
        assert active_separators(g, omega2) == []
        witnesses = active_separators(g, omega1)
        assert witnesses
        by_sep = {w.separator: w for w in witnesses}
        pair_eg = (CUBE_INDEX["e"], CUBE_INDEX["g"])
        assert pair_eg in by_sep[cube_set("aegc")].pairs


def test_criterion_3_three_way_equivalence(corpus):
    entries, fixture_time = corpus
    with criterion(3, "three-way oracle equivalence, 216 graphs"):
        t0 = time.perf_counter()
        assert len(entries) >= 200
        for e in entries:
            assert e.brute_seps == e.vc_seps == e.mw_seps, e.name
            assert e.brute_pmcs == e.vc_pmcs == e.mw_pmcs, e.name
        elapsed = fixture_time + (time.perf_counter() - t0)
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_4_bound_suite(corpus):
    entries, _ = corpus
    with criterion(4, "cardinality bounds"):
        for e in entries:
            assert len(e.brute_seps) <= 3**e.vc_size, e.name

        module_pool = [
            complete(1),
            complete(2),
            path(3),
            empty_graph(2),
            complete(3),
            path(2),
        ]
        quotients = [
            path(2),
            path(3),
            path(4),
            cycle(4),
            cycle(5),
            complete(3),
            empty_graph(3),
            gnp(4, 0.5, 0),
            gnp(4, 0.5, 1),
            gnp(5, 0.4, 0),
            gnp(5, 0.4, 1),
        ]
        checked = 0
        for qi, quotient in enumerate(quotients):
            for shift in (0, 1):
                modules = [
                    module_pool[(qi + shift + j) % len(module_pool)]
                    for j in range(quotient.n)
                ]
                h, _ = expand_graph(quotient, modules)
                parts = [brute_force_lists(x) for x in (quotient, *modules)]
                seps, catalog = brute_force_lists(h)
                assert len(seps) <= sum(len(part_seps) for part_seps, _ in parts)
                assert len(catalog) <= sum(len(part_pmcs) for _, part_pmcs in parts)
                checked += 1
        assert checked >= 20


def test_criterion_5_solver_correctness(corpus):
    entries, _ = corpus
    with criterion(5, "solver equals elimination oracles"):
        t0 = time.perf_counter()
        g = cube()
        assert solve_value(g, "tw", "vc") == 3
        assert solve_value(cycle(6), "fillin", "vc") == 3
        for e in entries:
            g = e.graph
            if g.n <= 9:
                want_tw = brute_force_treewidth(g)
                assert solve_value(g, "tw", "vc") == want_tw, e.name
                assert solve_value(g, "tw", "mw") == want_tw, e.name
                assert want_tw <= e.vc_size, e.name
            if g.n <= 8:
                want_fill = brute_force_fill_in(g)
                assert solve_value(g, "fillin", "vc") == want_fill, e.name
                assert solve_value(g, "fillin", "mw") == want_fill, e.name
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_6_determinism(capsys):
    with criterion(6, "byte-identical reruns"):
        invocations = [
            ["enum", "pmcs", "--family", "gnp", "--n", "9", "--prob", "0.35", "--seed", "4"],
            ["enum", "seps", "--family", "cube", "--method", "mw"],
            ["count", "--family", "watermelon", "--p", "3", "--q", "3", "--what", "both"],
            ["verify", "--family", "gnp", "--n", "7", "--prob", "0.3", "--seeds", "3"],
            ["solve", "fillin", "--family", "gnp", "--n", "7", "--prob", "0.4", "--seed", "9"],
            ["decompose", "--family", "gnp", "--n", "8", "--prob", "0.5", "--seed", "2"],
            ["gen", "--family", "gnp", "--n", "10", "--prob", "0.3", "--seed", "1"],
        ]
        for argv in invocations:
            assert main(argv) in (0,)
            first = capsys.readouterr().out
            assert main(argv) in (0,)
            second = capsys.readouterr().out
            assert first == second, argv
        # bench emits wall-clock times; everything but timings must match
        argv = ["bench", "--family", "cube", "--method", "vc"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert first == second
