"""Shared fixtures: named graphs and a small seeded random corpus."""

from __future__ import annotations

import random

import pytest

from pmckit import cube, gnp, modular_decomposition, watermelon


@pytest.fixture(scope="session")
def cube_graph():
    return cube()


@pytest.fixture(scope="session")
def quick_corpus():
    """Small seeded gnp corpus for unit-level route comparisons."""
    out = []
    for n in range(4, 10):
        for prob in (0.2, 0.35, 0.5):
            for seed in range(3):
                out.append((f"gnp({n},{prob},{seed})", gnp(n, prob, seed)))
    out.append(("watermelon(2,3)", watermelon(2, 3)))
    out.append(("watermelon(3,3)", watermelon(3, 3)))
    return out


@pytest.fixture(scope="session")
def mw_solve_quotients():
    """The first ten prime gnp(12, 0.25) modules of the mw-solve benchmark, seed 1.

    Drawn as bench/run.py draws them (module seeds from
    random.Random("mw-solve/1"), keeping the prime ones); each is its own
    12-vertex prime quotient.
    """
    rng = random.Random("mw-solve/1")
    out = []
    while len(out) < 10:
        root = modular_decomposition(gnp(12, 0.25, rng.randrange(1 << 31))).root
        if root.kind == "prime" and len(root.children) == 12:
            out.append(root.quotient)
    return out
