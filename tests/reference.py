"""Reference implementations the tests check the package against.

They stay out of the package because nothing in it needs them. Each is
written plainly from the public API and the adjacency masks, except
pmc_separators, which reads the pieces the PMC recognizer finds.
"""

from __future__ import annotations

from dataclasses import dataclass

from pmckit import Graph, VertexSet, canonical_sets, components
from pmckit.bitset import bit_list, iter_bits
from pmckit.recognition import _pmc_pieces

# Vertex labels of the cube generator: 4-cycles a-b-c-d and e-f-g-h, rungs a-e, b-f, c-g, d-h.
CUBE_INDEX = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5, "g": 6, "h": 7}


def vset(*idx: int) -> VertexSet:
    """The VertexSet of the given vertex indices."""
    return VertexSet(sum({1 << i for i in idx}))


def cube_set(letters: str) -> VertexSet:
    return vset(*(CUBE_INDEX[c] for c in letters))


def neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """N(s): the vertices outside s with a neighbor in s."""
    nb = 0
    for v in s:
        nb |= g.adj[v]
    return VertexSet(nb & ~s.mask)


def full_components(g: Graph, s: VertexSet) -> list[VertexSet]:
    """The components C of g - s with N(C) = s, ordered by minimum vertex."""
    return [c for c in components(g, s) if neighborhood(g, c) == s]


def pmc_separators(g: Graph, omega: VertexSet) -> list[VertexSet]:
    """The minimal separators inside the PMC ``omega``: N(C) for each component C of g - omega.

    They are read from the pieces that PMC catalogs carry and the block DP reads.
    """
    pieces = _pmc_pieces(g.adj, omega.mask, g.full_mask)
    assert pieces is not None, f"{omega!r} is not a potential maximal clique"
    return canonical_sets(s for s, _ in pieces)


@dataclass(frozen=True)
class ActivePairWitness:
    """A separator of a PMC that remains incomplete after the completion step.

    For separator S of PMC omega, complete every other separator of omega not
    contained in S into a clique; S is active when some pair inside omega is
    still non-adjacent. ``pairs`` holds every such pair ascending (they all
    lie inside S); ``pair`` is the lexicographically least one.
    """

    separator: VertexSet
    pairs: tuple[tuple[int, int], ...]
    component: VertexSet

    @property
    def pair(self) -> tuple[int, int]:
        return self.pairs[0]


def active_separators(g: Graph, omega: VertexSet) -> list[ActivePairWitness]:
    """Witnesses for the active separators of the PMC ``omega``.

    Separators with no leftover non-adjacent pair are omitted. The component
    recorded is the one of g - S containing omega - S.
    """
    sep_masks = [s.mask for s in pmc_separators(g, omega)]
    om_bits = bit_list(omega.mask)
    witnesses = []
    for s1 in sep_masks:
        adj_plus = list(g.adj)
        for s2 in sep_masks:
            if s2 & ~s1:  # not contained in s1: complete it
                for v in iter_bits(s2):
                    adj_plus[v] |= s2 & ~(1 << v)
        pairs = []
        for i, u in enumerate(om_bits):
            for v in om_bits[i + 1:]:
                if not (adj_plus[u] >> v) & 1:
                    pairs.append((u, v))
        if not pairs:
            continue
        for u, v in pairs:
            assert (s1 >> u) & 1 and (s1 >> v) & 1, "active pair must lie inside its separator"
        rest = omega.mask & ~s1
        comp = next(c for c in components(g, VertexSet(s1)) if c.mask & rest)
        assert rest & ~comp.mask == 0, "omega - S must sit inside a single component"
        witnesses.append(ActivePairWitness(VertexSet(s1), tuple(pairs), comp))
    return witnesses
