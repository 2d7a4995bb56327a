"""Vertex-cover computation and cover-parameterized enumeration of separators and PMCs.

The enumerators walk partition spaces of a vertex cover W, once each, on the
whole graph: 3^|W| three-partitions for minimal separators and 4^|W|
four-partitions (plus a pair choice) for PMCs with an active separator. The
walks go depth-first over the cover vertices and carry OR-ed masks of the
non-cover vertices each side sees, so a leaf costs a few bitwise operations.
The full PMC catalog adds each separator plus one vertex. Every candidate is
verified by the recognizers, so each stage may over-generate freely.
"""

from __future__ import annotations

from itertools import product
from multiprocessing import Pool
from typing import Iterator, NamedTuple

from .bitset import VertexSet, canonical_sets, iter_bits
from .errors import InputError
from .graph import Graph, _components_masks, _validate_subset
from .graph import prefix_graph  # noqa: F401  (bench/tracing.py wraps this name)
from .recognition import PmcCatalog, _min_sep_mask, _pmc_mask


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
    bits = [1 << v for v in iter_bits(wmask)]
    for assign in product(range(3), repeat=len(bits)):
        parts = [0, 0, 0]
        for b, a in zip(bits, assign):
            parts[a] |= b
        yield ThreePartition(*parts)


def four_partitions(wmask: int) -> Iterator[FourPartition]:
    bits = [1 << v for v in iter_bits(wmask)]
    for assign in product(range(4), repeat=len(bits)):
        parts = [0, 0, 0, 0]
        for b, a in zip(bits, assign):
            parts[a] |= b
        yield FourPartition(*parts)


def is_vertex_cover(g: Graph, w: VertexSet) -> bool:
    _validate_subset(g, w)
    outside = g.full_mask & ~w.mask
    return all(g.adj[v] & outside == 0 for v in iter_bits(outside))


def _require_cover(g: Graph, w: VertexSet) -> None:
    if not is_vertex_cover(g, w):
        raise InputError(f"{w!r} is not a vertex cover of the graph")


def minimum_vertex_cover(g: Graph) -> VertexSet:
    """An exact minimum vertex cover, deterministic for a given graph.

    Branches on a maximum-degree vertex (take it, or take its whole
    neighborhood), with the safe degree-1 reduction of taking the neighbor.
    Ties break toward the lowest vertex index and the first optimum found is
    kept, so repeated runs return the same cover.
    """
    adj = g.adj
    best_size = g.n + 1
    best_mask = 0

    def search(alive: int, cover: int, size: int) -> None:
        nonlocal best_size, best_mask
        one_v = -1
        top_v = -1
        top_deg = 0
        for v in iter_bits(alive):
            d = (adj[v] & alive).bit_count()
            if d > top_deg:
                top_deg = d
                top_v = v
            if d == 1 and one_v < 0:
                one_v = v
        if top_deg == 0:
            if size < best_size:
                best_size = size
                best_mask = cover
            return
        if size + 1 >= best_size:
            return
        if one_v >= 0:
            u_bit = adj[one_v] & alive
            u_bit &= -u_bit
            search(alive & ~u_bit, cover | u_bit, size + 1)
            return
        bit = 1 << top_v
        search(alive & ~bit, cover | bit, size + 1)
        nb = adj[top_v] & alive
        if size + nb.bit_count() < best_size:
            search(alive & ~nb & ~bit, cover | nb, size + nb.bit_count())

    search(g.full_mask, 0, 0)
    return VertexSet(best_mask)


def _cover_sees(adj: tuple[int, ...], wmask: int) -> list[tuple[int, int]]:
    """(bit, sees) per cover vertex w: its own bit and the non-cover vertices adjacent to it."""
    outside = ~wmask
    return [(1 << w, adj[w] & outside) for w in iter_bits(wmask)]


def _sep_walk(task) -> set[int]:
    """Separator candidates of every three-partition that extends one partial one.

    A task is (state, rest). The state (sep, s1, s2) assigns the first cover
    vertices: sep holds those in the separator part, s1 and s2 the non-cover
    vertices that see D1 and D2. The walk assigns each (bit, sees) of rest
    depth-first, OR-ing it into one of the three, and at a leaf the candidate
    is the separator part plus the vertices that see both sides.
    """
    state, rest = task
    k = len(rest)
    out: set[int] = set()

    def walk(i: int, sep: int, s1: int, s2: int) -> None:
        if i == k:
            out.add(sep | (s1 & s2))
            return
        b, t = rest[i]
        i += 1
        walk(i, sep | b, s1, s2)
        walk(i, sep, s1 | t, s2)
        walk(i, sep, s1, s2 | t)

    walk(0, *state)
    return out


def _sep_masks_by_vc(g: Graph, wmask: int, jobs: int = 1) -> list[int]:
    """Verified minimal-separator masks from the 3-partition sweep of the cover."""
    adj = g.adj
    cover = _cover_sees(adj, wmask)
    if jobs <= 1:
        cands = _sep_walk(((0, 0, 0), cover))
    else:
        # One task per assignment of the first few cover vertices, enough
        # tasks to give each worker several.
        states = [(0, 0, 0)]
        head = 0
        while head < len(cover) and len(states) < 4 * jobs:
            b, t = cover[head]
            states = [st for sep, s1, s2 in states
                      for st in ((sep | b, s1, s2), (sep, s1 | t, s2), (sep, s1, s2 | t))]
            head += 1
        cands = set()
        with Pool(processes=jobs) as pool:
            for part in pool.map(_sep_walk, [(st, cover[head:]) for st in states]):
                cands |= part
    full = g.full_mask
    return sorted(m for m in cands if _min_sep_mask(adj, m, full))


def separators_by_vc(g: Graph, w: VertexSet, jobs: int = 1) -> list[VertexSet]:
    """All minimal separators of g, enumerated through the vertex cover w.

    For each three-partition (D1, S, D2) of w the candidate is S plus every
    outside vertex whose neighborhood meets both D1 and D2; candidates are
    kept only if they pass the recognizer. The result is complete and has at
    most 3^|w| members.
    """
    _require_cover(g, w)
    return canonical_sets(_sep_masks_by_vc(g, w.mask, jobs=jobs))


def _pmc_walk(adj: tuple[int, ...], wmask: int) -> set[int]:
    """PMC candidates from the four-partitions (Ds, Dx, Dy, Om) of the cover and a pair choice.

    The walk assigns each cover vertex depth-first to one of the four parts,
    OR-ing its non-cover neighbors into sees_ds, sees_dx or sees_dy (or its
    own bit into om). At a leaf, a non-cover vertex joins the candidate if it
    sees the far side Ds and a near side, or sees no far side but both near
    sides once the non-cover neighborhoods of a pair (x, y) are added to
    sees_dx and sees_dy. The pair ranges over all vertices, a harmless
    superset of what is needed. Swapping Dx and Dy gives the same candidates,
    so only partitions whose first near-side vertex is in Dx are walked.
    """
    cover = _cover_sees(adj, wmask)
    nonw = ~wmask
    side_masks = {a & nonw for a in adj}
    k = len(cover)
    out: set[int] = set()
    update = out.update

    def leaf(om: int, sds: int, sdx: int, sdy: int) -> None:
        near = sdx | sdy
        base = om | (sds & near)
        quiet_near = near & ~sds
        if not quiet_near:
            out.add(base)
            return
        xs = {quiet_near & (sdx | a) for a in side_masks}
        ys = {quiet_near & (sdy | a) for a in side_masks}
        update([base | (mx & my) for mx in xs for my in ys])

    def walk(i: int, om: int, sds: int, sdx: int, sdy: int, split: bool) -> None:
        if i == k:
            leaf(om, sds, sdx, sdy)
            return
        b, t = cover[i]
        i += 1
        walk(i, om | b, sds, sdx, sdy, split)
        walk(i, om, sds | t, sdx, sdy, split)
        walk(i, om, sds, sdx | t, sdy, True)
        if split:
            walk(i, om, sds, sdx, sdy | t, True)

    walk(0, 0, 0, 0, 0, False)
    return out


def _active_pmc_masks(g: Graph, wmask: int, sep_masks) -> set[int]:
    """Verified PMC masks covering every PMC of g that has an active separator.

    Three generation routes, all then filtered by the recognizer: closed
    neighborhoods N[t]; separator extensions S + (N(t) & C) for each
    enumerated separator S, vertex t and component C of g - S; and the
    four-partition candidates of the cover (see _pmc_walk).
    """
    adj = g.adj
    full = g.full_mask
    n = g.n
    cands = _pmc_walk(adj, wmask)
    cands.update(adj[t] | (1 << t) for t in range(n))
    for s in sep_masks:
        comps = _components_masks(adj, full & ~s)
        for t in range(n):
            nt = adj[t]
            for c in comps:
                inside = nt & c
                if inside:
                    cands.add(s | inside)
    return {m for m in cands if m and _pmc_mask(adj, m, full)}


def active_pmcs_by_vc(g: Graph, w: VertexSet) -> PmcCatalog:
    """A verified catalog containing every PMC of g that has an active separator."""
    _require_cover(g, w)
    seps = _sep_masks_by_vc(g, w.mask)
    return PmcCatalog.from_verified(g, _active_pmc_masks(g, w.mask, seps))


def pmcs_by_vc(g: Graph, cover: VertexSet | None = None) -> PmcCatalog:
    """The complete PMC catalog of g, from one vertex cover in one pass.

    By the structural lemma of Bouchitté and Todinca ("Listing all potential
    maximal cliques of a graph", TCS 2002), a PMC with no active separator is
    a minimal separator plus one vertex, S + {x}, or a closed neighborhood
    N[x]. So the catalog is the verified union of the active-separator PMCs
    (which include every N[x]) and every S + {x}, with S from the
    three-partition sweep of the cover. The cover defaults to a minimum one.
    """
    if g.n == 0:
        raise InputError("graph must be nonempty")
    if cover is None:
        cover = minimum_vertex_cover(g)
    else:
        _require_cover(g, cover)
    adj = g.adj
    full = g.full_mask
    seps = _sep_masks_by_vc(g, cover.mask)
    cands = _active_pmc_masks(g, cover.mask, seps)
    extra = {s | (1 << x) for s in seps for x in iter_bits(full & ~s)}
    cands.update(m for m in extra - cands if _pmc_mask(adj, m, full))
    return PmcCatalog.from_verified(g, cands)
