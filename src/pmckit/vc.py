"""Vertex-cover computation and cover-parameterized enumeration of separators and PMCs.

The enumerators walk partition spaces of a vertex cover W, once for each
connected component's part of W: the three-partitions of W for minimal
separators and its four-partitions (plus a pair choice) for PMCs with an
active separator. A nonempty minimal separator or a PMC lies in one
component, and its lemma's partition puts every other component's cover
vertices on the far side (D2 or Ds), where they add nothing: so the walks
cost the sum of the components' partitions, not the product. The walks go
depth-first over the cover vertices and carry OR-ed masks of each side's
cover vertices and the non-cover vertices it sees, so a leaf costs a few
bitwise operations. They never put a cover vertex on a side that holds
one of its cover neighbours: every side they need lies in components of
G - S or G - Omega that no edge joins, so 3^|W| and 4^|W| are only upper
bounds on the partitions visited. The candidates for PMCs with an active
separator are the four-partition candidates plus every closed neighborhood
N[x]; the full PMC catalog adds each separator S plus one vertex of S's
component (any when S is empty): no PMC spans two. Each route has one
recognizer filter: the separator sweep keeps what passes _min_sep_mask, and
the PMC candidates go once through PmcCatalog.collect, so each stage may
over-generate freely.
"""

from __future__ import annotations

from .bitset import VertexSet, canonical_sets, iter_bits
from .errors import InputError
from .graph import Graph, _components_with_nbrs, _validate_subset
from .graph import prefix_graph  # noqa: F401  (bench/tracing.py wraps this name)
from .recognition import PmcCatalog, _min_sep_mask


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


def _cover_sees(adj: tuple[int, ...], wmask: int) -> list[tuple[int, int, int]]:
    """(bit, side, nbrs) per cover vertex w.

    bit is w's own bit, side is bit plus the non-cover vertices adjacent to
    w (what w adds to a side), and nbrs is w's cover neighbours.
    """
    outside = ~wmask
    return [(1 << w, (1 << w) | adj[w] & outside, adj[w] & wmask) for w in iter_bits(wmask)]


def _walk_parts(g: Graph, wmask: int, walk) -> set[int]:
    """One ``walk`` per connected component's part of the cover, all into one set (see the module docstring)."""
    out: set[int] = set()
    for comp, _ in _components_with_nbrs(g.adj, g.full_mask):
        walk(g.adj, wmask & comp, out)
    return out


def _sep_walk(adj: tuple[int, ...], wmask: int, out: set[int]) -> set[int]:
    """Separator candidates from the three-partitions (D1, S, D2) of the cover, added to ``out``.

    The walk assigns each cover vertex depth-first to the separator part sep
    or to one of the sides s1 and s2, OR-ing into a side the vertex's bit and
    the non-cover vertices that see it. At a leaf the candidate is the
    separator part plus the vertices that see both sides (the sides' cover
    bits are disjoint, so s1 & s2 holds only non-cover vertices).

    A minimal separator S is rebuilt from D1 = W ∩ C1 and D2 = W - S - C1
    for a full component C1 of G - S. No edge joins two components of G - S,
    so no cover edge joins D1 and D2, and the walk skips any branch that
    would put a cover vertex on the side opposite one of its cover
    neighbours.

    The mirror (D2, S, D1) of a partition gives the same candidate, since
    s1 & s2 is symmetric, and the walk prunes both alike. So only partitions
    whose first side vertex is in D1 are walked: a cover vertex may go to s2
    only once some earlier one went to s1 (``split``).
    """
    cover = _cover_sees(adj, wmask)
    k = len(cover)

    def walk(i: int, sep: int, s1: int, s2: int, split: bool) -> None:
        if i == k:
            out.add(sep | (s1 & s2))
            return
        b, t, c = cover[i]
        i += 1
        walk(i, sep | b, s1, s2, split)
        if not c & s2:
            walk(i, sep, s1 | t, s2, True)
        if split and not c & s1:
            walk(i, sep, s1, s2 | t, True)

    walk(0, 0, 0, 0, False)
    return out


def _sep_masks_by_vc(g: Graph, wmask: int) -> list[int]:
    """Verified minimal-separator masks from the 3-partition sweep of the cover."""
    adj = g.adj
    full = g.full_mask
    return [m for m in _walk_parts(g, wmask, _sep_walk) if _min_sep_mask(adj, m, full)]


def separators_by_vc(g: Graph, w: VertexSet) -> list[VertexSet]:
    """All minimal separators of g, enumerated through the vertex cover w.

    For each three-partition (D1, S, D2) of w with no edge between D1 and D2
    the candidate is S plus every outside vertex whose neighborhood meets
    both D1 and D2; candidates are kept only if they pass the recognizer.
    The result is complete and has at most 3^|w| members.
    """
    _require_cover(g, w)
    return canonical_sets(_sep_masks_by_vc(g, w.mask))


def _pmc_walk(adj: tuple[int, ...], wmask: int, out: set[int]) -> set[int]:
    """PMC candidates from the four-partitions (Ds, Dx, Dy, Om) of the cover and a pair choice, added to ``out``.

    The walk assigns each cover vertex depth-first to one of the four parts,
    OR-ing its bit and its non-cover neighbors into sds, sdx or sdy (or its
    bit into om). At a leaf, a non-cover vertex joins the candidate if it
    sees the far side Ds and a near side, or sees no far side but both near
    sides once the non-cover neighborhoods of a pair (x, y) are added to
    sdx and sdy. Each of x and y ranges over no vertex and the cover
    vertices in Om: the active pair lies inside S, a subset of Omega, so a
    cover member of the pair is in Om, and a non-cover member has no
    non-cover neighbor, the same as no vertex. Swapping Dx and Dy gives the
    same candidates, so only partitions whose first near-side vertex is in
    Dx are walked.

    The walk skips every partition with a cover edge between two of Ds, Dx
    and Dy. For a PMC Omega with an active separator S = N(D), D a component
    of G - Omega, the four-partition lemma's partition has Om = W ∩ Omega and
    takes Ds from the components of G - S other than C, the one holding
    Omega - S, and Dx and Dy from the components of C - Omega that hold or
    touch x and y. Each of these is a component of G - Omega, and each puts
    its cover vertices on one side, so Ds, Dx and Dy lie in distinct
    components of G - Omega and no edge joins two of them.
    """
    cover = _cover_sees(adj, wmask)
    nonw = ~wmask
    k = len(cover)
    update = out.update

    def leaf(om: int, sds: int, sdx: int, sdy: int, sides: tuple[int, ...]) -> None:
        near = sdx | sdy
        base = om | (sds & near)
        quiet_near = near & ~sds & nonw
        if not quiet_near:
            out.add(base)
            return
        xs = {quiet_near & (sdx | a) for a in sides}
        ys = {quiet_near & (sdy | a) for a in sides}
        update([base | (mx & my) for mx in xs for my in ys])

    # sides: 0 and the non-cover neighbourhood of each cover vertex put in Om
    # so far, carried down so that a leaf does not rebuild it from om
    def walk(i: int, om: int, sds: int, sdx: int, sdy: int, split: bool,
             sides: tuple[int, ...]) -> None:
        if i == k:
            leaf(om, sds, sdx, sdy, sides)
            return
        b, t, c = cover[i]
        i += 1
        walk(i, om | b, sds, sdx, sdy, split, (*sides, t ^ b))
        if not c & (sdx | sdy):
            walk(i, om, sds | t, sdx, sdy, split, sides)
        if not c & (sds | sdy):
            walk(i, om, sds, sdx | t, sdy, True, sides)
        if split and not c & (sds | sdx):
            walk(i, om, sds, sdx, sdy | t, True, sides)

    walk(0, 0, 0, 0, 0, False, (0,))
    return out


def _active_pmc_candidates(g: Graph, wmask: int) -> set[int]:
    """PMC candidates, unfiltered, covering every PMC of g that has an active separator.

    Two generation routes: the four-partition candidates of the cover (see
    _pmc_walk) and the closed neighborhoods N[t].
    """
    cands = _walk_parts(g, wmask, _pmc_walk)
    cands.update(a | (1 << t) for t, a in enumerate(g.adj))
    return cands


def active_pmcs_by_vc(g: Graph, w: VertexSet) -> PmcCatalog:
    """A verified catalog containing every PMC of g that has an active separator."""
    _require_cover(g, w)
    return PmcCatalog.collect(g, _active_pmc_candidates(g, w.mask))


def pmcs_by_vc(
    g: Graph, cover: VertexSet | None = None, separators: list[VertexSet] | None = None
) -> PmcCatalog:
    """The complete PMC catalog of g, from one vertex cover in one pass.

    By the structural lemma of Bouchitté and Todinca ("Listing all potential
    maximal cliques of a graph", TCS 2002), a PMC with no active separator is
    a minimal separator plus one vertex, S + {x}, or a closed neighborhood
    N[x]. So the catalog is the active-separator candidates (which include
    every N[x]) together with every S + {x}, x in S's component, passed once
    through the recognizer. The cover defaults to a minimum one. The
    separators are every minimal separator of g, as separators_by_vc lists
    them; when not given, they come from the three-partition sweep of the
    cover.
    """
    if g.n == 0:
        raise InputError("graph must be nonempty")
    if cover is None:
        cover = minimum_vertex_cover(g)
    else:
        _require_cover(g, cover)
    full = g.full_mask
    if separators is None:
        seps = _sep_masks_by_vc(g, cover.mask)
    else:
        seps = [s.mask for s in separators]
    cands = _active_pmc_candidates(g, cover.mask)
    for comp, _ in _components_with_nbrs(g.adj, full):
        cands.update(s | (1 << x) for s in seps if s & comp or not s for x in iter_bits(comp & ~s))
    return PmcCatalog.collect(g, cands)
