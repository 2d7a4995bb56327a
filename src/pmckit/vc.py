"""Vertex-cover computation and cover-parameterized enumeration of separators and PMCs.

The enumerators walk partition spaces of a vertex cover W, once for each
connected component's part of W: the three-partitions of W for minimal
separators and its four-partitions (plus a pair choice) for PMCs with an
active separator. A nonempty minimal separator or a PMC lies in one
component, and its lemma's partition puts every other component's cover
vertices on the far side (D2 or Ds), where they add nothing: so the walks
cost the sum of the components' partitions, not the product. Both sweeps
run one walk, _cover_parts, depth-first over the cover vertices on an
explicit stack. It carries OR-ed masks of each side's cover vertices and
the non-cover vertices they see, so a partition costs a few bitwise
operations. It never puts a cover vertex on a side that holds one of its
cover neighbours: every side the sweeps need lies in components of G - S
or G - Omega that no edge joins, so 3^|W| and 4^|W| are only upper bounds
on the partitions visited. It yields the partitions grouped by the part
of the cover on no side (the separator part, or Om), and a candidate's
cover vertices are that part, so no two groups share a candidate. The
candidates for PMCs with an active separator are the four-partition
candidates plus every closed neighborhood N[x]; the full PMC catalog adds
each separator S plus one vertex of S's component (any when S is empty):
no PMC spans two. Each route has one recognizer filter: the separator
sweep keeps what passes _min_sep_mask, and the PMC candidates go once
through PmcCatalog.collect, so each stage may over-generate freely. The
separator sweep filters one group before it makes the next: it holds the
separators kept and one group, not every candidate. The PMC walk's
candidates are held in one set, for one collect.
"""

from __future__ import annotations

from typing import Callable, Iterator

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
    # search refers to itself through its cell: emptying it lets the closure
    # go by reference counting when this returns
    del search
    return VertexSet(best_mask)


def _cover_parts(adj: tuple[int, ...], wmask: int, sides: tuple[int, ...],
                 grow: Callable[[list, int, int], list]) -> Iterator[tuple[int, list]]:
    """The walk of both cover sweeps: (part, side tuples) once per part of the cover that a walked partition has.

    The walk goes depth-first over the cover vertices, on an explicit
    stack, putting each either in the part or on a side. It carries the
    list of side tuples that the side choices so far allow, starting from
    [sides]; a side ORs its cover vertices' bits and the non-cover vertices
    that see them. A vertex put in the part leaves the list as it is. One
    put on a side replaces it by grow(tups, t, c), where t is the vertex's
    bit plus its non-cover neighbours (what it adds to a side) and c is its
    cover neighbours: grow extends each tuple on every side its sweep's rule
    allows, and an empty list ends the branch. After the last vertex the
    list is yielded with its part, so no part is yielded twice, and the walk
    holds the lists of one path plus the one yielded.
    """
    outside = ~wmask
    cover = [(1 << w, (1 << w) | adj[w] & outside, adj[w] & wmask) for w in iter_bits(wmask)]
    todo = [(0, 0, [sides])]
    while todo:
        i, part, tups = todo.pop()
        if i == len(cover):
            yield part, tups
            continue
        b, t, c = cover[i]
        todo.append((i + 1, part | b, tups))
        sided = grow(tups, t, c)
        if sided:
            todo.append((i + 1, part, sided))


def _sep_grow(pairs: list[tuple[int, int]], t: int, c: int) -> list[tuple[int, int]]:
    """Each (s1, s2) with a cover vertex on s1, and on s2 once s1 has one: see _sep_parts."""
    return ([(s1 | t, s2) for s1, s2 in pairs if not c & s2]
            + [(s1, s2 | t) for s1, s2 in pairs if s1 and not c & s1])


def _sep_parts(adj: tuple[int, ...], wmask: int) -> Iterator[set[int]]:
    """Separator candidates from the three-partitions (D1, S, D2) of the cover, one set per separator part.

    The candidate of a partition is its separator part sep plus the
    non-cover vertices that see both sides: sep | (s1 & s2), with the sides
    s1 and s2 as _cover_parts carries them (their cover bits are disjoint,
    so s1 & s2 holds only non-cover vertices). A candidate's cover vertices
    are its sep, so two partitions give the same candidate only if their
    seps are equal: each part of _cover_parts gives one set, and no other
    set holds any of its candidates.

    A minimal separator S is rebuilt from D1 = W ∩ C1 and D2 = W - S - C1
    for a full component C1 of G - S. No edge joins two components of G - S,
    so no cover edge joins D1 and D2, and a pair is not extended by a cover
    vertex on the side opposite one of its cover neighbours.

    The mirror (D2, S, D1) of a partition gives the same candidate, since
    s1 & s2 is symmetric, and is pruned alike. So s2 takes a vertex only
    once s1 has one.
    """
    for sep, pairs in _cover_parts(adj, wmask, (0, 0), _sep_grow):
        yield {sep | (s1 & s2) for s1, s2 in pairs}


def _sep_masks_by_vc(g: Graph, wmask: int) -> list[int]:
    """Verified minimal-separator masks from the three-partition sweep of the cover.

    Each component's part of the cover is swept one separator part at a
    time (see _sep_parts): the sweep holds the separators kept and one
    part's candidates, and each distinct candidate goes through the
    recognizer once. Every component gives the empty candidate, so it is
    tested once, on its own.
    """
    adj, full = g.adj, g.full_mask
    out = [0] if _min_sep_mask(adj, 0, full) else []
    for comp, _ in _components_with_nbrs(adj, full):
        for cands in _sep_parts(adj, wmask & comp):
            cands.discard(0)
            out += [m for m in cands if _min_sep_mask(adj, m, full)]
    return out


def separators_by_vc(g: Graph, w: VertexSet) -> list[VertexSet]:
    """All minimal separators of g, enumerated through the vertex cover w.

    For each three-partition (D1, S, D2) of w with no edge between D1 and D2
    the candidate is S plus every outside vertex whose neighborhood meets
    both D1 and D2; candidates are kept only if they pass the recognizer.
    The result is complete and has at most 3^|w| members.
    """
    _require_cover(g, w)
    return canonical_sets(_sep_masks_by_vc(g, w.mask))


def _pmc_grow(sides: list[tuple[int, int, int]], t: int, c: int) -> list[tuple[int, int, int]]:
    """Each (sds, sdx, sdy) with a cover vertex on sds, on sdx, and on sdy once sdx has one: see _pmc_walk."""
    return ([(ds | t, dx, dy) for ds, dx, dy in sides if not c & (dx | dy)]
            + [(ds, dx | t, dy) for ds, dx, dy in sides if not c & (ds | dy)]
            + [(ds, dx, dy | t) for ds, dx, dy in sides if dx and not c & (ds | dx)])


def _pmc_walk(adj: tuple[int, ...], wmask: int, out: set[int]) -> set[int]:
    """PMC candidates from the four-partitions (Ds, Dx, Dy, Om) of the cover and a pair choice, added to ``out``.

    The parts of _cover_parts are Om, with sides (sds, sdx, sdy). A
    non-cover vertex joins a side tuple's candidate if it sees the far side
    Ds and a near side, or sees no far side but both near sides once the
    non-cover neighborhoods of a pair (x, y) are added to sdx and sdy. Each
    of x and y ranges over no vertex and the cover vertices in Om: the
    active pair lies inside S, a subset of Omega, so a cover member of the
    pair is in Om, and a non-cover member has no non-cover neighbor, the
    same as no vertex. A candidate's cover vertices are its Om, so each
    part's candidates are its own, and its pair-member data is built once
    from it. Swapping Dx and Dy gives the same candidates, so Dy takes a
    vertex only once Dx has one.

    The walk skips every partition with a cover edge between two of Ds, Dx
    and Dy. For a PMC Omega with an active separator S = N(D), D a component
    of G - Omega, the four-partition lemma's partition has Om = W ∩ Omega and
    takes Ds from the components of G - S other than C, the one holding
    Omega - S, and Dx and Dy from the components of C - Omega that hold or
    touch x and y. Each of these is a component of G - Omega, and each puts
    its cover vertices on one side, so Ds, Dx and Dy lie in distinct
    components of G - Omega and no edge joins two of them.

    The pair. In the lemma x and y are non-adjacent vertices of S, and
    Omega - S separates x from y in G[C + x + y]: no component of
    C - Omega touches both, so Dx holds the cover vertices of the
    components touching x and Dy those touching y. So a cover member x of
    the pair (and y alike, with Dx for Dy):
    - sees no vertex of Dy: such a vertex lies in a component that touches y;
    - sees sds, or a non-cover vertex on no side (in no side's mask), since
      x is in S = N(D). D lies in G - S outside C, so a cover vertex of D is
      in Ds, and a non-cover vertex of D with a cover neighbour in D sees
      Ds and is in sds. Otherwise D is one non-cover vertex, whose
      neighbours all lie in S, inside Om, so it sees no side;
    - differs from a cover member y and is not adjacent to it.
    Only the members and pairs that pass are tried. Members whose masks
    agree are merged before the product, keeping the union of the cover
    vertices each x-mask's members may pair with (every vertex for no
    member, which pairs with anything).
    """
    nonw = ~wmask
    # a bit of no vertex, set in every x's partners: no y (-1) then pairs with any x
    top = 1 << len(adj)
    for om, sides in _cover_parts(adj, wmask, (0, 0, 0), _pmc_grow):
        # per cover vertex of Om: non-cover nbrs, nbrs, cover nbrs, the cover
        # vertices it may pair with, bit
        members = [(adj[v] & nonw, adj[v], adj[v] & wmask, wmask & ~adj[v] & ~(1 << v) | top, 1 << v)
                   for v in iter_bits(om)]
        for sds, sdx, sdy in sides:
            near = sdx | sdy
            base = om | (sds & near)
            quiet = near & ~sds & nonw
            if not quiet:
                out.add(base)
                continue
            qx, qy = quiet & sdx, quiet & sdy
            reach = sds | nonw & ~(sds | near)
            # x-mask -> its members' partners; y-mask -> its members (-1: no member)
            xs, ys = {qx: -1}, {qy: -1}
            for t, a, c, partners, b in members:
                if a & reach:
                    if not c & sdy:
                        m = qx | quiet & t
                        xs[m] = xs.get(m, 0) | partners
                    if not c & sdx:
                        m = qy | quiet & t
                        ys[m] = ys.get(m, 0) | b
            out.update([base | (mx & my) for mx, px in xs.items() for my, yb in ys.items() if px & yb])
    return out


def _active_pmc_candidates(g: Graph, wmask: int) -> set[int]:
    """PMC candidates, unfiltered, covering every PMC of g that has an active separator.

    Two generation routes: the four-partition candidates of each component's
    part of the cover (see _pmc_walk) and the closed neighborhoods N[t].
    """
    cands: set[int] = set()
    for comp, _ in _components_with_nbrs(g.adj, g.full_mask):
        _pmc_walk(g.adj, wmask & comp, cands)
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
