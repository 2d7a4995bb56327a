"""Exact treewidth and minimum fill-in: from a PMC catalog, along the modular tree, and by oracles.

The catalog solvers run one block dynamic program (Bouchitté and Todinca, SIAM J.
Comput. 2001). A block is a minimal separator S with a full component C of
g - S. Each PMC Omega is indexed once under every block it resolves (S
strictly inside Omega inside S + C), one per component of g - Omega, so a
block folds only its own PMCs; every catalog carries those components, as
the recognizer, the subset scan or the listing that verified Omega found
them, so the DP runs no component search. Blocks are processed by increasing
(|S + C|, |C|), which every recursive dependency strictly decreases, so a
single bottom-up pass suffices. The root folds one block (empty, C) per
component C of g, so the solvers take any graph. The oracles search every
vertex elimination order instead, memoized on the eliminated set S, since
the graph reached does not depend on the order within S; the vertex v
eliminated next borders Q(S, v), the neighbourhood of v's component in
G[S + v] (Bodlaender, Fomin, Koster, Kratsch and Thilikos, ESA 2006),
which graph._component_table stores. The tree solver of the mw route
walks the modular decomposition: closed forms at union and join nodes, and
at every prime node the block DP over its quotient's PMC listing, each
quotient vertex weighted by its module, plus one entry per module child.
A prime quotient of single vertices first loses its simplicial vertices
(_simplicial_core), and treewidth lists no PMCs where _tw_bracket
(minor-min-width below, the greedy min-fill width above) closes on what
is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from operator import add

from .bitset import VertexSet, iter_bits
from .errors import InputError
from .graph import Graph, _component_table, _components_with_nbrs
from .modular import ModuleNode, ModuleTree, _node_parts, _post_order
from .recognition import PmcCatalog, _pmc_listing, _refuse_oversize

_INF = float("inf")


@dataclass(frozen=True)
class Block:
    """DP state: a minimal separator together with one of its full components."""

    sep: VertexSet
    comp: VertexSet


def _catalog_entries(g: Graph, catalog: PmcCatalog):
    """Each PMC of g's catalog with its pieces (N(C), C), C a component of g - Omega.

    Refuses an empty g and a catalog of another graph.
    """
    if g.n == 0:
        raise InputError("graph must be nonempty")
    if catalog.graph != g:
        raise InputError("catalog was built for a different graph")
    return [(vs.mask, p) for vs, p in zip(catalog.members, catalog._pieces)]


def _block_order(entries):
    """Blocks sorted by (|S + C|, |C|); every DP dependency strictly decreases this key.

    |S + C| alone can tie between a block and its dependency, so the |C|
    tiebreak is required for a single bottom-up pass.
    """
    blocks = {piece for _, pieces in entries for piece in pieces}
    return sorted(blocks, key=lambda sc: ((sc[0] | sc[1]).bit_count(), sc[1].bit_count(), sc))


def dp_blocks(g: Graph, catalog: PmcCatalog) -> list[Block]:
    """The block states the solvers evaluate, in evaluation order."""
    order = _block_order(_catalog_entries(g, catalog))
    return [Block(VertexSet(s), VertexSet(c)) for s, c in order]


def _block_dp(adj: tuple[int, ...], full: int, entries, problem: str, kids=None) -> int:
    """Treewidth ('tw') or minimum fill-in ('fillin') of the graph g on adj and full from its PMCs.

    ``entries`` are the (Omega, pieces) pairs of every PMC of g, as a
    catalog or _pmc_listing gives them. For each component D of g - Omega,
    Omega resolves the block (S, C) with S = N(D) and C the full component
    of S holding Omega - S: g - S minus every component of g - Omega whose
    neighborhood lies inside S. A block folds step(Omega, S) with Omega's
    pieces inside C, by max (the bag size less one) or + (the pairs Omega
    adds to S), minimized over its Omega. The root does the same over
    every Omega with S empty, folding one block (empty, C) for each
    component C of g without Omega, so it combines the components of a
    disconnected graph.

    With ``kids``, g is the quotient H of a prime module M and kids[i] =
    (value, w_i, e_i) gives child M_i's treewidth or fill-in, vertex count
    and edge count. w(X) counts the vertices of X's expansion and F(X) its
    missing pairs (m_i = C(w_i, 2) - e_i inside each M_i, w_i * w_j for each
    non-edge ij of H). A listed Omega takes its modules whole, at w(Omega)
    - 1 or F(Omega) - F(S). Each child with w_i > 1 adds the entry N_H[i],
    whose pieces are the components of H - N_H[i], for the bags N(M_i) +
    Omega', Omega' over an optimal triangulation of G[M_i]: w(N_H(i)) +
    tw_i or F(N_H[i]) - F(S) - m_i + fill_i. Where N_H[i] is listed too,
    with the same pieces, the entry undercuts it by w_i - 1 - tw_i or m_i
    - fill_i >= 0, so one saving per Omega does. Every entry triangulates
    its block, so each value reached is achievable. Completeness
    (Bodlaender and Rotics, Algorithmica 2003): each PMC of G[M] is a
    listed Omega expanded or N(M_i) + Omega', Omega' a PMC of G[M_i]
    (modular._node_candidates), and the DP over those reaches tw or fill
    of G[M]. All N(M_i) + Omega' share their pieces outside M_i, so the
    least over Omega' is the one N_H[i] entry; an expanded Omega's pieces
    are H's expanded, a piece {j} splitting into M_j's components, whose
    blocks only N[M_j] resolves.
    """
    tw = problem == "tw"
    saving: dict[int, int] = {}
    if kids is not None:
        entries = dict(entries)
        for i in iter_bits(full):
            value, w, e = kids[i]
            if w > 1:
                closed = adj[i] | 1 << i
                saving[closed] = w - 1 - value if tw else w * (w - 1) // 2 - e - value
                entries.setdefault(closed, tuple((nb, c) for c, nb in _components_with_nbrs(adj, full & ~closed)))
        entries = entries.items()
    if tw:
        weight = int.bit_count if kids is None else cache(lambda x: sum(kids[v][1] for v in iter_bits(x)))
        step, fold = (lambda om, s: weight(om) - 1 - saving.get(om, 0)), max
    else:
        fill, fold = cache(partial(_fill_pairs, adj, kids=kids)), add

        def step(om: int, s: int) -> int:
            added = fill(om) - fill(s) - saving.get(om, 0)
            assert added >= 0, "completing a superset never removes missing pairs"
            return added

    index: dict[tuple[int, int], dict[int, tuple]] = {}
    for om, pieces in entries:
        for s, _ in pieces:
            c = full & ~s
            for nb, comp in pieces:
                if not nb & ~s:
                    c &= ~comp
            resolves = index.setdefault((s, c), {})
            if om not in resolves:
                resolves[om] = tuple(p for p in pieces if not p[1] & ~c)

    val: dict[tuple[int, int], float] = {}

    def best(s: int, choices) -> float:
        out = _INF
        for om, pieces in choices:
            cur = step(om, s)
            for piece in pieces:
                cur = fold(cur, val[piece])
            if cur < out:
                out = cur
        return out

    for block in _block_order(entries):
        val[block] = best(block[0], index.get(block, {}).items())
    answer = best(0, entries)
    if answer == _INF:
        raise InputError("PMC catalog is incomplete for this graph")
    return int(answer)


def treewidth(g: Graph, catalog: PmcCatalog) -> int:
    """Exact treewidth of a graph given its complete PMC catalog."""
    return _block_dp(g.adj, g.full_mask, _catalog_entries(g, catalog), "tw")


def _fill_pairs(adj: tuple[int, ...], xmask: int, kids=None) -> int:
    """Number of non-adjacent vertex pairs inside xmask, or inside its expansion by kids (see _block_dp)."""
    cnt = 0
    for u in iter_bits(xmask):
        rest = xmask & ~adj[u] & ~((1 << (u + 1)) - 1)
        if kids is None:
            cnt += rest.bit_count()
        else:
            _, w, e = kids[u]
            cnt += w * (w - 1) // 2 - e + w * sum(kids[v][1] for v in iter_bits(rest))
    return cnt


def min_fill_in(g: Graph, catalog: PmcCatalog) -> int:
    """Exact minimum fill-in of a graph given its complete PMC catalog."""
    return _block_dp(g.adj, g.full_mask, _catalog_entries(g, catalog), "fillin")


# ---------------------------------------------------------------------------
# Elimination search: the oracles
# ---------------------------------------------------------------------------

def _elimination_search(adj: tuple[int, ...], problem: str) -> int:
    """Treewidth ('tw'), or the fewest edges of a chordal supergraph ('fillin'), of the graph on adj.

    Vertex v eliminated after a set S borders, in the filled graph, Q(S,
    v): N(C) for v's component C of G[S + v], which lies outside S + v
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos, "On exact algorithms
    for treewidth", ESA 2006). The walk c = S + v, c - first[c], ... of
    graph._component_table meets C as first[c], where nbr[c] = N(C). Its
    bag has |Q| + 1 vertices, and it adds |Q| edges to the chordal
    supergraph; the fill-in is that total less the graph's edges. So
    best(S + v) is the least fold(best(S), |Q(S, v)|), fold max for
    treewidth and + for fill, and best(V) is the answer.
    """
    n = len(adj)
    full = (1 << n) - 1
    fold = max if problem == "tw" else add
    first, nbr = _component_table(adj, n)
    dp = [_INF] * (full + 1)
    dp[0] = 0
    for s in range(full):
        base = dp[s]
        rest = full & ~s
        while rest:
            low = rest & -rest
            rest ^= low
            c = s | low
            while not first[c] & low:
                c ^= first[c]
            cand = fold(base, nbr[c].bit_count())
            if cand < dp[s | low]:
                dp[s | low] = cand
    return dp[full]


def _oracle_search(g: Graph, cap: int | None, what: str, problem: str) -> int:
    if g.n == 0:
        raise InputError("graph must be nonempty")
    _refuse_oversize(g.n, cap, what)
    value = _elimination_search(g.adj, problem)
    return value if problem == "tw" else value - g.m


def brute_force_treewidth(g: Graph, cap: int | None = None) -> int:
    """Exact treewidth: best over all elimination orders of the largest bag met."""
    return _oracle_search(g, cap, "treewidth", "tw")


def brute_force_fill_in(g: Graph, cap: int | None = None) -> int:
    """Exact minimum fill-in: fewest edges added over all elimination orders."""
    return _oracle_search(g, cap, "fill-in", "fillin")


def _tw_bracket(adj: tuple[int, ...], full: int) -> tuple[int, int]:
    """(lb, ub) with lb <= tw <= ub for the graph on adj and full; ties go to the lowest vertex.

    lb is minor-min-width (Gogate and Dechter, UAI 2004): contract a vertex
    of minimum degree d into its neighbour of minimum degree, or delete it
    when d = 0, and keep the largest d met. Each graph met is a minor of g,
    treewidth never grows under minors, and the first vertex of any
    elimination order of a graph of minimum degree d has a bag of d + 1.
    ub is the width of the greedy min-fill elimination order (Bodlaender
    and Koster, Inf. Comput. 2010), and no order is narrower than tw. So
    when lb == ub, that is tw, and no PMC need be listed.
    """
    nb = [a & full for a in adj]
    lb, alive = 0, full
    while alive & (alive - 1):
        v = min(iter_bits(alive), key=lambda x: nb[x].bit_count())
        d, bit = nb[v], 1 << v
        lb, alive = max(lb, d.bit_count()), alive ^ bit
        if d:
            u = min(iter_bits(d), key=lambda x: nb[x].bit_count())
            into = 1 << u
            for w in iter_bits(d & ~into):
                nb[w] = nb[w] & ~bit | into
            nb[u] = (nb[u] | d) & ~bit & ~into
    closed = [(a | 1 << v) & full for v, a in enumerate(adj)]
    ub, alive = 0, full
    while alive:
        v = min(iter_bits(alive),
                key=lambda x: sum((closed[x] & ~closed[y]).bit_count() for y in iter_bits(closed[x])))
        d = closed[v] & ~(1 << v)
        ub, alive = max(ub, d.bit_count()), alive ^ (1 << v)
        for u in iter_bits(d):
            closed[u] = (closed[u] | d) & ~(1 << v)
    return lb, ub


# ---------------------------------------------------------------------------
# Solving along the modular decomposition tree
# ---------------------------------------------------------------------------

def _simplicial_core(adj: tuple[int, ...], space: int) -> tuple[int, int]:
    """(low, core): the subgraph on ``space`` stripped of simplicial vertices, one at a time.

    A vertex v whose neighbourhood is a clique can go first at no cost:
    tw(G) = max(d(v), tw(G - v)), as some bag of every tree decomposition
    holds the clique N[v], and one of G - v takes N[v] as a new bag beside
    a bag holding the clique N(v); and fill(G) = fill(G - v), as a
    triangulation of G - v plus v is one of G. Removing v can only make
    its neighbours simplicial, so only they are checked again. low is the
    largest degree removed; core is empty exactly when the subgraph is
    chordal, since every chordal graph has a simplicial vertex (Dirac 1961).
    """
    low, core, todo = 0, space, space
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo ^= 1 << v
        nb = adj[v] & core
        if all(not nb & ~adj[u] & ~(1 << u) for u in iter_bits(nb)):
            low, core, todo = max(low, nb.bit_count()), core ^ (1 << v), todo | nb
    return low, core


def _node_value(node: ModuleNode, kids: list, problem: str) -> tuple[int, int, int]:
    """(value, |M|, e(M)) of the module M of a node, from the triples of its children."""
    if node.kind == "leaf":
        return 0, 1, 0
    w, tw, q = len(node.vertices), problem == "tw", node.quotient
    e = sum(k[2] for k in kids) + sum(kids[i][1] * kids[j][1] for i, j in q.edges())
    if node.kind == "union":
        value = (max if tw else sum)(k[0] for k in kids)
    elif node.kind == "join":
        # all but one child end up cliques (Bodlaender and Möhring 1993; a
        # non-edge in each of two children would leave a chordless 4-cycle)
        if tw:
            value = min(kv + w - kw for kv, kw, _ in kids)
        else:
            missing = [kw * (kw - 1) // 2 - ke for _, kw, ke in kids]
            value = sum(missing) + min(kv - m for (kv, _, _), m in zip(kids, missing))
    else:
        leaves = all(c.kind == "leaf" for c in node.children)
        low, core = _simplicial_core(q.adj, q.full_mask) if leaves else (0, q.full_mask)
        lb, ub = _tw_bracket(q.adj, core) if tw and leaves else (0, _INF if core else 0)
        value = max(low, lb) if tw else 0
        if value < ub:
            entries = _pmc_listing(q.adj, core)[1].items()
            value = max(value, _block_dp(q.adj, core, entries, problem, None if leaves else kids))
    return value, w, e


def _solve_tree(tree: ModuleTree, problem: str) -> int:
    """Treewidth ('tw') or minimum fill-in of a graph along its modular decomposition tree.

    Walks the tree bottom-up with modular._post_order and keeps (value,
    |M|, e(M)) for each module M. A union takes the max (treewidth) or sum
    (fill-in) of its children, and a join the best child solved inside
    with every other child completed. Every prime node runs _block_dp over
    its quotient's PMC listing, weighted by its children. That is complete,
    as each PMC of the node's subgraph holds or misses every child whole (a
    quotient PMC expanded) or is N(M_i) plus a PMC of one child M_i, whose
    best is the child's own value (see _block_dp). A quotient of single
    vertices first loses its simplicial vertices, and treewidth lists
    nothing there when the _tw_bracket of the rest closes.
    """
    return _post_order(tree.root, _node_parts, lambda node, kids: _node_value(node, kids, problem))[0]
