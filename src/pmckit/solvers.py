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
combines both along the modular decomposition: closed forms at union and
join nodes, the block DP on each prime quotient of single vertices, and
the same elimination search, with module weights, on a prime quotient of
modules. Treewidth lists no PMCs where _tw_bracket (minor-min-width
below, the greedy min-fill width above) closes on the graph to be listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from operator import add

from .bitset import VertexSet, iter_bits
from .errors import InputError
from .graph import Graph, _component_table, induced_subgraph
from .modular import ModuleNode, ModuleTree, _post_order, enumerate_by_mw
from .recognition import PmcCatalog, _pmc_listing, _refuse_oversize

# Largest quotient of a prime node with module children that the tree solver
# searches by subsets (2^q sets); above it the node's subgraph is solved from
# its PMC catalog.
_QUOTIENT_DP_CAP = 11

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


def _block_dp(adj: tuple[int, ...], full: int, entries, problem: str) -> int:
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
    """
    if problem == "tw":
        step, fold = (lambda om, s: om.bit_count() - 1), max
    else:
        fill, fold = cache(partial(_fill_pairs, adj)), add

        def step(om: int, s: int) -> int:
            added = fill(om) - fill(s)
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


def _fill_pairs(adj: tuple[int, ...], xmask: int) -> int:
    """Number of non-adjacent vertex pairs inside xmask."""
    cnt = 0
    for u in iter_bits(xmask):
        cnt += (xmask & ~adj[u] & ~((1 << (u + 1)) - 1)).bit_count()
    return cnt


def min_fill_in(g: Graph, catalog: PmcCatalog) -> int:
    """Exact minimum fill-in of a graph given its complete PMC catalog."""
    return _block_dp(g.adj, g.full_mask, _catalog_entries(g, catalog), "fillin")


# ---------------------------------------------------------------------------
# Elimination search: the oracles and the prime step of the tree solver
# ---------------------------------------------------------------------------

def _elimination_search(adj: tuple[int, ...], modules, problem: str) -> int:
    """Treewidth ('tw'), or the fewest edges of a chordal supergraph ('fillin'), of a substitution.

    The graph is the one on adj with vertex i replaced by a module:
    ``modules[i]`` is (value, w, e), the module's treewidth or fill-in, its
    vertex count and its edge count; a plain vertex is (0, 1, 0). Some
    optimal elimination order eliminates each module whole (Bodlaender and
    Rotics, Algorithmica 2003). Module v eliminated after a set S borders,
    in full, Q(S, v): N(C) for v's component C of G[S + v], which lies
    outside S + v (Bodlaender, Fomin, Koster, Kratsch and Thilikos, "On
    exact algorithms for treewidth", ESA 2006). The walk c = S + v,
    c - first[c], ... of graph._component_table meets C as first[c], where
    nbr[c] = N(C). Module v is already a clique when one of its neighbours
    lies in S. Its largest bag then has w(Q) + w_v - 1 vertices, else
    w(Q) + tw_v. It adds w_v * w(Q) edges to the chordal supergraph, plus
    C(w_v, 2), else e_v + fill_v, inside; the fill-in is that total less the
    graph's edges. So best(S + v) is the least fold(best(S), cost(S, v)),
    fold max for treewidth and + for fill, and best(V) is the answer.
    """
    n = len(adj)
    full = (1 << n) - 1
    sizes = [w for _, w, _ in modules]
    if problem == "tw":
        fold, scale = max, [1] * n
        merged = [w - 1 for w in sizes]
        own = [value for value, _, _ in modules]
    else:
        fold, scale = add, sizes
        merged = [w * (w - 1) // 2 for w in sizes]
        own = [value + e for value, _, e in modules]
    if max(sizes) == 1:
        weight = int.bit_count
    else:
        weights = [0] * (full + 1)
        for m in range(1, full + 1):
            low = m & -m
            weights[m] = weights[m ^ low] + sizes[low.bit_length() - 1]
        weight = weights.__getitem__
    first, nbr = _component_table(adj, n)
    dp = [_INF] * (full + 1)
    dp[0] = 0
    for s in range(full):
        base = dp[s]
        rest = full & ~s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            c = s | low
            while not first[c] & low:
                c ^= first[c]
            cand = fold(base, scale[v] * weight(nbr[c]) + (merged[v] if adj[v] & s else own[v]))
            if cand < dp[s | low]:
                dp[s | low] = cand
    return dp[full]


def _oracle_search(g: Graph, cap: int | None, what: str, problem: str) -> int:
    if g.n == 0:
        raise InputError("graph must be nonempty")
    _refuse_oversize(g.n, cap, what)
    value = _elimination_search(g.adj, [(0, 1, 0)] * g.n, problem)
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

def _by_catalog(node: ModuleNode) -> bool:
    """True for a prime node the tree solver hands to the catalog of its subgraph."""
    return (node.kind == "prime" and len(node.children) > _QUOTIENT_DP_CAP
            and any(c.kind != "leaf" for c in node.children))


def _node_value(g: Graph, node: ModuleNode, kids: list, problem: str) -> tuple[int, int, int]:
    """(value, |M|, e(M)) of the module M of a node, from the triples of its children."""
    if node.kind == "leaf":
        return 0, 1, 0
    w, tw = len(node.vertices), problem == "tw"
    if _by_catalog(node):
        sub, _ = induced_subgraph(g, node.vertices)
        value, ub = _tw_bracket(sub.adj, sub.full_mask) if tw else (0, _INF)
        if value != ub:
            entries = _catalog_entries(sub, enumerate_by_mw(sub, what="pmcs")[1])
            value = _block_dp(sub.adj, sub.full_mask, entries, problem)
        return value, w, sub.m
    q = node.quotient
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
    elif all(c.kind == "leaf" for c in node.children):
        value, ub = _tw_bracket(q.adj, q.full_mask) if tw else (0, _INF)
        if value != ub:
            value = _block_dp(q.adj, q.full_mask, _pmc_listing(q.adj, q.full_mask)[1].items(), problem)
    else:
        value = _elimination_search(q.adj, kids, problem) - (0 if tw else e)
    return value, w, e


def _solve_tree(tree: ModuleTree, problem: str) -> int:
    """Treewidth ('tw') or minimum fill-in of a graph along its modular decomposition tree.

    Walks the tree bottom-up with modular._post_order and keeps (value,
    |M|, e(M)) for each module M. A union takes the max (treewidth) or sum
    (fill-in) of its children, and a join the best child solved inside
    with every other child completed. A prime node whose children are all
    single vertices is its own quotient, solved by the block DP over the
    quotient's PMC listing; a prime node with module children runs the
    weighted elimination search over its quotient, or above
    _QUOTIENT_DP_CAP children the block DP over the catalog of its
    subgraph, whose subtree is then not walked. Treewidth lists neither
    the quotient nor the subgraph when its _tw_bracket closes.
    """
    return _post_order(tree.root, lambda node: (node, () if _by_catalog(node) else node.children),
                       lambda node, kids: _node_value(tree.graph, node, kids, problem))[0]
