"""Exact treewidth and minimum fill-in from a complete PMC catalog, plus oracles.

Both solvers run one block dynamic program (Bouchitté and Todinca, SIAM J.
Comput. 2001). A block is a minimal separator S with a full component C of
g - S. Each PMC Omega is indexed once under every block it resolves (S
strictly inside Omega inside S + C), one per component of g - Omega, so a
block folds only its own PMCs; those components come with the catalog when
its filter found them. Blocks are processed by increasing
(|S + C|, |C|), which every recursive dependency strictly decreases, so a
single bottom-up pass suffices. The oracles search every vertex elimination
order instead; the graph reached after eliminating a set does not depend on
the order within the set, so the search memoizes on subsets and stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from operator import add

from .bitset import VertexSet, iter_bits
from .errors import InputError
from .graph import Graph, _component_table, _components_masks, _components_with_nbrs
from .recognition import PmcCatalog, _refuse_oversize

DEFAULT_TW_ORACLE_CAP = 9
DEFAULT_FILL_ORACLE_CAP = 8

_INF = float("inf")


@dataclass(frozen=True)
class Block:
    """DP state: a minimal separator together with one of its full components."""

    sep: VertexSet
    comp: VertexSet


def _check_solver_input(g: Graph, catalog: PmcCatalog) -> None:
    if g.n == 0:
        raise InputError("graph must be nonempty")
    if len(_components_masks(g.adj, g.full_mask)) != 1:
        raise InputError("solver requires a connected graph; split components first")
    if catalog.graph != g:
        raise InputError("catalog was built for a different graph")


def _catalog_entries(g: Graph, catalog: PmcCatalog):
    """Each PMC with the pieces (N(C), C) of the components C of g - Omega.

    A catalog from PmcCatalog.collect carries the pieces its recognizer
    found; only a catalog wrapped by from_verified is searched here.
    """
    pieces = catalog._pieces
    if pieces is None:
        adj, full = g.adj, g.full_mask
        pieces = [tuple((nb, comp) for comp, nb in _components_with_nbrs(adj, full & ~vs.mask))
                  for vs in catalog.members]
    return [(vs.mask, p) for vs, p in zip(catalog.members, pieces)]


def _block_order(entries):
    """Blocks sorted by (|S + C|, |C|); every DP dependency strictly decreases this key.

    |S + C| alone can tie between a block and its dependency, so the |C|
    tiebreak is required for a single bottom-up pass.
    """
    blocks = {piece for _, pieces in entries for piece in pieces}
    return sorted(blocks, key=lambda sc: ((sc[0] | sc[1]).bit_count(), sc[1].bit_count(), sc))


def dp_blocks(g: Graph, catalog: PmcCatalog) -> list[Block]:
    """The block states the solvers evaluate, in evaluation order."""
    _check_solver_input(g, catalog)
    return [
        Block(VertexSet(s), VertexSet(c))
        for s, c in _block_order(_catalog_entries(g, catalog))
    ]


def _block_dp(g: Graph, catalog: PmcCatalog, step, fold) -> int:
    """Minimum over the catalog's block trees of the steps combined by fold.

    For each component D of g - Omega, Omega resolves the block (S, C) with
    S = N(D) and C the full component of S holding Omega - S: g - S minus
    every component of g - Omega whose neighborhood lies inside S. A block
    folds step(Omega, S) with Omega's pieces inside C, minimized over its
    Omega; the root does the same over every Omega with S empty.
    """
    _check_solver_input(g, catalog)
    entries = _catalog_entries(g, catalog)
    full = g.full_mask
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
    """Exact treewidth of a connected graph given its complete PMC catalog."""
    return _block_dp(g, catalog, lambda om, s: om.bit_count() - 1, max)


def _fill_pairs(adj: tuple[int, ...], xmask: int) -> int:
    """Number of non-adjacent vertex pairs inside xmask."""
    cnt = 0
    for u in iter_bits(xmask):
        cnt += (xmask & ~adj[u] & ~((1 << (u + 1)) - 1)).bit_count()
    return cnt


def min_fill_in(g: Graph, catalog: PmcCatalog) -> int:
    """Exact minimum fill-in of a connected graph given its complete PMC catalog."""
    fill = cache(partial(_fill_pairs, g.adj))

    def step(om: int, s: int) -> int:
        added = fill(om) - fill(s)
        assert added >= 0, "completing a superset never removes missing pairs"
        return added

    return _block_dp(g, catalog, step, add)


# ---------------------------------------------------------------------------
# Elimination-order oracles
# ---------------------------------------------------------------------------

def _fill_adjacency(adj: tuple[int, ...], n: int, eliminated: int, table) -> list[int]:
    """Adjacency among surviving vertices after eliminating a set, as masks.

    Two survivors are adjacent iff they are adjacent in the input graph or
    both border one component of the eliminated set; those components come
    from the chain of graph._component_table's ``table``. Entries of
    eliminated vertices are not meaningful.
    """
    first, nbr = table
    alive = ((1 << n) - 1) & ~eliminated
    fa = [a & alive for a in adj]
    rest = eliminated
    while rest:
        nb = nbr[rest]
        for v in iter_bits(nb):
            fa[v] |= nb & ~(1 << v)
        rest ^= first[rest]
    return fa


def _elimination_search(g: Graph, cap: int | None, default: int, what: str, cost, fold) -> int:
    """Least fold of cost(fa, v) over all elimination orders, fa the graph v is eliminated from.

    The graph reached does not depend on the order within the eliminated set,
    so the search keeps one best value per set; every set is reached.
    """
    if g.n == 0:
        raise InputError("graph must be nonempty")
    _refuse_oversize(g.n, default if cap is None else cap, what)
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    table = _component_table(adj, n)
    dp = [_INF] * (full + 1)
    dp[0] = 0
    for s in range(full):
        base = dp[s]
        fa = _fill_adjacency(adj, n, s, table)
        for v in iter_bits(full & ~s):
            cand = fold(base, cost(fa, v))
            if cand < dp[s | (1 << v)]:
                dp[s | (1 << v)] = cand
    return dp[full]


def brute_force_treewidth(g: Graph, cap: int | None = None) -> int:
    """Exact treewidth: best over all elimination orders of the largest bag met."""
    return _elimination_search(g, cap, DEFAULT_TW_ORACLE_CAP, "treewidth",
                               lambda fa, v: fa[v].bit_count(), max)


def brute_force_fill_in(g: Graph, cap: int | None = None) -> int:
    """Exact minimum fill-in: fewest edges added over all elimination orders."""
    return _elimination_search(g, cap, DEFAULT_FILL_ORACLE_CAP, "fill-in",
                               lambda fa, v: _fill_pairs(fa, fa[v]), add)
