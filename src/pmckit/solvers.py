"""Exact treewidth and minimum fill-in from a complete PMC catalog, plus oracles.

The solvers run the standard block dynamic program: a block is a minimal
separator S together with a full component C of g - S, and each block is
resolved by scanning the catalog for cliques Omega with S strictly inside
Omega inside S + C. Blocks are processed by increasing (|S + C|, |C|), which
every recursive dependency strictly decreases, so a single bottom-up pass
suffices. The oracles search every vertex elimination order instead; the
graph reached after eliminating a set does not depend on the order within the
set, so the search memoizes on subsets and stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import VertexSet, iter_bits
from .errors import CapExceeded, InputError
from .graph import Graph, _components_masks, _components_with_nbrs
from .recognition import PmcCatalog

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
    """Each PMC with the components of g - Omega and their neighborhoods."""
    adj = g.adj
    full = g.full_mask
    entries = []
    for vs in catalog.members:
        om = vs.mask
        pieces = tuple((nb, comp) for comp, nb in _components_with_nbrs(adj, full & ~om))
        entries.append((om, pieces))
    return entries


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


def treewidth(g: Graph, catalog: PmcCatalog) -> int:
    """Exact treewidth of a connected graph given its complete PMC catalog."""
    _check_solver_input(g, catalog)
    entries = _catalog_entries(g, catalog)
    val: dict[tuple[int, int], float] = {}
    for s, c in _block_order(entries):
        lim = s | c
        best = _INF
        for om, pieces in entries:
            if (s & ~om) or not (om & ~s) or (om & ~lim):
                continue
            cur: float = om.bit_count() - 1
            for nb2, c2 in pieces:
                if c2 & ~c:
                    continue
                sub = val[(nb2, c2)]
                if sub > cur:
                    cur = sub
            if cur < best:
                best = cur
        val[(s, c)] = best
    answer = _INF
    for om, pieces in entries:
        cur: float = om.bit_count() - 1
        for piece in pieces:
            sub = val[piece]
            if sub > cur:
                cur = sub
        if cur < answer:
            answer = cur
    if answer == _INF:
        raise InputError("PMC catalog is incomplete for this graph")
    return int(answer)


def _fill_pairs(adj: tuple[int, ...], xmask: int) -> int:
    """Number of non-adjacent vertex pairs inside xmask."""
    cnt = 0
    for u in iter_bits(xmask):
        cnt += (xmask & ~adj[u] & ~((1 << (u + 1)) - 1)).bit_count()
    return cnt


def min_fill_in(g: Graph, catalog: PmcCatalog) -> int:
    """Exact minimum fill-in of a connected graph given its complete PMC catalog."""
    _check_solver_input(g, catalog)
    adj = g.adj
    entries = _catalog_entries(g, catalog)
    fill_cache: dict[int, int] = {}

    def fill(mask: int) -> int:
        got = fill_cache.get(mask)
        if got is None:
            got = fill_cache[mask] = _fill_pairs(adj, mask)
        return got

    val: dict[tuple[int, int], float] = {}
    for s, c in _block_order(entries):
        lim = s | c
        fs = fill(s)
        best = _INF
        for om, pieces in entries:
            if (s & ~om) or not (om & ~s) or (om & ~lim):
                continue
            step = fill(om) - fs
            assert step >= 0, "completing a superset never removes missing pairs"
            cur: float = step
            for nb2, c2 in pieces:
                if c2 & ~c:
                    continue
                cur += val[(nb2, c2)]
            if cur < best:
                best = cur
        val[(s, c)] = best
    answer = _INF
    for om, pieces in entries:
        cur: float = fill(om)
        for piece in pieces:
            cur += val[piece]
        if cur < answer:
            answer = cur
    if answer == _INF:
        raise InputError("PMC catalog is incomplete for this graph")
    return int(answer)


# ---------------------------------------------------------------------------
# Elimination-order oracles
# ---------------------------------------------------------------------------

def _fill_adjacency(adj: tuple[int, ...], n: int, eliminated: int) -> list[int]:
    """Adjacency among surviving vertices after eliminating a set, as masks.

    Two survivors are adjacent iff they are adjacent in the input graph or
    joined by a path whose interior lies in the eliminated set.
    """
    alive = ((1 << n) - 1) & ~eliminated
    fa = [0] * n
    for v in iter_bits(alive):
        acc = adj[v]
        seen = 0
        frontier = adj[v] & eliminated
        while frontier:
            seen |= frontier
            nxt = 0
            for b in iter_bits(frontier):
                nxt |= adj[b]
            acc |= nxt
            frontier = nxt & eliminated & ~seen
        fa[v] = acc & alive & ~(1 << v)
    return fa


def _check_oracle_cap(g: Graph, cap: int | None, default: int, what: str) -> None:
    cap = default if cap is None else cap
    if g.n == 0:
        raise InputError("graph must be nonempty")
    if g.n > cap:
        raise CapExceeded(f"{what} oracle refused: n={g.n} exceeds cap {cap}")


def brute_force_treewidth(g: Graph, cap: int | None = None) -> int:
    """Exact treewidth: best over all elimination orders of the largest bag met.

    Search over orders collapses to subsets of already-eliminated vertices.
    """
    _check_oracle_cap(g, cap, DEFAULT_TW_ORACLE_CAP, "treewidth")
    n = g.n
    adj = g.adj
    size = 1 << n
    full = size - 1
    dp = [n] * size  # width never reaches n, so n acts as infinity
    dp[0] = -1
    for s in range(size):
        base = dp[s]
        if base >= n:
            continue
        fa = _fill_adjacency(adj, n, s)
        for v in iter_bits(full & ~s):
            deg = fa[v].bit_count()
            w = base if base > deg else deg
            t = s | (1 << v)
            if w < dp[t]:
                dp[t] = w
    return dp[full]


def brute_force_fill_in(g: Graph, cap: int | None = None) -> int:
    """Exact minimum fill-in: fewest edges added over all elimination orders."""
    _check_oracle_cap(g, cap, DEFAULT_FILL_ORACLE_CAP, "fill-in")
    n = g.n
    adj = g.adj
    size = 1 << n
    full = size - 1
    big = n * n
    dp = [big] * size
    dp[0] = 0
    for s in range(size):
        base = dp[s]
        if base >= big:
            continue
        fa = _fill_adjacency(adj, n, s)
        for v in iter_bits(full & ~s):
            nb = fa[v]
            added = 0
            for u in iter_bits(nb):
                added += (nb & ~fa[u] & ~((1 << (u + 1)) - 1)).bit_count()
            t = s | (1 << v)
            cand = base + added
            if cand < dp[t]:
                dp[t] = cand
    return dp[full]
