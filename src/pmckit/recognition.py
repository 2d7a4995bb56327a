"""Recognizers for minimal separators and potential maximal cliques, and listings on them.

The recognizers are the ground truth of the package: every enumeration route
(vertex-cover based, modular-width based, or exhaustive) only ever emits
candidates that pass them, so over-generation anywhere upstream is harmless.
The exhaustive scan keeps no table of components. A first pass grows every
connected set C once, from its lowest vertex, and S is a minimal separator
exactly when two of them have N(C) = S. A second pass tests as a PMC only
the complement m of a union of pairwise disjoint, non-adjacent full blocks,
connected sets whose neighborhood is a separator, and only when no block
borders all of m, with the recognizer's own pair test. That misses no PMC:
every component C of G - Omega is a full component of N(C), and N(C) is a
minimal separator (Bouchitté and Todinca's lemma). A union is skipped with
every union grown from it once some vertex that stays in m can no longer
have its pairs covered. Every other search for components of G - X goes
through graph._grow. Each PMC producer keeps the components of G - Omega it
met, and every PMC catalog carries them for the solvers' block DP.
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from .bitset import VertexSet, canonical_sets, iter_bits
from .errors import CapExceeded, InputError
from .graph import Graph, _components_with_nbrs, _grow, _validate_subset

# Subset oracles refuse graphs above this size unless told otherwise.
DEFAULT_ORACLE_CAP = 16
# No subset oracle runs above this size, whatever its cap: the elimination
# oracles' component table has 2^n slots (8 MiB at 20 vertices), and so has
# the subset scan's index of the neighborhoods it meets (4 MiB at 20).
_ORACLE_CEILING = 20
# Components PmcCatalog.collect remembers per lowest vertex: candidates share
# most components of G - Omega, and the last few found hold most of the reuse.
_MEMO_DEPTH = 4


def _min_sep_mask(adj: tuple[int, ...], smask: int, space: int) -> bool:
    """True iff space - smask has >= 2 components whose neighborhood is exactly smask.

    smask lies inside space. A full component sees every vertex of smask, so
    it holds a neighbor of smask's lowest vertex v: only components grown
    from the seeds N(v) - smask can be full (for empty smask every component
    is full, and every vertex seeds). A component C grown inside
    space - smask reaches only C and smask within space, so it is full iff
    its reach holds smask.
    """
    rest = space & ~smask
    seeds = adj[(smask & -smask).bit_length() - 1] & rest if smask else rest
    fulls = 0
    while seeds:
        if not fulls and not seeds & (seeds - 1):
            return False
        comp, reach = _grow(adj, seeds & -seeds, rest)
        if not smask & ~reach:
            fulls += 1
            if fulls == 2:
                return True
        seeds &= ~comp
    return False


def _pmc_pieces(adj: tuple[int, ...], om: int, space: int, known: defaultdict | None = None):
    """The pieces (N(C) & space, C) of om, or None when om is no PMC of the subgraph on space.

    The pieces are the components C of space - om, by lowest vertex. om is a
    potential maximal clique iff every N(C) & space is a strict subset of om
    and every non-adjacent pair inside om is seen by a common component; the
    first component seeing all of om ends the search.

    The search takes the component of rem's lowest vertex v, rem being what
    is left of space - om. ``known`` maps the bit of v to a bounded deque of
    the last components grown from v, as (C, N[C]) pairs; each call reads
    and extends it. A connected C inside rem with no neighbor in rem is
    exactly a component of G[rem], so a stored C is taken when
    N[C] & rem == C, one AND per try, and grown afresh otherwise.
    """
    rem = space & ~om
    pieces = []
    while rem:
        low = rem & -rem
        recent = () if known is None else known[low]
        for comp, closed in recent:
            if closed & rem == comp:
                break
        else:
            comp, closed = _grow(adj, low, rem)
            closed |= comp
            if known is not None:
                recent.appendleft((comp, closed))
        s = closed & ~comp & space
        if s == om:
            return None
        pieces.append((s, comp))
        rem &= ~comp
    return tuple(pieces) if _pairs_covered(adj, om, [s for s, _ in pieces]) else None


def _pairs_covered(adj: tuple[int, ...], om: int, seps: Sequence[int]) -> bool:
    """True iff every non-adjacent pair inside ``om`` lies in one of ``seps``."""
    return not _stranded(adj, om, 0, seps)


def _stranded(adj: tuple[int, ...], stay: int, later: int, seps: Sequence[int]) -> bool:
    """True iff some v in ``stay`` with no neighbor in ``later`` has N[v] plus the ``seps`` holding v short of ``stay``."""
    rest = stay
    while rest:
        bit = rest & -rest
        rest ^= bit
        cov = adj[bit.bit_length() - 1] | bit
        if cov & later or not stay & ~cov:
            continue
        for s in seps:
            if s & bit:
                cov |= s
        if stay & ~cov:
            return True
    return False


def is_minimal_separator(g: Graph, s: VertexSet) -> bool:
    """True iff g - s has at least two full components associated to s.

    The empty set qualifies exactly when g is disconnected.
    """
    _validate_subset(g, s)
    return _min_sep_mask(g.adj, s.mask, g.full_mask)


def is_pmc(g: Graph, omega: VertexSet) -> bool:
    """True iff ``omega`` is a potential maximal clique of g."""
    if not omega:
        raise InputError("omega must be nonempty")
    _validate_subset(g, omega)
    return _pmc_pieces(g.adj, omega.mask, g.full_mask) is not None


def is_minimal_uv_separator(g: Graph, s: VertexSet, u: int, v: int) -> bool:
    """True iff s is a minimal u,v-separator: u and v lie in distinct full components of g - s."""
    g._check_vertex(u)
    g._check_vertex(v)
    _validate_subset(g, s)
    if u == v or u in s or v in s:
        return False
    # u and v lie outside s, so each is in exactly one component of g - s.
    space = g.full_mask & ~s.mask
    cu, ru = _grow(g.adj, 1 << u, space)
    if (cu >> v) & 1:
        return False
    cv, rv = _grow(g.adj, 1 << v, space)
    return ru & ~cu == rv & ~cv == s.mask


@dataclass(frozen=True)
class PmcCatalog:
    """Deduplicated, verified collection of potential maximal cliques of one graph.

    Every catalog keeps its pieces: for each member Omega in order, the
    pairs (N(C), C) for the components C of g - Omega, by lowest vertex, as
    the producer that verified Omega found them (the recognizer, the subset
    scan or the listing), so the block DP does not search them again.
    """

    graph: Graph
    members: tuple[VertexSet, ...]
    _pieces: tuple = field(compare=False, repr=False)

    @classmethod
    def collect(cls, g: Graph, candidate_masks) -> "PmcCatalog":
        """Filter candidates through the PMC recognizer, dedupe, sort canonically.

        The candidates share one component memo (see _pmc_pieces).
        """
        adj, full = g.adj, g.full_mask
        known, kept = defaultdict(partial(deque, maxlen=_MEMO_DEPTH)), {}
        for m in candidate_masks:
            if m:
                pieces = _pmc_pieces(adj, m, full, known)
                if pieces is not None:
                    kept[m] = pieces
        return cls.from_pieces(g, kept)

    @classmethod
    def from_pieces(cls, g: Graph, pieces: dict) -> "PmcCatalog":
        """Wrap {Omega: pieces} whose masks are PMCs of g, found with their pieces."""
        members = tuple(canonical_sets(pieces))
        return cls(g, members, tuple(pieces[vs.mask] for vs in members))

    def mask_set(self) -> frozenset[int]:
        return frozenset(vs.mask for vs in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


# ---------------------------------------------------------------------------
# Listings: output-sensitive (polynomial work per object) and exhaustive
# ---------------------------------------------------------------------------

def _separator_closure(adj: tuple[int, ...], space: int) -> list[int]:
    """Minimal separators of the subgraph on ``space`` (Berry, Bordat, Cogis).

    Seeds are N(C) for each component C of space - N[v]; each separator S
    found adds N(C) for each component C of space - (S + N(x)), x in S, until
    nothing new appears. Each distinct candidate passes the recognizer once.
    """
    seps, seen = [], set()
    todo = [adj[v] | (1 << v) for v in iter_bits(space)]
    while todo:
        for _, nb in _components_with_nbrs(adj, space & ~todo.pop()):
            s = nb & space
            if s not in seen:
                seen.add(s)
                if _min_sep_mask(adj, s, space):
                    seps.append(s)
                    todo.extend(s | adj[x] for x in iter_bits(s))
    return seps


def _prefix_separators(adj: tuple[int, ...], space: int) -> list[list[int]]:
    """Minimal separators of each prefix of ``space``: entry i is for its i + 1 lowest vertices.

    One closure runs, on the whole space. Going down one vertex a at a time,
    a minimal separator S of prefix P either stays one of P + a or S + a is
    one (Bouchitté and Todinca), so S is T & P for a separator T of P + a;
    the distinct T & P that pass the recognizer on P are P's separators.
    """
    seps, out = _separator_closure(adj, space), []
    while space:
        out.append(seps)
        space &= ~(1 << (space.bit_length() - 1))
        seps = [s for s in {t & space for t in seps} if _min_sep_mask(adj, s, space)]
    return out[::-1]


def _pmc_listing(adj: tuple[int, ...], space: int) -> tuple[list[int], dict[int, tuple]]:
    """(minimal separators, {PMC: pieces}) of the subgraph on ``space`` (Bouchitté, Todinca).

    Adds the vertices of ``space`` in ascending order. Each PMC Omega of the
    prefix is carried by its pieces: a merges the components it touches into
    one, D, with N(D) = (N(a) & Omega) | their N(C), and pair coverage only
    grows. So Omega stays a PMC when N(D) != Omega; otherwise Omega + a is
    one, with the same components, since a and any u in Omega - N(a) border
    a component merged into D. The other PMCs of the grown prefix are among
    S + a for each separator S, and S + (C & T) for each new separator S
    without a, each full component C of S without a and each separator T
    holding a; a candidate that is a separator or a PMC of either prefix
    skips the recognizer. Pieces are by lowest vertex, as a search of the
    prefix minus Omega finds them.

    Why C and T can be so chosen. By Bouchitté and Todinca's theorem, a PMC
    of P + a that is not carried and holds a is S + a. Let Omega be one that
    is not carried and misses a, so Omega is no PMC of P. Let D be the
    component of (P + a) - Omega holding a, and S = N(D), a strict subset of
    Omega. Each x in Omega - S is adjacent to each other vertex of Omega or
    shares with it a component of (P + a) - Omega other than D, so Omega - S
    lies in one component C of (P + a) - S, and C is full. So S is a
    minimal separator without a, and C, apart from D, misses a. The
    components of P - Omega are those of (P + a) - Omega other than D, as
    they were, and those of D - a, which border only S. So Omega fails in
    P only at a non-adjacent pair u, v of S that no component of P - Omega
    borders both of. Were S a separator of P, a second full component of P - S
    would be one of those and border u and v: so S is new. Let A be the
    component of u in P - (Omega - u - v), which misses v, B the component
    of v in P - N(A), and T = N(B), inside N(A) and so inside Omega - u - v.
    B and the component of P - T holding A are full components of T. Each
    x in Omega - S is adjacent to u or borders a component of P - Omega
    that borders u, so x is in N(A); the same for v puts x in N(B). So
    T & C = Omega - S. As u is in N(D), a is adjacent to u or to a
    component of D - a, inside A, that borders u; likewise for v and B. So
    T + a is a minimal separator of P + a, with both components still full,
    and S + (C & (T + a)) = Omega.
    """
    prefix, seps, pmcs = 0, [], {}
    for a, grown in zip(iter_bits(space), _prefix_separators(adj, space)):
        bit, na = 1 << a, adj[a]
        prefix |= bit
        old_seps, seps, kept = set(seps), grown, {}
        for o, pieces in pmcs.items():
            nd, d, rest = na & o, bit, []
            for s, comp in pieces:
                if comp & na:
                    nd, d = nd | s, d | comp
                else:
                    rest.append((s, comp))
            if nd != o:
                kept[o] = tuple(sorted(rest + [(nd, d)], key=lambda p: p[1] & -p[1]))
            else:
                kept[o | bit] = tuple((s | bit if comp & na else s, comp) for s, comp in pieces)
        # {a} is the one-vertex prefix's PMC
        cands = {bit, *(s | bit for s in seps)}
        with_a = [t for t in seps if t & bit]
        for s in seps:
            if s & bit or s in old_seps:
                continue
            for comp, nb in _components_with_nbrs(adj, prefix & ~s):
                if nb & prefix == s and not comp & bit:
                    cands.update(s | (comp & t) for t in with_a)
        cands.difference_update(seps, kept, pmcs)
        for o in cands:
            pieces = _pmc_pieces(adj, o, prefix)
            if pieces is not None:
                kept[o] = pieces
        pmcs = kept
    return seps, pmcs


def _oracle_chunk(args) -> tuple[list[int], dict[int, tuple]]:
    """(minimal separators, {PMC: pieces}) among the subsets m = lo..hi-1 of the n vertices, ascending.

    Two passes, and no table of components: every worker process runs both
    in full, and reports only its share.

    Pass 1, separators. A full component of S is a connected set C with
    N(C) = S: such a C misses S and has no neighbor outside S, so it is a
    component of G - S, and it sees all of S. Conversely every full
    component of S is such a set. So S is a minimal separator exactly when
    two connected sets C have N(C) = S. Each connected set is grown once,
    from its lowest vertex v: each frontier vertex above v is either taken
    in or left out for good. Once N[C] = V, G - N(C) is C alone, so N(C)
    has one full component; C and every extension of C are skipped.
    ``first[S]`` holds the first C met with N(C) = S, and ``full`` once a
    second one is met (no C met is all of V: that one is skipped). A full
    block is a connected C whose N(C) is a separator.

    Pass 2, PMCs. If m is a PMC, every component C of G - m has
    S = N(C) a strict subset of m, and S is a minimal separator (Bouchitté
    and Todinca): C is one full component of S. Take x in m - S; for each
    y in S, x and y are adjacent or both border a component C' of G - m,
    and C' differs from C since x is not in N(C). Either way y borders the
    component D of G - S holding x, so D is a second full component, and D
    is not C because x is in m. When S is empty, C is a whole component of
    G and m lies in another, so G is disconnected and S is a separator.
    So V - m is the union of pairwise disjoint, non-adjacent full blocks,
    and those blocks are exactly the components of G - m. The walk visits
    each such union R at most once (see the prune), with R = {} first,
    taking blocks by increasing lowest vertex, each missing N[R]; its
    blocks, in that order, are the pieces (N(C), C) of m = V - R. m is a
    candidate when no block has N(C) = m, and then the recognizer's own pair
    test decides, unless ``later`` (below) is empty, as always at a leaf of
    the walk (nxt = 0): the prune has then checked every vertex of m against
    N[v] plus the N(C) holding v, which is the pair test itself, so a union
    that survives the prune passes.

    The prune. Blocks added to R lie in ``later``, the vertices from nxt's
    lowest bit up minus N[R], so every m grown from R keeps m - later. For v
    there with no neighbor in later, no later block C has v in N(C): v's
    pairs are covered only by N[v] and the N(C) taken that hold v. If those
    miss a vertex of m - later, R and every union grown from it fail the
    pair test and are skipped. No PMC is lost, and the prune ignores lo
    and hi, so every share walks alike.
    """
    adj, n, lo, hi = args
    full = (1 << n) - 1
    first = array(next(c for c in "HIQ" if array(c).itemsize * 8 >= n), [0]) * (full + 1)
    # blocks by the bit of their lowest vertex u, as (C, N[C], N(C), the vertices above u)
    blocks, seps = defaultdict(list), []
    for v in range(n):
        low = 1 << v
        above = full & -(low << 1)
        todo = [(low, adj[v] | low, 0)]
        while todo:
            comp, closed, out = todo.pop()
            if closed == full:
                continue
            s = closed ^ comp
            prev = first[s]
            if not prev:
                first[s] = comp
            else:
                if prev != full:
                    first[s] = full
                    seps.append(s)
                    pl = prev & -prev
                    blocks[pl].append((prev, prev | s, s, full & -(pl << 1)))
                blocks[low].append((comp, closed, s, above))
            grow = s & above & ~out
            while grow:
                u = grow & -grow
                todo.append((comp | u, closed | adj[u.bit_length() - 1], out))
                out |= u
                grow ^= u
    pmcs = {}
    todo = [(0, 0, sum(blocks), (), ())]  # the keys are distinct bits: their sum is their union
    while todo:
        r, closed, nxt, nbs, pieces = todo.pop()
        m = full ^ r
        later = full & -(nxt & -nxt) & ~closed if nxt else 0
        if _stranded(adj, m & ~later, later, nbs):
            continue
        if lo <= m < hi and m and m not in nbs and (not later or _pairs_covered(adj, m, nbs)):
            pmcs[m] = pieces
        fresh = nxt & ~closed
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            for comp, nc, s, above in blocks[low]:
                if not comp & closed:
                    todo.append((r | comp, closed | nc, nxt & above, nbs + (s,), pieces + ((s, comp),)))
    return sorted(s for s in seps if lo <= s < hi), dict(sorted(pmcs.items()))


def _refuse_oversize(n: int, cap: int | None, what: str) -> None:
    """Raise CapExceeded when n is above ``cap`` (DEFAULT_ORACLE_CAP when None), or above the ceiling."""
    if cap is None:
        cap = DEFAULT_ORACLE_CAP
    if n > min(cap, _ORACLE_CEILING):
        raise CapExceeded(f"{what} oracle refused: n={n} exceeds cap {min(cap, _ORACLE_CEILING)} "
                          f"(a cap can be raised explicitly, up to {_ORACLE_CEILING})")


def _oracle_scan(g: Graph, cap: int | None, jobs: int) -> tuple[list[int], dict[int, tuple]]:
    _refuse_oversize(g.n, cap, "exhaustive")
    total = 1 << g.n
    if jobs <= 1:
        return _oracle_chunk((g.adj, g.n, 0, total))
    from multiprocessing import Pool  # only worker runs pay for importing it

    step = -(-total // jobs)
    tasks = [(g.adj, g.n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    with Pool(processes=jobs) as pool:
        parts = pool.map(_oracle_chunk, tasks)
    return [m for seps, _ in parts for m in seps], {m: p for _, pmcs in parts for m, p in pmcs.items()}


def brute_force_lists(g: Graph, cap: int | None = None,
                      jobs: int = 1) -> tuple[list[VertexSet], PmcCatalog]:
    """All minimal separators and all PMCs of g, from the exhaustive scan (see _oracle_chunk)."""
    seps, pmcs = _oracle_scan(g, cap, jobs)
    return canonical_sets(seps), PmcCatalog.from_pieces(g, pmcs)
