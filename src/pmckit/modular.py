"""Modular decomposition and modular-width-parameterized enumeration.

The decomposition splits on connected components (union node) or
co-components (join node); otherwise the node is prime, and its maximal
proper strong modules come from vertex partition refinement (after Habib and
Paul's survey of modular decomposition, 2010). Building the tree and every
pass over it walk an explicit stack, for any depth. Enumeration takes each
module M's own objects padded once with N(M): a leaf {v}, a union's empty
separator, a join's V(M), and a prime quotient's objects expanded to M's
children. Every distinct candidate passes the recognizers once, on the
whole graph. Prime quotients are listed output-sensitively (the separator
closure and the one-more-vertex PMC listing of the recognition module); no
step scans subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .bitset import VertexSet, canonical_sets, iter_bits
from .errors import InputError
from .graph import Graph, _components_with_nbrs, _graph_from_adj
from .recognition import PmcCatalog, _min_sep_mask, _pmc_listing, _separator_closure


@dataclass(frozen=True)
class ModuleNode:
    """One node of a modular decomposition tree.

    ``vertices`` is the original-graph vertex set of the subtree. Internal
    nodes carry their quotient graph on one vertex per child (edgeless for
    union nodes, complete for join nodes); leaves carry a single vertex and
    no quotient.
    """

    kind: str  # "leaf" | "union" | "join" | "prime"
    vertices: VertexSet
    children: tuple["ModuleNode", ...] = ()
    quotient: Graph | None = None


@dataclass(frozen=True)
class ModuleTree:
    graph: Graph
    root: ModuleNode


def _module_closure(adj: tuple[int, ...], space: int, seed: int) -> int:
    """Smallest module of the subgraph on ``space`` containing ``seed``.

    Grows the set by absorbing every outside vertex that distinguishes it
    (has both a neighbor and a non-neighbor inside).
    """
    m = seed
    while True:
        added = 0
        for z in iter_bits(space & ~m):
            az = adj[z]
            if (az & m) and (m & ~az):
                added |= 1 << z
        if not added:
            return m
        m |= added
        if m == space:
            return m


def _refine(adj: tuple[int, ...], space: int, v: int) -> list[int]:
    """Maximal modules of the subgraph on ``space`` that do not contain v.

    Partition refinement: split any part by the neighborhood of any vertex
    outside it until none splits (Ehrenfeucht, Gabow, McConnell and Sullivan
    1994). A module without v is never split; every part left is a module.
    """
    parts, pending = [space & ~(1 << v)], space  # pending: pivots to apply
    while pending:
        z = (pending & -pending).bit_length() - 1
        pending &= pending - 1
        split = []
        for part in parts:
            inside = part & adj[z]
            if (part >> z) & 1 or inside in (0, part):
                split.append(part)
            else:
                split += (inside, part & ~inside)
                pending |= part
        parts = split
    return parts


def _prime_partition(adj: tuple[int, ...], space: int) -> list[int]:
    """Maximal proper strong modules of a connected, co-connected subgraph.

    The quotient is prime, so no union of two or more children is a module
    and every proper module lies inside one child. The maximal modules without
    v, the lowest vertex, are thus the children other than M_v (the child
    holding v) and modules inside M_v. A vertex w is outside M_v exactly when
    the smallest module holding v and w is the whole space, and then M_v is
    the maximal module without w that holds v. Blocks are sorted by lowest
    vertex.
    """
    v = (space & -space).bit_length() - 1
    parts = _refine(adj, space, v)
    lows = ((p & -p).bit_length() - 1 for p in parts)
    w = next(w for w in lows if _module_closure(adj, space, (1 << v) | (1 << w)) == space)
    m_v = next(p for p in _refine(adj, space, w) if (p >> v) & 1)
    return sorted([m_v] + [p for p in parts if not p & m_v], key=lambda p: p & -p)


def _post_order(root, split, join):
    """join's result at root, computed bottom-up over the tree that split unfolds.

    split(x) returns (info, parts), and join(info, results) gets the results
    of x's parts in order. Splits pop an explicit stack and joins run in the
    reverse order, when the results of a node's parts end the value list. No
    call recurses, so a tree of any depth is walked.
    """
    nodes, stack = [], [root]
    while stack:
        info, parts = split(stack.pop())
        nodes.append((info, len(parts)))
        stack += parts
    results = []
    for info, k in reversed(nodes):
        cut = len(results) - k
        results[cut:] = [join(info, results[cut:])]
    return results[0]


def _node_parts(node: ModuleNode):
    return node, node.children


def _decompose(g: Graph, co_adj: tuple[int, ...], space: int):
    """(kind, space, quotient) of the module on ``space``, with its children's spaces."""
    if space & (space - 1) == 0:
        return ("leaf", space, None), ()
    comps = [c for c, _ in _components_with_nbrs(g.adj, space)]
    if len(comps) > 1:
        return ("union", space, _graph_from_adj(len(comps), [0] * len(comps))), comps
    co_comps = [c for c, _ in _components_with_nbrs(co_adj, space)]
    if len(co_comps) > 1:
        p = len(co_comps)
        full = (1 << p) - 1
        return ("join", space, _graph_from_adj(p, [full & ~(1 << i) for i in range(p)])), co_comps
    parts = _prime_partition(g.adj, space)
    assert len(parts) >= 2, "prime split of a connected, co-connected graph"
    adj_q = []
    for part in parts:
        nbrs = g.adj[(part & -part).bit_length() - 1] & ~part
        adj_q.append(sum(1 << j for j, other in enumerate(parts) if nbrs & other))
    return ("prime", space, _graph_from_adj(len(parts), adj_q)), parts


def modular_decomposition(g: Graph) -> ModuleTree:
    """Modular decomposition tree of a nonempty graph."""
    if g.n == 0:
        raise InputError("graph must be nonempty")
    full = g.full_mask
    co_adj = tuple(full & ~a & ~(1 << v) for v, a in enumerate(g.adj))
    root = _post_order(full, partial(_decompose, g, co_adj), lambda info, kids: ModuleNode(
        info[0], VertexSet(info[1]), tuple(kids), info[2]))
    return ModuleTree(graph=g, root=root)


def modular_width(t: ModuleTree) -> int:
    """Maximum child count over prime nodes; 0 for trees without prime nodes."""
    return _post_order(t.root, _node_parts, lambda node, widths: max(
        [len(node.children) if node.kind == "prime" else 0, *widths]))


def expand(quotient_set: VertexSet, children_vertex_sets: Sequence[VertexSet]) -> VertexSet:
    """Union of the child vertex sets selected by a quotient vertex set."""
    mask = 0
    for i in quotient_set:
        if i >= len(children_vertex_sets):
            raise InputError(f"quotient vertex {i} out of range")
        mask |= children_vertex_sets[i].mask
    return VertexSet(mask)


def expand_graph(quotient: Graph, modules: Sequence[Graph]) -> tuple[Graph, list[VertexSet]]:
    """Replace each quotient vertex by a module graph.

    Edges inside each module are kept and every pair of modules whose quotient
    vertices are adjacent is fully joined. Returns the expanded graph together
    with the vertex set each module occupies.
    """
    if len(modules) != quotient.n:
        raise InputError("need exactly one module graph per quotient vertex")
    offsets = [0]
    for mod in modules:
        offsets.append(offsets[-1] + mod.n)
    child_sets = [VertexSet(((1 << mod.n) - 1) << off) for mod, off in zip(modules, offsets)]
    adj = []
    for i, (mod, off) in enumerate(zip(modules, offsets)):
        joined = expand(VertexSet(quotient.adj[i]), child_sets).mask
        adj.extend(row << off | joined for row in mod.adj)
    return _graph_from_adj(offsets[-1], adj), child_sets


def base_enumerate(quotient: Graph,
                   what: str = "both") -> tuple[list[VertexSet] | None, PmcCatalog | None]:
    """Minimal separators and PMC catalog of a prime quotient, output-sensitively (no size cap).

    ``what`` is "seps", "pmcs" or "both"; the list not asked for is None.
    """
    if what == "seps":
        return canonical_sets(_separator_closure(quotient.adj, quotient.full_mask)), None
    seps, pmcs = _pmc_listing(quotient.adj, quotient.full_mask)
    return None if what == "pmcs" else canonical_sets(seps), PmcCatalog.from_pieces(quotient, pmcs)


def _node_candidates(g: Graph, node: ModuleNode, what: str) -> tuple[set[int], set[int]]:
    """Separator and PMC candidates of the subgraph on the node's vertices.

    Each minimal separator and PMC of that subgraph is some node X's own
    object padded once with N(X) within the node: a leaf's {v}, a union's
    empty separator, a join's V(X), or an expanded object of a prime
    quotient, which lists only ``what`` is asked for. N(X) is read at X's
    lowest vertex, as X is a module; for X inside a module P, N(X) - P is
    N(P), so no ancestor pads again. The caller filters once, on g.
    """
    space = node.vertices.mask
    sep_cands: set[int] = set()
    pmc_cands: set[int] = set()
    stack = [node]
    while stack:
        x = stack.pop()
        mask = x.vertices.mask
        nh = g.adj[(mask & -mask).bit_length() - 1] & ~mask & space
        if x.kind in ("leaf", "join"):
            pmc_cands.add(mask | nh)
        elif x.kind == "union":
            sep_cands.add(nh)
        else:
            q_seps, q_pmcs = base_enumerate(x.quotient, what)
            child_sets = [c.vertices for c in x.children]
            sep_cands.update(expand(s, child_sets).mask | nh for s in q_seps or ())
            pmc_cands.update(expand(o, child_sets).mask | nh for o in q_pmcs or ())
        stack += x.children
    return sep_cands, pmc_cands


def enumerate_by_mw(g: Graph, tree: ModuleTree | None = None,
                    what: str = "both") -> tuple[list[VertexSet] | None, PmcCatalog | None]:
    """Minimal separators and PMC catalog of g via its modular decomposition.

    The candidates are each module M's own objects padded once with N(M)
    (see _node_candidates). Each distinct candidate is checked once, on g,
    so the final lists are exactly the separators and PMCs of g. ``what`` is
    "seps", "pmcs" or "both"; the list not asked for is not filtered and
    comes back None. The catalog keeps the components of g - Omega its
    filter found, which the solvers' block DP reads.
    """
    if tree is None:
        tree = modular_decomposition(g)
    elif tree.graph != g:
        raise InputError("decomposition tree was built for a different graph")
    sep_cands, pmc_cands = _node_candidates(g, tree.root, what)
    seps = None if what == "pmcs" else canonical_sets(
        s for s in sep_cands if _min_sep_mask(g.adj, s, g.full_mask))
    return seps, None if what == "seps" else PmcCatalog.collect(g, pmc_cands)


def tree_to_json(t: ModuleTree) -> dict:
    """JSON-friendly rendering: node kind, vertices, children, quotient edges."""

    def render(node: ModuleNode, children: list) -> dict:
        out: dict = {"kind": node.kind, "vertices": node.vertices.to_list()}
        if node.kind != "leaf":
            assert node.quotient is not None
            out["children"] = children
            out["quotient"] = {
                "n": node.quotient.n,
                "edges": [[u, v] for u, v in node.quotient.edges()],
            }
        return out

    return {"modular_width": modular_width(t), "root": _post_order(t.root, _node_parts, render)}
