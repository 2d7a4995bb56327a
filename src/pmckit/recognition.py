"""Recognizers for minimal separators and potential maximal cliques, plus subset oracles.

The recognizers are the ground truth of the package: every enumeration route
(vertex-cover based, modular-width based, or exhaustive) only ever emits
candidates that pass them, so over-generation anywhere upstream is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool

from .bitset import VertexSet, bit_list, canonical_sets, iter_bits
from .errors import CapExceeded, ContractViolation, InputError
from .graph import Graph, _components_masks, _components_with_nbrs, _nbr_mask, _validate_subset

# Subset oracles refuse graphs above this size unless told otherwise.
DEFAULT_ORACLE_CAP = 16


def _min_sep_mask(adj: tuple[int, ...], smask: int, space: int) -> bool:
    """True iff space - smask has >= 2 components whose neighborhood is exactly smask."""
    fulls = 0
    for _, nb in _components_with_nbrs(adj, space & ~smask):
        if nb & space == smask:
            fulls += 1
            if fulls == 2:
                return True
    return False


def _pmc_mask(adj: tuple[int, ...], om: int, space: int) -> bool:
    """Potential-maximal-clique test on the subgraph induced by ``space``.

    Checks that every component neighborhood is a strict subset of ``om`` and
    that every non-adjacent pair inside ``om`` is seen by a common component.
    """
    seps = []
    for _, nb in _components_with_nbrs(adj, space & ~om):
        s = nb & space
        if s == om:
            return False
        seps.append(s)
    for u in iter_bits(om):
        cov = adj[u] | (1 << u)
        for s in seps:
            if (s >> u) & 1:
                cov |= s
        if om & ~cov:
            return False
    return True


def _pmc_sep_masks(adj: tuple[int, ...], om: int, space: int) -> list[int]:
    """Deduplicated component neighborhoods N(C_i) of space - om."""
    return sorted({nb & space for _, nb in _components_with_nbrs(adj, space & ~om)})


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
    return _pmc_mask(g.adj, omega.mask, g.full_mask)


def is_minimal_uv_separator(g: Graph, s: VertexSet, u: int, v: int) -> bool:
    """True iff s is a minimal u,v-separator: u and v lie in distinct full components of g - s."""
    g._check_vertex(u)
    g._check_vertex(v)
    _validate_subset(g, s)
    if u == v or u in s or v in s:
        return False
    comp_u = comp_v = 0
    for comp in _components_masks(g.adj, g.full_mask & ~s.mask):
        if (comp >> u) & 1:
            comp_u = comp
        if (comp >> v) & 1:
            comp_v = comp
    if comp_u == comp_v:
        return False
    return (_nbr_mask(g.adj, comp_u) == s.mask) and (_nbr_mask(g.adj, comp_v) == s.mask)


def pmc_separators(g: Graph, omega: VertexSet) -> list[VertexSet]:
    """The minimal separators contained in the PMC ``omega`` (the component neighborhoods)."""
    if not omega:
        raise InputError("omega must be nonempty")
    _validate_subset(g, omega)
    if not _pmc_mask(g.adj, omega.mask, g.full_mask):
        raise ContractViolation(f"{omega!r} is not a potential maximal clique")
    return canonical_sets(_pmc_sep_masks(g.adj, omega.mask, g.full_mask))


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
    if not omega:
        raise InputError("omega must be nonempty")
    _validate_subset(g, omega)
    adj = g.adj
    full = g.full_mask
    if not _pmc_mask(adj, omega.mask, full):
        raise ContractViolation(f"{omega!r} is not a potential maximal clique")
    sep_masks = _pmc_sep_masks(adj, omega.mask, full)
    om_bits = bit_list(omega.mask)
    witnesses = []
    for s1 in sorted(sep_masks, key=bit_list):
        adj_plus = list(adj)
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
        comp = 0
        for c in _components_masks(adj, full & ~s1):
            if c & rest:
                comp = c
                break
        assert rest & ~comp == 0, "omega - S must sit inside a single component"
        witnesses.append(ActivePairWitness(VertexSet(s1), tuple(pairs), VertexSet(comp)))
    return witnesses


@dataclass(frozen=True)
class PmcCatalog:
    """Deduplicated, verified collection of potential maximal cliques of one graph."""

    graph: Graph
    members: tuple[VertexSet, ...]

    @classmethod
    def collect(cls, g: Graph, candidate_masks) -> "PmcCatalog":
        """Filter candidates through the PMC recognizer, dedupe, sort canonically."""
        full = g.full_mask
        kept = {m for m in candidate_masks if m and _pmc_mask(g.adj, m, full)}
        return cls(graph=g, members=tuple(canonical_sets(kept)))

    @classmethod
    def from_verified(cls, g: Graph, masks) -> "PmcCatalog":
        """Wrap masks already known to pass the recognizer (internal routes)."""
        return cls(graph=g, members=tuple(canonical_sets(masks)))

    def mask_set(self) -> frozenset[int]:
        return frozenset(vs.mask for vs in self.members)

    def to_lists(self) -> list[list[int]]:
        return [vs.to_list() for vs in self.members]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item: VertexSet) -> bool:
        return any(vs == item for vs in self.members)


# ---------------------------------------------------------------------------
# Exhaustive subset oracles
# ---------------------------------------------------------------------------

def _oracle_chunk(args):
    adj, space, lo, hi, kind = args
    out = []
    if kind == "sep":
        for m in range(lo, hi):
            if _min_sep_mask(adj, m, space):
                out.append(m)
    else:
        for m in range(lo, hi):
            if m and _pmc_mask(adj, m, space):
                out.append(m)
    return out


def _oracle_scan(g: Graph, kind: str, cap: int | None, jobs: int) -> list[int]:
    cap = DEFAULT_ORACLE_CAP if cap is None else cap
    if g.n > cap:
        raise CapExceeded(
            f"exhaustive oracle refused: n={g.n} exceeds cap {cap} "
            f"(raise the cap explicitly to override)"
        )
    total = 1 << g.n
    if jobs <= 1:
        return _oracle_chunk((g.adj, g.full_mask, 0, total, kind))
    step = -(-total // jobs)
    tasks = [
        (g.adj, g.full_mask, lo, min(lo + step, total), kind)
        for lo in range(0, total, step)
    ]
    with Pool(processes=jobs) as pool:
        parts = pool.map(_oracle_chunk, tasks)
    return [m for part in parts for m in part]


def brute_force_separators(g: Graph, cap: int | None = None, jobs: int = 1) -> list[VertexSet]:
    """All minimal separators of g by scanning every vertex subset."""
    return canonical_sets(_oracle_scan(g, "sep", cap, jobs))


def brute_force_pmcs(g: Graph, cap: int | None = None, jobs: int = 1) -> PmcCatalog:
    """All potential maximal cliques of g by scanning every nonempty subset."""
    return PmcCatalog.from_verified(g, _oracle_scan(g, "pmc", cap, jobs))
