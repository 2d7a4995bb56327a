"""The benchmark's own graph code and output checks, written apart from pmckit.

Nothing here imports pmckit: the generators replicate its documented vertex
labelling, and the recognizers, enumerators and bounds are separate code, so
that an operation's output is judged by something other than the code that
produced it. Graphs are adjacency bitmask lists, ``adj[v]`` holding the
neighbours of ``v``.
"""

from __future__ import annotations

import hashlib
import json
import random


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def gnp_adj(n: int, prob: float, seed: int) -> list[int]:
    """G(n, p) drawing pairs u < v in ascending order from random.Random(seed)."""
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def watermelon_adj(p: int, q: int) -> list[int]:
    """p paths of q vertices (path i on i*q..i*q+q-1); hub p*q sees the left ends, p*q+1 the right."""
    n = p * q + 2
    adj = [0] * n
    u, v = p * q, p * q + 1
    edges = []
    for i in range(p):
        base = i * q
        edges += [(base + j, base + j + 1) for j in range(q - 1)]
        edges += [(u, base), (v, base + q - 1)]
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def edge_count(adj: list[int]) -> int:
    return sum(a.bit_count() for a in adj) // 2


def edges(adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def gr_text(adj: list[int]) -> str:
    """PACE .gr text, 1-based."""
    lines = [f"p tw {len(adj)} {edge_count(adj)}"]
    lines += [f"{u + 1} {v + 1}" for u, v in edges(adj)]
    return "\n".join(lines) + "\n"


def fingerprint(adj: list[int]) -> str:
    return hashlib.sha256(json.dumps([len(adj), edges(adj)]).encode()).hexdigest()


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices) -> int:
    m = 0
    for v in indices:
        m |= 1 << v
    return m


def components(adj: list[int], space: int) -> list[int]:
    comps = []
    while space:
        comp = frontier = space & -space
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & space & ~comp
            comp |= frontier
        comps.append(comp)
        space &= ~comp
    return comps


def is_connected(adj: list[int]) -> bool:
    return len(components(adj, (1 << len(adj)) - 1)) == 1


def neighbourhood(adj: list[int], mask: int) -> int:
    acc = 0
    for v in bits(mask):
        acc |= adj[v]
    return acc & ~mask


def is_prime(adj: list[int]) -> bool:
    """True iff the only modules are the trivial ones (checked pair by pair by closure)."""
    n = len(adj)
    full = (1 << n) - 1
    for x in range(n):
        for y in range(x + 1, n):
            m = (1 << x) | (1 << y)
            while True:
                splitters = 0
                for z in bits(full & ~m):
                    if adj[z] & m and m & ~adj[z]:
                        splitters |= 1 << z
                if not splitters:
                    break
                m |= splitters
            if m != full:
                return False
    return True


def substitute(quotient: list[int], modules: list[list[int]]) -> list[int]:
    """Replace quotient vertex i by module i, fully joining modules of adjacent quotient vertices."""
    offsets, total = [], 0
    for mod in modules:
        offsets.append(total)
        total += len(mod)
    blocks = [((1 << len(mod)) - 1) << off for mod, off in zip(modules, offsets)]
    adj = [0] * total
    for i, (mod, off) in enumerate(zip(modules, offsets)):
        joined = 0
        for j in bits(quotient[i]):
            joined |= blocks[j]
        for v, a in enumerate(mod):
            adj[off + v] = (a << off) | joined
    return adj


def path_adj(k: int) -> list[int]:
    adj = [0] * k
    for i in range(k - 1):
        adj[i] |= 1 << (i + 1)
        adj[i + 1] |= 1 << i
    return adj


def cycle_adj(k: int) -> list[int]:
    adj = path_adj(k)
    adj[0] |= 1 << (k - 1)
    adj[k - 1] |= 1
    return adj


# ---------------------------------------------------------------------------
# Recognizers and exhaustive enumeration
# ---------------------------------------------------------------------------

def is_minimal_separator(adj: list[int], s: int) -> bool:
    """G - S has at least two full components (components C with N(C) = S)."""
    full = (1 << len(adj)) - 1
    fulls = sum(1 for c in components(adj, full & ~s) if neighbourhood(adj, c) == s)
    return fulls >= 2


def separates(adj: list[int], s: int, u: int, v: int) -> bool:
    """S is a minimal u,v-separator: u and v lie in distinct full components of G - S."""
    if s >> u & 1 or s >> v & 1:
        return False
    full = (1 << len(adj)) - 1
    comps = components(adj, full & ~s)
    cu = next(c for c in comps if c >> u & 1)
    cv = next(c for c in comps if c >> v & 1)
    return cu != cv and neighbourhood(adj, cu) == s and neighbourhood(adj, cv) == s


def is_pmc(adj: list[int], om: int) -> bool:
    """Bouchitte-Todinca: no component C of G - Omega has N(C) = Omega, and every
    non-adjacent pair of Omega lies in N(C) for some component C."""
    if not om:
        return False
    full = (1 << len(adj)) - 1
    seps = []
    for c in components(adj, full & ~om):
        nc = neighbourhood(adj, c)
        if nc == om:
            return False
        seps.append(nc)
    members = bits(om)
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if adj[x] >> y & 1:
                continue
            if not any(sp >> x & 1 and sp >> y & 1 for sp in seps):
                return False
    return True


def exhaustive(adj: list[int]) -> tuple[list[int], list[int]]:
    """Every minimal separator and every PMC, by testing all 2^n vertex subsets."""
    total = 1 << len(adj)
    seps = [m for m in range(total) if is_minimal_separator(adj, m)]
    pmcs = [m for m in range(1, total) if is_pmc(adj, m)]
    return seps, pmcs


def listing_digest(sets) -> str:
    """Order-free digest of a family of vertex sets, given as index lists."""
    canon = sorted(sorted(s) for s in sets)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def reference_entry(adj: list[int]) -> dict:
    seps, pmcs = exhaustive(adj)
    return {
        "fingerprint": fingerprint(adj),
        "separators": len(seps),
        "separators_sha": listing_digest(bits(m) for m in seps),
        "pmcs": len(pmcs),
        "pmcs_sha": listing_digest(bits(m) for m in pmcs),
    }


# ---------------------------------------------------------------------------
# Vertex cover and treewidth bounds
# ---------------------------------------------------------------------------

def vertex_cover_number(adj: list[int]) -> int:
    """Exact minimum vertex cover size: branch on a top-degree vertex (it, or all its neighbours)."""
    best = [len(adj)]

    def go(alive: int, size: int) -> None:
        if size >= best[0]:
            return
        top, top_deg = -1, 0
        for v in bits(alive):
            d = (adj[v] & alive).bit_count()
            if d == 1:  # some optimum takes the neighbour of a degree-1 vertex
                u = adj[v] & alive
                go(alive & ~u & ~(1 << v), size + 1)
                return
            if d > top_deg:
                top, top_deg = v, d
        if top_deg == 0:
            best[0] = size
            return
        go(alive & ~(1 << top), size + 1)
        nb = adj[top] & alive
        go(alive & ~nb & ~(1 << top), size + nb.bit_count())

    go((1 << len(adj)) - 1, 0)
    return best[0]


def minor_min_width(adj: list[int]) -> int:
    """Treewidth lower bound: contract a minimum-degree vertex into its minimum-degree neighbour."""
    nbrs = {v: set(bits(a)) for v, a in enumerate(adj)}
    lb = 0
    while len(nbrs) > 1:
        v = min(nbrs, key=lambda x: (len(nbrs[x]), x))
        lb = max(lb, len(nbrs[v]))
        if nbrs[v]:
            u = min(nbrs[v], key=lambda x: (len(nbrs[x]), x))
            for w in nbrs[v] - {u}:
                nbrs[w].discard(v)
                nbrs[w].add(u)
                nbrs[u].add(w)
            nbrs[u].discard(v)
        del nbrs[v]
    return lb


def min_fill_order(adj: list[int]) -> tuple[int, int]:
    """(width, fill) of the greedy minimum-fill elimination order, ties to the lowest vertex.

    Both are upper bounds, on treewidth and on minimum fill-in. The fill is 0
    exactly when the graph is chordal, since a chordal graph always has a
    simplicial vertex to eliminate and any other graph needs a fill edge.
    """
    cur = list(adj)
    alive = (1 << len(adj)) - 1
    width = fill = 0

    def missing(v: int) -> int:
        nb = cur[v] & alive
        return sum((nb & ~cur[u] & ~(1 << u)).bit_count() for u in bits(nb)) // 2

    while alive:
        v = min(bits(alive), key=lambda x: (missing(x), x))
        nb = cur[v] & alive
        width = max(width, nb.bit_count())
        fill += missing(v)
        for u in bits(nb):
            cur[u] |= nb & ~(1 << u)
        alive &= ~(1 << v)
    return width, fill


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages, empty when the output passes
# ---------------------------------------------------------------------------

def check_listing(adj: list[int], out: dict, what: str, vc: int, ref: dict | None) -> list[str]:
    """An `enum seps|pmcs --method vc` report: graph size, cover number, every listed
    object, the 3^vc bound, and completeness against a stored reference."""
    key = "separators" if what == "seps" else "pmcs"
    listed = out["results"][key]
    errs = []
    if (out["graph"]["n"], out["graph"]["m"]) != (len(adj), edge_count(adj)):
        errs.append(f"graph size {out['graph']} differs from the generated input")
    if out["params"]["vc"] != vc:
        errs.append(f"reported vc {out['params']['vc']} != {vc}")
    if out["results"]["counts"][key] != len(listed):
        errs.append("count disagrees with the listing")
    masks = [mask_of(s) for s in listed]
    if len(set(masks)) != len(masks):
        errs.append("listing has duplicates")
    recognize = is_minimal_separator if what == "seps" else is_pmc
    bad = [bits(m) for m in masks if not recognize(adj, m)]
    if bad:
        errs.append(f"{len(bad)} listed sets fail the recognizer, e.g. {bad[0]}")
    if what == "seps" and len(listed) > 3 ** vc:
        errs.append(f"{len(listed)} separators exceed 3^{vc}")
    if ref is not None:
        if ref[key] != len(listed) or ref[key + "_sha"] != listing_digest(listed):
            errs.append(f"listing differs from the exhaustive reference ({ref[key]} {key})")
    return errs


def check_watermelon(adj: list[int], out: dict, p: int) -> list[str]:
    """watermelon(p,3) has exactly 3^p + 5p + 1 minimal separators, 3^p separating the hubs."""
    errs = check_listing(adj, out, "seps", p + 2, None)
    listed = out["results"]["separators"]
    if len(listed) != 3 ** p + 5 * p + 1:
        errs.append(f"{len(listed)} separators, expected 3^{p} + 5*{p} + 1")
    hubs = sum(1 for s in listed if separates(adj, mask_of(s), 3 * p, 3 * p + 1))
    if hubs != 3 ** p:
        errs.append(f"{hubs} hub separators, expected 3^{p}")
    return errs


def check_solve(adj: list[int], out: dict, problem: str, bounds: tuple[int, int, int]) -> list[str]:
    """A `solve tw|fillin` report against the minor-min-width lower bound and the
    min-fill order's width and fill; `bounds` is (mmw, width, fill)."""
    lb, width, fill = bounds
    errs = []
    if (out["graph"]["n"], out["graph"]["m"]) != (len(adj), edge_count(adj)):
        errs.append(f"graph size {out['graph']} differs from the generated input")
    if problem == "tw":
        tw = out["results"]["counts"]["treewidth"]
        if not lb <= tw <= width:
            errs.append(f"treewidth {tw} outside [{lb}, {width}]")
    else:
        fi = out["results"]["counts"]["fill_in"]
        if not 0 <= fi <= fill:
            errs.append(f"fill-in {fi} outside [0, {fill}]")
        if (fi == 0) != (fill == 0):
            errs.append(f"fill-in {fi} but the graph is {'' if fill == 0 else 'not '}chordal")
    return errs


def check_verify(adj: list[int], out: dict, vc: int, code: int) -> list[str]:
    """A single-graph `verify` report: exit 0, oracle included, three methods, all pass."""
    errs = []
    if code != 0 or not out["verified"]:
        errs.append(f"verify exited {code}, verified={out['verified']}")
    if (out["graph"]["n"], out["graph"]["m"]) != (len(adj), edge_count(adj)):
        errs.append(f"graph size {out['graph']} differs from the generated input")
    if out["params"]["vc"] != vc:
        errs.append(f"reported vc {out['params']['vc']} != {vc}")
    checks = out["results"]["checks"]
    if sorted(c["check"] for c in checks) != ["pmcs", "separators"]:
        errs.append("expected one separators check and one pmcs check")
    for c in checks:
        if c["status"] != "pass" or c["oracle"] != "included" or c["methods"] != ["brute", "mw", "vc"]:
            errs.append(f"check {c['check']}: {c['status']}, oracle {c['oracle']}, methods {c['methods']}")
    return errs


def self_test() -> list[str]:
    """Feed the checks outputs known to be wrong; returns the checks that missed them."""
    missed = []
    adj = gnp_adj(10, 0.3, 7)
    seps, pmcs = exhaustive(adj)
    ref = reference_entry(adj)
    vc = vertex_cover_number(adj)

    def report(key: str, listed: list[list[int]]) -> dict:
        return {"graph": {"n": len(adj), "m": edge_count(adj)}, "params": {"vc": vc},
                "results": {key: listed, "counts": {key: len(listed)}}}

    good_pmcs = [bits(m) for m in pmcs]
    good_seps = [bits(m) for m in seps]
    if check_listing(adj, report("pmcs", good_pmcs), "pmcs", vc, ref):
        missed.append("a correct PMC listing was rejected")
    if not check_listing(adj, report("pmcs", good_pmcs[1:]), "pmcs", vc, ref):
        missed.append("a PMC listing with one PMC removed passed")
    non_sep = next(m for m in range(1, 1 << len(adj)) if not is_minimal_separator(adj, m))
    if check_listing(adj, report("separators", good_seps), "seps", vc, ref):
        missed.append("a correct separator listing was rejected")
    if not check_listing(adj, report("separators", good_seps + [bits(non_sep)]), "seps", vc, ref):
        missed.append("a separator listing with a non-separator added passed")

    c7 = cycle_adj(7)  # treewidth 2 and minimum fill-in 4, both bounds tight
    bounds = (minor_min_width(c7), *min_fill_order(c7))
    for key, value, problem, ok in (("treewidth", 2, "tw", True), ("treewidth", 3, "tw", False),
                                    ("treewidth", 1, "tw", False), ("fill_in", 4, "fillin", True),
                                    ("fill_in", 5, "fillin", False), ("fill_in", 0, "fillin", False)):
        out = {"graph": {"n": 7, "m": 7}, "results": {"counts": {key: value}}}
        if (not check_solve(c7, out, problem, bounds)) != ok:
            missed.append(f"{key} {value} on a 7-cycle was {'rejected' if ok else 'accepted'}")
    return missed
