"""Regenerate reference.json, the completeness reference of the vc-enum workload.

    python3 bench/make_reference.py

The pool is every gnp(N, PROB, s) with s < SCANNED whose minimum vertex cover
is exactly VC. For each pool graph the benchmark's own exhaustive enumerator
(checks.exhaustive, all 2^n subsets) records the count and an order-free
digest of its minimal separators and of its PMCs. It takes a few minutes.

Each graph also gets a stratum. The current PMC route restricts one minimum
cover W to every prefix graph G[0..i), so its cost follows
P4 = sum over i of 4^|W & {0..i-1}|, which spreads over a factor of five at
equal vc. The pool is cut into STRATA equal groups by P4 and a round takes
one graph from each, so every seed sees the same spread of costs. W is
pmckit's own cover, imported here only to compute that key.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from pmckit import Graph, minimum_vertex_cover  # noqa: E402

N, PROB, VC, SCANNED, STRATA = 15, 0.2, 8, 600, 8


def prefix_partitions(adj: list[int]) -> int:
    w = minimum_vertex_cover(Graph(len(adj), tuple(adj), checks.edge_count(adj))).mask
    return sum(4 ** (w & ((1 << i) - 1)).bit_count() for i in range(1, len(adj) + 1))


def main() -> None:
    pool = []
    for seed in range(SCANNED):
        adj = checks.gnp_adj(N, PROB, seed)
        if checks.vertex_cover_number(adj) != VC:
            continue
        entry = {"seed": seed, "p4": prefix_partitions(adj), **checks.reference_entry(adj)}
        pool.append(entry)
        print(f"seed {seed}: {entry['separators']} separators, {entry['pmcs']} PMCs", file=sys.stderr)
    pool.sort(key=lambda e: (e["p4"], e["seed"]))
    for rank, entry in enumerate(pool):
        entry["stratum"] = rank * STRATA // len(pool)
    pool.sort(key=lambda e: e["seed"])
    doc = {"n": N, "prob": PROB, "vc": VC, "scanned": SCANNED, "strata": STRATA, "graphs": pool}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
