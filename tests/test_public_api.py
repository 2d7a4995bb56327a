"""The package's public surface, pinned: adding or dropping a name shows in this file's diff."""

from __future__ import annotations

import argparse

import pmckit
from pmckit.cli import build_parser

PUBLIC = [
    "ActivePairWitness", "Block", "CUBE_INDEX", "CapExceeded", "ContractViolation",
    "DEFAULT_ORACLE_CAP", "GrParseError", "Graph", "InputError", "ModuleNode", "ModuleTree",
    "PmcCatalog", "VertexSet", "active_pmcs_by_vc", "active_separators", "base_enumerate",
    "brute_force_fill_in", "brute_force_lists", "brute_force_treewidth", "canonical_sets",
    "complete", "components", "cube", "cycle", "dp_blocks", "empty_graph",
    "enumerate_by_mw", "expand", "expand_graph", "full_components", "generate", "gnp",
    "induced_subgraph", "is_minimal_separator", "is_minimal_uv_separator", "is_pmc",
    "is_vertex_cover", "min_fill_in", "minimum_vertex_cover", "modular_decomposition",
    "modular_width", "neighborhood", "parse_gr", "path", "pmc_separators", "pmcs_by_vc",
    "prefix_graph", "read_gr", "separators_by_vc", "tree_to_json", "treewidth", "watermelon",
    "watermelon_hubs", "write_gr",
]


def test_all_is_the_pinned_list():
    assert sorted(pmckit.__all__) == PUBLIC
    assert len(set(pmckit.__all__)) == len(pmckit.__all__)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(pmckit, name), name


INPUT = ["--input", "--family", "--p", "--q", "--n", "--prob", "--seed"]
RUN = ["--method", "--jobs", "--pretty"]

# each subcommand's option strings (-h and --help as one entry) and positionals, in order
PARSER = {
    "enum": ["-h --help", "what", *INPUT, *RUN],
    "count": ["-h --help", "--what", *INPUT, *RUN],
    "verify": ["-h --help", *INPUT, "--seeds", "--jobs", "--pretty"],
    "solve": ["-h --help", "problem", *INPUT, *RUN],
    "decompose": ["-h --help", *INPUT, "--pretty"],
    "gen": ["-h --help", *INPUT],
    "bench": ["-h --help", "--what", *INPUT, *RUN],
}


def test_parser_surface_is_pinned():
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: [" ".join(a.option_strings) or a.dest for a in p._actions]
           for name, p in sub.choices.items()}
    assert got == PARSER
