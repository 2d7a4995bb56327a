"""Minimal separators, potential maximal cliques, and exact treewidth / fill-in.

Enumeration is parameterized either by a vertex cover (partition sweeps) or by
modular width (a bottom-up walk of the modular decomposition tree); exhaustive
subset oracles provide ground truth, and a block dynamic program over the PMC
catalog computes treewidth and minimum fill-in exactly.
"""

from .bitset import VertexSet, canonical_sets
from .errors import CapExceeded, GrParseError, InputError
from .graph import (
    Graph,
    complete,
    components,
    cube,
    cycle,
    empty_graph,
    generate,
    gnp,
    induced_subgraph,
    parse_gr,
    path,
    prefix_graph,
    read_gr,
    watermelon,
    watermelon_hubs,
    write_gr,
)
from .modular import (
    ModuleNode,
    ModuleTree,
    base_enumerate,
    enumerate_by_mw,
    expand,
    expand_graph,
    modular_decomposition,
    modular_width,
    tree_to_json,
)
from .recognition import (
    DEFAULT_ORACLE_CAP,
    PmcCatalog,
    brute_force_lists,
    is_minimal_separator,
    is_minimal_uv_separator,
    is_pmc,
)
from .solvers import (
    Block,
    brute_force_fill_in,
    brute_force_treewidth,
    dp_blocks,
    min_fill_in,
    treewidth,
)
from .vc import (
    active_pmcs_by_vc,
    is_vertex_cover,
    minimum_vertex_cover,
    pmcs_by_vc,
    separators_by_vc,
)

__all__ = [
    "Block",
    "CapExceeded",
    "DEFAULT_ORACLE_CAP",
    "Graph",
    "GrParseError",
    "InputError",
    "ModuleNode",
    "ModuleTree",
    "PmcCatalog",
    "VertexSet",
    "active_pmcs_by_vc",
    "base_enumerate",
    "brute_force_fill_in",
    "brute_force_lists",
    "brute_force_treewidth",
    "canonical_sets",
    "complete",
    "components",
    "cube",
    "cycle",
    "dp_blocks",
    "empty_graph",
    "enumerate_by_mw",
    "expand",
    "expand_graph",
    "generate",
    "gnp",
    "induced_subgraph",
    "is_minimal_separator",
    "is_minimal_uv_separator",
    "is_pmc",
    "is_vertex_cover",
    "min_fill_in",
    "minimum_vertex_cover",
    "modular_decomposition",
    "modular_width",
    "parse_gr",
    "path",
    "pmcs_by_vc",
    "prefix_graph",
    "read_gr",
    "separators_by_vc",
    "tree_to_json",
    "treewidth",
    "watermelon",
    "watermelon_hubs",
    "write_gr",
]

__version__ = "0.1.0"
