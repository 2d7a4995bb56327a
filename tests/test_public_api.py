"""The package's public surface, pinned: adding or dropping a name shows in this file's diff."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import re
from pathlib import Path

import pmckit
from pmckit.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "Block", "CapExceeded",
    "DEFAULT_ORACLE_CAP", "GrParseError", "Graph", "InputError", "ModuleNode", "ModuleTree",
    "PmcCatalog", "VertexSet", "active_pmcs_by_vc", "base_enumerate",
    "brute_force_fill_in", "brute_force_lists", "brute_force_treewidth", "canonical_sets",
    "complete", "components", "cube", "cycle", "dp_blocks", "empty_graph",
    "enumerate_by_mw", "expand", "expand_graph", "generate", "gnp",
    "induced_subgraph", "is_minimal_separator", "is_minimal_uv_separator", "is_pmc",
    "is_vertex_cover", "min_fill_in", "minimum_vertex_cover", "modular_decomposition",
    "modular_width", "parse_gr", "path", "pmcs_by_vc",
    "prefix_graph", "read_gr", "separators_by_vc", "tree_to_json", "treewidth", "watermelon",
    "watermelon_hubs", "write_gr",
]


def test_all_is_the_pinned_list():
    assert sorted(pmckit.__all__) == PUBLIC
    assert len(set(pmckit.__all__)) == len(pmckit.__all__)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(pmckit, name), name


def _code_words(path: Path) -> set[str]:
    """The names a module reads, and the words of its strings other than docstrings.

    Strings count because bench/ looks some names up with getattr. Defining
    or assigning a name is not a use of it, nor is a comment or a docstring.
    """
    tree = ast.parse(path.read_text())
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body
            and isinstance(node.body[0], ast.Expr)}
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            words.update(re.findall(r"\w+", node.value))
    return words


def test_every_public_name_has_a_caller_outside_the_tests():
    # the package, the benchmark, the tools or the README's code must use
    # each exported name; one that only tests call belongs in tests/reference.py
    src = [p for p in sorted((ROOT / "src" / "pmckit").glob("*.py")) if p.name != "__init__.py"]
    code = [*src, *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]
    readme = re.findall(r"```.*?```|`[^`]*`", (ROOT / "README.md").read_text(), re.S)
    used = set().union(*map(_code_words, code), re.findall(r"\w+", " ".join(readme)))
    assert sorted(set(pmckit.__all__) - used) == []


def _attribute_reads(path: Path) -> set[tuple[str, str | None]]:
    """(attr, owner) for each attribute the module reads.

    owner is "Class.method" when the read sits inside a method's own body,
    else None, so a member calling itself is not a use of it.
    """
    reads = set()

    def visit(node, cls, owner):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and cls and not owner:
            owner = f"{cls}.{node.name}"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, owner)

    visit(ast.parse(path.read_text()), None, None)
    return reads


def test_every_public_class_member_has_a_caller_outside_the_tests():
    # each public member of an exported class must be read as an attribute
    # in src/ outside its own definition, in bench/ or tools/, or follow a dot
    # in the README's code; words in strings do not count. The match is by
    # name alone, so a member shares its uses with any same-named attribute:
    # Graph.vertices hid behind ModuleNode.vertices and was removed by hand.
    src = sorted((ROOT / "src" / "pmckit").glob("*.py"))
    others = [*sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]
    readme = re.findall(r"```.*?```|`[^`]*`", (ROOT / "README.md").read_text(), re.S)
    reads = set().union(*map(_attribute_reads, src))
    used = {attr for p in others for attr, _ in _attribute_reads(p)}
    used.update(re.findall(r"\.(\w+)", " ".join(readme)))
    unused = []
    for name in pmckit.__all__:
        cls = getattr(pmckit, name)
        if not isinstance(cls, type):
            continue
        fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        for member in {*vars(cls), *fields}:
            if member.startswith("_") or member in used:
                continue
            if not any(attr == member and owner != f"{name}.{member}" for attr, owner in reads):
                unused.append(f"{name}.{member}")
    assert sorted(unused) == []


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
