"""Command-line surface: enumeration, oracle comparison, solving, generation, benchmarks.

All commands print one JSON document (or a plain-text rendering with
``--pretty``) and use exit codes 0 = success, 1 = verification mismatch,
2 = input error. Output is deterministic for fixed inputs and seeds; only
``bench`` emits wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .bitset import VertexSet, bit_list
from .errors import CapExceeded, InputError
from .graph import (
    Graph,
    _FAMILIES,
    components,
    generate,
    induced_subgraph,
    read_gr,
    watermelon_hubs,
    write_gr,
)
from .modular import (
    enumerate_by_mw,
    modular_decomposition,
    modular_width,
    tree_to_json,
)
from .recognition import (
    DEFAULT_ORACLE_CAP,
    _ORACLE_CEILING,
    PmcCatalog,
    brute_force_lists,
    is_minimal_uv_separator,
)
from .solvers import _simplicial_core, _solve_tree, _tw_bracket, min_fill_in, treewidth
from .vc import minimum_vertex_cover, pmcs_by_vc, separators_by_vc

# Largest --jobs accepted; each job is one worker process.
MAX_JOBS = 64
# Largest verify --seeds accepted; each seed's graph is built when its turn comes.
MAX_SEEDS = 4096


@dataclass
class RunReport:
    """Everything one command run reports; serializes to the fixed JSON layout."""

    command: str
    source: str
    n: int | None = None
    m: int | None = None
    vc: int | None = None
    mw: int | None = None
    results: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)
    verified: bool = True

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "graph": {"n": self.n, "m": self.m, "source": self.source},
            "params": {"vc": self.vc, "mw": self.mw},
            "results": self.results,
            "timings_ms": self.timings_ms,
            "verified": self.verified,
        }


def _env_oracle_cap() -> int:
    raw = os.environ.get("PMCKIT_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"PMCKIT_ORACLE_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise InputError(f"PMCKIT_ORACLE_CAP must be at least 0, got {cap}")
    if cap > _ORACLE_CEILING:
        raise InputError(f"PMCKIT_ORACLE_CAP must be at most {_ORACLE_CEILING}, got {cap}")
    return cap


def _family_source(family: str, params: dict) -> str:
    if not params:
        return f"family:{family}"
    inner = ",".join(f"{k}={params[k]:g}" if isinstance(params[k], float) else f"{k}={params[k]}"
                     for k in sorted(params))
    return f"family:{family}({inner})"


def _resolve_graph(args) -> tuple[str, Graph]:
    if bool(args.input) == bool(args.family):
        raise InputError("give exactly one of --input or --family")
    if args.input:
        return f"file:{args.input}", read_gr(args.input)
    params = {
        k: v
        for k, v in (("p", args.p), ("q", args.q), ("n", args.n),
                     ("prob", args.prob), ("seed", args.seed))
        if v is not None
    }
    return _family_source(args.family, params), generate(args.family, **params)


def _route_basis(g: Graph, method: str, report: RunReport | None = None):
    """The structure a route starts from, computed once per command.

    The minimum vertex cover for vc, the modular decomposition tree for mw,
    None for brute. With a report, the route's parameter is recorded too;
    covers add up, so solve's one cover per component records the whole
    graph's.
    """
    if g.n == 0:
        raise InputError("graph must be nonempty")
    if method == "vc":
        basis = minimum_vertex_cover(g)
        if report is not None:
            report.vc = (report.vc or 0) + len(basis)
    elif method == "mw":
        basis = modular_decomposition(g)
        if report is not None:
            report.mw = modular_width(basis)
    else:
        basis = None
    return basis


def _route_lists(
    g: Graph, method: str, jobs: int, basis, what: str = "both",
    seps: list[VertexSet] | None = None,
) -> tuple[list[VertexSet] | None, PmcCatalog | None]:
    """g's separators and PMC catalog by one route, for ``what`` "seps", "pmcs" or "both".

    A list not asked for comes back None, except from the subset scan,
    which lists both. The vc route takes ``seps``, g's separators when
    already listed, instead of sweeping for them again.
    """
    if method == "mw":
        return enumerate_by_mw(g, basis, what)
    if method == "brute":
        return brute_force_lists(g, cap=_env_oracle_cap(), jobs=jobs)
    if seps is None and what in ("seps", "both"):
        seps = separators_by_vc(g, basis)
    return seps, pmcs_by_vc(g, basis, separators=seps) if what in ("pmcs", "both") else None


def solve_value(g: Graph, problem: str, method: str, jobs: int = 1, report=None) -> int:
    """Treewidth ('tw') or minimum fill-in ('fillin') of any graph.

    The mw route solves g along its modular decomposition tree, whose union
    root combines the components. The others split g into connected
    components, run the block DP over each one's PMC catalog, and combine
    with max (treewidth) or sum (fill-in); the split keeps their listings
    to each component. The vc route answers a chordal component, whose
    simplicial core (solvers._simplicial_core) is empty, at once, and
    treewidth by vc lists no component whose bracket (solvers._tw_bracket)
    closes; brute lists every one, as the referee. Each route basis is
    computed once, and recorded in ``report`` when one is given, so the
    reported vc is the same either way.
    """
    if method == "mw":
        return _solve_tree(_route_basis(g, method, report), problem)
    if g.n == 0:
        raise InputError("graph must be nonempty")
    values = []
    for comp in components(g, VertexSet()):
        sub, _ = induced_subgraph(g, comp)
        basis = _route_basis(sub, method, report)
        if method == "vc":
            low, core = _simplicial_core(sub.adj, sub.full_mask)
            if not core:
                values.append(low if problem == "tw" else 0)
                continue
            if problem == "tw":
                lb, ub = _tw_bracket(sub.adj, sub.full_mask)
                if lb == ub:
                    values.append(lb)
                    continue
        catalog = _route_lists(sub, method, jobs, basis, "pmcs")[1]
        values.append(treewidth(sub, catalog) if problem == "tw" else min_fill_in(sub, catalog))
    return max(values) if problem == "tw" else sum(values)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _list_objects(args) -> tuple[RunReport, Graph, dict, dict[str, float]]:
    """Resolve the graph and list the kinds ``args.what`` asks for by ``args.method``.

    Returns the report with the graph and route parameter filled in, the
    graph, the lists by kind ("separators" a list, "pmcs" a catalog), and
    the milliseconds of each stage: the build, the route basis, then one
    _route_lists call per listing stage. The vc route lists separators and
    then PMCs, handing the separators on; mw and brute list in one stage.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    source, g = _resolve_graph(args)
    timings["build"] = _ms_since(t0)
    report = RunReport(command=args.command, source=source, n=g.n, m=g.m)
    t0 = time.perf_counter()
    basis = _route_basis(g, args.method, report)
    if args.method != "brute":
        timings["vertex_cover" if args.method == "vc" else "decompose"] = _ms_since(t0)
    asked = [(w, key) for w, key in (("seps", "separators"), ("pmcs", "pmcs"))
             if args.what in (w, "both")]
    seps = catalog = None
    for what, key in asked if args.method == "vc" else [(args.what, "lists")]:
        t0 = time.perf_counter()
        seps, catalog = _route_lists(g, args.method, args.jobs, basis, what, seps)
        timings[key] = _ms_since(t0)
    found = {"separators": seps, "pmcs": catalog}
    return report, g, {key: found[key] for _, key in asked}, timings


def _cmd_enum(args) -> tuple[RunReport, int]:
    report, _, lists, _ = _list_objects(args)
    [(key, found)] = lists.items()
    report.results = {key: [vs.to_list() for vs in found], "counts": {key: len(found)}}
    return report, 0


def _cmd_count(args) -> tuple[RunReport, int]:
    report, g, lists, _ = _list_objects(args)
    counts = {}
    for key, found in lists.items():
        counts[key] = len(found)
        if key == "separators" and args.family == "watermelon":
            u, v = watermelon_hubs(args.p, args.q)
            counts["uv_separators"] = sum(1 for s in found if is_minimal_uv_separator(g, s, u, v))
    report.results = {"counts": counts}
    return report, 0


def _verify_targets(args) -> tuple[str, int, Iterable[tuple[str, Graph]]]:
    """The overall source, the number of graphs, and (source, graph) per graph, each built when reached."""
    if args.seeds is not None:
        if args.family != "gnp":
            raise InputError("--seeds requires --family gnp")
        if args.seed is not None:
            raise InputError("--seeds replaces --seed; give only one")
        if args.input or args.p is not None or args.q is not None:
            raise InputError("--seeds generates gnp graphs; it takes no --input, --p or --q")
        if not 1 <= args.seeds <= MAX_SEEDS:
            raise InputError(f"--seeds must be between 1 and {MAX_SEEDS}, got {args.seeds}")
        if args.n is None or args.prob is None:
            raise InputError("--family gnp needs --n and --prob")
        targets = ((_family_source("gnp", {"n": args.n, "prob": args.prob, "seed": seed}),
                    generate("gnp", n=args.n, prob=args.prob, seed=seed)) for seed in range(args.seeds))
        overall = _family_source("gnp", {"n": args.n, "prob": args.prob}) + f"+seeds=0..{args.seeds - 1}"
        return overall, args.seeds, targets
    source, g = _resolve_graph(args)
    return source, 1, [(source, g)]


def _mismatch_witnesses(sets: dict[str, set[int]]) -> list[list[int]]:
    """The first ten sets, by vertex list, that some but not every method reported."""
    union: set[int] = set()
    inter: set[int] | None = None
    for masks in sets.values():
        union |= masks
        inter = masks if inter is None else inter & masks
    disputed = union - (inter or set())
    return [bit_list(m) for m in sorted(disputed, key=bit_list)[:10]]


def _cmd_verify(args) -> tuple[RunReport, int]:
    overall_source, count, targets = _verify_targets(args)
    oracle_cap = _env_oracle_cap()
    checks = []
    failures = 0
    single = count == 1
    report = RunReport(command="verify", source=overall_source)
    for source, g in targets:
        oracle = "included" if g.n <= oracle_cap else "skipped"
        methods = ["brute", "mw", "vc"] if g.n <= oracle_cap else ["mw", "vc"]
        if single:
            report.n, report.m = g.n, g.m
        sep_sets, pmc_sets = {}, {}
        for method in methods:
            basis = _route_basis(g, method, report if single else None)
            seps, catalog = _route_lists(g, method, args.jobs, basis)
            sep_sets[method] = {vs.mask for vs in seps}
            pmc_sets[method] = set(catalog.mask_set())
        for check_name, sets in (("separators", sep_sets), ("pmcs", pmc_sets)):
            first = next(iter(sets.values()))
            entry = {
                "source": source,
                "check": check_name,
                "methods": sorted(sets),
                "oracle": oracle,
            }
            if all(s == first for s in sets.values()):
                entry["status"] = "pass"
            else:
                entry["status"] = "fail"
                entry["witnesses"] = _mismatch_witnesses(sets)
                failures += 1
            checks.append(entry)
    report.results = {
        "checks": checks,
        "counts": {"graphs": count, "failures": failures},
    }
    report.verified = failures == 0
    return report, 0 if report.verified else 1


def _cmd_solve(args) -> tuple[RunReport, int]:
    source, g = _resolve_graph(args)
    report = RunReport(command="solve", source=source, n=g.n, m=g.m)
    value = solve_value(g, args.problem, args.method, jobs=args.jobs, report=report)
    key = "treewidth" if args.problem == "tw" else "fill_in"
    report.results = {"counts": {key: value}}
    return report, 0


def _cmd_decompose(args) -> tuple[RunReport, int]:
    source, g = _resolve_graph(args)
    tree = modular_decomposition(g)
    report = RunReport(command="decompose", source=source, n=g.n, m=g.m)
    report.results = {"decomposition": tree_to_json(tree), "counts": {}}
    report.mw = report.results["decomposition"]["modular_width"]
    return report, 0


def _cmd_bench(args) -> tuple[RunReport, int]:
    report, _, lists, timings = _list_objects(args)
    report.results = {"counts": {key: len(found) for key, found in lists.items()}}
    report.timings_ms = timings
    return report, 0


def _ms_since(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


# ---------------------------------------------------------------------------
# Parser and entry points
# ---------------------------------------------------------------------------

def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="FILE.gr", help="read a PACE .gr file")
    p.add_argument("--family", choices=sorted(_FAMILIES), help="generate a named family")
    p.add_argument("--p", type=int, help="watermelon: number of paths")
    p.add_argument("--q", type=int, help="watermelon: vertices per path")
    p.add_argument("--n", type=int, help="vertex count for sized families")
    p.add_argument("--prob", type=float, help="gnp edge probability")
    p.add_argument("--seed", type=int, help="gnp seed")


def _jobs_count(raw: str) -> int:
    try:
        jobs = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if not 1 <= jobs <= MAX_JOBS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_JOBS}, got {jobs}")
    return jobs


def _add_run_options(p: argparse.ArgumentParser, method: bool = True) -> None:
    if method:
        p.add_argument("--method", choices=("vc", "mw", "brute"), default="vc")
    p.add_argument("--jobs", type=_jobs_count, default=1,
                   help=f"worker processes, 1 to {MAX_JOBS} (default 1); used only by the "
                        "subset oracles, while the vc and mw routes run in one process")
    p.add_argument("--pretty", action="store_true", help="plain-text table instead of JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmckit",
        description="Enumerate minimal separators and potential maximal cliques; "
                    "solve treewidth and minimum fill-in exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list minimal separators or PMCs")
    p.add_argument("what", choices=("seps", "pmcs"))
    _add_input_options(p)
    _add_run_options(p)

    p = sub.add_parser("count", help="count objects without listing them")
    p.add_argument("--what", choices=("seps", "pmcs", "both"), default="seps")
    _add_input_options(p)
    _add_run_options(p)

    p = sub.add_parser("verify", help="cross-check every applicable method")
    _add_input_options(p)
    p.add_argument("--seeds", type=int, help=f"gnp only: verify seeds 0..N-1 (N <= {MAX_SEEDS})")
    _add_run_options(p, method=False)

    p = sub.add_parser("solve", help="exact treewidth or minimum fill-in")
    p.add_argument("problem", choices=("tw", "fillin"))
    _add_input_options(p)
    _add_run_options(p)

    p = sub.add_parser("decompose", help="modular decomposition tree as JSON")
    _add_input_options(p)
    p.add_argument("--pretty", action="store_true", help="plain-text table instead of JSON")

    p = sub.add_parser("gen", help="emit a generated graph in .gr format")
    _add_input_options(p)

    p = sub.add_parser("bench", help="wall-clock timings per phase")
    p.add_argument("--what", choices=("seps", "pmcs", "both"), default="both")
    _add_input_options(p)
    _add_run_options(p)

    return parser


_COMMANDS = {
    "enum": _cmd_enum,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "decompose": _cmd_decompose,
    "bench": _cmd_bench,
}


def _render_pretty(report: RunReport) -> str:
    lines = [f"command:  {report.command}",
             f"graph:    n={report.n} m={report.m} source={report.source}",
             f"params:   vc={report.vc} mw={report.mw}"]
    counts = report.results.get("counts", {})
    for key in counts:
        lines.append(f"{key}: {counts[key]}")
    for key in ("separators", "pmcs"):
        if key in report.results:
            lines.append(f"{key}:")
            lines.extend(f"  {row}" for row in report.results[key])
    for entry in report.results.get("checks", []):
        lines.append(
            f"check {entry['check']:<10} {entry['status']:<4} "
            f"oracle={entry['oracle']} {entry['source']}"
        )
        for witness in entry.get("witnesses", []):
            lines.append(f"  disputed: {witness}")
    if report.timings_ms:
        for phase, ms in report.timings_ms.items():
            lines.append(f"time {phase}: {ms} ms")
    lines.append(f"verified: {str(report.verified).lower()}")
    return "\n".join(lines) + "\n"


# rows of a listing that _json_chunks joins into one chunk
_ROW_BLOCK = 256


def _json_chunks(value) -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in chunks, without the json module's pure-Python encoder.

    ``indent`` makes the json module build one string per token through
    nested generators, one frame per level of nesting. This walks ``value``
    with an explicit stack instead, so a deep decomposition tree prints. It
    writes a list of ints as one chunk from one join, and a list of int
    lists (a listing) in blocks of _ROW_BLOCK rows, one chunk from one join
    of row texts per block, so a long listing is never held whole as text.
    Keys and every other scalar go through ``json.dumps``, so escaping and
    the spelling of floats, None and bools stay the stdlib's. The join path
    takes only elements whose type is int itself: a bool is an int too, but
    ``str(True)`` is "True". Chunks are yielded as they are made, so the
    caller can write them without holding the whole text twice.
    """
    # each entry is finished text, or (value, the newline and indent its own lines start with)
    todo: list = [(value, "\n")]
    while todo:
        item = todo.pop()
        if type(item) is str:
            yield item
            continue
        v, nl = item
        inner = nl + "  "
        if isinstance(v, dict):
            if not v:
                yield "{}"
                continue
            todo.append(nl + "}")
            items = list(v.items())
            for i in range(len(items) - 1, -1, -1):
                k, x = items[i]
                todo.append((x, inner))
                todo.append(("," if i else "{") + inner + json.dumps(k) + ": ")
        elif isinstance(v, (list, tuple)):
            if not v:
                yield "[]"
            elif set(map(type, v)) <= {int}:
                yield "[" + inner + ("," + inner).join(map(str, v)) + nl + "]"
            elif all(type(r) in (list, tuple) and set(map(type, r)) <= {int} for r in v):
                deeper = inner + "  "
                sep, between, head = "," + deeper, "," + inner, "[" + inner
                for i in range(0, len(v), _ROW_BLOCK):
                    yield head + between.join(["[" + deeper + sep.join(map(str, r)) + inner + "]"
                                               if r else "[]" for r in v[i:i + _ROW_BLOCK]])
                    head = between
                yield nl + "]"
            else:
                todo.append(nl + "]")
                for i in range(len(v) - 1, -1, -1):
                    todo.append((v[i], inner))
                    todo.append(("," if i else "[") + inner)
        else:
            yield json.dumps(v)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "gen":
            _, g = _resolve_graph(args)
            sys.stdout.write(write_gr(g))
            return 0
        report, code = _COMMANDS[args.command](args)
        if getattr(args, "pretty", False):
            sys.stdout.write(_render_pretty(report))
        else:
            sys.stdout.writelines(_json_chunks(report.to_dict()))
            sys.stdout.write("\n")
        return code
    except (InputError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep: a recursive step passed Python's recursion limit",
              file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
