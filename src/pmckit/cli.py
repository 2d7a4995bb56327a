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

from .bitset import VertexSet, bit_list
from .errors import CapExceeded, ContractViolation, InputError
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
    PmcCatalog,
    brute_force_pmcs,
    brute_force_separators,
    is_minimal_uv_separator,
)
from .solvers import min_fill_in, treewidth
from .vc import minimum_vertex_cover, pmcs_by_vc, separators_by_vc


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
        return int(raw)
    except ValueError:
        raise InputError(f"PMCKIT_ORACLE_CAP must be an integer, got {raw!r}") from None


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


def _route_basis(g: Graph, method: str):
    """The structure a route starts from, computed once per command.

    The minimum vertex cover for vc, the modular decomposition tree for mw,
    None for brute.
    """
    if method == "vc":
        return minimum_vertex_cover(g)
    if method == "mw":
        return modular_decomposition(g)
    return None


def _enumerate_separators(g: Graph, method: str, jobs: int, basis) -> list[VertexSet]:
    if method == "vc":
        return separators_by_vc(g, basis, jobs=jobs)
    if method == "mw":
        return enumerate_by_mw(g, basis)[0]
    return brute_force_separators(g, cap=_env_oracle_cap(), jobs=jobs)


def _enumerate_pmcs(g: Graph, method: str, jobs: int, basis) -> PmcCatalog:
    if method == "vc":
        return pmcs_by_vc(g, basis)
    if method == "mw":
        return enumerate_by_mw(g, basis)[1]
    return brute_force_pmcs(g, cap=_env_oracle_cap(), jobs=jobs)


def _fill_params(report: RunReport, g: Graph, method: str):
    """Record the route's parameter in the report; return the route's basis."""
    basis = _route_basis(g, method)
    if method == "vc":
        report.vc = len(basis)
    elif method == "mw":
        report.mw = modular_width(basis)
    return basis


def solve_value(g: Graph, problem: str, method: str, jobs: int = 1, basis=None) -> int:
    """Treewidth ('tw') or minimum fill-in ('fillin') of any graph.

    Splits into connected components, solves each from its PMC catalog, and
    combines with max (treewidth) or sum (fill-in). A connected g reuses
    ``basis``, the vertex cover or decomposition tree of g, when given.
    """
    if g.n == 0:
        raise InputError("graph must be nonempty")
    comps = components(g, VertexSet())
    values = []
    for comp in comps:
        sub, _ = induced_subgraph(g, comp)
        sub_basis = basis if basis is not None and len(comps) == 1 else _route_basis(sub, method)
        catalog = _enumerate_pmcs(sub, method, jobs, sub_basis)
        values.append(treewidth(sub, catalog) if problem == "tw" else min_fill_in(sub, catalog))
    return max(values) if problem == "tw" else sum(values)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_enum(args) -> tuple[RunReport, int]:
    source, g = _resolve_graph(args)
    report = RunReport(command="enum", source=source, n=g.n, m=g.m)
    basis = _fill_params(report, g, args.method)
    if args.what == "seps":
        seps = _enumerate_separators(g, args.method, args.jobs, basis)
        report.results = {
            "separators": [vs.to_list() for vs in seps],
            "counts": {"separators": len(seps)},
        }
    else:
        catalog = _enumerate_pmcs(g, args.method, args.jobs, basis)
        report.results = {
            "pmcs": catalog.to_lists(),
            "counts": {"pmcs": len(catalog)},
        }
    return report, 0


def _cmd_count(args) -> tuple[RunReport, int]:
    source, g = _resolve_graph(args)
    report = RunReport(command="count", source=source, n=g.n, m=g.m)
    basis = _fill_params(report, g, args.method)
    want_seps = args.what in ("seps", "both")
    want_pmcs = args.what in ("pmcs", "both")
    if args.method == "mw":
        seps, catalog = enumerate_by_mw(g, basis)  # one pass gives both
    else:
        seps = _enumerate_separators(g, args.method, args.jobs, basis) if want_seps else None
        catalog = _enumerate_pmcs(g, args.method, args.jobs, basis) if want_pmcs else None
    counts: dict = {}
    if want_seps:
        counts["separators"] = len(seps)
        if args.family == "watermelon":
            u, v = watermelon_hubs(args.p, args.q)
            counts["uv_separators"] = sum(
                1 for s in seps if is_minimal_uv_separator(g, s, u, v)
            )
    if want_pmcs:
        counts["pmcs"] = len(catalog)
    report.results = {"counts": counts}
    return report, 0


def _verify_targets(args) -> tuple[str, list[tuple[str, Graph]]]:
    if args.seeds is not None:
        if args.family != "gnp":
            raise InputError("--seeds requires --family gnp")
        if args.seed is not None:
            raise InputError("--seeds replaces --seed; give only one")
        if args.seeds < 1:
            raise InputError("--seeds must be positive")
        if args.n is None or args.prob is None:
            raise InputError("--family gnp needs --n and --prob")
        targets = []
        for seed in range(args.seeds):
            src = _family_source("gnp", {"n": args.n, "prob": args.prob, "seed": seed})
            targets.append((src, generate("gnp", n=args.n, prob=args.prob, seed=seed)))
        overall = _family_source("gnp", {"n": args.n, "prob": args.prob}) + f"+seeds=0..{args.seeds - 1}"
        return overall, targets
    source, g = _resolve_graph(args)
    return source, [(source, g)]


def _mismatch_witnesses(sets: dict[str, set[int]], limit: int = 10) -> list[list[int]]:
    union: set[int] = set()
    inter: set[int] | None = None
    for masks in sets.values():
        union |= masks
        inter = masks if inter is None else inter & masks
    disputed = union - (inter or set())
    return [bit_list(m) for m in sorted(disputed, key=bit_list)[:limit]]


def _cmd_verify(args) -> tuple[RunReport, int]:
    overall_source, targets = _verify_targets(args)
    oracle_cap = _env_oracle_cap()
    checks = []
    failures = 0
    single = len(targets) == 1
    report = RunReport(command="verify", source=overall_source)
    for source, g in targets:
        cover = minimum_vertex_cover(g)
        tree = modular_decomposition(g)
        mw_seps, mw_cat = enumerate_by_mw(g, tree)
        sep_sets = {
            "vc": {vs.mask for vs in separators_by_vc(g, cover, jobs=args.jobs)},
            "mw": {vs.mask for vs in mw_seps},
        }
        pmc_sets = {
            "vc": set(pmcs_by_vc(g, cover).mask_set()),
            "mw": set(mw_cat.mask_set()),
        }
        oracle = "included"
        if g.n <= oracle_cap:
            sep_sets["brute"] = {
                vs.mask for vs in brute_force_separators(g, cap=oracle_cap, jobs=args.jobs)
            }
            pmc_sets["brute"] = set(brute_force_pmcs(g, cap=oracle_cap, jobs=args.jobs).mask_set())
        else:
            oracle = "skipped"
        if single:
            report.n, report.m = g.n, g.m
            report.vc = len(cover)
            report.mw = modular_width(tree)
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
        "counts": {"graphs": len(targets), "failures": failures},
    }
    report.verified = failures == 0
    return report, 0 if report.verified else 1


def _cmd_solve(args) -> tuple[RunReport, int]:
    source, g = _resolve_graph(args)
    report = RunReport(command="solve", source=source, n=g.n, m=g.m)
    basis = _fill_params(report, g, args.method)
    value = solve_value(g, args.problem, args.method, jobs=args.jobs, basis=basis)
    key = "treewidth" if args.problem == "tw" else "fill_in"
    report.results = {"counts": {key: value}}
    return report, 0


def _cmd_decompose(args) -> tuple[RunReport, int]:
    source, g = _resolve_graph(args)
    tree = modular_decomposition(g)
    report = RunReport(command="decompose", source=source, n=g.n, m=g.m)
    report.mw = modular_width(tree)
    report.results = {"decomposition": tree_to_json(tree), "counts": {}}
    return report, 0


def _cmd_bench(args) -> tuple[RunReport, int]:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    source, g = _resolve_graph(args)
    timings["build"] = _ms_since(t0)
    report = RunReport(command="bench", source=source, n=g.n, m=g.m)
    t0 = time.perf_counter()
    basis = _fill_params(report, g, args.method)
    if args.method != "brute":
        timings["vertex_cover" if args.method == "vc" else "decompose"] = _ms_since(t0)
    counts: dict = {}
    if args.what in ("seps", "both"):
        t0 = time.perf_counter()
        counts["separators"] = len(_enumerate_separators(g, args.method, args.jobs, basis))
        timings["separators"] = _ms_since(t0)
    if args.what in ("pmcs", "both"):
        t0 = time.perf_counter()
        counts["pmcs"] = len(_enumerate_pmcs(g, args.method, args.jobs, basis))
        timings["pmcs"] = _ms_since(t0)
    report.results = {"counts": counts}
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


def _add_run_options(p: argparse.ArgumentParser, method: bool = True) -> None:
    if method:
        p.add_argument("--method", choices=("vc", "mw", "brute"), default="vc")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
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
    p.add_argument("--seeds", type=int, help="gnp only: verify seeds 0..N-1")
    _add_run_options(p, method=False)

    p = sub.add_parser("solve", help="exact treewidth or minimum fill-in")
    p.add_argument("problem", choices=("tw", "fillin"))
    _add_input_options(p)
    _add_run_options(p)

    p = sub.add_parser("decompose", help="modular decomposition tree as JSON")
    _add_input_options(p)
    _add_run_options(p, method=False)

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
            sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
        return code
    except (InputError, CapExceeded, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# Exit-code contract: 0 success, 1 verification mismatch, 2 input error.
run = main


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
