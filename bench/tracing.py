"""Spans around pmckit's layer boundaries, for the traced run only.

Tracer.install() replaces, in the module namespaces where they are looked
up, every pmckit function that pmckit.cli calls, plus the names the package
calls internally across layers (the cover inside pmcs_by_vc, the prefix
graphs of its sweep, the decomposition inside enumerate_by_mw).
Tracer.uninstall() puts the originals back. Each span records its name,
start, end, parent span and operation. The layer pieces with no public
boundary (one 4-partition sweep, the prime-quotient step, the DP blocks) are
measured afterwards by probes that call pmckit's public functions on the
same inputs, timed apart from the operations.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# Names the package looks up inside its own modules, across a layer boundary.
INNER_CALLS = (
    ("pmckit.vc", "minimum_vertex_cover"),
    ("pmckit.vc", "prefix_graph"),
    ("pmckit.modular", "modular_decomposition"),
)

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "graph.read_gr_s": ("s", "lower"),
    "graph.split_s": ("s", "lower"),
    "vc.cover_s": ("s", "lower"),
    "vc.cover_calls": ("count", "lower"),
    "vc.sep_sweep_s": ("s", "lower"),
    "vc.partitions3": ("count", "lower"),
    "vc.sep_yield": ("ratio", "higher"),
    "vc.pmc_catalog_s": ("s", "lower"),
    "vc.active_sweep_s": ("s", "lower"),
    "vc.partitions4": ("count", "lower"),
    "vc.prefix_steps": ("count", "lower"),
    "modular.decompose_s": ("s", "lower"),
    "modular.decompose_calls": ("count", "lower"),
    "modular.enum_s": ("s", "lower"),
    "modular.prime_step_s": ("s", "lower"),
    "modular.prime_nodes": ("count", "lower"),
    "modular.prime_subsets": ("count", "lower"),
    "recognition.oracle_s": ("s", "lower"),
    "recognition.oracle_subsets": ("count", "lower"),
    "recognition.subsets_per_s": ("1/s", "higher"),
    "recognition.check_s": ("s", "lower"),
    "solvers.treewidth_s": ("s", "lower"),
    "solvers.fillin_s": ("s", "lower"),
    "solvers.blocks": ("count", "lower"),
    "solvers.block_pmc_pairs": ("count", "lower"),
    "solvers.pairs_per_s": ("1/s", "higher"),
    "trace.overhead": ("%", "lower"),
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "stash")

    def __init__(self, name: str, op: int, parent: "Span | None"):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = 0.0
        self.stash: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for the operations replayed while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self.counts = {"cover_calls": 0, "partitions3": 0, "seps_found": 0, "prefix_steps": 0,
                       "partitions4": 0, "decompose_calls": 0, "oracle_subsets": 0}
        self.output_bytes = 0
        self.catalog_calls = []  # (graph, cover) of each pmcs_by_vc call
        self.prime_quotients = []  # quotient graph of each prime node met by enumerate_by_mw
        self.solver_calls = []  # (graph, catalog) of each treewidth / min_fill_in call
        self.listed: list[set] = []  # per operation: (kind, graph, VertexSet) returned by a route
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        cli = sys.modules["pmckit.cli"]
        targets = [
            ("pmckit.cli", name) for name, obj in vars(cli).items()
            if inspect.isfunction(obj) and obj.__module__.startswith("pmckit.")
            and obj.__module__ != "pmckit.cli"
        ]
        for mod_name, attr in targets + list(INNER_CALLS):
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
        after = getattr(self, "_after_" + fn.__name__, None)

        def wrapper(*args, **kwargs):
            span = Span(name, self.op, self.stack[-1] if self.stack else None)
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    # -- operations --------------------------------------------------------

    def begin_op(self) -> Span:
        self.op += 1
        self.listed.append(set())
        root = Span("op", self.op, None)
        self.spans.append(root)
        self.stack.append(root)
        root.start = time.perf_counter()
        return root

    def end_op(self, root: Span, output: str) -> None:
        root.end = time.perf_counter()
        self.stack.pop()
        self.output_bytes += len(output.encode())

    # -- counts at the boundaries -----------------------------------------

    def _list(self, kind: str, g, sets) -> None:
        self.listed[self.op].update((kind, g, vs) for vs in sets)

    def _after_minimum_vertex_cover(self, span, args, kwargs, result) -> None:
        self.counts["cover_calls"] += 1
        if span.parent is not None:
            span.parent.stash["cover"] = result

    def _after_separators_by_vc(self, span, args, kwargs, result) -> None:
        self.counts["partitions3"] += 3 ** len(args[1])
        self.counts["seps_found"] += len(result)
        self._list("sep", args[0], result)

    def _after_prefix_graph(self, span, args, kwargs, result) -> None:
        self.counts["prefix_steps"] += 1
        cover = span.parent.stash.get("cover") if span.parent is not None else None
        if cover is not None:
            self.counts["partitions4"] += 4 ** (cover.mask & ((1 << args[1]) - 1)).bit_count()

    def _after_pmcs_by_vc(self, span, args, kwargs, result) -> None:
        cover = span.stash.get("cover", args[1] if len(args) > 1 else None)
        if cover is not None:
            self.catalog_calls.append((args[0], cover))
        self._list("pmc", args[0], result)

    def _after_modular_decomposition(self, span, args, kwargs, result) -> None:
        self.counts["decompose_calls"] += 1
        if span.parent is not None:
            span.parent.stash["tree"] = result

    def _after_enumerate_by_mw(self, span, args, kwargs, result) -> None:
        tree = args[1] if len(args) > 1 else kwargs.get("tree")
        stack = [(tree or span.stash["tree"]).root]
        while stack:
            node = stack.pop()
            if node.kind == "prime":
                self.prime_quotients.append(node.quotient)
            stack.extend(node.children)
        self._list("sep", args[0], result[0])
        self._list("pmc", args[0], result[1])

    def _after_brute_force_separators(self, span, args, kwargs, result) -> None:
        self.counts["oracle_subsets"] += 1 << args[0].n
        self._list("sep", args[0], result)

    def _after_brute_force_pmcs(self, span, args, kwargs, result) -> None:
        self.counts["oracle_subsets"] += 1 << args[0].n
        self._list("pmc", args[0], result)

    def _after_treewidth(self, span, args, kwargs, result) -> None:
        self.solver_calls.append((args[0], args[1]))

    _after_min_fill_in = _after_treewidth

    # -- results -----------------------------------------------------------

    def seconds_in(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def cli_self_seconds(self) -> float:
        inner = sum(s.seconds for s in self.spans if s.parent is not None and s.parent.name == "op")
        return self.seconds_in("op") - inner

    def probes(self, pmckit) -> dict:
        """Time the layer pieces with no public boundary, on the inputs the operations used."""
        out = {"active_sweep_s": 0.0, "prime_step_s": 0.0,
               "prime_subsets": 0, "blocks": 0, "pairs": 0, "check_s": 0.0}
        for g, cover in self.catalog_calls:
            t0 = time.perf_counter()
            pmckit.active_pmcs_by_vc(g, cover)
            out["active_sweep_s"] += time.perf_counter() - t0
        for q in self.prime_quotients:
            t0 = time.perf_counter()
            pmckit.base_enumerate(q)
            out["prime_step_s"] += time.perf_counter() - t0
            out["prime_subsets"] += 1 << q.n
        for g, catalog in self.solver_calls:
            blocks = pmckit.dp_blocks(g, catalog)
            out["blocks"] += len(blocks)
            out["pairs"] += block_pmc_pairs(blocks, catalog)
        recognizers = {"sep": pmckit.is_minimal_separator, "pmc": pmckit.is_pmc}
        for listed in self.listed:
            t0 = time.perf_counter()
            for kind, g, vs in listed:
                recognizers[kind](g, vs)
            out["check_s"] += time.perf_counter() - t0
        return out

    def metrics(self, pmckit, overhead_pct: float) -> dict:
        ops = self.op + 1
        c = self.counts
        p = self.probes(pmckit)
        oracle_s = self.seconds_in("recognition.brute_force_separators", "recognition.brute_force_pmcs")
        dp_s = self.seconds_in("solvers.treewidth", "solvers.min_fill_in")
        values = {
            "cli.self_s": self.cli_self_seconds() / ops,
            "cli.output_bytes": self.output_bytes / ops,
            "graph.read_gr_s": self.seconds_in("graph.read_gr") / ops,
            "graph.split_s": self.seconds_in("graph.components", "graph.induced_subgraph") / ops,
            "vc.cover_s": self.seconds_in("vc.minimum_vertex_cover") / ops,
            "vc.cover_calls": c["cover_calls"] / ops,
            "vc.sep_sweep_s": self.seconds_in("vc.separators_by_vc") / ops,
            "vc.partitions3": c["partitions3"] / ops,
            "vc.sep_yield": c["seps_found"] / c["partitions3"] if c["partitions3"] else 0.0,
            "vc.pmc_catalog_s": self.seconds_in("vc.pmcs_by_vc") / ops,
            "vc.active_sweep_s": p["active_sweep_s"] / ops,
            "vc.partitions4": c["partitions4"] / ops,
            "vc.prefix_steps": c["prefix_steps"] / ops,
            "modular.decompose_s": self.seconds_in("modular.modular_decomposition") / ops,
            "modular.decompose_calls": c["decompose_calls"] / ops,
            "modular.enum_s": self.seconds_in("modular.enumerate_by_mw") / ops,
            "modular.prime_step_s": p["prime_step_s"] / ops,
            "modular.prime_nodes": len(self.prime_quotients) / ops,
            "modular.prime_subsets": p["prime_subsets"] / ops,
            "recognition.oracle_s": oracle_s / ops,
            "recognition.oracle_subsets": c["oracle_subsets"] / ops,
            "recognition.subsets_per_s": c["oracle_subsets"] / oracle_s if oracle_s else 0.0,
            "recognition.check_s": p["check_s"] / ops,
            "solvers.treewidth_s": self.seconds_in("solvers.treewidth") / ops,
            "solvers.fillin_s": self.seconds_in("solvers.min_fill_in") / ops,
            "solvers.blocks": p["blocks"] / ops,
            "solvers.block_pmc_pairs": p["pairs"] / ops,
            "solvers.pairs_per_s": p["pairs"] / dp_s if dp_s else 0.0,
            "trace.overhead": overhead_pct,
        }
        return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, op, start and end (s from the first span), parent."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "op": s.op, "start": s.start - t0,
                                     "end": s.end - t0,
                                     "parent": index[id(s.parent)] if s.parent else None}) + "\n")


def block_pmc_pairs(blocks, catalog) -> int:
    """(block, PMC) pairs the block DP must combine: S strictly inside Omega, Omega inside S + C."""
    pmcs = [vs.mask for vs in catalog]
    pairs = 0
    for b in blocks:
        s, lim = b.sep.mask, b.sep.mask | b.comp.mask
        pairs += sum(1 for om in pmcs if s & ~om == 0 and om & ~s and om & ~lim == 0)
    return pairs
