"""Benchmark of pmckit's CLI on three seeded workloads.

    python3 bench/run.py --workload vc-enum --seed 1 --seconds 20 --trace 0

Each operation is one `pmckit` command run in-process through
pmckit.cli.main(argv), with --jobs 1, in a closed loop: one at a time, the
next after the previous returns. A run repeats whole rounds of the same
operations until --seconds have passed, then checks the first round's
outputs with the benchmark's own code (checks.py) and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones. With --trace 1 each operation is replayed right after
itself with spans around pmckit's layers (tracing.py), and the metrics are
the per-layer ones.
Run it from the repository root; it builds nothing and reads pmckit from src/.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import checks
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.basename(HERE)

SETUP_REPS = 2  # set-ups at each point: before the first round, between rounds, after the last
JOBS = ["--jobs", "1"]

# vc-enum: one pool graph per stratum of reference.json, each listed both ways,
# plus watermelon(WM_P, 3), where 3^vc is tight, listed WM_OPS times.
WM_P, WM_OPS = 8, 3
# mw-solve: prime quotients (path or cycle) whose vertices become prime,
# connected gnp(MODULE_N, MODULE_PROB) modules; each graph solved for tw and
# fill-in. Operations of about 1 s keep a 20 s run under 40 operations.
MW_SHAPES = [("path", 9), ("cycle", 10), ("path", 10), ("cycle", 9), ("path", 10), ("cycle", 10)]
MODULE_N, MODULE_PROB = 12, 0.25
# verify-oracle: gnp(VERIFY_N, VERIFY_PROB) graphs with vertex cover VERIFY_VC, under the oracle cap.
VERIFY_N, VERIFY_PROB, VERIFY_VC, VERIFY_GRAPHS = 15, 0.17, 6, 12


class SetupError(Exception):
    pass


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict, int], list[str]]  # (report, exit code) -> failure messages


# ---------------------------------------------------------------------------
# Workloads: each builds its inputs from a seeded rng and returns one round of operations
# ---------------------------------------------------------------------------

def write_input(work: str, name: str, adj: list[int]) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checks.gr_text(adj))
    return path


def build_vc_enum(rng: random.Random, work: str, pmckit) -> list[Op]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    gnp_ops = []
    for stratum in range(ref["strata"]):
        entry = rng.choice([e for e in ref["graphs"] if e["stratum"] == stratum])
        adj = checks.gnp_adj(ref["n"], ref["prob"], entry["seed"])
        if checks.fingerprint(adj) != entry["fingerprint"] or checks.vertex_cover_number(adj) != ref["vc"]:
            raise SetupError(f"gnp seed {entry['seed']} no longer matches reference.json")
        path = write_input(work, f"gnp{stratum}.gr", adj)
        for what in ("pmcs", "seps"):
            gnp_ops.append(Op(["enum", what, "--input", path, "--method", "vc", *JOBS],
                              lambda out, code, adj=adj, what=what, e=entry:
                              checks.check_listing(adj, out, what, ref["vc"], e)))
    wm = checks.watermelon_adj(WM_P, 3)
    if checks.vertex_cover_number(wm) != WM_P + 2:
        raise SetupError("watermelon vertex cover is not p + 2")
    wm_argv = ["enum", "seps", "--family", "watermelon", "--p", str(WM_P), "--q", "3", "--method", "vc", *JOBS]
    wm_op = Op(wm_argv, lambda out, code: checks.check_watermelon(wm, out, WM_P))
    # Spread the watermelon operations over the round, so that their median,
    # usually the round's median, is not taken in one stretch of machine noise.
    step = len(gnp_ops) // WM_OPS
    ops = []
    for i in range(WM_OPS):
        ops += gnp_ops[i * step:(i + 1) * step] + [wm_op]
    return ops + gnp_ops[WM_OPS * step:]


def module_graph(rng: random.Random) -> list[int]:
    while True:
        adj = checks.gnp_adj(MODULE_N, MODULE_PROB, rng.randrange(1 << 31))
        if checks.is_connected(adj) and checks.is_prime(adj):
            return adj


def solve_ops(path: str, adj: list[int]) -> list[Op]:
    bounds = functools.cache(lambda: (checks.minor_min_width(adj), *checks.min_fill_order(adj)))
    return [Op(["solve", problem, "--input", path, "--method", "mw", *JOBS],
               lambda out, code, problem=problem: checks.check_solve(adj, out, problem, bounds()))
            for problem in ("tw", "fillin")]


def build_mw_solve(rng: random.Random, work: str, pmckit) -> list[Op]:
    def as_graph(adj: list[int]):
        return pmckit.Graph(len(adj), tuple(adj), checks.edge_count(adj))

    ops = []
    for i, (shape, q) in enumerate(MW_SHAPES):
        quotient = checks.path_adj(q) if shape == "path" else checks.cycle_adj(q)
        modules = [module_graph(rng) for _ in range(q)]
        g, _ = pmckit.expand_graph(as_graph(quotient), [as_graph(m) for m in modules])
        adj = list(g.adj)
        if adj != checks.substitute(quotient, modules):
            raise SetupError("expand_graph differs from the substitution it should build")
        ops += solve_ops(write_input(work, f"mw{i}.gr", adj), adj)
    return ops


def build_verify_oracle(rng: random.Random, work: str, pmckit) -> list[Op]:
    ops = []
    while len(ops) < VERIFY_GRAPHS:
        seed = rng.randrange(1 << 31)
        adj = checks.gnp_adj(VERIFY_N, VERIFY_PROB, seed)
        if checks.vertex_cover_number(adj) != VERIFY_VC:
            continue
        argv = ["verify", "--family", "gnp", "--n", str(VERIFY_N), "--prob", str(VERIFY_PROB),
                "--seed", str(seed), *JOBS]
        ops.append(Op(argv, lambda out, code, adj=adj: checks.check_verify(adj, out, VERIFY_VC, code)))
    return ops


WORKLOADS = {"vc-enum": build_vc_enum, "mw-solve": build_mw_solve, "verify-oracle": build_verify_oracle}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, work: str):
    """Import pmckit afresh and build the inputs; returns (seconds, ops, pmckit)."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "pmckit" or m.startswith("pmckit.")]:
        del sys.modules[name]
    importlib.import_module("pmckit.cli")
    pmckit = sys.modules["pmckit"]
    ops = WORKLOADS[workload](random.Random(f"{workload}/{seed}"), work, pmckit)
    return time.perf_counter() - t0, ops, pmckit


def run_op(main, argv: list[str], tracer: Tracer | None = None) -> tuple[float, int, str]:
    """One in-process CLI call with its stdout captured; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    root = tracer.begin_op() if tracer else None
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except Exception as exc:  # an operation that crashes counts as failed; the run goes on
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        seconds = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    if tracer:
        tracer.end_op(root, out.getvalue())
    if code != 0:
        print(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
    return seconds, code, out.getvalue()


def check_outputs(ops: list[Op], first: list[tuple[int, str]]) -> list[str]:
    """Apply each operation's check to its first-round output; identical outputs are checked once."""
    errors, seen = [], set()
    for op, (code, text) in zip(ops, first):
        key = (tuple(op.argv), code, text)
        if key in seen:
            continue
        seen.add(key)
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            errors.append(f"{' '.join(op.argv)}: no JSON report (exit {code})")
            continue
        errors += [f"{' '.join(op.argv)}: {e}" for e in op.check(report, code)]
    return errors


def run(args, work: str) -> dict:
    setups: list[float] = []

    def set_up_again():
        # Set-up is timed before the first round, between rounds and after the
        # last, so that its median samples the machine over the whole run.
        for _ in range(SETUP_REPS):
            seconds, ops, pmckit = set_up(args.workload, args.seed, work)
            setups.append(seconds)
        return ops, pmckit

    ops, pmckit = set_up_again()
    # With --trace 1 each operation is run twice in a row, untraced and then
    # traced, so that the overhead compares two runs taken under the same load.
    tracer = Tracer() if args.trace else None

    first: list[tuple[int, str]] = []
    times: list[float] = []
    traced: list[float] = []
    attempted = failed = 0
    errors: list[str] = []

    def record(i: int, op: Op, code: int, text: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += code != 0
        if len(first) <= i:
            first.append((code, text))
        elif first[i] != (code, text):
            errors.append(f"{' '.join(op.argv)}: output differs between runs")

    busy = 0.0
    while True:
        main = pmckit.cli.main
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            seconds, code, text = run_op(main, op.argv)
            record(i, op, code, text)
            times.append(seconds)
            if tracer:
                tracer.install()
                try:
                    seconds, code, text = run_op(main, op.argv, tracer)
                finally:
                    tracer.uninstall()
                record(i, op, code, text)
                traced.append(seconds)
        busy += time.perf_counter() - t_round
        if busy >= args.seconds:
            break
        ops, pmckit = set_up_again()
    ops, pmckit = set_up_again()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    if tracer:
        overhead = 100.0 * (statistics.median(t / u for t, u in zip(traced, times)) - 1.0)
        metrics = tracer.metrics(pmckit, overhead)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / busy, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    errors += check_outputs(ops, first)
    errors += [f"self-test: {m}" for m in checks.self_test()]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pmckit", "cli.py")):
        print(f"error: no pmckit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)  # input paths, and so the reports, do not depend on where the run started
    os.makedirs(os.path.join(BENCH_DIR, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(BENCH_DIR, "work"))
    try:
        result = run(args, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
