"""Collect benchmark trajectory points: BENCH_<sha7>.json per checkout.

    python3 tools/collect_bench.py --checkout ../parent --checkout . \\
        --seeds 1-10 --note "2 vCPU, shared, Python 3.11"

For each seed and each workload of BENCHMARK.json, runs its `command` with
`--workload W --seed S --seconds T --trace 0` once in every checkout, one
run at a time, where T is its `run_seconds`. The checkouts alternate seed
by seed: the i-th seed starts with checkout i mod k, so no checkout always
runs first. Each checkout must be a git work tree with no uncommitted
change to a tracked file, since its HEAD names the file, written at the
root of the repository holding this script. The file holds, per workload,
the median and quartiles of each end-to-end metric over the correct runs,
the number of runs that were not correct, and each run's seed, `correct`,
`attempted`, `failed` and metric values, plus the SHA, the Python version and the --note string. Runs taken in one
invocation are pairs that can be compared seed by seed. With two checkouts,
a pair summary goes to stderr: for each workload and end-to-end metric, the
median per-seed ratio, second checkout over first, the number of seeds
where the second is better, in the direction BENCHMARK.json gives, the
first checkout's q1-q3 and the difference of the medians. A difference no
larger than q3 - q1 is marked unresolved: it cannot be told from the first
checkout's own spread. After those lines come the verdicts: a metric is a
gain only when the second checkout is better on at least nine tenths of the
paired seeds and its median is better by more than the first's q3 - q1, and
a metric whose second median is worse than the first's by more than its
BENCHMARK.json `bound` (a fraction of the first median) is flagged, as is a
workload whose second checkout failed a larger share of its operations
(failed over attempted, summed over the seeds both checkouts ran).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]; an empty or reversed range or a repeated seed is refused.

    No seeds would write trajectory files with no runs, and a repeated seed
    would count its pair twice in the medians.
    """
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi if dash else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a seed or seed range: {part!r}") from None
        if hi < lo:
            raise argparse.ArgumentTypeError(f"reversed seed range: {part!r}")
        seeds += range(lo, hi + 1)
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeated seed in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the correct runs, and how many runs were not.

    A run is a bench/run.py result, {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}, plus its "seed"; a run that
    printed no result has no "metrics" and is not correct. A run whose
    outputs were wrong measures nothing, so its metrics stay out of the
    medians; every run is still listed.
    """
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    correct = [run for run in runs if run.get("correct", False)]
    for run in correct:
        for name, metric in run.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name in sorted(values):
        q1, median, q3 = quartiles(values[name])
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values[name]),
                         "unit": units[name]}
    return {
        "metrics": summary,
        "incorrect": len(runs) - len(correct),
        "runs": [{"seed": run["seed"], "correct": run.get("correct", False),
                  "attempted": run.get("attempted", 0), "failed": run.get("failed"),
                  "metrics": {k: m["value"] for k, m in sorted(run.get("metrics", {}).items())}}
                 for run in runs],
    }


def pair_summary(end_to_end: list[dict], first: dict, second: dict) -> list[str]:
    """Per workload and end-to-end metric, the median ratio second/first over the seeds, and the wins.

    ``first`` and ``second`` map each workload to its runs. A seed pairs up
    when both its runs are correct; the second wins it when its value is
    better in the metric's ``better`` direction, and a tie counts for neither.
    Each line also gives the first side's q1-q3 over the paired seeds and
    the difference of the two medians, marked unresolved when it is no
    larger than q3 - q1. The verdict lines follow all of these: "gain" when
    the second wins at least 9/10 of the pairs and its median is better by
    more than q3 - q1, and "worse than its bound" when the second median is
    worse by more than the metric's ``bound`` times the first median. Last
    in each workload's verdicts comes a flag when the second side failed a
    larger share of its operations: failed over attempted, summed over the
    seeds both sides ran, correct or not (a run with no result counts none).
    """
    lines, verdicts = [], []
    for workload in first:
        a, b = ({run["seed"]: run["metrics"] for run in runs[workload] if run.get("correct")}
                for runs in (first, second))
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            pairs = [(a[s][name]["value"], b[s][name]["value"]) for s in a
                     if s in b and name in a[s] and name in b[s]]
            if pairs:
                wins = sum(sign * (y - x) > 0 for x, y in pairs)
                ratio = statistics.median(y / x for x, y in pairs)
                q1, median, q3 = quartiles([x for x, _ in pairs])
                diff = statistics.median(y for _, y in pairs) - median
                lines.append(f"{workload} {name}: median ratio {ratio:.3f}, "
                             f"second better on {wins}/{len(pairs)} seeds, "
                             f"first's q1-q3 {q1:.4g}-{q3:.4g}, median difference {diff:+.4g}"
                             + (" (unresolved)" if abs(diff) <= q3 - q1 else ""))
                if 10 * wins >= 9 * len(pairs) and sign * diff > q3 - q1:
                    verdicts.append(f"{workload} {name}: gain, second better on {wins}/{len(pairs)} "
                                    f"seeds by {diff:+.4g} in the median, beyond q3 - q1 {q3 - q1:.4g}")
                bound = metric.get("bound")
                if bound is not None and -sign * diff > bound * abs(median):
                    verdicts.append(f"{workload} {name}: worse than its bound, median "
                                    f"{median:.4g} -> {median + diff:.4g}, more than {bound:.0%} worse")
        ran = [{run["seed"]: run for run in runs[workload]} for runs in (first, second)]
        both = [s for s in ran[0] if s in ran[1]]
        (fail_a, ops_a), (fail_b, ops_b) = (
            (sum(r[s].get("failed") or 0 for s in both), sum(r[s].get("attempted", 0) for s in both))
            for r in ran)
        if fail_b / (ops_b or 1) > fail_a / (ops_a or 1):
            verdicts.append(f"{workload}: second failed a larger share of operations, "
                            f"{fail_a}/{ops_a} -> {fail_b}/{ops_b}")
    return lines + verdicts


def git_sha(checkout: str) -> str:
    return subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def uncommitted(checkout: str) -> str:
    """The tracked files of ``checkout`` that differ from its HEAD, as git status lists them."""
    return subprocess.run(["git", "-C", checkout, "status", "--porcelain", "--untracked-files=no"],
                          check=True, capture_output=True, text=True).stdout


def bench_once(checkout: str, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; a run without a result line records its stderr."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": proc.stderr.strip()[-500:]}
    result["seed"] = seed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", required=True,
                        help="a git work tree holding bench/run.py; repeat to alternate several")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--note", required=True, help="the machine the runs were taken on")
    args = parser.parse_args(argv)

    checkouts = [os.path.abspath(c) for c in args.checkout]
    for checkout in checkouts:
        if uncommitted(checkout):
            print(f"error: {checkout} has uncommitted changes", file=sys.stderr)
            return 2
    shas = [git_sha(c) for c in checkouts]
    if len(set(shas)) != len(shas):
        print("error: two checkouts are at the same commit", file=sys.stderr)
        return 2
    with open(os.path.join(checkouts[0], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    command, seconds = benchmark["command"], benchmark["run_seconds"]

    runs = {sha: {w: [] for w in workloads} for sha in shas}
    for i, seed in enumerate(args.seeds):
        order = list(range(len(checkouts)))
        order = order[i % len(order):] + order[:i % len(order)]
        for workload in workloads:
            for k in order:
                run = bench_once(checkouts[k], command, workload, seed, seconds)
                runs[shas[k]][workload].append(run)
                ops = run.get("metrics", {}).get("ops_per_s", {}).get("value")
                print(f"{shas[k][:7]} {workload} seed {seed}: correct={run['correct']} "
                      f"ops_per_s={ops}", file=sys.stderr, flush=True)

    for sha in shas:
        doc = {
            "sha": sha,
            "python": platform.python_version(),
            "note": args.note,
            "seconds": seconds,
            "seeds": args.seeds,
            "workloads": {w: summarize(runs[sha][w]) for w in workloads},
        }
        path = os.path.join(ROOT, f"BENCH_{sha[:7]}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(path)
    if len(shas) == 2:
        print(f"pairs, {shas[1][:7]} over {shas[0][:7]}:", file=sys.stderr)
        for line in pair_summary(benchmark["end_to_end"], runs[shas[0]], runs[shas[1]]):
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
