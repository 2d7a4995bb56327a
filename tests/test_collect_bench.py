"""The benchmark collector's summary, without running the benchmark."""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "collect_bench.py")
_spec = importlib.util.spec_from_file_location("collect_bench", _PATH)
collect_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(collect_bench)


def run(seed, ops, rss, correct=True, failed=0):
    return {"seed": seed, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def test_summary_takes_median_and_quartiles():
    runs = [run(1, 10.0, 30.0), run(2, 14.0, 28.0), run(3, 12.0, 29.0),
            run(4, 16.0, 31.0), run(5, 11.0, 27.0)]
    summary = collect_bench.summarize(runs)
    assert summary["metrics"]["ops_per_s"] == {"median": 12.0, "q1": 11.0, "q3": 14.0, "n": 5,
                                               "unit": "1/s"}
    assert summary["metrics"]["peak_rss_mib"]["median"] == 29.0
    assert [r["seed"] for r in summary["runs"]] == [1, 2, 3, 4, 5]
    assert summary["incorrect"] == 0
    assert summary["runs"][0] == {"seed": 1, "correct": True, "attempted": 10, "failed": 0,
                                  "metrics": {"ops_per_s": 10.0, "peak_rss_mib": 30.0}}


def test_summary_keeps_a_run_without_result():
    crashed = {"seed": 2, "correct": False, "error": "Traceback ..."}
    summary = collect_bench.summarize([run(1, 8.0, 30.0, correct=False, failed=1), crashed])
    assert summary["metrics"] == {}
    assert summary["incorrect"] == 2
    assert [(r["correct"], r["failed"]) for r in summary["runs"]] == [(False, 1), (False, None)]
    assert summary["runs"][1]["metrics"] == {}


def test_summary_medians_skip_incorrect_runs():
    runs = [run(1, 10.0, 30.0), run(2, 99.0, 5.0, correct=False, failed=3), run(3, 12.0, 32.0)]
    summary = collect_bench.summarize(runs)
    assert summary["metrics"]["ops_per_s"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "n": 2,
                                               "unit": "1/s"}
    assert summary["metrics"]["peak_rss_mib"]["median"] == 31.0
    assert summary["incorrect"] == 1
    assert summary["runs"][1]["metrics"] == {"ops_per_s": 99.0, "peak_rss_mib": 5.0}


END_TO_END = [{"name": "ops_per_s", "better": "higher"}, {"name": "peak_rss_mib", "better": "lower"}]


def test_pair_summary_counts_wins_in_each_direction():
    first = {"w": [run(1, 10.0, 30.0), run(2, 10.0, 30.0), run(3, 10.0, 30.0), run(4, 10.0, 30.0)]}
    # seed 3 ties on ops_per_s, seed 4 is not correct on the second side
    second = {"w": [run(1, 12.0, 31.0), run(2, 9.0, 27.0), run(3, 10.0, 33.0),
                    run(4, 99.0, 1.0, correct=False)]}
    assert collect_bench.pair_summary(END_TO_END, first, second) == [
        "w ops_per_s: median ratio 1.000, second better on 1/3 seeds, "
        "first's q1-q3 10-10, median difference +0 (unresolved)",
        "w peak_rss_mib: median ratio 1.033, second better on 1/3 seeds, "
        "first's q1-q3 30-30, median difference +1",
    ]


def test_pair_summary_marks_a_difference_inside_the_first_spread_unresolved():
    # the first side's ops_per_s has q1 12 and q3 16: a median difference of
    # +3 stays inside that spread, +5 leaves it; rss differs by exactly q3 - q1
    first = {"w": [run(s, 10.0 + 2 * s, 30.0 + (s > 2)) for s in range(5)]}
    inside = {"w": [run(s, 13.0 + 2 * s, 31.0) for s in range(5)]}
    outside = {"w": [run(s, 15.0 + 2 * s, 29.0) for s in range(5)]}
    assert collect_bench.pair_summary(END_TO_END, first, inside) == [
        "w ops_per_s: median ratio 1.214, second better on 5/5 seeds, "
        "first's q1-q3 12-16, median difference +3 (unresolved)",
        "w peak_rss_mib: median ratio 1.033, second better on 0/5 seeds, "
        "first's q1-q3 30-31, median difference +1 (unresolved)",
    ]
    assert collect_bench.pair_summary(END_TO_END, first, outside)[0] == (
        "w ops_per_s: median ratio 1.357, second better on 5/5 seeds, "
        "first's q1-q3 12-16, median difference +5")


BOUNDED = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mib", "better": "lower", "bound": 0.1}]


def test_pair_summary_marks_a_gain_only_by_the_whole_rule():
    # the first side's ops_per_s runs 10..19: median 14.5, q1 12.25, q3 16.75
    first = {"w": [run(s, 10.0 + s, 30.0) for s in range(10)]}
    # +5 on nine seeds and a loss on seed 0: the median moves by +5 > 4.5
    nine = {"w": [run(s, 15.0 + s if s else 9.0, 30.0) for s in range(10)]}
    # the same median, with a second loss on seed 1: only 8/10 wins
    eight = {"w": [run(s, 15.0 + s if s > 1 else 9.0 + s, 30.0) for s in range(10)]}
    # better on all ten seeds, but by +1, inside the first side's spread
    small = {"w": [run(s, 11.0 + s, 30.0) for s in range(10)]}
    lines = collect_bench.pair_summary(BOUNDED, first, nine)
    assert lines[0] == ("w ops_per_s: median ratio 1.323, second better on 9/10 seeds, "
                        "first's q1-q3 12.25-16.75, median difference +5")
    assert lines[2:] == ["w ops_per_s: gain, second better on 9/10 seeds by +5 in the median, "
                         "beyond q3 - q1 4.5"]
    assert len(collect_bench.pair_summary(BOUNDED, first, eight)) == 2
    assert len(collect_bench.pair_summary(BOUNDED, first, small)) == 2


def test_pair_summary_flags_a_median_worse_than_its_bound():
    first = {"w": [run(s, 20.0, 30.0) for s in range(10)]}
    past = {"w": [run(s, 14.0, 33.5) for s in range(10)]}    # -30 % and +11.7 %
    within = {"w": [run(s, 16.0, 32.5) for s in range(10)]}  # -20 % and +8.3 %
    assert collect_bench.pair_summary(BOUNDED, first, past)[2:] == [
        "w ops_per_s: worse than its bound, median 20 -> 14, more than 25% worse",
        "w peak_rss_mib: worse than its bound, median 30 -> 33.5, more than 10% worse",
    ]
    assert len(collect_bench.pair_summary(BOUNDED, first, within)) == 2
    # a metric BENCHMARK.json gives no bound is never flagged
    assert len(collect_bench.pair_summary(END_TO_END, first, past)) == 2


def test_pair_summary_flags_a_larger_failed_share():
    first = {"w": [run(s, 20.0, 30.0, failed=int(s == 1)) for s in range(1, 5)]}
    # 2/40 failed against 1/40; a seed the first side did not run is left out
    more = {"w": [run(s, 20.0, 30.0, failed=2 * (s == 3)) for s in range(1, 6)]}
    more["w"][4]["failed"] = 9
    # the same share, spread over other seeds, and in runs that are not correct
    same = {"w": [run(s, 20.0, 30.0, correct=s != 2, failed=int(s == 2)) for s in range(1, 5)]}
    assert collect_bench.pair_summary(BOUNDED, first, more)[2:] == [
        "w: second failed a larger share of operations, 1/40 -> 2/40"]
    assert collect_bench.pair_summary(BOUNDED, more, first)[2:] == []
    assert len(collect_bench.pair_summary(BOUNDED, first, same)) == 2


def test_pair_summary_counts_failures_of_runs_without_result():
    # a crashed run attempted nothing that can be counted; failures elsewhere still show
    first = {"w": [{"seed": 1, "correct": False, "error": "Traceback ..."}, run(2, 20.0, 30.0)]}
    second = {"w": [run(1, 20.0, 30.0, correct=False, failed=10), run(2, 20.0, 30.0)]}
    assert collect_bench.pair_summary(BOUNDED, first, second)[2:] == [
        "w: second failed a larger share of operations, 0/10 -> 10/20"]
    assert collect_bench.pair_summary(BOUNDED, second, first)[2:] == []


def test_two_checkouts_print_the_verdicts(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    (first / "BENCHMARK.json").write_text(json.dumps({
        "command": ["false"], "run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": BOUNDED}))
    monkeypatch.setattr(collect_bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(collect_bench, "uncommitted", lambda checkout: "")
    monkeypatch.setattr(collect_bench, "git_sha", {str(first): "a" * 40, str(second): "b" * 40}.get)
    # the second side is faster on every seed and uses 20 % more memory
    monkeypatch.setattr(collect_bench, "bench_once", lambda checkout, command, workload, seed, seconds:
                        run(seed, 10.0 + seed, 30.0) if checkout == str(first)
                        else run(seed, 20.0 + seed, 36.0))
    assert collect_bench.main(["--checkout", str(first), "--checkout", str(second),
                               "--note", "test", "--seeds", "1-10"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-2:] == [
        "w ops_per_s: gain, second better on 10/10 seeds by +10 in the median, beyond q3 - q1 4.5",
        "w peak_rss_mib: worse than its bound, median 30 -> 36, more than 10% worse",
    ]


def test_two_checkouts_flag_a_larger_failed_share(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    (first / "BENCHMARK.json").write_text(json.dumps({
        "command": ["false"], "run_seconds": 1, "workloads": [{"name": "v"}, {"name": "w"}],
        "end_to_end": BOUNDED}))
    monkeypatch.setattr(collect_bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(collect_bench, "uncommitted", lambda checkout: "")
    monkeypatch.setattr(collect_bench, "git_sha", {str(first): "a" * 40, str(second): "b" * 40}.get)
    # the same metrics; on w the second side fails one operation per seed
    monkeypatch.setattr(collect_bench, "bench_once", lambda checkout, command, workload, seed, seconds:
                        run(seed, 20.0, 30.0, failed=int(workload == "w" and checkout == str(second))))
    assert collect_bench.main(["--checkout", str(first), "--checkout", str(second),
                               "--note", "test", "--seeds", "1-3"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1:] == ["w: second failed a larger share of operations, 0/30 -> 3/30"]
    assert not any(line.startswith("v:") for line in err)


def test_two_checkouts_print_the_pair_summary(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    (first / "BENCHMARK.json").write_text(json.dumps({
        "command": ["false"], "run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": END_TO_END}))
    monkeypatch.setattr(collect_bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(collect_bench, "uncommitted", lambda checkout: "")
    monkeypatch.setattr(collect_bench, "git_sha", {str(first): "a" * 40, str(second): "b" * 40}.get)
    monkeypatch.setattr(collect_bench, "bench_once", lambda checkout, command, workload, seed, seconds:
                        run(seed, 10.0 if checkout == str(first) else 5.0 * seed, 30.0))
    assert collect_bench.main(["--checkout", str(first), "--checkout", str(second),
                               "--note", "test", "--seeds", "1-3"]) == 0
    err = capsys.readouterr().err
    assert "pairs, bbbbbbb over aaaaaaa:" in err
    assert "w ops_per_s: median ratio 1.000, second better on 1/3 seeds" in err
    assert "w peak_rss_mib: median ratio 1.000, second better on 0/3 seeds" in err
    assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == ["BENCH_aaaaaaa.json", "BENCH_bbbbbbb.json"]


@pytest.mark.parametrize("text, seeds", [("3", [3]), ("1-4", [1, 2, 3, 4]), ("1-2,7", [1, 2, 7])])
def test_seed_ranges(text, seeds):
    assert collect_bench.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", "10-1", "1-3,2", "4,4", "1-", "1,,2", "x"])
def test_bad_seeds_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        collect_bench.parse_seeds(text)


@pytest.mark.parametrize("text", ["10-1", "1-3,2", ""])
def test_bad_seeds_exit_2_before_any_run(text, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("ran the benchmark")

    monkeypatch.setattr(collect_bench, "uncommitted", never)
    monkeypatch.setattr(collect_bench, "bench_once", never)
    with pytest.raises(SystemExit) as exit_:
        collect_bench.main(["--checkout", ".", "--note", "test", "--seeds", text])
    assert exit_.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


@pytest.fixture
def checkout(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "BENCHMARK.json").write_text('{"command": ["false"], "run_seconds": 1, "workloads": []}\n')
    git(tmp_path, "add", "BENCHMARK.json")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_untracked_files_leave_a_checkout_clean(checkout):
    (checkout / "notes.txt").write_text("scratch\n")
    assert collect_bench.uncommitted(str(checkout)) == ""


def test_dirty_checkout_is_refused(checkout, capsys):
    (checkout / "BENCHMARK.json").write_text('{"command": ["false"], "run_seconds": 2, "workloads": []}\n')
    assert collect_bench.uncommitted(str(checkout)).strip() == "M BENCHMARK.json"
    assert collect_bench.main(["--checkout", str(checkout), "--note", "test"]) == 2
    assert "uncommitted changes" in capsys.readouterr().err
