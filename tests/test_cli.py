"""CLI surface: commands, exit codes, JSON schema, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmckit.cli
import pmckit.graph
import pmckit.modular
import pmckit.recognition
import pmckit.solvers
import pmckit.vc
import strategies
from pmckit import (
    Graph,
    PmcCatalog,
    complete,
    cube,
    cycle,
    empty_graph,
    enumerate_by_mw,
    expand_graph,
    gnp,
    min_fill_in,
    minimum_vertex_cover,
    modular_decomposition,
    modular_width,
    parse_gr,
    path,
    pmcs_by_vc,
    treewidth,
    watermelon,
    write_gr,
)
from pmckit.cli import main

TOP_KEYS = ["command", "graph", "params", "results", "timings_ms", "verified"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


class _Sha256Writer:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.digest.update(text.encode())

    def writelines(self, chunks) -> None:
        for text in chunks:
            self.write(text)


class TestSchemaAndCommands:
    def test_enum_seps_schema(self, capsys):
        code, blob = run_json(capsys, ["enum", "seps", "--family", "cube", "--method", "vc"])
        assert code == 0
        assert list(blob) == TOP_KEYS
        assert blob["graph"] == {"n": 8, "m": 12, "source": "family:cube"}
        assert blob["params"]["vc"] == 4
        assert blob["results"]["counts"]["separators"] == 14
        seps = blob["results"]["separators"]
        assert [0, 2, 4, 6] in seps and [0, 2, 7] in seps
        assert seps == sorted(seps)
        assert blob["timings_ms"] == {}
        assert blob["verified"] is True

    def test_enum_methods_agree(self, capsys):
        results = []
        for method in ("brute", "vc", "mw"):
            _, blob = run_json(capsys, ["enum", "pmcs", "--family", "cube", "--method", method])
            results.append(blob["results"]["pmcs"])
        assert results[0] == results[1] == results[2]

    def test_count_watermelon_uv(self, capsys):
        code, blob = run_json(
            capsys,
            ["count", "--family", "watermelon", "--p", "3", "--q", "3", "--method", "vc"],
        )
        assert code == 0
        assert blob["results"]["counts"]["uv_separators"] == 27
        assert blob["results"]["counts"]["separators"] >= 27
        assert blob["params"]["vc"] == 5

    def test_solve_tw_cube(self, capsys):
        code, blob = run_json(capsys, ["solve", "tw", "--family", "cube", "--method", "mw"])
        assert code == 0
        assert blob["results"]["counts"]["treewidth"] == 3
        assert blob["params"]["mw"] == 8

    def test_solve_fillin_cycle(self, capsys):
        code, blob = run_json(capsys, ["solve", "fillin", "--family", "cycle", "--n", "6"])
        assert code == 0
        assert blob["results"]["counts"]["fill_in"] == 3

    def test_decompose(self, capsys):
        code, blob = run_json(capsys, ["decompose", "--family", "path", "--n", "4"])
        assert code == 0
        assert blob["params"]["mw"] == 4
        assert blob["results"]["decomposition"]["root"]["kind"] == "prime"

    def test_verify_single_graph(self, capsys):
        code, blob = run_json(capsys, ["verify", "--family", "cube"])
        assert code == 0
        assert blob["verified"] is True
        assert blob["results"]["counts"] == {"graphs": 1, "failures": 0}
        assert {c["status"] for c in blob["results"]["checks"]} == {"pass"}

    def test_verify_gnp_seeds(self, capsys):
        code, blob = run_json(
            capsys,
            ["verify", "--family", "gnp", "--n", "7", "--prob", "0.3", "--seeds", "4"],
        )
        assert code == 0
        assert blob["results"]["counts"]["graphs"] == 4
        assert len(blob["results"]["checks"]) == 8

    def test_bench_reports_timings(self, capsys):
        code, blob = run_json(
            capsys, ["bench", "--family", "cube", "--method", "vc", "--what", "both"]
        )
        assert code == 0
        assert set(blob["timings_ms"]) == {"build", "vertex_cover", "separators", "pmcs"}
        assert blob["results"]["counts"] == {"separators": 14, "pmcs": 34}

    def test_gen_emits_gr(self, capsys):
        code, out = run_cli(capsys, ["gen", "--family", "cube"])
        assert code == 0
        assert out.startswith("p tw 8 12\n")
        assert parse_gr(out) == cube()

    def test_pretty_rendering(self, capsys):
        code, out = run_cli(capsys, ["count", "--family", "cube", "--pretty"])
        assert code == 0
        assert "separators: 14" in out
        assert "verified: true" in out

    def test_file_input(self, capsys, tmp_path):
        _, text = run_cli(capsys, ["gen", "--family", "gnp", "--n", "8", "--prob", "0.4", "--seed", "3"])
        path = tmp_path / "g.gr"
        path.write_text(text)
        code, blob = run_json(capsys, ["verify", "--input", str(path)])
        assert code == 0
        assert blob["graph"]["source"] == f"file:{path}"

    def test_jobs_flag(self, capsys):
        _, one = run_json(capsys, ["enum", "seps", "--family", "cube", "--method", "brute"])
        _, two = run_json(
            capsys, ["enum", "seps", "--family", "cube", "--method", "brute", "--jobs", "2"]
        )
        assert one["results"] == two["results"]

    @pytest.mark.parametrize("graph", [
        ["--family", "watermelon", "--p", "5", "--q", "3"],
        ["--family", "gnp", "--n", "10", "--prob", "0.4", "--seed", "3"],
    ])
    @pytest.mark.parametrize("command", [["enum", "seps"], ["count", "--what", "both"]])
    def test_vc_route_ignores_jobs(self, capsys, monkeypatch, command, graph):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        argv = command + graph + ["--method", "vc"]
        _, one = run_cli(capsys, argv + ["--jobs", "1"])
        code, two = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert two == one


# JSON values with the report writer's traps: bools among ints, empty rows,
# empty containers, floats the stdlib spells its own way, and strings that
# need escaping (quotes, backslashes, non-ASCII, U+2028)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([1e-07, -0.0, 'say "hi"', "back\\slash", "na\u00efve \u2603", "\u2028"]),
    st.text(max_size=8),
)
_JSON_VALUES = st.recursive(
    st.one_of(
        _JSON_SCALARS,
        st.lists(st.integers(-3, 300), max_size=5),
        st.lists(st.lists(st.integers(-3, 300), max_size=4), max_size=4),
        st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=5), st.sampled_from(['"', "\\", "\u2028"])),
                        inner, max_size=4),
    ),
    max_leaves=24,
)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    @example([True, 1])
    @example([[1, False], [], [2]])
    @example([[]])
    @example({"a": {}, "b": [], "c": [[]], "d": [{}]})
    @example({"separators": [[0, 3], [], [1, 2, 4]], "counts": {"separators": 3}})
    def test_writer_matches_stdlib_indent(self, value):
        assert "".join(pmckit.cli._json_chunks(value)) == json.dumps(value, indent=2)


class TestImports:
    def test_cli_import_skips_multiprocessing(self):
        # only --jobs N > 1 starts worker processes, so only it imports them
        code = "import sys, pmckit.cli; print('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout == "False\n"


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["solve", "tw", "--input", "missing.gr"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["enum", "seps", "--family", "cube", "--bogus"]) == 2

    def test_both_input_and_family(self, capsys, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p tw 1 0\n")
        assert main(["enum", "seps", "--input", str(p), "--family", "cube"]) == 2

    def test_neither_input_nor_family(self, capsys):
        assert main(["enum", "seps"]) == 2

    def test_family_parameter_errors(self, capsys):
        assert main(["enum", "seps", "--family", "gnp", "--n", "5"]) == 2
        assert main(["enum", "seps", "--family", "watermelon", "--p", "0", "--q", "3"]) == 2

    def test_malformed_gr(self, capsys, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("p tw 2 1\n1 1\n")
        assert main(["solve", "tw", "--input", str(p)]) == 2

    def test_seeds_requires_gnp(self, capsys):
        assert main(["verify", "--family", "cube", "--seeds", "3"]) == 2

    @pytest.mark.parametrize("extra", [["--input", "g.gr"], ["--p", "3"], ["--q", "3"]])
    def test_seeds_takes_no_input_p_or_q(self, capsys, tmp_path, extra):
        if extra[0] == "--input":
            extra = ["--input", str(tmp_path / "g.gr")]
            (tmp_path / "g.gr").write_text("p tw 2 1\n1 2\n")
        argv = ["verify", "--family", "gnp", "--n", "5", "--prob", "0.3", "--seeds", "2"]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and extra[0] in captured.err

    @pytest.mark.parametrize("method", ["vc", "mw", "brute"])
    @pytest.mark.parametrize("command", [
        ["enum", "seps"], ["enum", "pmcs"], ["count", "--what", "both"], ["solve", "tw"], ["bench"],
    ])
    def test_zero_vertex_graph(self, capsys, tmp_path, command, method):
        p = tmp_path / "empty.gr"
        p.write_text("p tw 0 0\n")
        assert main(command + ["--input", str(p), "--method", method]) == 2
        assert "graph must be nonempty" in capsys.readouterr().err

    def test_brute_cap_refusal(self, capsys):
        assert main(["enum", "seps", "--family", "empty", "--n", "18", "--method", "brute"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestInputGuards:
    @pytest.mark.parametrize("jobs", ["0", "-3", "100000"])
    @pytest.mark.parametrize("argv", [
        ["enum", "seps", "--family", "cube", "--method", "vc"],
        ["enum", "pmcs", "--family", "cube", "--method", "brute"],
        ["verify", "--family", "cube"],
    ])
    def test_jobs_out_of_range_starts_no_pool(self, capsys, monkeypatch, argv, jobs):
        started = []

        def no_pool(*args, **kwargs):
            started.append(kwargs)
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert main(argv + ["--jobs", jobs]) == 2
        assert started == []
        assert "--jobs" in capsys.readouterr().err

    def test_deep_inputs_exit_2_without_traceback(self, capsys):
        # a 2100-vertex path makes the cover search recurse per vertex
        assert main(["enum", "seps", "--family", "path", "--n", "2100"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "recursion" in err

    def test_deep_cograph_runs_on_mw(self, capsys, tmp_path):
        # every tree pass of the mw route walks the 500-deep decomposition
        # without recursing
        p = tmp_path / "threshold.gr"
        p.write_text(write_gr(strategies.threshold(500)))
        for argv, counts in (
            (["solve", "tw"], {"treewidth": 250}),
            (["solve", "fillin"], {"fill_in": 0}),
            (["count", "--what", "both"], {"separators": 249, "pmcs": 250}),
        ):
            code, data = run_json(capsys, argv + ["--method", "mw", "--input", str(p)])
            assert code == 0, argv
            assert data["results"]["counts"] == counts, argv
        code, out = run_cli(capsys, ["decompose", "--pretty", "--input", str(p)])
        assert code == 0 and "mw=0" in out
        # decompose's JSON nests about 1000 levels: the report writer prints it
        # without recursing, and the stdlib encoder gives the same text under a
        # raised limit. The text is about 95 MB of indentation, so each side is
        # hashed as it is written (iterencode yields json.dumps's text in chunks).
        got = _Sha256Writer()
        with contextlib.redirect_stdout(got):
            assert main(["decompose", "--input", str(p)]) == 0
        report, _ = pmckit.cli._cmd_decompose(pmckit.cli.build_parser().parse_args(
            ["decompose", "--input", str(p)]))
        want = _Sha256Writer()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20000)
        try:
            want.writelines(json.JSONEncoder(indent=2).iterencode(report.to_dict()))
        finally:
            sys.setrecursionlimit(limit)
        want.write("\n")
        assert got.digest.hexdigest() == want.digest.hexdigest()

    def test_non_utf8_input_exits_2_without_traceback(self, capsys, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_bytes(b"p tw 2 1\n1 2\n\xff\n")
        assert main(["count", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: not UTF-8 text\n"

    def test_byte_order_mark_is_read(self, capsys, tmp_path):
        p = tmp_path / "bom.gr"
        p.write_bytes(b"\xef\xbb\xbf" + write_gr(path(3)).encode())
        code, data = run_json(capsys, ["solve", "tw", "--input", str(p)])
        assert code == 0
        assert data["results"]["counts"] == {"treewidth": 1}

    def test_input_over_the_byte_cap_exits_2_without_traceback(self, capsys, monkeypatch, tmp_path):
        text = write_gr(path(3)).encode()
        monkeypatch.setattr(pmckit.graph, "MAX_GR_BYTES", len(text) - 1)
        p = tmp_path / "long.gr"
        p.write_bytes(text)
        assert main(["count", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: file is longer than the limit of {len(text) - 1} bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
    def test_endless_input_exits_2_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(pmckit.graph, "MAX_GR_BYTES", 1 << 20)
        assert main(["count", "--input", "/dev/zero"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err and err.count("\n") == 1

    def test_decompose_takes_no_jobs(self, capsys):
        assert main(["decompose", "--family", "cube", "--jobs", "2"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_generated_vertex_limit(self, capsys):
        assert main(["gen", "--family", "gnp", "--n", "10000000", "--prob", "0.5", "--seed", "1"]) == 2
        assert main(["gen", "--family", "watermelon", "--p", "100000", "--q", "3"]) == 2
        assert "4096" in capsys.readouterr().err

    def test_verify_seeds_limit_builds_no_graph(self, capsys, monkeypatch):
        def no_generate(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(pmckit.cli, "generate", no_generate)
        argv = ["verify", "--family", "gnp", "--n", "15", "--prob", "0.2", "--seeds"]
        assert main(argv + [str(pmckit.cli.MAX_SEEDS + 1)]) == 2
        assert main(argv + ["0"]) == 2
        assert "4096" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "tw"], ["enum", "pmcs"], ["solve", "fillin"]])
    def test_mw_prime_quotient_over_cap(self, capsys, gnp24_vc, argv):
        # gnp(24,0.15,1) is prime with a 23-vertex quotient, over the 20-vertex
        # cap the mw route once refused at; it is listed and agrees with vc
        g, catalog = gnp24_vc
        expected = {
            "tw": {"counts": {"treewidth": treewidth(g, catalog)}},
            "pmcs": {"pmcs": [vs.to_list() for vs in catalog]},
            "fillin": {"counts": {"fill_in": min_fill_in(g, catalog)}},
        }[argv[1]]
        code, blob = run_json(
            capsys,
            argv + ["--family", "gnp", "--n", "24", "--prob", "0.15", "--seed", "1", "--method", "mw"],
        )
        assert code == 0 and blob["params"]["mw"] == 23
        for key, value in expected.items():
            assert blob["results"][key] == value


@pytest.fixture(scope="module")
def gnp24_vc():
    g = gnp(24, 0.15, 1)
    return g, pmcs_by_vc(g)


class TestMwRoute:
    @pytest.mark.parametrize("name", ["cube", "watermelon(4,3)", "gnp(12) module in path(4)"])
    def test_scans_no_subsets(self, capsys, monkeypatch, tmp_path, mw_solve_quotients, name):
        if name == "cube":
            g = cube()
        elif name == "watermelon(4,3)":
            g = watermelon(4, 3)
        else:
            modules = [mw_solve_quotients[0], complete(2), empty_graph(2), complete(1)]
            g, _ = expand_graph(path(4), modules)

        def no_scan(*args, **kwargs):
            raise AssertionError("the mw route ran a subset scan")

        monkeypatch.setattr(pmckit.recognition, "_oracle_scan", no_scan)
        assert len(enumerate_by_mw(g)[1]) > 0
        gr = tmp_path / "g.gr"
        gr.write_text(write_gr(g))
        for problem in ("tw", "fillin"):
            code, _ = run_json(capsys, ["solve", problem, "--input", str(gr), "--method", "mw"])
            assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "pmcs", "--family", "gnp", "--n", "8", "--prob", "0.4", "--seed", "11"],
            ["count", "--family", "watermelon", "--p", "2", "--q", "3", "--what", "both"],
            ["verify", "--family", "gnp", "--n", "6", "--prob", "0.35", "--seeds", "2"],
            ["solve", "tw", "--family", "gnp", "--n", "7", "--prob", "0.5", "--seed", "2"],
            ["decompose", "--family", "cube"],
            ["gen", "--family", "gnp", "--n", "9", "--prob", "0.3", "--seed", "1"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    # sha256 of the JSON output, pinned so that a refactor cannot change it.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["enum", "seps", "--family", "cube", "--method", "vc"],
             "0eb11adb471d363025946a436208f48aec7b32e102850d39bd53e7e0746cda5b"),
            (["enum", "seps", "--family", "cube", "--method", "mw"],
             "e78e969df1d7d28d2bdb38d1303cdf94cd5327c5e9789783f45fe628f5c8c2a4"),
            (["enum", "seps", "--family", "cube", "--method", "brute"],
             "8e9f43f783cee95400f0c16814acef4476539ed5068be4281215a4883ba9a9e8"),
            (["enum", "pmcs", "--family", "cube", "--method", "vc"],
             "b335f6d7a3bbe5f88446c1c33fe7bdeebfa0fa46670f284650d321855350b898"),
            (["enum", "pmcs", "--family", "cube", "--method", "mw"],
             "1d52ed2008da6d95c186ac11342a719afd0e9b49b52db9e2198450548e7a4c8e"),
            (["enum", "pmcs", "--family", "cube", "--method", "brute"],
             "2ee88b7bb64af22b756ce4e42b46dc43872d775b5d3d80f4dec88899d483fda6"),
            (["enum", "pmcs", "--family", "gnp", "--n", "13", "--prob", "0.3", "--seed", "2",
              "--method", "vc"],
             "24a8661b9858d3ef74abd55c9d3c2a51394595b39c47ff494535c98a7beeda2a"),
            (["solve", "tw", "--family", "cube"],
             "e3d32e384fdafb3c939f288ef85cf9b8b1de1c08af979d4cccfdb97d2511f1d0"),
            (["solve", "tw", "--family", "cube", "--method", "mw"],
             "22f0d6c77c84502eca960e6a8795f8c8005cfaf34e785f98530062c1c6d26d4f"),
            (["solve", "fillin", "--family", "cube", "--method", "mw"],
             "48b5aaba77fc60f14a0ca656eb893258098b5aa663368f3eff3f7afbc766e550"),
            (["solve", "fillin", "--family", "gnp", "--n", "13", "--prob", "0.3", "--seed", "2",
              "--method", "vc"],
             "38ddebbd0c229fa232f232f7db2aed70a0f877a99ca8a28085a61fd89ab3575c"),
            (["solve", "tw", "--family", "watermelon", "--p", "4", "--q", "3", "--method", "vc"],
             "eba1a28d3a57bb88b4450ba1ebef5a0da892753c6232ca4dfde4e208c0ac90f8"),
            (["solve", "fillin", "--family", "watermelon", "--p", "4", "--q", "3", "--method", "mw"],
             "a53498f922cb545bcb50ace635a1f15f17f3a22ab26a623a6a181fa5ea18f971"),
            # gnp(13,0.3,2) is a 12-vertex prime quotient plus an isolated vertex
            (["enum", "seps", "--family", "gnp", "--n", "13", "--prob", "0.3", "--seed", "2",
              "--method", "mw"],
             "52fe23e9a4fd4f9b6b3082d56d1af7c8698a982be3b14b514692ec02a8f679c3"),
            (["enum", "pmcs", "--family", "gnp", "--n", "13", "--prob", "0.3", "--seed", "2",
              "--method", "mw"],
             "834469ef6681822890a2950720ed61905ead09d82ffd05a62921931fd0991981"),
            # union, join and prime nodes, a prime node with a non-leaf child, depth 5
            (["decompose", "--family", "gnp", "--n", "11", "--prob", "0.3", "--seed", "3"],
             "0b70009ae5aa0a2b4df7ea3637be1baf99f3a79ba630ff258746a749a18c0df2"),
            (["count", "--what", "both", "--family", "cube", "--method", "vc"],
             "026eb5ba615ee7d6eff15a9f7fc1791cbfb5bfa3e862418124b1142d4e8eaf6d"),
            (["count", "--what", "both", "--family", "cube", "--method", "mw"],
             "d5c61b967b76af6f0c2587e2f95a99ce0485db9a2f8289a20a65391f50b9edbc"),
            (["count", "--what", "both", "--family", "cube", "--method", "brute"],
             "9bfa6ae10e5f5a8515e9013909e30ac819398b425147c3c09a3574841bd77bf7"),
            # reports uv_separators between the two hubs
            (["count", "--family", "watermelon", "--p", "4", "--q", "3", "--method", "vc"],
             "33f76a01abea15cbd71bb08122416dadb5c2fc533189fdfe6eb2a76890cab1b9"),
            (["count", "--family", "cube", "--pretty"],
             "306f066412311f848bbc6e28a8f87796a133dc2f7cbda5fa4da2b904a6c25943"),
            (["enum", "pmcs", "--family", "cube", "--pretty"],
             "8f92537bc6c26ed5606aae8dcea0ad115fdd542a7d9d15a3e11a7da06d3fde1f"),
            # gnp(12,0.15,1) has four components; mw reports {"vc": null, "mw": 7}
            (["solve", "tw", "--family", "gnp", "--n", "12", "--prob", "0.15", "--seed", "1",
              "--method", "vc"],
             "6199e7a419094aeedbbff32cfcca7281712e74387f2cc51d3c8f045cdcfcdd5d"),
            (["solve", "tw", "--family", "gnp", "--n", "12", "--prob", "0.15", "--seed", "1",
              "--method", "mw"],
             "df3fdb5e8d097ad1ad9f484c93b8b0c83cc5eff31e41023688e08255beff0987"),
            (["solve", "tw", "--family", "gnp", "--n", "12", "--prob", "0.15", "--seed", "1",
              "--method", "brute"],
             "d5ca1e97e2ccf0a73fdc857dfcea21416f6b68cc52e5529cb05d4b2c8a4859b9"),
            (["solve", "fillin", "--family", "gnp", "--n", "12", "--prob", "0.15", "--seed", "1",
              "--method", "vc"],
             "d5c476f392c41ac0e154551f76f82a0d23e25ed50788a3244844e3c4571d61d6"),
            (["solve", "fillin", "--family", "gnp", "--n", "12", "--prob", "0.15", "--seed", "1",
              "--method", "mw"],
             "930d8b6378744fc17d937219d8eb098bc89942d6850e8c85c71e85f26bad3915"),
            (["solve", "fillin", "--family", "gnp", "--n", "12", "--prob", "0.15", "--seed", "1",
              "--method", "brute"],
             "d77df4ccd02f50261dff563e383f40613db9ddd8da587939aa0aa681db8f9311"),
        ],
    )
    def test_golden_output(self, capsys, argv, digest):
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bench_deterministic_modulo_timings(self, capsys):
        argv = ["bench", "--family", "cube", "--method", "mw"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert first == second

    # complete(5) has no separator, so an empty list must still be counted
    @pytest.mark.parametrize("command", ["count", "bench"])
    @pytest.mark.parametrize("method", ["vc", "mw", "brute"])
    @pytest.mark.parametrize("family, counts", [
        (["--family", "complete", "--n", "5"], {"separators": 0, "pmcs": 1}),
        (["--family", "empty", "--n", "3"], {"separators": 1, "pmcs": 3}),
    ], ids=["complete5", "empty3"])
    def test_both_counts_with_no_or_one_separator(self, capsys, command, method, family, counts):
        code, blob = run_json(capsys, [command, "--what", "both", *family, "--method", method])
        assert code == 0
        assert blob["results"] == {"counts": counts}


class TestVerifyMismatch:
    def test_discrepancy_exits_1_with_witnesses(self, capsys, monkeypatch):
        # force a deliberate gap in one route; verify must catch and report it
        import pmckit.cli as cli_mod

        real = cli_mod.separators_by_vc

        def lossy(g, w):
            return real(g, w)[1:]

        monkeypatch.setattr(cli_mod, "separators_by_vc", lossy)
        code, blob = run_json(capsys, ["verify", "--family", "cube"])
        assert code == 1
        assert blob["verified"] is False
        failed = [c for c in blob["results"]["checks"] if c["status"] == "fail"]
        assert failed and failed[0]["check"] == "separators"
        assert failed[0]["witnesses"] == [[0, 1, 6, 7]]


class TestOracleCapEnv:
    def test_env_cap_skips_oracle(self, capsys, monkeypatch):
        monkeypatch.setenv("PMCKIT_ORACLE_CAP", "5")
        code, blob = run_json(
            capsys, ["verify", "--family", "gnp", "--n", "6", "--prob", "0.4", "--seed", "0"]
        )
        assert code == 0
        assert {c["oracle"] for c in blob["results"]["checks"]} == {"skipped"}
        assert all(c["methods"] == ["mw", "vc"] for c in blob["results"]["checks"])

    def test_env_cap_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("PMCKIT_ORACLE_CAP", "many")
        assert main(["enum", "seps", "--family", "cube", "--method", "brute"]) == 2

    @pytest.mark.parametrize("argv", [
        ["enum", "seps", "--family", "cube", "--method", "brute"],
        ["verify", "--family", "cube"],
    ])
    def test_env_cap_above_ceiling(self, capsys, monkeypatch, argv):
        # no oracle runs above 20 vertices, so verify must not promise one
        monkeypatch.setenv("PMCKIT_ORACLE_CAP", "21")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: PMCKIT_ORACLE_CAP must be at most 20, got 21\n"

    @pytest.mark.parametrize("argv", [
        ["enum", "seps", "--family", "cube", "--method", "brute"],
        ["verify", "--family", "cube"],
    ])
    def test_env_cap_negative(self, capsys, monkeypatch, argv):
        # a negative cap once made verify report "oracle: skipped" silently
        monkeypatch.setenv("PMCKIT_ORACLE_CAP", "-1")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: PMCKIT_ORACLE_CAP must be at least 0, got -1\n"


def simplicial_core(adj) -> tuple[int, int]:
    """(largest degree stripped, vertices left): what the mw route brackets and lists of a prime quotient."""
    return pmckit.solvers._simplicial_core(adj, (1 << len(adj)) - 1)


def bracket_open(adj) -> bool:
    """True when solve tw lists the PMCs of the prime quotient on adj: the treewidth bracket of its
    simplicial core, raised to the largest degree stripped, does not close."""
    low, core = simplicial_core(adj)
    lb, ub = pmckit.solvers._tw_bracket(adj, core)
    return max(low, lb) != max(low, ub)


def count_calls(monkeypatch, name, modules):
    """Replace ``name`` in each module namespace by one shared counting wrapper."""
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


class TestWorkDoneOnce:
    @pytest.mark.parametrize("argv", [
        ["enum", "pmcs", "--family", "cube", "--method", "vc"],
        ["enum", "seps", "--family", "cube", "--method", "vc"],
        ["verify", "--family", "cube"],
    ])
    def test_one_vertex_cover_per_command(self, capsys, monkeypatch, argv):
        calls = count_calls(monkeypatch, "minimum_vertex_cover", [pmckit.cli, pmckit.vc])
        code, _ = run_json(capsys, argv)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, graphs", [
        (["count", "--what", "both", "--family", "cube", "--method", "vc"], 1),
        (["verify", "--family", "gnp", "--n", "8", "--prob", "0.4", "--seeds", "2"], 2),
        (["bench", "--what", "both", "--family", "cube", "--method", "vc"], 1),
    ])
    def test_one_separator_sweep_per_graph(self, capsys, monkeypatch, argv, graphs):
        calls = count_calls(monkeypatch, "_sep_masks_by_vc", [pmckit.vc])
        code, _ = run_json(capsys, argv)
        assert code == 0
        assert len(calls) == graphs

    def test_verify_runs_each_route_once_per_graph(self, capsys, monkeypatch):
        names = ["enumerate_by_mw", "brute_force_lists"]
        calls = {name: count_calls(monkeypatch, name, [pmckit.cli]) for name in names}
        scans = count_calls(monkeypatch, "_oracle_scan", [pmckit.recognition])
        argv = ["verify", "--family", "gnp", "--n", "8", "--prob", "0.4", "--seeds", "2"]
        code, _ = run_json(capsys, argv)
        assert code == 0
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(names, 2)
        assert len(scans) == 2  # one subset scan lists both separators and PMCs

    @pytest.mark.parametrize("method, name, modules", [
        ("mw", "modular_decomposition", [pmckit.cli, pmckit.modular]),
        ("vc", "minimum_vertex_cover", [pmckit.cli, pmckit.vc]),
    ])
    def test_solve_computes_one_basis_per_component(self, capsys, monkeypatch, method, name, modules):
        g = gnp(12, 0.15, 1)
        want_params = {"vc": len(minimum_vertex_cover(g)) if method == "vc" else None,
                       "mw": modular_width(modular_decomposition(g)) if method == "mw" else None}
        calls = count_calls(monkeypatch, name, modules)
        argv = ["solve", "tw", "--family", "gnp", "--n", "12", "--prob", "0.15", "--seed", "1",
                "--method", method]
        code, blob = run_json(capsys, argv)
        assert code == 0
        # vc: the four components, and not the whole graph again; mw: the
        # whole graph once, whose union root combines the components
        assert sorted(args[0].n for args in calls) == ([12] if method == "mw" else [1, 1, 3, 7])
        assert blob["params"] == want_params

    def test_solve_mw_decomposes_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "modular_decomposition", [pmckit.cli, pmckit.modular])
        code, blob = run_json(capsys, ["solve", "tw", "--family", "cube", "--method", "mw"])
        assert code == 0 and blob["results"]["counts"]["treewidth"] == 3
        assert len(calls) == 1

    def test_solve_mw_searches_each_pmc_once(self, capsys, monkeypatch, tmp_path, mw_solve_quotients):
        # solve walks the modular tree: no catalog of the whole graph, the
        # path quotient of modules listed once, whole, and the PMCs of an
        # all-leaf prime module listed at most once, on its quotient's
        # simplicial core: always for fill-in, for tw only when the bracket
        # stays open
        quotients = mw_solve_quotients[:4]
        assert 0 < sum(bracket_open(q.adj) for q in quotients) < len(quotients)
        g, _ = expand_graph(path(4), quotients)
        whole_catalog = enumerate_by_mw(g)[1]
        want = {"treewidth": treewidth(g, whole_catalog), "fill_in": min_fill_in(g, whole_catalog)}
        gr = tmp_path / "g.gr"
        gr.write_text(write_gr(g))
        whole = count_calls(monkeypatch, "enumerate_by_mw", [pmckit.cli, pmckit.modular])
        listings = count_calls(monkeypatch, "_pmc_listing", [pmckit.solvers, pmckit.modular])
        collected = []
        collect = PmcCatalog.collect.__func__

        def counted_collect(cls, graph, candidates):
            collected.append(graph)
            return collect(cls, graph, candidates)

        monkeypatch.setattr(PmcCatalog, "collect", classmethod(counted_collect))
        for problem, key in (("tw", "treewidth"), ("fillin", "fill_in")):
            code, blob = run_json(capsys, ["solve", problem, "--input", str(gr), "--method", "mw"])
            assert code == 0 and blob["results"]["counts"] == {key: want[key]}
            listed = [(q.adj, simplicial_core(q.adj)[1]) for q in quotients
                      if problem == "fillin" or bracket_open(q.adj)]
            assert sorted(listings) == sorted(listed + [(path(4).adj, path(4).full_mask)])
            listings.clear()
        assert whole == [] and g not in collected

    def test_solve_mw_walks_one_tree_of_a_disconnected_graph(self, capsys, monkeypatch, tmp_path,
                                                              mw_solve_quotients):
        # a join of a prime module and a vertex, a prime module and a small
        # gnp side by side: one decomposition, of the whole graph, each
        # all-leaf prime quotient listed at most once (for tw only when its
        # bracket stays open), and no catalog built
        g = strategies.disjoint_union(expand_graph(path(2), [mw_solve_quotients[0], empty_graph(1)])[0],
                                      mw_solve_quotients[1], gnp(6, 0.4, 3))
        nodes, quotients = [modular_decomposition(g).root], []
        while nodes:
            node = nodes.pop()
            if node.kind == "prime" and all(c.kind == "leaf" for c in node.children):
                quotients.append(node.quotient.adj)
            nodes += node.children
        assert len(quotients) >= 2
        gr = tmp_path / "g.gr"
        gr.write_text(write_gr(g))
        want = {}
        for problem in ("tw", "fillin"):
            code, blob = run_json(capsys, ["solve", problem, "--input", str(gr), "--method", "vc"])
            assert code == 0
            want[problem] = blob["results"]
        trees = count_calls(monkeypatch, "modular_decomposition", [pmckit.cli, pmckit.modular])
        listings = count_calls(monkeypatch, "_pmc_listing", [pmckit.solvers, pmckit.modular])
        built = []
        from_pieces = PmcCatalog.from_pieces.__func__

        def counted_from_pieces(cls, graph, pieces):
            built.append(graph)
            return from_pieces(cls, graph, pieces)

        monkeypatch.setattr(PmcCatalog, "from_pieces", classmethod(counted_from_pieces))
        for problem in ("tw", "fillin"):
            code, blob = run_json(capsys, ["solve", problem, "--input", str(gr), "--method", "mw"])
            assert code == 0 and blob["results"] == want[problem]
            assert [args[0] for args in trees] == [g]
            listed = [(adj, simplicial_core(adj)[1]) for adj in quotients
                      if problem == "fillin" or bracket_open(adj)]
            assert sorted(listings) == sorted(listed)
            trees.clear()
            listings.clear()
        assert built == []

    @pytest.mark.parametrize("method", ["mw", "vc"])
    def test_solve_tw_lists_nothing_where_the_bracket_closes(self, capsys, monkeypatch, method):
        # watermelon(8,3): minor-min-width and the min-fill width are both 2,
        # so neither route lists its 65,690 PMCs
        listings = count_calls(monkeypatch, "_pmc_listing", [pmckit.solvers, pmckit.modular])
        walks = count_calls(monkeypatch, "pmcs_by_vc", [pmckit.cli])
        argv = ["solve", "tw", "--family", "watermelon", "--p", "8", "--q", "3", "--method", method]
        code, blob = run_json(capsys, argv)
        assert code == 0 and blob["results"]["counts"] == {"treewidth": 2}
        assert blob["params"] == {"vc": 10 if method == "vc" else None, "mw": 26 if method == "mw" else None}
        assert listings == [] and walks == []

    @pytest.mark.parametrize("k", [7, 13])
    def test_solve_mw_never_lists_a_whole_subgraph(self, capsys, monkeypatch, tmp_path, k):
        # a prime quotient of cycle, path and independent modules, below and
        # above 11 children: the weighted DP runs on the quotient, and no
        # catalog of the graph or of a subgraph is ever built
        g, _ = expand_graph(gnp(k, 0.45, 0), [(cycle(5), path(3), empty_graph(2), empty_graph(1))[i % 4]
                                              for i in range(k)])
        assert len(modular_decomposition(g).root.children) == k
        catalog = enumerate_by_mw(g)[1]
        want = {"treewidth": treewidth(g, catalog), "fill_in": min_fill_in(g, catalog)}
        gr = tmp_path / "g.gr"
        gr.write_text(write_gr(g))

        def refuse(*args, **kwargs):
            raise AssertionError("solve --method mw built a catalog")

        for mod in (pmckit.cli, pmckit.modular):
            monkeypatch.setattr(mod, "enumerate_by_mw", refuse)
        for problem, key in (("tw", "treewidth"), ("fillin", "fill_in")):
            code, blob = run_json(capsys, ["solve", problem, "--input", str(gr), "--method", "mw"])
            assert code == 0 and blob["results"]["counts"] == {key: want[key]}

    @pytest.mark.parametrize("argv, key, value", [
        (["solve", "fillin", "--family", "path", "--n", "120", "--method", "mw"], "fill_in", 0),
        (["solve", "tw", "--input", "STAR", "--method", "vc"], "treewidth", 1),
    ])
    def test_solve_chordal_lists_nothing_and_runs_no_bracket(self, capsys, monkeypatch, tmp_path,
                                                             argv, key, value):
        # path(120) is its own prime quotient and a 4,000-leaf star one vc
        # component; both are chordal, so their simplicial cores are empty
        star = tmp_path / "star.gr"
        star.write_text(write_gr(Graph.from_edges(4001, [(0, i) for i in range(1, 4001)])))
        listings = count_calls(monkeypatch, "_pmc_listing", [pmckit.solvers, pmckit.modular])
        brackets = count_calls(monkeypatch, "_tw_bracket", [pmckit.solvers, pmckit.cli])
        code, blob = run_json(capsys, [str(star) if a == "STAR" else a for a in argv])
        assert code == 0 and blob["results"]["counts"] == {key: value}
        assert listings == [] and brackets == []

    def test_solve_tw_brute_refuses_above_the_cap_where_the_bracket_closes(self, capsys):
        # the brute route stays the exhaustive referee: no bracket answers for it
        g = watermelon(8, 3)
        assert not bracket_open(g.adj) and g.n > 16
        argv = ["solve", "tw", "--family", "watermelon", "--p", "8", "--q", "3", "--method", "brute"]
        assert main(argv) == 2
        assert "oracle refused" in capsys.readouterr().err

    @pytest.mark.parametrize("method, keys", [
        ("vc", {"build", "vertex_cover", "separators", "pmcs"}),
        ("mw", {"build", "decompose", "lists"}),
        ("brute", {"build", "lists"}),
    ])
    def test_bench_lists_once(self, capsys, monkeypatch, method, keys):
        scans = count_calls(monkeypatch, "_oracle_scan", [pmckit.recognition])
        passes = count_calls(monkeypatch, "enumerate_by_mw", [pmckit.cli])
        code, blob = run_json(capsys, ["bench", "--family", "cube", "--method", method, "--what", "both"])
        assert code == 0
        assert set(blob["timings_ms"]) == keys
        assert blob["results"]["counts"] == {"separators": 14, "pmcs": 34}
        assert (len(scans), len(passes)) == {"vc": (0, 0), "mw": (0, 1), "brute": (1, 0)}[method]

    @pytest.mark.parametrize("what, counts", [("seps", {"separators": 14}), ("pmcs", {"pmcs": 34})])
    def test_bench_counts_what_was_asked(self, capsys, what, counts):
        for method in ("vc", "mw", "brute"):
            code, blob = run_json(capsys, ["bench", "--family", "cube", "--method", method, "--what", what])
            assert code == 0
            assert blob["results"]["counts"] == counts, method

    def test_count_both_mw_enumerates_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "enumerate_by_mw", [pmckit.cli])
        code, blob = run_json(capsys, ["count", "--what", "both", "--family", "cube", "--method", "mw"])
        assert code == 0
        assert blob["results"]["counts"] == {"separators": 14, "pmcs": 34}
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["count", "--family", "cube", "--method", "mw"],
        ["enum", "seps", "--family", "cube", "--method", "mw"],
    ])
    def test_mw_separators_build_no_catalog(self, capsys, monkeypatch, argv):
        collected = []
        collect = PmcCatalog.collect.__func__

        def counted_collect(cls, graph, candidates):
            collected.append(graph)
            return collect(cls, graph, candidates)

        monkeypatch.setattr(PmcCatalog, "collect", classmethod(counted_collect))
        listings = count_calls(monkeypatch, "_pmc_listing", [pmckit.modular])
        code, blob = run_json(capsys, argv)
        assert code == 0
        assert blob["results"]["counts"] == {"separators": 14}
        assert collected == [] and listings == []
