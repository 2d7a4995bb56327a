"""CLI surface: commands, exit codes, JSON schema, determinism."""

from __future__ import annotations

import json

import pytest

import pmckit.cli
import pmckit.modular
import pmckit.vc
from pmckit import cube, parse_gr
from pmckit.cli import main

TOP_KEYS = ["command", "graph", "params", "results", "timings_ms", "verified"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


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

    def test_brute_cap_refusal(self, capsys):
        assert main(["enum", "seps", "--family", "empty", "--n", "18", "--method", "brute"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


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

    def test_bench_deterministic_modulo_timings(self, capsys):
        argv = ["bench", "--family", "cube", "--method", "mw"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert first == second


class TestVerifyMismatch:
    def test_discrepancy_exits_1_with_witnesses(self, capsys, monkeypatch):
        # force a deliberate gap in one route; verify must catch and report it
        import pmckit.cli as cli_mod

        real = cli_mod.separators_by_vc

        def lossy(g, w, jobs=1):
            return real(g, w, jobs=jobs)[1:]

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

    def test_solve_mw_decomposes_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "modular_decomposition", [pmckit.cli, pmckit.modular])
        code, blob = run_json(capsys, ["solve", "tw", "--family", "cube", "--method", "mw"])
        assert code == 0 and blob["results"]["counts"]["treewidth"] == 3
        assert len(calls) == 1

    def test_count_both_mw_enumerates_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "enumerate_by_mw", [pmckit.cli])
        code, blob = run_json(capsys, ["count", "--what", "both", "--family", "cube", "--method", "mw"])
        assert code == 0
        assert blob["results"]["counts"] == {"separators": 14, "pmcs": 34}
        assert len(calls) == 1
