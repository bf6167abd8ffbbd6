"""CLI surface tests."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_lists_experiments_and_protocols(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out
        assert "ss2pl" in out and "fcfs" in out

    def test_every_listed_protocol_is_one_protocol_flag_accepts(self, capsys):
        import repro.api as api

        assert main(["list"]) == 0
        section = capsys.readouterr().out.split("registered protocols:\n")[1]
        names = [
            line.split()[0]
            for line in section.split("\n\n")[0].splitlines()
        ]
        assert names == api.spec_names()
        for name in names:
            assert api.make_protocol(name).spec.name == name


class TestRun:
    def test_run_quick_table_experiments(self, capsys):
        assert main(["run", "E1", "E2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_run_quick_productivity(self, capsys):
        assert main(["run", "E9", "--quick"]) == 0
        assert "imperative" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs_clean(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "conflict serializable: True" in out
        assert "strict:                True" in out


class TestSql:
    def test_adhoc_query(self, capsys):
        assert main(["sql", "SELECT ta FROM requests WHERE ta < 5"]) == 0
        out = capsys.readouterr().out
        assert "ta" in out

    def test_sql_error_reported(self, capsys):
        assert main(["sql", "SELECT FROM"]) == 1
        assert "SQL error" in capsys.readouterr().err

    def test_listing1_via_cli(self, capsys):
        from repro.protocols.library import LISTING1_SQL

        assert main(["sql", LISTING1_SQL]) == 0
        out = capsys.readouterr().out
        assert "id" in out


class TestExperimentCoverage:
    def test_every_paper_artefact_has_an_experiment(self):
        # The paper has Table 1, Table 2 and Figure 2 plus the two
        # measured sections; all must be covered.
        assert {"E1", "E2", "E3", "E5", "E6"} <= set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id", ["E7", "E11"])
    def test_quick_runners_produce_reports(self, experiment_id, capsys):
        assert main(["run", experiment_id, "--quick"]) == 0
        assert len(capsys.readouterr().out) > 100


class TestRegistrySubcommands:
    def test_protocols_lists_specs_and_backends(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for spec_name in ("ss2pl", "fcfs", "priority-ceiling", "c2pl"):
            assert spec_name in out
        assert "backends:" in out and "dialects:" in out

    def test_backends_lists_engines(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for backend in ("compiled", "interpreted", "datalog", "sqlite",
                        "sqlfront", "imperative", "incremental"):
            assert backend in out


class TestBackendSelection:
    def test_bench_runs_named_pairing(self, capsys):
        assert main([
            "bench", "--protocol", "read-committed", "--backend", "datalog",
            "--clients", "10", "--steps", "4",
        ]) == 0
        assert "read-committed@datalog" in capsys.readouterr().out

    def test_bad_backend_names_valid_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--protocol", "ss2pl", "--backend", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "compiled" in err and "datalog" in err

    def test_bad_protocol_names_valid_choices(self, capsys):
        assert main(["bench", "--protocol", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown protocol 'bogus'" in err and "ss2pl" in err

    def test_unsupported_pairing_reports_dialects(self, capsys):
        assert main(["bench", "--protocol", "c2pl", "--backend",
                     "compiled"]) == 2
        assert "cannot run spec" in capsys.readouterr().err

    def test_run_backend_validated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E13", "--backend", "bogus"])
        assert excinfo.value.code == 2
        assert "valid backends" in capsys.readouterr().err

    def test_demo_on_alternate_backend(self, capsys):
        assert main(["demo", "--backend", "incremental"]) == 0
        out = capsys.readouterr().out
        assert "conflict serializable: True" in out
        assert "strict:                True" in out

    def test_demo_bad_protocol_names_valid_choices(self, capsys):
        assert main(["demo", "--protocol", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown protocol 'bogus'" in err and "ss2pl" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo"],
            ["demo", "--backend", "compiled"],
            ["bench"],
            ["serve"],
            ["run", "E14", "--quick"],
        ],
        ids=["demo", "demo-backend", "bench", "serve", "run"],
    )
    def test_malformed_adaptive_is_a_usage_error(self, argv, capsys):
        assert main(argv + ["--protocol", "adaptive:ss2pl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "adaptive protocol needs 'adaptive:<strict>,<relaxed>'"
        )
        assert len(err.splitlines()) == 1

    def test_demo_unsupported_pairing_reports_cleanly(self, capsys):
        assert main(["demo", "--protocol", "c2pl", "--backend",
                     "compiled"]) == 2
        assert "cannot run spec" in capsys.readouterr().err


class TestNormalizedFlags:
    """--protocol/--backend/--trigger behave identically everywhere."""

    @pytest.mark.parametrize("argv", [
        ["bench", "--trigger", "bogus"],
        ["scenario", "run", "smoke", "--trigger", "bogus"],
        ["serve", "--trigger", "bogus"],
        ["run", "E14", "--quick", "--trigger", "bogus"],
    ])
    def test_bad_trigger_rejected_everywhere(self, argv, capsys):
        assert main(argv) == 2
        assert "trigger" in capsys.readouterr().err

    def test_bench_supports_trigger_pacing(self, capsys):
        assert main([
            "bench", "--protocol", "ss2pl", "--backend", "compiled-delta",
            "--trigger", "fill:1", "--clients", "10", "--steps", "4",
        ]) == 0
        assert "ss2pl@compiled-delta" in capsys.readouterr().out

    def test_run_fails_fast_on_unsupported_pairing(self, capsys):
        # E13 drives ss2pl by default; sqlite cannot run c2pl — the run
        # must exit with the backend's declared reason before any
        # experiment output, not fall back silently.
        assert main([
            "run", "E13", "--quick", "--protocol", "c2pl",
            "--backend", "sqlite",
        ]) == 2
        captured = capsys.readouterr()
        assert "cannot run spec" in captured.err
        assert "E13 —" not in captured.out

    def test_run_notes_inapplicable_flags(self, capsys):
        assert main(["run", "E1", "--quick", "--trigger", "fill:4"]) == 0
        assert "--trigger fill:4 has no effect on E1" in (
            capsys.readouterr().out
        )

    def test_scenario_run_accepts_trigger_override(self, capsys):
        assert main([
            "scenario", "run", "smoke", "--trigger", "fill:20",
            "--check-invariants",
        ]) == 0
        assert "0 violations" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_smoke_zero_lost(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "serve.json"
        assert main([
            "serve", "--backend", "compiled-delta", "--requests", "120",
            "--sessions", "4", "--pipeline", "4", "--check-invariants",
            "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "invariants OK: no lost requests" in out
        payload = json.loads(out_json.read_text())
        stats = payload["stats"]
        assert stats["submitted"] >= 120
        assert stats["submitted"] == (
            stats["granted"] + sum(stats["rejected"].values())
        )
        assert payload["protocol"] == "ss2pl"
        assert payload["report"]["committed"] > 0

    def test_serve_unknown_workload(self, capsys):
        assert main(["serve", "--workload", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_serve_unsupported_pairing(self, capsys):
        assert main([
            "serve", "--protocol", "c2pl", "--backend", "compiled",
        ]) == 2
        assert "cannot run spec" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_sizing(self, capsys):
        assert main(["serve", "--requests", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err
