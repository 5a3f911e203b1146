"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep CLI runs out of the user's real result cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestCLI:
    def test_fig7_runs(self, capsys):
        assert main(["fig7", "--job-count", "100"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "[fig7:" in out

    def test_table2_with_job_override(self, capsys):
        assert main(["table2", "--job-count", "24"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "MCCK" in out

    def test_motivation_job_mapping(self, capsys):
        assert main(["motivation", "--job-count", "30"]) == 0
        out = capsys.readouterr().out
        assert "core utilization" in out.lower()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig7", "--jobs", "0"])

    def test_seed_flag(self, capsys):
        main(["fig7", "--job-count", "50", "--seed", "7"])
        first = capsys.readouterr().out
        main(["fig7", "--job-count", "50", "--seed", "7"])
        second = capsys.readouterr().out
        # Deterministic output modulo the timing lines.
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("[")]
        assert strip(first) == strip(second)

    def test_no_cache_recomputes(self, capsys):
        main(["fig7", "--job-count", "50", "--no-cache"])
        main(["fig7", "--job-count", "50", "--no-cache"])
        out = capsys.readouterr().out
        assert "0 computed" not in out

    def test_warm_cache_rerun_serves_cells(self, capsys):
        main(["table2", "--job-count", "24"])
        capsys.readouterr()
        main(["table2", "--job-count", "24"])
        out = capsys.readouterr().out
        assert "(0 computed" in out

    def test_clear_cache_flag(self, capsys):
        main(["fig7", "--job-count", "50"])
        capsys.readouterr()
        assert main(["fig7", "--job-count", "50", "--clear-cache"]) == 0
        out = capsys.readouterr().out
        assert "(1 computed, 0 cached)" in out

    def test_save_writes_artifact(self, tmp_path, monkeypatch, capsys):
        results = tmp_path / "results"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
        assert main(["fig7", "--job-count", "50", "--save"]) == 0
        saved = results / "fig7.txt"
        assert saved.exists()
        assert "Fig. 7" in saved.read_text()


class TestObservabilityFlags:
    """--profile / --trace / --metrics versus explicit parallelism."""

    def test_profile_with_parallel_jobs_is_an_error(self, capsys):
        # --profile used to silently discard an explicit --jobs 2.
        with pytest.raises(SystemExit):
            main(["fig7", "--job-count", "50", "--profile", "--jobs", "2"])
        assert "--profile" in capsys.readouterr().err

    def test_trace_with_parallel_jobs_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "fig7", "--job-count", "50",
                "--trace", str(tmp_path / "t.json"), "--jobs", "4",
            ])
        assert "--trace" in capsys.readouterr().err

    def test_metrics_with_parallel_jobs_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "fig7", "--job-count", "50",
                "--metrics", str(tmp_path / "m.txt"), "--jobs", "2",
            ])
        assert "--metrics" in capsys.readouterr().err

    def test_explicit_single_job_is_compatible(self, capsys):
        assert main(["fig7", "--job-count", "50", "--profile", "--jobs", "1"]) == 0
        assert "sim profiler" in capsys.readouterr().out

    def test_ext_scale_profile_counts_its_runs(self, capsys):
        # X7 profiles each pool size privately; those counts must reach
        # the CLI's table instead of leaving it all zeros.
        assert main(["ext-scale", "--job-count", "8", "--profile"]) == 0
        out = capsys.readouterr().out
        total = next(
            line for line in out.splitlines() if line.startswith("total ")
        )
        scheduled, fired = (
            int(field.replace(",", "")) for field in total.split()[1:3]
        )
        assert fired > 0 and scheduled >= fired
        assert "negotiation cycles" in out

    def test_trace_writes_valid_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["table2", "--job-count", "12", "--trace", str(path)]) == 0
        assert "[trace:" in capsys.readouterr().out
        import json

        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" for e in events)

    def test_audit_run_reports_clean(self, capsys):
        assert main(["table2", "--job-count", "12", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "[audit:" in out
        assert "0 violation(s)" in out

    def test_audit_with_parallel_jobs_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig7", "--job-count", "50", "--audit", "--jobs", "4"])
        assert "--audit" in capsys.readouterr().err

    def test_metrics_writes_summary(self, tmp_path, capsys):
        path = tmp_path / "metrics.txt"
        assert main(["table2", "--job-count", "12", "--metrics", str(path)]) == 0
        assert "[metrics:" in capsys.readouterr().out
        text = path.read_text()
        assert "schedd.jobs_submitted" in text
        assert "observability summary" in text


class TestNetworkFlags:
    """--net-loss / --net-delay / --net-partition and the consumer guard."""

    def test_netchaos_with_flags_runs(self, capsys):
        assert main([
            "ext-netchaos", "--job-count", "12",
            "--net-loss", "0.05",
            "--net-delay", "0.02",
            "--net-partition", "10:20:startd:*",
        ]) == 0
        out = capsys.readouterr().out
        assert "X6" in out
        assert "retrans" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--net-loss", "0.05"],
            ["--net-delay", "0.1"],
            ["--net-partition", "10:20:*"],
            ["--fault-rate", "2.0"],
        ],
    )
    def test_flag_without_consumer_is_an_error(self, flags, capsys):
        # Satellite: a fabric/fault knob passed with an experiment that
        # would silently ignore it must fail loudly, not run.
        with pytest.raises(SystemExit):
            main(["fig7", "--job-count", "50", *flags])
        assert flags[0] in capsys.readouterr().err

    def test_bad_net_loss_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["ext-netchaos", "--net-loss", "1.5"])
        assert "--net-loss" in capsys.readouterr().err

    def test_bad_partition_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["ext-netchaos", "--net-partition", "bogus"])
        assert "--net-partition" in capsys.readouterr().err
