"""End-to-end tests of the repro-reduce command line."""

import pytest

from repro.cli import main, repro_main


@pytest.fixture(autouse=True)
def bench_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DATA", str(tmp_path))


class TestCli:
    def test_minivates_default(self, capsys):
        rc = main(["--workload", "benzil", "--scale", "0.0002", "--files", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MiniVATES" in out
        assert "MDNorm" in out
        assert "cross-section" in out

    def test_all_with_check(self, capsys):
        rc = main([
            "--workload", "benzil", "--impl", "all", "--scale", "0.0002",
            "--files", "2", "--check",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identical histograms" in out
        assert "Garnet" in out and "C++ proxy" in out

    def test_mi100_profile(self, capsys):
        rc = main([
            "--workload", "benzil", "--scale", "0.0002", "--files", "2",
            "--device-profile", "mi100",
        ])
        assert rc == 0
        assert "MI100-class" in capsys.readouterr().out

    def test_bad_arguments_exit(self):
        with pytest.raises(SystemExit):
            main(["--workload", "diamond"])

    @pytest.mark.parametrize("cmd", (
        ["trace"], ["perf", "report"], ["perf", "roofline"],
        ["perf", "record"], ["submit", "--tenant", "t"],
    ), ids=" ".join)
    def test_unknown_backend_refused_at_parse_time(self, cmd, tmp_path,
                                                   capsys):
        """A removed or misspelt back end is a usage error naming the
        three back ends, before any workload is built or ticket
        spooled."""
        spool = tmp_path / "spool"
        if cmd[0] == "submit":
            cmd = cmd + ["--spool", str(spool)]
        with pytest.raises(SystemExit) as exc:
            repro_main(cmd + ["--backend", "multiprocess"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'multiprocess'" in err
        for name in ("serial", "threads", "vectorized"):
            assert repr(name) in err
        assert list(tmp_path.iterdir()) == []

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "--workload", "benzil", "--scale", "0.0002", "--files", "2",
            "--json", str(out),
        ])
        assert rc == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["runs"][0]["label"].startswith("MiniVATES")
        assert payload["runs"][0]["stages_s"]["MDNorm"] > 0
        assert 0 <= payload["runs"][0]["coverage"] <= 1

    def test_peak_report(self, capsys):
        rc = main([
            "--workload", "benzil", "--scale", "0.0002", "--files", "2",
            "--peaks", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strongest" in out

    def test_plan_execution(self, tmp_path, capsys):
        """A workload directory + generated plan runs through --plan."""
        import json

        from repro.bench.workloads import benzil_corelli, build_workload

        data = build_workload(benzil_corelli(scale=0.0002, n_files=2))
        plan_doc = {
            "runs": data.md_paths,
            "flux": data.flux_path,
            "vanadium": data.vanadium_path,
            "instrument": data.instrument_path,
            "point_group": "321",
            "grid": {
                "projections": [[1, 1, 0], [1, -1, 0], [0, 0, 1]],
                "minimum": [-6.0, -6.0, -0.5],
                "maximum": [6.0, 6.0, 0.5],
                "bins": [41, 41, 1],
            },
            "implementation": "cpp",
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc))
        out = tmp_path / "reduced.h5"
        rc = main(["--plan", str(plan_path), "--save", str(out)])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "running plan" in captured
        assert "cross-section" in captured

    def test_bixbyite_workload(self, capsys):
        rc = main([
            "--workload", "bixbyite", "--impl", "cpp", "--scale", "0.0002",
            "--files", "1",
        ])
        assert rc == 0
        assert "C++ proxy" in capsys.readouterr().out
