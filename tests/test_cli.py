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

    @pytest.mark.parametrize("cmd", (["trace"],), ids=" ".join)
    def test_unknown_backend_refused_at_parse_time(self, cmd, tmp_path,
                                                   capsys):
        """A removed or misspelt back end is a usage error naming the
        three back ends, before any workload is built."""
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


class TestTraceDagCli:
    """``repro trace merge|crit`` over hand-written campaign trace files
    (the synthetic-file helpers of ``tests/util/test_tracedag.py``)."""

    def test_merge_out_writes_the_dag_document(self, tmp_path, capsys):
        import json

        from repro.util import tracedag
        from tests.util.test_tracedag import _tree_files

        traces = tmp_path / "traces"
        traces.mkdir()
        files = _tree_files(traces)
        for no_spans in (False, True):
            out = tmp_path / f"dag-{no_spans}.json"
            want = tmp_path / f"want-{no_spans}.json"
            rc = repro_main(["trace", "merge", str(traces), "--out", str(out)]
                            + (["--no-spans"] if no_spans else []))
            assert rc == 0
            assert "DAG invariants: OK" in capsys.readouterr().out
            tracedag.write_dag(str(want), tracedag.merge_files(sorted(files)),
                               include_spans=not no_spans)
            assert json.loads(out.read_text()) == json.loads(want.read_text())
            assert ("spans" in json.loads(out.read_text())) is not no_spans

    def test_crit_prints_the_report(self, tmp_path, capsys):
        from repro.util import tracedag
        from tests.util.test_tracedag import _sibling_files

        (path,) = _sibling_files(tmp_path, [1.0] * 8 + [9.0])
        assert repro_main(["trace", "crit", str(tmp_path)]) == 0
        dag = tracedag.merge_files([path])
        out = capsys.readouterr().out
        assert out == dag.crit_report() + "\n"
        assert f"critical seconds: {dag.critical_seconds():.4f}" in out
        assert "9.0x expected (n=9)" in out  # the one anomaly

    @pytest.mark.parametrize("cmd", (
        ["perf"], ["perf", "report"], ["perf", "roofline"],
        ["perf", "record"], ["perf", "check"], ["perf", "crit"],
        ["perf", "watch"], ["trace", "dag"], ["reduce", "--metrics-file"],
        ["trace", "crit", "--metrics-file"],
    ), ids=" ".join)
    def test_retired_commands_are_usage_errors(self, cmd, tmp_path, capsys):
        """The deleted profiler, benchmark-trajectory, duplicate DAG and
        campaign monitor commands and flags are usage errors with exit
        status 2, before any workload is built: ``perf`` is an unknown
        subcommand (one stderr line), the flags are parse errors."""
        if cmd[0] == "perf":
            assert repro_main(cmd + ["--trace", str(tmp_path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("repro: unknown subcommand 'perf' "
                           "(expected reduce|trace)\n")
        else:
            with pytest.raises(SystemExit) as exc:
                repro_main(cmd + [str(tmp_path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {cmd[-1]}" in err
        assert list(tmp_path.iterdir()) == []


RETIRED_SERVICE_COMMANDS = ("serve", "submit", "cancel", "status")


class TestRetiredServiceCommands:
    """The campaign-service commands are gone: each is an unknown
    subcommand, reported as one usage line with exit status 2."""

    @staticmethod
    def _check_refusal(err):
        assert "Traceback" not in err
        assert err.count("\n") == 1, err
        assert "unknown subcommand" in err and "(expected reduce|trace)" in err

    @pytest.mark.parametrize("cmd", RETIRED_SERVICE_COMMANDS)
    def test_in_process(self, cmd, capsys):
        assert repro_main([cmd, "--help"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        self._check_refusal(err)
        assert repr(cmd) in err

    def test_as_a_process(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for cmd in RETIRED_SERVICE_COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", cmd, "--help"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 2, (cmd, proc.stderr)
            assert proc.stdout == ""
            self._check_refusal(proc.stderr)

    def test_help_lists_two_subcommands(self, capsys):
        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "{reduce,trace}" in out
        listed = {line.split()[0] for line in out.splitlines()[1:]
                  if line.startswith("  ") and not line.startswith("   ")}
        assert listed == {"reduce", "trace"}
        assert "perf" not in out
        for cmd in RETIRED_SERVICE_COMMANDS:
            assert cmd not in out

    def test_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.service  # noqa: F401


class TestRetiredStealSeed:
    """``--steal-seed`` seeded nothing (the stealing workflow's weighted
    schedule draws no random numbers) and is gone: passing it is an
    argparse usage error with exit status 2, before any work starts."""

    ARGV = ["trace", "--workload", "benzil", "--impl", "core",
            "--files", "2", "--scale", "0.0002",
            "--executor", "stealing", "--steal-seed", "7"]

    @staticmethod
    def _check_refusal(err):
        assert "Traceback" not in err
        assert err.startswith("usage: repro trace")
        assert "unrecognized arguments: --steal-seed 7" in err

    def test_in_process(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(self.ARGV + ["--out", str(tmp_path / "t.jsonl")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        self._check_refusal(err)
        assert list(tmp_path.iterdir()) == []

    def test_as_a_process(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGV,
             "--out", str(tmp_path / "t.jsonl")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        self._check_refusal(proc.stderr)
        assert list(tmp_path.iterdir()) == []
