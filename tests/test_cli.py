"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.telemetry import read_profile


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_diagnose_defaults(self):
        args = build_parser().parse_args(["diagnose", "gzip"])
        args_dict = vars(args)
        assert args_dict["bug"] == "gzip"
        assert args_dict["debug_buffer"] == 60
        assert args_dict["seq_len"] == 5

    def test_unknown_bug_rejected(self, capsys):
        # Bug names resolve at run time now (the generated-name grammar
        # is open-ended), so a bad name is a clean error, not usage.
        rc = main(["diagnose", "not-a-bug"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown bug" in err and "gen-atomicity-pipeline-s7" in err

    def test_corpus_defaults(self):
        args = build_parser().parse_args(["corpus"])
        args_dict = vars(args)
        assert args_dict["seed"] == 7
        assert args_dict["size"] == 20
        assert args_dict["seq_len"] == 3
        assert args_dict["top"] == 5

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_version(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "lu" in out and "table5" in out

    def test_diagnose_finds_bug(self, capsys):
        rc = main(["diagnose", "gzip", "--train-runs", "6",
                   "--pruning-runs", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "root cause found : True" in out

    def test_trace_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        rc = main(["trace", "lu", "--seed", "2", "--out", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        from repro.trace.trace_io import read_trace
        run = read_trace(out_file)
        assert len(run.events) > 0

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "ACT" in capsys.readouterr().out

    def test_experiment_nn_design_fast(self, capsys):
        assert main(["experiment", "nn_design", "--preset", "fast"]) == 0
        assert "Mux" in capsys.readouterr().out

    def test_profile_command(self, capsys):
        assert main(["profile", "lu", "mcf"]) == 0
        out = capsys.readouterr().out
        assert "lu" in out and "mcf" in out and "Inter %" in out

    def test_list_mentions_generated_grammar(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gen-<archetype>-<motif>-s<seed>" in out
        assert "corpus" in out

    def test_diagnose_generated_bug(self, capsys):
        rc = main(["diagnose", "gen-order-pipeline-s7", "--seq-len", "3",
                   "--train-runs", "4", "--pruning-runs", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "root cause found : True" in out

    def test_trace_generated_program(self, tmp_path, capsys):
        out_file = tmp_path / "gen.jsonl"
        rc = main(["trace", "gen-off_by_one-regular-s3",
                   "--out", str(out_file)])
        assert rc == 0
        from repro.trace.trace_io import read_trace
        assert len(read_trace(out_file).events) > 0

    def test_trace_missing_out_dir(self, tmp_path, capsys):
        out_file = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        rc = main(["trace", "lu", "--out", str(out_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert not out_file.exists()


class TestTelemetryCLI:
    def test_diagnose_writes_profile(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        rc = main(["diagnose", "gzip", "--train-runs", "6",
                   "--pruning-runs", "8", "--telemetry", str(out)])
        assert rc == 0
        assert f"telemetry profile written to {out}" in capsys.readouterr().out
        profile = read_profile(out)
        assert profile["meta"]["command"] == "diagnose"
        counters = profile["counters"]
        assert counters["act.deps_processed"] > 0
        assert counters["diagnose.runs"] == 1
        # Declared catalog metrics appear even at zero.
        for name in ("act.mode_switches", "sim.fifo_stalls",
                     "debug_buffer.overflows"):
            assert name in counters
        (root,) = profile["spans"]
        assert root["name"] == "diagnose"
        assert {c["name"] for c in root["children"]} >= {
            "diagnose.offline_train", "diagnose.failure_run",
            "diagnose.deploy", "diagnose.pruning_runs", "diagnose.ranking"}

    def test_telemetry_missing_out_dir(self, tmp_path, capsys):
        out = tmp_path / "missing" / "profile.json"
        rc = main(["trace", "lu", "--out", str(tmp_path / "t.jsonl"),
                   "--telemetry", str(out)])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_profile_bug_renders_tables(self, capsys):
        rc = main(["profile", "gzip", "--train-runs", "6",
                   "--pruning-runs", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run profile: gzip" in out
        assert "phase" in out and "diagnose.ranking" in out
        assert "act.invalid_predictions" in out
        assert "sim.fifo_occupancy" in out

    def test_profile_load_missing_file(self, tmp_path, capsys):
        rc = main(["profile", "--load", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_profile_load_rerenders(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["diagnose", "gzip", "--train-runs", "6",
                     "--pruning-runs", "8", "--telemetry", str(out)]) == 0
        capsys.readouterr()
        assert main(["profile", "--load", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "diagnose.offline_train" in rendered
        assert "act.deps_processed" in rendered


class TestTracingCLI:
    ARGS = ["--train-runs", "4", "--pruning-runs", "6"]
    CORPUS = ["--seed", "3", "--size", "3", *ARGS]

    def test_tick_clock_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for prof in (a, b):
            assert main(["corpus", *self.CORPUS, "--jobs", "2",
                         "--telemetry", str(prof), "--tick-clock"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_profile(a)["meta"]["clock"] == "tick"

    def test_jobs_run_yields_one_stitched_tree(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["corpus", *self.CORPUS, "--jobs", "2",
                     "--telemetry", str(out), "--tick-clock"]) == 0
        profile = read_profile(out)
        (root,) = profile["spans"]
        assert root["name"] == "corpus"
        (fan_out,) = root["children"]
        tasks = fan_out["children"]
        # One worker-scoped task per program, stitched under the
        # dispatching span, each holding that program's diagnosis.
        assert len(tasks) == 3
        for task in tasks:
            assert task["name"] == "parallel.task"
            assert task["id"].startswith("b1.w")
            assert task["parent"] == fan_out["id"]
            assert [c["name"] for c in task["children"]] == ["diagnose"]

    def test_profile_flame_view(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["diagnose", "gzip", *self.ARGS,
                     "--telemetry", str(out)]) == 0
        capsys.readouterr()
        assert main(["profile", "--load", str(out), "--flame"]) == 0
        flame = capsys.readouterr().out
        assert "diagnose;diagnose.offline_train" in flame
        for line in flame.strip().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0

    def test_profile_critical_path_view(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["diagnose", "gzip", *self.ARGS,
                     "--telemetry", str(out)]) == 0
        capsys.readouterr()
        assert main(["profile", "--load", str(out),
                     "--critical-path"]) == 0
        rendered = capsys.readouterr().out
        assert "critical path (" in rendered
        assert "diagnose" in rendered and "% of root" in rendered


class TestFaultsCLI:
    ARGS = ["--train-runs", "4", "--pruning-runs", "6"]

    def test_faults_with_quarantine_report(self, tmp_path, capsys):
        report = tmp_path / "quarantine.json"
        rc = main(["diagnose", "gzip", *self.ARGS,
                   "--faults", "seed=3,corrupt_run_seeds=104",
                   "--quarantine-report", str(report)])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "quarantined [offline.collect] 104" in out
        import json
        doc = json.loads(report.read_text())
        assert doc["n_quarantined"] == 1
        assert doc["records"][0]["key"] == 104

    def test_bad_faults_spec_rejected(self, capsys):
        rc = main(["diagnose", "gzip", "--faults", "frobnicate=1"])
        assert rc == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        rc1 = main(["diagnose", "gzip", *self.ARGS,
                    "--checkpoint", str(ck)])
        first = capsys.readouterr().out
        assert ck.exists()
        rc2 = main(["diagnose", "gzip", *self.ARGS, "--resume", str(ck)])
        second = capsys.readouterr().out
        assert (rc1, first) == (rc2, second)

    def test_resume_requires_existing_checkpoint(self, tmp_path, capsys):
        rc = main(["diagnose", "gzip", "--resume",
                   str(tmp_path / "nope.json")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_mismatched_checkpoint_is_an_error(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        assert main(["diagnose", "gzip", *self.ARGS,
                     "--checkpoint", str(ck)]) in (0, 1)
        capsys.readouterr()
        rc = main(["diagnose", "gzip", "--train-runs", "5",
                   "--pruning-runs", "6", "--resume", str(ck)])
        assert rc == 2
        assert "fingerprint" in capsys.readouterr().err


class TestCorpusCLI:
    ARGS = ["--seed", "3", "--size", "2",
            "--train-runs", "4", "--pruning-runs", "6"]

    def test_corpus_reports_tables(self, capsys):
        rc = main(["corpus", *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Corpus diagnosis (seed 3, 2 programs)" in out
        assert "Accuracy by archetype and motif" in out
        assert "Recall (%)" in out and "Mean Rank" in out

    def test_corpus_out_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["corpus", *self.ARGS, "--out", str(a)]) == 0
        assert main(["corpus", *self.ARGS, "--jobs", "2",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        import json
        doc = json.loads(a.read_text())
        assert doc["overall"]["n_programs"] == 2
        assert doc["spec"]["seed"] == 3

    def test_corpus_telemetry_counters(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        rc = main(["corpus", *self.ARGS, "--telemetry", str(out)])
        assert rc == 0
        profile = read_profile(out)
        counters = profile["counters"]
        assert counters["corpus.programs"] == 2
        assert counters["diagnose.runs"] == 2
        assert "corpus.quarantined" in counters
        (root,) = profile["spans"]
        assert root["name"] == "corpus"

    def test_corpus_checkpoint_then_resume(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        assert main(["corpus", *self.ARGS, "--checkpoint", str(ck)]) == 0
        first = capsys.readouterr().out
        assert ck.exists()
        assert main(["corpus", *self.ARGS, "--resume", str(ck)]) == 0
        assert capsys.readouterr().out == first

    def test_corpus_resume_requires_existing_checkpoint(self, tmp_path,
                                                        capsys):
        rc = main(["corpus", "--resume", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_corpus_bad_faults_spec_rejected(self, capsys):
        rc = main(["corpus", "--faults", "frobnicate=1"])
        assert rc == 2
        assert "bad --faults spec" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import os
        import pathlib
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "gzip" in proc.stdout and "table5" in proc.stdout

    def test_closed_stdout_exits_quietly(self):
        # The reader is gone before the first write, as after
        # ``repro list | head -0``: every write hits a broken pipe.
        import os
        import pathlib
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "list"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""


class TestStartup:
    """``repro --version`` and ``import repro.cli`` stay below the numpy
    import: package re-exports, the pipeline and the telemetry
    exporters load only in the commands that use them."""

    HEAVY = ("numpy", "repro.engines", "repro.faults",
             "repro.core.diagnosis", "repro.telemetry.export")

    def _imported(self, *args):
        import os
        import pathlib
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-500:]
        lines = [ln for ln in proc.stderr.splitlines()
                 if ln.startswith("import time:")]
        return proc.stdout, {ln.rsplit("|", 1)[1].strip() for ln in lines}

    def test_version_loads_no_pipeline(self):
        from repro import __version__

        out, modules = self._imported("-m", "repro", "--version")
        assert out.strip() == f"repro {__version__}"
        assert "repro.cli" in modules
        assert not modules & set(self.HEAVY)

    def test_import_cli_loads_no_pipeline(self):
        _, modules = self._imported("-c", "import repro.cli")
        assert "repro.cli" in modules
        assert not modules & set(self.HEAVY)

    def test_package_exports_resolve_on_access(self):
        import repro
        import repro.core
        import repro.workloads
        from repro.core.diagnosis import diagnose_failure
        from repro.workloads.registry import get_bug

        assert repro.diagnose_failure is diagnose_failure
        assert repro.core.diagnose_failure is diagnose_failure
        assert repro.workloads.get_bug is get_bug
        assert set(repro.core.__all__) <= set(dir(repro.core))
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.core.nope


FAST = ["--train-runs", "2", "--pruning-runs", "2"]
SMALL_SWEEP = ["--size", "1", *FAST]
ENGINES_ERR = ("error: unknown engine 'bogus'; registered engines: "
               "nn, aviso, pbi, pset, ensemble")
# Files ``profile --load`` must refuse, created in each error-exit case's
# working directory (plus the directory ``dir``).
BAD_PROFILES = {
    "text.json": b"not json\n",
    "latin1.json": b'{"meta": {"program": "\xe9"}}\n',
    "list.json": b"[]\n",
    "profile.jsonl": (b'{"type": "meta", "meta": {}}\n'
                      b'{"type": "counter", "name": "c", "value": 1}\n'),
}


class TestErrorExits:
    """Every command error exits 2 with one exact line on stderr and
    nothing on stdout."""

    @pytest.mark.parametrize("argv, err", [
        pytest.param(
            ["diagnose", "gzip", "--engine", "pset", "--policy",
             "rate=0.5"],
            "error: --policy is NN-path-only; engine 'pset' does not "
            "support it", id="policy-nn-only"),
        pytest.param(["diagnose", "gzip", "--engine", "bogus"],
                     ENGINES_ERR, id="diagnose-unknown-engine"),
        pytest.param(["corpus", "--engine", "bogus"], ENGINES_ERR,
                     id="corpus-unknown-engine"),
        pytest.param(["shootout", "--engines", "bogus"], ENGINES_ERR,
                     id="shootout-unknown-engine"),
        pytest.param(["frontier", "--rates", "1.5", "--no-bench"],
                     "error: frontier rate=1.5 not in (0, 1]",
                     id="frontier-bad-rate"),
        pytest.param(["diagnose", "gzip", "--tick-clock"],
                     "error: --tick-clock only applies to the --telemetry "
                     "profile; give --telemetry PATH",
                     id="tick-clock-without-telemetry"),
        pytest.param(["profile", "--load", "text.json"],
                     "error: profile 'text.json' is not JSON (Expecting "
                     "value at line 1)", id="profile-load-not-json"),
        pytest.param(["profile", "--load", "latin1.json"],
                     "error: profile 'latin1.json' is not UTF-8 text",
                     id="profile-load-not-utf8"),
        pytest.param(["profile", "--load", "list.json"],
                     "error: profile 'list.json' is not a JSON object",
                     id="profile-load-not-an-object"),
        pytest.param(["profile", "--load", "profile.jsonl"],
                     "error: profile 'profile.jsonl' is not JSON (Extra "
                     "data at line 2)", id="profile-load-jsonl"),
        pytest.param(["profile", "--load", "dir"],
                     "error: profile 'dir' is not a file",
                     id="profile-load-directory"),
    ])
    def test_error_exit(self, argv, err, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, data in BAD_PROFILES.items():
            (tmp_path / name).write_bytes(data)
        (tmp_path / "dir").mkdir()
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", err + "\n")

    @pytest.mark.parametrize("argv, extra", [
        pytest.param(["trace", "lu", "extra"], "extra",
                     id="trace-extra-path"),
        pytest.param(["trace", "convert", "a", "b"], "a b",
                     id="trace-convert-two-paths"),
    ])
    def test_trace_extra_paths_rejected_at_parse_time(self, argv, extra,
                                                      capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {extra}" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["diagnose", "gzip", *FAST, "--top", "-1"],
        ["diagnose", "gzip", *FAST, "--top", "0"],
        ["corpus", *SMALL_SWEEP, "--top", "0"],
        ["shootout", *SMALL_SWEEP, "--no-bench", "--top", "0"],
        ["frontier", *SMALL_SWEEP, "--no-bench", "--rates", "1.0",
         "--fifo-sizes", "4", "--top", "0"],
        ["corpus", *SMALL_SWEEP, "--top", "-1"],
        ["shootout", *SMALL_SWEEP, "--no-bench", "--top", "-1"],
        ["corpus", "--top", "many"],
        ["corpus", *SMALL_SWEEP, "--jobs", "-3"],
        ["shootout", *SMALL_SWEEP, "--no-bench", "--jobs", "-1"],
        ["frontier", *SMALL_SWEEP, "--no-bench", "--jobs", "-1"],
        ["experiment", "table5", "--jobs", "-2"],
        ["corpus", "--jobs", "many"],
    ])
    def test_counts_below_one_rejected_at_parse_time(self, argv, capsys,
                                                     tmp_path,
                                                     monkeypatch):
        # --jobs takes 0 (all CPUs), so its floor is 0, not 1.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        floor = 0 if "--jobs" in argv else 1
        assert (f"expected an integer >= {floor}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_diagnose_takes_no_jobs(self, capsys):
        # One diagnosis runs serially; only the sweeps fan out.
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "gzip", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
