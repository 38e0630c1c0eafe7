"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        p = build_parser()
        for argv in (
            ["figure1"],
            ["figure2", "--d", "2", "--m", "6"],
            ["table1", "--d", "3"],
            ["sim-a", "--families", "layered"],
            ["sim-b"],
            ["ablation", "mu-rho"],
            ["schedule", "--family", "chain"],
        ):
            args = p.parse_args(argv)
            assert args.command == argv[0]

    @pytest.mark.parametrize("command", ("schedule", "bench", "fuzz", "serve"))
    def test_no_subcommand_takes_a_backend_flag(self, command, capsys):
        """The batch loop has one executor: nothing is left to select."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--backend", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", (
        ["--workers", "2"], ["--shard-policy", "hash"], ["--admission", "fifo"],
    ))
    def test_serve_is_one_process_with_fair_admission(self, flags, capsys):
        """No sharded router and no second admission order to select."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
        # the sweeps keep their own --workers
        assert build_parser().parse_args(["sim-a", "--workers", "2"]).workers == 2


def test_serve_path_imports_no_scipy():
    """``repro serve`` — and every supervisor and supervised worker
    process — never solves an LP, so booting one must not pay for scipy
    (0.5 s and ~50 MB of RSS per process) — nor, without
    ``--metrics-port``, for ``http.server`` (~2 MB).  In a subprocess:
    this one has both loaded.  It boots a real serve loop, on an empty
    stdin, so imports made on the way in count too."""
    code = (
        "import io, sys, repro.cli, repro.service.supervisor; "
        "sys.stdin = io.StringIO(''); "
        "rc = repro.cli.main(['serve']); "
        "sys.exit(rc or any(m == 'http.server' or m.split('.')[0] == 'scipy' "
        "for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1", "--d-min", "22", "--d-max", "24"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "22" in out

    def test_figure2(self, capsys):
        assert main(["figure2", "--d", "2", "3", "--m", "6"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 6" in out

    def test_table1(self, capsys):
        assert main(["table1", "--d", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "independent" in out

    def test_sim_a_small(self, capsys):
        assert main(["sim-a", "--families", "chain", "--d", "1",
                     "--n", "6", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "Sim-A" in out

    def test_sim_b_small(self, capsys):
        assert main(["sim-b", "--d", "1", "--n", "6", "--seeds", "0"]) == 0
        assert "Sim-B" in capsys.readouterr().out

    def test_schedule_ours(self, capsys):
        assert main(["schedule", "--family", "layered", "--n", "8",
                     "--d", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan=" in out
        assert "proven<=" in out

    def test_schedule_baseline_with_gantt(self, capsys):
        assert main(["schedule", "--family", "independent", "--n", "6",
                     "--algorithm", "sun_shelf", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "sun2018_shelf" in out
        assert "makespan = " in out  # gantt header

    def test_schedule_trace_output(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert main(["schedule", "--family", "chain", "--n", "5",
                     "--trace", str(trace_file)]) == 0
        data = json.loads(trace_file.read_text())
        assert data["version"] == 3
        assert len(data["jobs"]) == 5

    def test_schedule_sp_family_uses_fptas(self, capsys):
        assert main(["schedule", "--family", "outtree", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "allocator=sp" in out

    def test_ablation_commands(self, capsys):
        assert main(["ablation", "mu-rho", "--d", "2", "--n", "6"]) == 0
        assert "Ablation: mu-rho" in capsys.readouterr().out
        assert main(["ablation", "priority", "--d", "2", "--n", "6"]) == 0
        assert "Ablation: priority" in capsys.readouterr().out

    def test_schedule_new_baselines(self, capsys):
        for algo in ("backfill", "level_shelf"):
            assert main(["schedule", "--family", "layered", "--n", "8",
                         "--algorithm", algo]) == 0
            assert algo in capsys.readouterr().out

    def test_fuzz_parses(self):
        args = build_parser().parse_args(
            ["fuzz", "--quick", "--n", "8", "--max-cases", "10"]
        )
        assert args.command == "fuzz" and args.quick and args.max_cases == 10

    def test_fuzz_small_sweep(self, tmp_path, capsys):
        out_file = tmp_path / "failures.json"
        assert main(["fuzz", "--quick", "--n", "8", "--max-cases", "25",
                     "--failures", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "cases run" in out and "0 failure(s)" in out
        data = json.loads(out_file.read_text())
        assert data["failures"] == []
        assert data["cases_run"] + data["cases_skipped"] == 25

    def test_fuzz_scheduler_filter(self, capsys):
        assert main(["fuzz", "--quick", "--n", "6", "--schedulers", "min_area",
                     "--families", "chain", "--max-cases", "5"]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_fuzz_unknown_scheduler(self, capsys):
        assert main(["fuzz", "--schedulers", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_schedule_follow_streams_events(self, capsys):
        assert main(["schedule", "--family", "chain", "--n", "6",
                     "--scheduler", "min_area", "--follow"]) == 0
        out = capsys.readouterr().out
        assert out.count("start") >= 6 and out.count("finish") >= 6
        assert "streamed replay" in out and "makespan=" in out
        # events are emitted in nondecreasing virtual-time order
        times = [float(line.split("]")[0].strip("[ "))
                 for line in out.splitlines() if line.startswith("[")]
        assert times == sorted(times)

    def test_repro_backend_env_is_inert(self, capsys, monkeypatch):
        import warnings

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(["schedule", "--n", "12"]) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["schedule", "--n", "12"]) == 0
        assert capsys.readouterr() == unset

    @pytest.mark.parametrize(
        "flag, value",
        [("--d", "0"), ("--capacity", "0"), ("--n", "-3"), ("--seed", "-1")],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    def test_schedule_bad_argument_is_a_clean_error(self, flag, value, capsys):
        """Out-of-range workload arguments exit 2 with ``error:`` on stderr,
        as ``repro serve`` answers the same mistakes — the ``ValueError``
        does not escape ``main`` as a traceback."""
        assert main(["schedule", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_schedule_follow_needs_fixed_allocation(self, capsys):
        assert main(["schedule", "--family", "independent", "--n", "6",
                     "--scheduler", "malleable", "--follow"]) == 2
        assert "--follow" in capsys.readouterr().err

    def test_serve_stdio_end_to_end(self, tmp_path, capsys, monkeypatch):
        import io

        requests = [
            {"op": "submit", "jobs": [
                {"id": "a", "demand": [2, 1], "duration": 2.0},
                {"id": "b", "demand": [1, 1], "duration": 1.0, "preds": ["a"]},
            ]},
            {"op": "flush"},
            {"op": "checkpoint", "path": str(tmp_path / "ck.json")},
            {"op": "drain"},
            {"op": "validate"},
            {"op": "shutdown"},
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(json.dumps(r) for r in requests))
        )
        trace_path = tmp_path / "trace.json"
        assert main(["serve", "--capacities", "4", "4",
                     "--trace", str(trace_path)]) == 0
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(r["ok"] for r in responses)
        drain = next(r for r in responses if r["op"] == "drain")
        assert drain["completed"] == 2 and drain["makespan"] == 3.0
        assert next(r for r in responses if r["op"] == "validate")["valid"]
        assert json.loads(trace_path.read_text())["version"] == 3
        assert (tmp_path / "ck.json").exists()

    def test_serve_restore_resumes(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.service import SchedulingSession, save_session
        from repro.service.session import JobSpec

        s = SchedulingSession([4])
        s.submit([JobSpec("x", (2,), 2.0)])
        s.advance(1.0)
        ck = tmp_path / "resume.json"
        save_session(s, str(ck))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"op": "drain"}) + "\n")
        )
        assert main(["serve", "--restore", str(ck)]) == 0
        resp = json.loads(capsys.readouterr().out.splitlines()[0])
        assert resp["makespan"] == 2.0 and resp["completed"] == 1

    def test_serve_supervised_restore_into_a_journal_is_refused(
        self, tmp_path, capsys, monkeypatch
    ):
        """The supervisor hands ``--restore`` on to every child, so each
        restart would reload the checkpoint over the journal and drop
        every op it acknowledged.  Refused before anything is spawned."""
        from repro.service import SchedulingSession, save_session

        spawned = []
        monkeypatch.setattr("repro.service.supervisor.supervise",
                            lambda cmd, **kw: spawned.append(cmd) or 0)
        ck = tmp_path / "ck.json"
        save_session(SchedulingSession([4]), str(ck))
        journal = tmp_path / "j.jsonl"
        argv = ["serve", "--supervise", "--journal", str(journal),
                "--restore", str(ck)]
        assert main(argv) == 2
        assert not spawned and not journal.exists()
        err = capsys.readouterr().err
        # the hint: seed once with --restore, then supervise the journal
        assert f"--journal {journal} --restore {ck}" in err
        assert f"supervise with '--journal {journal}' alone" in err

    def test_serve_bad_restore(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["serve", "--restore", str(bad)]) == 2
        assert "cannot restore" in capsys.readouterr().err
